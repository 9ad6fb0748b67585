"""Digital feedforward controller emulation: fixed-point arithmetic, the
rational exponential used by the decay tracker, kick-angle wrapping, the
LMG control law, and the kicked-top schedule, laid out by ``loop_sim._kt_layout``.

Each control law is stated once, elementwise on arrays: ``kick_angle`` for
the kicked top and ``lmg_control`` for the LMG loop, whose unchecked core
the LMG kernel calls once per transport-delay window.

Fixed-point arithmetic is done on arrays of raw integer words, elementwise:
the ``_fxp_*`` helpers map words to words under one format's fraction bits
and raw range, so an ensemble's tracked spin lengths, or every column's
kick angle, are one call.  Each element equals the arithmetic on it alone
in Python ints.  The words are ``int64`` up to 32 bits
(``FixedPointFormat.dtype``): a product of two raw words, or a dividend
``|a| << frac_bits``, is then below 2^62, so nothing overflows.  Wider
words are Python ints in object arrays, exact at any width.  Inside, the
arrays are flat (1-d), so a scalar is an array of one element; the public
functions give back the shape they are given.  ``FixedPointValue`` (raw
words tagged with their format) is the boundary type that callers pass in
and get back."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# [5,5] rational approximation of exp(x); denominator has alternating signs
_PADE_NUM = (1.0, 1.0 / 2.0, 1.0 / 9.0, 1.0 / 72.0, 1.0 / 1008.0, 1.0 / 30240.0)

DEFAULT_RATE_CAP = 2 * math.pi * 56.7e3  # 90% of the 63 kHz drive limit, rad/s


@dataclass(frozen=True, kw_only=True)
class FixedPointFormat:
    """A signed two's-complement word (word_bits, int_bits), keyword-only;
    int_bits includes the sign bit."""

    word_bits: int = 32
    int_bits: int = 4

    def __post_init__(self) -> None:
        if not (1 <= self.int_bits < self.word_bits <= 64):
            raise ValueError("need 1 <= int_bits < word_bits <= 64, at least one fraction bit")

    @property
    def frac_bits(self) -> int:
        return self.word_bits - self.int_bits

    @property
    def step(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def raw_max(self) -> int:
        return (1 << (self.word_bits - 1)) - 1

    @property
    def raw_min(self) -> int:
        return -(1 << (self.word_bits - 1))

    @property
    def dtype(self):
        """The array dtype of raw words: int64 up to 32 bits, where every
        intermediate stays below 2^62 (module docstring), else Python ints."""
        return np.int64 if self.word_bits <= 32 else object


DEFAULT_FXP = FixedPointFormat()


@dataclass(frozen=True)
class FixedPointValue:
    """Raw words of fmt: an int, or an array of them."""

    raw: object
    fmt: FixedPointFormat

    @property
    def value(self):
        return np.asarray(self.raw, dtype=float) * self.fmt.step

    @property
    def saturated(self):
        return (self.raw == self.fmt.raw_min) | (self.raw == self.fmt.raw_max)


# Raw-word arithmetic: operands and results are 1-d arrays of fmt.dtype (or
# broadcast against them), elementwise.


def _words(raw, fmt: FixedPointFormat) -> np.ndarray:
    return np.asarray(raw, dtype=fmt.dtype).reshape(-1)


def _shaped(a: np.ndarray, shape):
    """a in shape; the 0-d shape gives a scalar."""
    return a.reshape(shape)[()]


def _sat(raw, fmt: FixedPointFormat):
    return np.minimum(np.maximum(raw, fmt.raw_min), fmt.raw_max)


def _fxp_add(a, b, fmt: FixedPointFormat):
    return _sat(a + b, fmt)


def _fxp_mul(a, b, fmt: FixedPointFormat):
    # round to nearest on the dropped fraction bits
    f = fmt.frac_bits
    return _sat((a * b + (1 << (f - 1))) >> f, fmt)


def _fxp_div(a, b, fmt: FixedPointFormat):
    # |a| / |b| rounded half away from zero, then the sign
    if np.any(b == 0):
        raise ZeroDivisionError("fixed-point division by zero")
    n, d = abs(a) << fmt.frac_bits, abs(b)
    q = n // d + (2 * (n % d) >= d)
    return _sat(np.where((a >= 0) == (b >= 0), q, -q), fmt)


def _round_raw(x: np.ndarray, f: int) -> np.ndarray:
    """floor(x * 2^f + 0.5) as integral floats, for a 1-d float array x.
    NaN and infinity, also from x * 2^f overflowing, raise as math.floor
    raises on them, with no numpy warning."""
    # scaling by 2^f is exact, so it overflows exactly from |x| = 2^(1024 - f)
    # on: checking that bound first needs no errstate block, whose entry and
    # exit cost about as much as the whole check on one element
    fits = np.abs(x) < 2.0 ** (1024 - f)
    if np.count_nonzero(fits) < x.size:
        math.floor(float(x[~fits][0]) * 2.0**f + 0.5)  # Python floats: no warning
    return np.floor(x * 2.0**f + 0.5)


_TO_INT = np.frompyfunc(int, 1, 1)


def _quantize_raw(x: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    # x is a 1-d float array.  Saturate in float first, since a float beyond
    # +-2^63 has no int64; past 53 bits float(raw_max) rounds up to
    # 2^(word_bits-1), so the Python ints are saturated again
    y = _sat(_round_raw(x, fmt.frac_bits), fmt)
    return y.astype(np.int64) if fmt.dtype is np.int64 else _sat(_TO_INT(y), fmt)


def fxp_fits(x, fmt: FixedPointFormat):
    """Whether x rounds to a raw word inside fmt's range, so that
    fxp_quantize does not saturate it; elementwise.  An x whose scaled
    value x * 2^frac_bits is not finite does not fit."""
    with np.errstate(over="ignore"):
        y = np.floor(np.multiply(x, 2.0**fmt.frac_bits) + 0.5)
    edge = -float(fmt.raw_min)  # raw_max + 1, exact
    return (y >= -edge) & (y < edge)


def fxp_quantize(x, fmt: FixedPointFormat = DEFAULT_FXP) -> FixedPointValue:
    """Round-to-nearest quantization with silent saturation at the ends,
    elementwise."""
    x = np.asarray(x, dtype=float)
    return FixedPointValue(_shaped(_quantize_raw(x.reshape(-1), fmt), x.shape), fmt)


def _halved(x: np.ndarray, below, halve):
    """Halve each element of x while below(x) holds there: the reduced x and
    each element's number of halvings."""
    n = np.zeros(x.shape, dtype=int)
    more = below(x)
    while more.any():
        x = np.where(more, halve(x), x)
        n += more
        more = below(x)
    return x, n


def _squared(r: np.ndarray, n: np.ndarray, square):
    """Square each element of r as many times as n says there."""
    for i in range(n.max(initial=0)):
        r = np.where(n > i, square(r), r)
    return r


def pade_exp(x):
    """Rational [5,5] approximation of exp(x) for x <= 0, elementwise.

    Accepts floats or a FixedPointValue (evaluated in that format).
    Arguments below -1 are range-reduced by halving and squaring so the
    core rational is only ever evaluated on [-1, 0].  Horner's rule takes a
    separate multiply and add, so each element rounds as Python floats do.
    """
    if isinstance(x, FixedPointValue):
        return _pade_exp_fxp(x)
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1)
    # halving -inf would never reach [-1, 0]
    if np.any(x > 0) or not np.isfinite(x).all():
        raise ValueError("pade_exp is defined for finite x <= 0")
    x, halvings = _halved(x, lambda v: v < -1.0, lambda v: v * 0.5)
    num = den = np.zeros_like(x)
    for c in reversed(_PADE_NUM):
        num = num * x + c
        den = den * (-x) + c
    if np.any(den <= 0):
        raise ValueError("rational exponential out of domain")
    return _shaped(_squared(num / den, halvings, lambda r: r * r), shape)


def _pade_exp_fxp(x: FixedPointValue) -> FixedPointValue:
    fmt = x.fmt
    xr = _words(x.raw, fmt)
    if np.any(xr > 0):
        raise ValueError("pade_exp is defined for x <= 0")
    # arithmetic shift with round-to-nearest
    xr, halvings = _halved(xr, lambda r: r * fmt.step < -1.0, lambda r: (r + 1) >> 1)
    num = den = np.zeros_like(xr)
    for cq in _quantize_raw(np.array(_PADE_NUM[::-1]), fmt):
        num = _fxp_add(_fxp_mul(num, xr, fmt), cq, fmt)
        den = _fxp_add(_fxp_mul(den, -xr, fmt), cq, fmt)
    if np.any(den <= 0):
        raise ValueError("rational exponential out of domain")
    r = _squared(_fxp_div(num, den, fmt), halvings, lambda r: _fxp_mul(r, r, fmt))
    return FixedPointValue(_shaped(r, np.shape(x.raw)), fmt)


def bmod2(x: FixedPointValue) -> FixedPointValue:
    """sign(x) * mod(|x|, 2), done by masking the fraction bits plus the
    lowest integer bit of |x| and reapplying the sign; elementwise."""
    raw = np.asarray(x.raw, dtype=x.fmt.dtype)
    flat = raw.reshape(-1)
    mag = abs(flat) & ((1 << (x.fmt.frac_bits + 1)) - 1)
    np.negative(mag, out=mag, where=flat < 0)
    return FixedPointValue(_shaped(mag, raw.shape), x.fmt)


def kick_angle(m_norm, k, fmt: FixedPointFormat | None = None):
    """Wrapped kick angle pi * bmod2(k * m_norm / pi), equivalent (mod 2pi,
    sign-matched) to the raw angle k * m_norm.  Result in (-2pi, 2pi).
    Elementwise on arrays m_norm and k, each element equal to the call on
    it alone: fmod is exact, and so is the fixed-point wrap on raw words."""
    x = k * np.minimum(np.maximum(m_norm, -1.0), 1.0) / math.pi  # np.clip, faster
    if fmt is None:
        wrapped = np.fmod(x, 2.0)  # sign(x) * mod(|x|, 2), exactly
    else:
        wrapped = bmod2(fxp_quantize(x, fmt)).value
    return math.pi * wrapped


def decay_exponent(t, half_time: float):
    """x = -t ln2 / half_time in the tracked spin length j0 * e^x."""
    return -t * math.log(2.0) / half_time


def decay_estimate(j0: float, half_time: float, t, fmt: FixedPointFormat | None = None):
    """Tracked spin length j0 * 2^(-t/half_time) via the rational
    exponential, elementwise on an array of times t."""
    if half_time <= 0:
        raise ValueError("half_time must be > 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    x = decay_exponent(t, half_time)
    if fmt is None:
        return j0 * pade_exp(x)
    return j0 * pade_exp(fxp_quantize(x, fmt)).value


# 0-d bounds: numpy converts a Python float on every call
_CAP_LO, _CAP_HI = np.array(-DEFAULT_RATE_CAP), np.array(DEFAULT_RATE_CAP)


def _lmg_rate(m, j_est, k_nl, out=None):
    """``lmg_control`` without its check: the caller ensures j_est > 0, as
    ``loop_sim.shared_columns`` does once per batch.  Writes into out when
    given."""
    # clamp(m, -j, j) / j is clamp(m / j, -1, 1) for j > 0, bits included,
    # and cannot overflow, so a huge m clamps to +-1
    z_est = np.minimum(np.maximum(m, -j_est), j_est) / j_est
    return np.minimum(np.maximum(k_nl * z_est, _CAP_LO), _CAP_HI, out=out)


def lmg_control(m, j_est, k_nl):
    """The LMG feedback law: the z-rotation rate k_nl * clamp(m / j_est, -1,
    1), saturated at the drive-rate cap DEFAULT_RATE_CAP; elementwise and
    broadcast over measurements m, tracked spin lengths j_est > 0 and gains
    k_nl.  m is clamped to +-j_est before the division, so no ratio
    overflows.  ValueError if some j_est <= 0."""
    if np.any(np.asarray(j_est) <= 0):
        raise ValueError("j_est must be > 0")
    return _lmg_rate(m, j_est, k_nl)


@dataclass(frozen=True)
class QktSchedule:
    """n_steps kicked-top periods of linear, gap and kick segments (s)."""

    t_linear: float = 40e-6
    t_gap: float = 6e-6
    t_kick: float = 2e-6
    n_steps: int = 25

    def __post_init__(self) -> None:
        for name in ("t_linear", "t_gap", "t_kick"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def period(self) -> float:
        return self.t_linear + self.t_gap + self.t_kick
