"""Digital feedforward controller emulation: fixed-point arithmetic, the
rational exponential used by the decay tracker, kick-angle wrapping, the
LMG control law, and the kicked-top pulse schedule.

Fixed-point arithmetic is done on raw integer words: the ``_fxp_*`` helpers
map ints to ints under one format's fraction bits and raw range.
``FixedPointValue`` (a raw word tagged with its format) is the boundary
type that callers pass in and get back."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (1 <= self.int_bits <= self.word_bits <= 64):
            raise ValueError("need 1 <= int_bits <= word_bits <= 64")

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


DEFAULT_FXP = FixedPointFormat()


@dataclass(frozen=True)
class FixedPointValue:
    raw: int
    fmt: FixedPointFormat

    @property
    def value(self) -> float:
        return self.raw * self.fmt.step

    @property
    def saturated(self) -> bool:
        return self.raw in (self.fmt.raw_min, self.fmt.raw_max)


# Raw-integer arithmetic: operands and results are raw words of a format
# with f fraction bits and raw range [lo, hi].


def _sat(raw: int, lo: int, hi: int) -> int:
    return lo if raw < lo else hi if raw > hi else raw


def _fxp_add(a: int, b: int, lo: int, hi: int) -> int:
    return _sat(a + b, lo, hi)


def _fxp_mul(a: int, b: int, f: int, lo: int, hi: int) -> int:
    # round to nearest on the dropped fraction bits
    return _sat((a * b + (1 << (f - 1))) >> f, lo, hi)


def _fxp_div(a: int, b: int, f: int, lo: int, hi: int) -> int:
    if b == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    sign = 1 if (a >= 0) == (b >= 0) else -1
    q, r = divmod(abs(a) << f, abs(b))
    if 2 * r >= abs(b):
        q += 1
    return _sat(sign * q, lo, hi)


def _round_raw(x: float, f: int) -> int:
    return math.floor(x * (1 << f) + 0.5)


def _quantize_raw(x: float, f: int, lo: int, hi: int) -> int:
    return _sat(_round_raw(x, f), lo, hi)


def fxp_fits(x: float, fmt: FixedPointFormat) -> bool:
    """Whether x rounds to a raw word inside fmt's range, so that
    fxp_quantize does not saturate it."""
    return fmt.raw_min <= _round_raw(x, fmt.frac_bits) <= fmt.raw_max


def fxp_quantize(x: float, fmt: FixedPointFormat = DEFAULT_FXP) -> FixedPointValue:
    """Round-to-nearest quantization with silent saturation at the ends."""
    return FixedPointValue(
        _quantize_raw(x, fmt.frac_bits, fmt.raw_min, fmt.raw_max), fmt
    )


def _pade_ratio_float(x: float) -> float:
    num = 0.0
    den = 0.0
    for c in reversed(_PADE_NUM):
        num = num * x + c
        den = den * (-x) + c
    if den <= 0:
        raise ValueError("rational exponential out of domain")
    return num / den


def pade_exp(x):
    """Rational [5,5] approximation of exp(x) for x <= 0.

    Accepts a float or a FixedPointValue (evaluated in that format).
    Arguments below -1 are range-reduced by halving and squaring so the
    core rational is only ever evaluated on [-1, 0].
    """
    if isinstance(x, FixedPointValue):
        return _pade_exp_fxp(x)
    if x > 0:
        raise ValueError("pade_exp is defined for x <= 0")
    halvings = 0
    while x < -1.0:
        x *= 0.5
        halvings += 1
    r = _pade_ratio_float(x)
    for _ in range(halvings):
        r *= r
    return r


def _pade_exp_fxp(x: FixedPointValue) -> FixedPointValue:
    fmt = x.fmt
    f, lo, hi, step = fmt.frac_bits, fmt.raw_min, fmt.raw_max, fmt.step
    xr = x.raw
    if xr > 0:
        raise ValueError("pade_exp is defined for x <= 0")
    halvings = 0
    while xr * step < -1.0:
        # arithmetic shift with round-to-nearest
        xr = (xr + 1) >> 1
        halvings += 1
    num = den = 0
    for c in reversed(_PADE_NUM):
        cq = _quantize_raw(c, f, lo, hi)
        num = _fxp_add(_fxp_mul(num, xr, f, lo, hi), cq, lo, hi)
        den = _fxp_add(_fxp_mul(den, -xr, f, lo, hi), cq, lo, hi)
    if den <= 0:
        raise ValueError("rational exponential out of domain")
    r = _fxp_div(num, den, f, lo, hi)
    for _ in range(halvings):
        r = _fxp_mul(r, r, f, lo, hi)
    return FixedPointValue(r, fmt)


def bmod2(x: FixedPointValue) -> FixedPointValue:
    """sign(x) * mod(|x|, 2), done by masking the fraction bits plus the
    lowest integer bit of |x| and reapplying the sign."""
    mask = (1 << (x.fmt.frac_bits + 1)) - 1
    mag = abs(x.raw) & mask
    return FixedPointValue(-mag if x.raw < 0 else mag, x.fmt)


def kick_angle(m_norm: float, k: float, fmt: FixedPointFormat | None = None) -> float:
    """Wrapped kick angle pi * bmod2(k * m_norm / pi), equivalent (mod 2pi,
    sign-matched) to the raw angle k * m_norm.  Result in (-2pi, 2pi)."""
    m_norm = max(-1.0, min(1.0, m_norm))
    x = k * m_norm / math.pi
    if fmt is None:
        wrapped = math.copysign(math.fmod(abs(x), 2.0), x)
    else:
        wrapped = bmod2(fxp_quantize(x, fmt)).value
    return math.pi * wrapped


def decay_estimate(
    j0: float, half_time: float, t: float, fmt: FixedPointFormat | None = None
) -> float:
    """Tracked spin length j0 * 2^(-t/half_time) via the rational exponential."""
    if half_time <= 0:
        raise ValueError("half_time must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    x = -t * math.log(2.0) / half_time
    if fmt is None:
        return j0 * pade_exp(x)
    return j0 * pade_exp(fxp_quantize(x, fmt)).value


def lmg_control(m: float, j_est: float, p) -> float:
    """Feedback z-rotation rate k_nl * clamp(m / j_est, -1, 1), saturated at
    the drive-rate cap DEFAULT_RATE_CAP."""
    if j_est <= 0:
        raise ValueError("j_est must be > 0")
    z_est = max(-1.0, min(1.0, m / j_est))
    rate = p.k_nl * z_est
    return max(-DEFAULT_RATE_CAP, min(DEFAULT_RATE_CAP, rate))


@dataclass(frozen=True)
class QktSchedule:
    t_linear: float
    t_gap: float
    t_kick: float
    n_steps: int

    @property
    def period(self) -> float:
        return self.t_linear + self.t_gap + self.t_kick


def qkt_schedule(
    t_linear: float = 40e-6,
    t_gap: float = 6e-6,
    t_kick: float = 2e-6,
    n_steps: int = 25,
    sample_period: float = 2e-6,
) -> QktSchedule:
    for name, t in (("t_linear", t_linear), ("t_gap", t_gap), ("t_kick", t_kick)):
        if t <= 0:
            raise ValueError(f"{name} must be > 0")
        ratio = t / sample_period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"{name} must be a multiple of the sample period")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return QktSchedule(t_linear, t_gap, t_kick, n_steps)
