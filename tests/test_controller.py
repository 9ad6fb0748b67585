import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.controller import (
    DEFAULT_FXP,
    DEFAULT_RATE_CAP,
    FixedPointFormat,
    FixedPointValue,
    QktSchedule,
    bmod2,
    decay_estimate,
    fxp_fits,
    fxp_quantize,
    kick_angle,
    lmg_control,
    pade_exp,
)
from spinloop.models import LmgParams
from spinloop.spin_core import SpinVector, Z_HAT, rotate

FXP16 = FixedPointFormat(word_bits=16, int_bits=4)

reals = st.floats(-7.9, 7.9, allow_nan=False)


def test_format_properties():
    assert DEFAULT_FXP.frac_bits == 28
    assert DEFAULT_FXP.step == 2.0**-28
    assert FXP16.step == 2.0**-12
    with pytest.raises(ValueError):
        FixedPointFormat(word_bits=70, int_bits=4)
    # keyword-only: word_bits and int_bits are both ints, easily swapped
    with pytest.raises(TypeError):
        FixedPointFormat(24, 6)


@given(reals)
def test_quantize_within_half_step(x):
    q = fxp_quantize(x, DEFAULT_FXP)
    assert abs(q.value - x) <= 0.5 * DEFAULT_FXP.step


@given(reals)
def test_quantize_idempotent(x):
    q = fxp_quantize(x, DEFAULT_FXP)
    assert fxp_quantize(q.value, DEFAULT_FXP).raw == q.raw


def test_quantize_saturates():
    assert fxp_quantize(100.0, FXP16).saturated
    assert fxp_quantize(-100.0, FXP16).raw == FXP16.raw_min
    assert fxp_quantize(100.0, FXP16).value == pytest.approx(8.0, abs=1e-3)


def test_pade_exp_reference_value():
    # the [5,5] rational at -1 evaluates exactly to 18089/49171
    got = pade_exp(-1.0)
    assert got == pytest.approx(18089.0 / 49171.0, abs=1e-15)
    assert abs(got - math.exp(-1.0)) < 1e-10


def test_pade_exp_accuracy_on_unit_interval():
    worst = max(
        abs(pade_exp(-x / 1000.0) - math.exp(-x / 1000.0)) for x in range(1001)
    )
    assert worst < 1e-10


def test_pade_exp_range_reduction():
    for x in (-1.5, -3.0, -7.5, -20.0):
        assert pade_exp(x) == pytest.approx(math.exp(x), rel=1e-8)
    with pytest.raises(ValueError):
        pade_exp(0.5)
    # halving would never bring -inf into [-1, 0]
    for x in (-math.inf, [-1.0, math.nan]):
        with pytest.raises(ValueError, match="finite x <= 0"):
            pade_exp(x)
    with pytest.raises(ValueError, match="finite x <= 0"):
        decay_estimate(1.0, 1e-3, math.inf)


def test_pade_exp_fixed_point_close_to_float():
    for x in (-0.1, -0.5, -1.0, -2.5):
        q = pade_exp(fxp_quantize(x, DEFAULT_FXP))
        assert isinstance(q, FixedPointValue)
        # quantization error stays far below a 16-bit analog resolution
        assert abs(q.value - pade_exp(x)) < 1e-6


@given(reals)
def test_bmod2_matches_real_arithmetic(x):
    q = fxp_quantize(x, DEFAULT_FXP)
    want = math.copysign(math.fmod(abs(q.value), 2.0), q.value) if q.raw else 0.0
    assert abs(bmod2(q).value - want) <= DEFAULT_FXP.step


@given(st.floats(-1.0, 1.0), st.floats(0.0, 30.0))
def test_kick_angle_rotation_equivalence(m, k):
    # the wrapped angle must generate the same rotation as the raw angle
    v = SpinVector(0.6, -0.48, 0.64)
    a = rotate(v, Z_HAT, kick_angle(m, k))
    b = rotate(v, Z_HAT, k * m)
    assert max(abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z)) < 1e-9


def test_kick_angle_sign_and_range():
    assert kick_angle(0.0, 5.0) == 0.0
    assert kick_angle(-0.5, 3.0) == -kick_angle(0.5, 3.0)
    for m in (-1.0, -0.3, 0.7, 1.0):
        assert abs(kick_angle(m, 29.0)) < 2.0 * math.pi


def test_kick_angle_fixed_point_close():
    for m in (-0.9, -0.2, 0.4, 0.99):
        a = kick_angle(m, 2.7, DEFAULT_FXP)
        assert abs(a - kick_angle(m, 2.7)) < 1e-6


def _exact_quotients(k):
    """The m in [-1, 1] within 8 ulps of t * pi / k for which k * m / pi is
    exactly t, for t = +-2 and +-4: the wrap's boundary values."""
    targets = (-4.0, -2.0, 2.0, 4.0)
    if k == 0.0:
        return []
    m0 = np.array(targets) * math.pi / k
    near = m0[:, None] + np.arange(-8, 9) * np.spacing(m0)[:, None]
    return [m for m in near.ravel().tolist()
            if abs(m) <= 1.0 and k * m / math.pi in targets]


@pytest.mark.parametrize("fmt", [None, DEFAULT_FXP])
@pytest.mark.parametrize("k", [-20.0, -2.7, 0.0, 2.7, 25.0])
def test_kick_angle_elementwise_equals_scalar(k, fmt):
    # the array kernel takes every column's kick angle in one call: each
    # element, signed zeros included, must be the scalar call's bits
    rng = np.random.default_rng(7)
    edges = _exact_quotients(k)
    # at k = 25 the quotient steps over 2 and 4; at |k| < 2 pi it cannot reach 2
    assert len(edges) >= (4 if k == -20.0 else 0)
    ms = np.array([1.0, -1.0, 0.0, -0.0, *edges, *rng.uniform(-1.2, 1.2, 40)])
    want = np.array([kick_angle(m, k, fmt) for m in ms.tolist()])
    for ks in (k, np.full(len(ms), k)):
        got = kick_angle(ms, ks, fmt)
        assert got.shape == ms.shape
        assert got.tobytes() == want.tobytes()


def test_decay_estimate_halving():
    assert decay_estimate(4e6, 2e-3, 0.0) == pytest.approx(4e6)
    assert decay_estimate(4e6, 2e-3, 2e-3) == pytest.approx(2e6, rel=1e-8)
    assert decay_estimate(4e6, 2e-3, 4e-3) == pytest.approx(1e6, rel=1e-8)
    with pytest.raises(ValueError):
        decay_estimate(1.0, 0.0, 1.0)


# Independent oracle: the rational exponential composed at the
# FixedPointValue level, one saturating operation per step.
_PADE_C = (1.0, 1.0 / 2.0, 1.0 / 9.0, 1.0 / 72.0, 1.0 / 1008.0, 1.0 / 30240.0)


def _o_sat(raw, fmt):
    return max(fmt.raw_min, min(fmt.raw_max, raw))


def _o_quantize(x, fmt):
    return FixedPointValue(_o_sat(math.floor(x * (1 << fmt.frac_bits) + 0.5), fmt), fmt)


def _o_add(a, b):
    return FixedPointValue(_o_sat(a.raw + b.raw, a.fmt), a.fmt)


def _o_mul(a, b):
    f = a.fmt.frac_bits
    raw = (a.raw * b.raw + (1 << (f - 1))) >> f
    return FixedPointValue(_o_sat(raw, a.fmt), a.fmt)


def _o_div(a, b):
    f = a.fmt.frac_bits
    sign = 1 if (a.raw >= 0) == (b.raw >= 0) else -1
    q, r = divmod(abs(a.raw) << f, abs(b.raw))
    if 2 * r >= abs(b.raw):
        q += 1
    return FixedPointValue(_o_sat(sign * q, a.fmt), a.fmt)


def _o_pade_exp(x):
    fmt = x.fmt
    halvings = 0
    raw = x.raw
    while raw * fmt.step < -1.0:
        raw = (raw + 1) >> 1
        halvings += 1
    xr = FixedPointValue(raw, fmt)
    num = den = _o_quantize(0.0, fmt)
    for c in reversed(_PADE_C):
        cq = _o_quantize(c, fmt)
        num = _o_add(_o_mul(num, xr), cq)
        den = _o_add(_o_mul(den, FixedPointValue(-xr.raw, fmt)), cq)
    if den.raw <= 0:
        raise ValueError("rational exponential out of domain")
    r = _o_div(num, den)
    for _ in range(halvings):
        r = _o_mul(r, r)
    return r


# 33 bits is the narrowest word held in Python ints (FixedPointFormat.dtype)
ORACLE_FORMATS = [
    FixedPointFormat(word_bits=16, int_bits=4),
    FixedPointFormat(word_bits=24, int_bits=6),
    FixedPointFormat(word_bits=32, int_bits=4),
    FixedPointFormat(word_bits=33, int_bits=4),
    FixedPointFormat(word_bits=48, int_bits=8),
    FixedPointFormat(word_bits=64, int_bits=8),
]
# 0 down to -20, so every range-reduction depth up to 5 halvings is hit
ORACLE_XS = [-i / 40.0 for i in range(801)] + [-1e-9, -0.999, -1.001, -2.0, -19.99]


def test_raw_ops_match_oracle():
    # raw-word helpers against the FixedPointValue-level rules, including
    # saturation, both signs and exact halves (division ties): every pair
    # alone, then all pairs in one call
    from spinloop.controller import _fxp_add, _fxp_div, _fxp_mul, _words

    for fmt in ORACLE_FORMATS:
        f, lo, hi = fmt.frac_bits, fmt.raw_min, fmt.raw_max
        one = 1 << f
        raws = [lo, lo + 1, -3 * one, -one - 1, -one, -5, -1, 0, 1, 3, one // 2,
                one, one + 1, 5 * one // 2, hi - 1, hi]
        raws = [r for r in raws if lo <= r <= hi]
        pairs = [(ra, rb) for ra in raws for rb in raws]
        ops = [(_fxp_add, _o_add, pairs), (_fxp_mul, _o_mul, pairs),
               (_fxp_div, _o_div, [(ra, rb) for ra, rb in pairs if rb])]
        for op, oracle, cases in ops:
            want = [oracle(FixedPointValue(ra, fmt), FixedPointValue(rb, fmt)).raw
                    for ra, rb in cases]
            for (ra, rb), w in zip(cases, want):
                assert op(_words(ra, fmt), _words(rb, fmt), fmt).tolist() == [w]
            got = op(_words([a for a, _ in cases], fmt), _words([b for _, b in cases], fmt), fmt)
            assert got.dtype == fmt.dtype and got.tolist() == want
        # 1 / (2 * one) lands exactly on a half step and rounds away from 0
        half = _words(2 * one, fmt)
        assert _fxp_div(_words([1, -1], fmt), half, fmt).tolist() == [1, -1]
        with pytest.raises(ZeroDivisionError):
            _fxp_div(_words([1, 1], fmt), _words([1, 0], fmt), fmt)


def _fmt_id(fmt):
    return f"s{fmt.word_bits}_{fmt.int_bits}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e)


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_quantize_matches_oracle(fmt):
    # saturating in float before the words are formed moves no word: far out
    # of range, past int64, and around the largest and least words
    top, step = fmt.raw_max * fmt.step, fmt.step
    xs = ORACLE_XS + [0.0, -0.0, 1e250, -1e250, 2.0**70, -2.0**70, top, top + step / 2,
                      top + step, -top - step, -top - 1.5 * step, -top - 2 * step]
    assert fxp_quantize(np.array(xs), fmt).raw.tolist() == [_o_quantize(x, fmt).raw for x in xs]
    scaled = [math.floor(x * (1 << fmt.frac_bits) + 0.5) for x in xs]
    assert fxp_fits(xs, fmt).tolist() == [fmt.raw_min <= r <= fmt.raw_max for r in scaled]
    # the error math.floor raises, and no numpy warning besides; a value
    # whose x * 2^frac_bits is not finite does not fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            fxp_quantize(np.array([0.5, np.nan]), fmt)
        assert fxp_fits([0.5, -np.inf, np.inf, np.nan], fmt).tolist() == [
            True, False, False, False]
        assert not fxp_fits(1e308, fmt)  # x * 2^frac_bits overflows


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_pade_exp_fixed_point_matches_oracle(fmt):
    qs = [_o_quantize(x, fmt) for x in ORACLE_XS]
    for x, q in zip(ORACLE_XS, qs):
        got = _outcome(pade_exp, q)
        want = _outcome(_o_pade_exp, q)
        assert got == want, (x, got, want)
        assert fxp_quantize(x, fmt) == q
    # the whole set in one call, every halving depth side by side
    qa = fxp_quantize(np.array(ORACLE_XS), fmt)
    assert qa.raw.tolist() == [q.raw for q in qs]
    assert pade_exp(qa).raw.tolist() == [_o_pade_exp(q).raw for q in qs]
    with pytest.raises(ValueError, match="x <= 0"):
        pade_exp(FixedPointValue(np.array([-1, 0, 1], dtype=fmt.dtype), fmt))


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_decay_estimate_fixed_point_matches_oracle(fmt):
    j0, half = 2.5e5, 2e-3
    ts = [-x * half / math.log(2.0) for x in ORACLE_XS]
    want = [_outcome(lambda: j0 * _o_pade_exp(
        _o_quantize(-t * math.log(2.0) / half, fmt)).value) for t in ts]
    for t, w in zip(ts, want):
        got = _outcome(decay_estimate, j0, half, t, fmt)
        assert got == w, (t, got, w)
    got = decay_estimate(j0, half, ts, fmt)
    assert got.dtype == float and got.tolist() == want
    with pytest.raises(ValueError, match="^t must"):
        decay_estimate(j0, half, [0.0, -1e-9], fmt)
    with pytest.raises(ValueError, match="half_time"):
        decay_estimate(j0, 0.0, ts, fmt)


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_kick_angle_fixed_point_matches_wrap(fmt):
    # every element of one call is the wrap of its own quantised k * m / pi:
    # negative k, |m| > 1 clamped to 1, and each k alike
    rng = np.random.default_rng(3)
    ms = np.array([1.5, -1.5, 1.0, -1.0, 0.0, *rng.uniform(-1.3, 1.3, 30)])
    for k in (-7.0, -2.7, 2.7, np.linspace(-7.0, 7.0, len(ms))):
        ks = np.broadcast_to(k, ms.shape)
        want = [math.pi * bmod2(_o_quantize(kv * max(-1.0, min(1.0, m)) / math.pi, fmt)).value
                for m, kv in zip(ms.tolist(), ks.tolist())]
        assert kick_angle(ms, k, fmt).tolist() == want
    with pytest.raises(ValueError, match="NaN"):
        kick_angle(np.array([0.5, np.nan]), 2.7, fmt)


def test_lmg_control_clamp_and_cap():
    k_nl = LmgParams(s=0.7, lambda_=2 * math.pi * 6.25e3 / 0.3).k_nl
    assert lmg_control(0.0, 1e6, k_nl) == 0.0
    # m beyond the spin length clamps to |z| = 1
    assert lmg_control(5e6, 1e6, k_nl) == lmg_control(1e6, 1e6, k_nl) == k_nl
    assert lmg_control(1e6, 1e6, 10.0 * DEFAULT_RATE_CAP) == DEFAULT_RATE_CAP
    assert lmg_control(-1e6, 1e6, 10.0 * DEFAULT_RATE_CAP) == -DEFAULT_RATE_CAP
    with pytest.raises(ValueError):
        lmg_control(1.0, 0.0, k_nl)
    with pytest.raises(ValueError):
        lmg_control(np.array([1.0, 1.0]), np.array([1e6, -1.0]), k_nl)


def test_lmg_control_is_elementwise():
    # each element of one call is the call on its floats alone, and a huge
    # m clamps before the division, so nothing overflows or warns
    k_nl = LmgParams(s=0.7).k_nl
    rng = np.random.default_rng(4)
    ms = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, *rng.normal(0.0, 2e6, 20)])
    js = np.array([1e6, 5e-324, 5e-324, 1e-300, 1e6, *rng.uniform(1e5, 2e6, 20)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lmg_control(ms, js, k_nl)
        for m, j, rate in zip(ms.tolist(), js.tolist(), got.tolist()):
            one = lmg_control(np.array([m]), np.array([j]), k_nl)
            assert one.shape == (1,)
            assert one.tobytes() == np.float64(lmg_control(m, j, k_nl)).tobytes()
            assert one[0] == rate
        assert lmg_control(1e308, 5e-324, k_nl) == k_nl
        assert lmg_control(-1e308, 5e-324, 2.0 * DEFAULT_RATE_CAP) == -DEFAULT_RATE_CAP


def test_qkt_schedule_validation():
    s = QktSchedule(40e-6, 6e-6, 2e-6, 25)
    assert s.period == pytest.approx(48e-6)
    with pytest.raises(ValueError):
        QktSchedule(40e-6, 6e-6, 2e-6, 0)  # no period
