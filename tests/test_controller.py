import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinloop.controller import (
    DEFAULT_FXP,
    DEFAULT_RATE_CAP,
    FixedPointFormat,
    FixedPointValue,
    bmod2,
    decay_estimate,
    fxp_quantize,
    kick_angle,
    lmg_control,
    pade_exp,
    qkt_schedule,
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


ORACLE_FORMATS = [
    FixedPointFormat(word_bits=16, int_bits=4),
    FixedPointFormat(word_bits=24, int_bits=6),
    FixedPointFormat(word_bits=32, int_bits=4),
    FixedPointFormat(word_bits=48, int_bits=8),
    FixedPointFormat(word_bits=64, int_bits=8),
]
# 0 down to -20, so every range-reduction depth up to 5 halvings is hit
ORACLE_XS = [-i / 40.0 for i in range(801)] + [-1e-9, -0.999, -1.001, -2.0, -19.99]


def test_raw_ops_match_oracle():
    # raw-int helpers against the FixedPointValue-level rules, including
    # saturation, both signs and exact halves (division ties)
    from spinloop.controller import _fxp_add, _fxp_div, _fxp_mul

    for fmt in ORACLE_FORMATS:
        f, lo, hi = fmt.frac_bits, fmt.raw_min, fmt.raw_max
        one = 1 << f
        raws = [lo, lo + 1, -3 * one, -one - 1, -one, -5, -1, 0, 1, 3, one // 2,
                one, one + 1, 5 * one // 2, hi - 1, hi]
        raws = [r for r in raws if lo <= r <= hi]
        for ra in raws:
            for rb in raws:
                a, b = FixedPointValue(ra, fmt), FixedPointValue(rb, fmt)
                assert _fxp_add(ra, rb, lo, hi) == _o_add(a, b).raw
                assert _fxp_mul(ra, rb, f, lo, hi) == _o_mul(a, b).raw
                if rb:
                    assert _fxp_div(ra, rb, f, lo, hi) == _o_div(a, b).raw
        # 1 / (2 * one) lands exactly on a half step and rounds away from 0
        assert _fxp_div(1, 2 * one, f, lo, hi) == 1
        assert _fxp_div(-1, 2 * one, f, lo, hi) == -1


def _fmt_id(fmt):
    return f"s{fmt.word_bits}_{fmt.int_bits}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e)


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_pade_exp_fixed_point_matches_oracle(fmt):
    for x in ORACLE_XS:
        q = _o_quantize(x, fmt)
        got = _outcome(pade_exp, q)
        want = _outcome(_o_pade_exp, q)
        assert got == want, (x, got, want)
        assert fxp_quantize(x, fmt) == q


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_fmt_id)
def test_decay_estimate_fixed_point_matches_oracle(fmt):
    j0, half = 2.5e5, 2e-3
    for x in ORACLE_XS:
        t = -x * half / math.log(2.0)
        want = _outcome(lambda: j0 * _o_pade_exp(
            _o_quantize(-t * math.log(2.0) / half, fmt)).value)
        got = _outcome(decay_estimate, j0, half, t, fmt)
        assert got == want, (t, got, want)


def test_lmg_control_clamp_and_cap():
    p = LmgParams(s=0.7, lambda_=2 * math.pi * 6.25e3 / 0.3)
    assert lmg_control(0.0, 1e6, p) == 0.0
    # m beyond the spin length clamps to |z| = 1
    assert lmg_control(5e6, 1e6, p) == lmg_control(1e6, 1e6, p)
    big = LmgParams(s=1.0, lambda_=10.0 * DEFAULT_RATE_CAP)
    assert lmg_control(1e6, 1e6, big) == DEFAULT_RATE_CAP
    with pytest.raises(ValueError):
        lmg_control(1.0, 0.0, p)


def test_qkt_schedule_validation():
    s = qkt_schedule(40e-6, 6e-6, 2e-6, 25)
    assert s.period == pytest.approx(48e-6)
    with pytest.raises(ValueError):
        qkt_schedule(41e-7, 6e-6, 2e-6, 25)  # not a sample multiple
    with pytest.raises(ValueError):
        qkt_schedule(40e-6, 6e-6, 2e-6, 0)  # no period
