import math

import pytest
from hypothesis import given, strategies as st

from privmask import (
    MaskParams,
    NegativeVariance,
    NegativeWeight,
    PrivmaskError,
    SystemParams,
    ZeroGain,
    closed_loop_stable,
)


def test_system_params_accepts_reference_point():
    s = SystemParams(a=1, k=-1, w=0.05, q=1, r=1)
    assert (s.a, s.k, s.w, s.q, s.r) == (1, -1, 0.05, 1, 1)


def test_system_params_rejects_zero_gain():
    with pytest.raises(ZeroGain):
        SystemParams(a=1, k=0, w=0.05, q=1, r=1)


def test_system_params_rejects_negative_variance():
    with pytest.raises(NegativeVariance):
        SystemParams(a=1, k=-1, w=-0.1, q=1, r=1)


def test_system_params_rejects_negative_weights():
    with pytest.raises(NegativeWeight):
        SystemParams(a=1, k=-1, w=0.05, q=-1, r=1)
    with pytest.raises(NegativeWeight):
        SystemParams(a=1, k=-1, w=0.05, q=1, r=-2)


def test_zero_cost_weights_allowed():
    s = SystemParams(a=0.5, k=-0.5, w=0.1, q=0, r=0)
    assert s.q == 0 and s.r == 0


def test_mask_params_rejects_negative():
    with pytest.raises(NegativeVariance):
        MaskParams(m=-0.01, n=0.1)
    with pytest.raises(NegativeVariance):
        MaskParams(m=0.0, n=-0.1)


@given(
    a=st.floats(allow_nan=True, allow_infinity=True),
    k=st.floats(allow_nan=True, allow_infinity=True),
    w=st.floats(allow_nan=True, allow_infinity=True),
    q=st.floats(allow_nan=True, allow_infinity=True),
    r=st.floats(allow_nan=True, allow_infinity=True),
)
def test_validation_is_total(a, k, w, q, r):
    # every input either validates or raises a domain error; nothing leaks
    try:
        SystemParams(a=a, k=k, w=w, q=q, r=r)
    except PrivmaskError:
        pass


def test_closed_loop_stable_reference_cases():
    assert closed_loop_stable(SystemParams(a=1, k=-1, w=0.05)) == (True, 1.0)
    stable, margin = closed_loop_stable(SystemParams(a=0.9, k=0.2, w=0.05))
    assert not stable and margin < 0
    assert closed_loop_stable(SystemParams(a=0.5, k=-0.5, w=0.05)) == (True, 1.0)


def test_params_are_immutable():
    s = SystemParams(a=1, k=-1, w=0.05)
    with pytest.raises(AttributeError):
        s.a = 2.0
