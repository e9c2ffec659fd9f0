from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ramapoly.polynomials import psi_bew
from ramapoly.series import RatSeries, exp_linear, genfun_mismatch, inv_power

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def series(order):
    return st.builds(lambda cs: RatSeries(order, cs),
                     st.lists(fractions, max_size=order + 1))


def test_exp_linear_examples():
    assert exp_linear(0, 3).coeffs == (1, 0, 0, 0)
    assert exp_linear(1, 2).coeffs == (1, -1, Fraction(1, 2))
    assert exp_linear(3, 1).coeffs == (1, -3)


def test_inv_power_examples():
    assert inv_power(1, 3).coeffs == (1, 1, 1, 1)
    assert inv_power(2, 2).coeffs == (1, 2, 3)
    assert inv_power(3, 1).coeffs == (1, 3)
    with pytest.raises(ValueError):
        inv_power(0, 2)


@settings(max_examples=80, deadline=None)
@given(series(10), series(10))
def test_multiplication_matches_brute_convolution(a, b):
    prod = a * b
    for j in range(11):
        assert prod.coeffs[j] == sum(a.coeffs[i] * b.coeffs[j - i] for i in range(j + 1))


@settings(max_examples=60, deadline=None)
@given(series(5), series(5), series(5))
def test_series_arithmetic(a, b, c):
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_shift_up():
    s = RatSeries(3, (1, 2, 3, 4))
    assert s.shift_up(2).coeffs == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        s.shift_up(-1)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        RatSeries(2, (1,)) + RatSeries(3, (1,))


def test_genfun_examples():
    assert genfun_mismatch(0, 1, 5) is None
    assert genfun_mismatch(3, 2, 8) is None
    assert genfun_mismatch(2, -1, 7) is None


def test_genfun_negative_control():
    def perturbed(r, k, x):
        if (r, k) == (1, 2):
            return 2
        return psi_bew(r, k)(x)
    assert genfun_mismatch(1, 3, 6, psi_eval=perturbed) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(-3, 6), st.integers(0, 8))
def test_genfun_holds_at_random_points(r, x, order):
    assert genfun_mismatch(r, x, order) is None
