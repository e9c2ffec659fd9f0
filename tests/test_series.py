from hypothesis import given, settings
import hypothesis.strategies as st

from ramapoly.polynomials import psi_bew
from ramapoly.series import genfun_mismatch


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
@given(st.integers(1, 4), st.integers(-3, 6), st.integers(1, 10))
def test_genfun_row_sum_preserving_perturbation_fails_at_coeff_1(r, x, order):
    # psi_1 + 1, psi_2 - 1 keeps sum_k psi_k = x^r, the u^0 coefficient, so
    # only the higher coefficients can expose it
    def perturbed(rr, k, xx):
        return psi_bew(rr, k)(xx) + {1: 1, 2: -1}.get(k, 0)
    assert genfun_mismatch(r, x, 0, psi_eval=perturbed) is None
    assert genfun_mismatch(r, x, order, psi_eval=perturbed) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(-3, 6), st.integers(0, 8))
def test_genfun_holds_at_random_points(r, x, order):
    assert genfun_mismatch(r, x, order) is None
