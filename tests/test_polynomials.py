import json
import os
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ramapoly
from ramapoly import polynomials
from ramapoly.polynomials import (ROUTES, IntPoly, f, psi_bew, psi_ramanujan, q_from_psi,
                                  q_shor, q_shor_alt, q_zeng_a, q_zeng_b, poly_table)
from ramapoly.trees import enumerate_rooted
from ramapoly.verify import PSI_TABLE, Q_TABLE, double_factorial

small_polys = st.builds(IntPoly, st.lists(st.integers(-50, 50), max_size=6))


# -- IntPoly ring behaviour -----------------------------------------------------

def test_normalization():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).is_zero()
    assert IntPoly().degree == -1


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + IntPoly() == a
    assert a * IntPoly.constant(1) == a


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(-5, 5), st.integers(-5, 5))
def test_shift_compose_and_evaluate(p, a, b):
    assert p.shift(a).shift(b) == p.shift(a + b)
    for x in (-2, 0, 3):
        assert p.shift(a)(x) == p(x + a)


@pytest.mark.parametrize("c", (-1, 1, -2, 3, 60))
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), max_size=13))
def test_shift_matches_the_binomial_closed_form(c, coeffs):
    # p(x + c) = sum_i b_i x^i with b_i = sum_j a_j C(j, i) c^(j-i)
    p = IntPoly(coeffs)
    want = [sum(a * comb(j, i) * c ** (j - i) for j, a in enumerate(p.coeffs) if j >= i)
            for i in range(len(p.coeffs))]
    assert p.shift(c) == IntPoly(want)


def test_str_format():
    assert str(q_shor(5, 2)) == "45x^2+195x+190"
    assert str(psi_bew(4, 1)) == "x^4-10x^3+35x^2-50x+24"
    assert str(IntPoly()) == "0"
    assert str(IntPoly((0, 1))) == "x"
    assert str(IntPoly((1, 0, -1))) == "-x^2+1"
    assert str(IntPoly((-3,))) == "-3"


def test_pow():
    assert IntPoly((1, 1)) ** 3 == IntPoly((1, 3, 3, 1))
    assert IntPoly((2,)) ** 0 == IntPoly.constant(1)


# -- table cells ------------------------------------------------------------------

@pytest.mark.parametrize("cell,coeffs", sorted(PSI_TABLE.items()))
def test_psi_cells_both_routes(cell, coeffs):
    r, k = cell
    assert psi_bew(r, k) == IntPoly(coeffs)
    assert psi_ramanujan(r, k) == IntPoly(coeffs)


@pytest.mark.parametrize("cell,coeffs", sorted(Q_TABLE.items()))
def test_q_cells_all_routes(cell, coeffs):
    n, k = cell
    want = IntPoly(coeffs)
    assert q_shor(n, k) == want
    assert q_shor_alt(n, k) == want
    assert q_zeng_a(n, k) == want
    assert q_zeng_b(n, k) == want
    assert q_from_psi(n, k) == want


def test_out_of_range_is_zero():
    assert psi_bew(2, 5).is_zero()
    assert psi_bew(3, 0).is_zero()
    assert q_shor(2, 2).is_zero()
    assert q_shor(0, 0).is_zero()
    assert q_shor_alt(1, 0) == IntPoly.constant(1)
    assert q_zeng_b(2, 1) == IntPoly.constant(1)
    assert f(3, -1) == 0 and f(3, 3) == 0


@pytest.mark.parametrize("above", [(0, 0, 1), (0, 0, 3)])
def test_zeng_b_refuses_a_non_integer_solve(above):
    # Q_{5,1} has degree d = 3 and g = 5 * above: 5x^2 asks for a_3 = 5/3;
    # 15x^2 gives a_3 = 5, and then the x coefficient 15 asks for a_2 = 15/2
    with pytest.raises(ArithmeticError, match=r"non-integer coefficient solving Q\(5,1\)"):
        polynomials._zeng_b_cell(5, 1, IntPoly(above))


def test_zeng_b_refuses_an_inconsistent_difference_equation():
    # a difference of degree 3 cannot come from a Q of degree 3
    assert polynomials._zeng_b_cell(5, 1, q_shor(4, 1)) == q_shor(5, 1)
    with pytest.raises(ArithmeticError, match=r"inconsistent difference equation for Q\(5,1\)"):
        polynomials._zeng_b_cell(5, 1, IntPoly((0, 0, 0, 1)))


def test_substitution_link():
    # psi_2(2, x+3) = 3(x+3) - 5 = 3x + 4
    assert psi_bew(2, 2).shift(3) == IntPoly((4, 3))
    assert q_from_psi(3, 1) == IntPoly((4, 3))
    assert q_from_psi(1, 0) == IntPoly.constant(1)


def test_five_way_agreement_through_twelve():
    for n in range(13):
        for k in range(-1, n + 1):
            base = q_shor(n, k)
            assert base == q_shor_alt(n, k) == q_zeng_a(n, k) \
                == q_zeng_b(n, k) == q_from_psi(n, k)
    for r in range(13):
        for k in range(r + 3):
            assert psi_bew(r, k) == psi_ramanujan(r, k)


def test_degree_and_leading():
    for n in range(1, 13):
        for k in range(n):
            poly = q_shor(n, k)
            assert poly.degree == n - 1 - k
            assert poly.leading > 0


def test_f_values():
    assert f(1, 0) == 1
    assert f(3, 1) == 4
    assert f(4, 3) == 15
    assert f(5, 2) == 190
    for n in range(1, 13):
        for k in range(n):
            assert f(n, k) == q_shor(n, k)(0)


def test_f_counts_trees_by_improper_edges():
    for n in range(1, 6):
        counts = Counter(t.improper_count() for t in enumerate_rooted(n))
        for k in range(n):
            assert counts.get(k, 0) == f(n, k)
        assert sum(counts.values()) == n ** (n - 1)


def test_poly_table():
    cells = poly_table("q", 5)
    assert cells[(5, 2)] == IntPoly((190, 195, 45))
    assert set(poly_table("psi", 2)) == {(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
    with pytest.raises(ValueError):
        poly_table("nope", 3)


def test_routes_are_the_public_functions_they_name():
    for methods in ROUTES.values():
        for route in methods.values():
            assert getattr(polynomials, route.__name__) is route
            assert route.__name__ in polynomials.__all__
            assert route.__doc__


_ROUTES = tuple(route.__name__ for methods in ROUTES.values() for route in methods.values())
_ASKED = ((40, 1), (40, 30), (20, 19), (60, 59))

# prints every route's cells in `asked` (or the sha256 of their lines, with
# `digest`), after asking for them in `order`
_PROBE = """
import hashlib, json, sys
from ramapoly import polynomials as P
routes, asked, order, digest = json.loads(sys.argv[1])
out = {}
for name in routes:
    fn = getattr(P, name)
    for a, k in order:
        fn(a, k)
    cells = [str(fn(a, k)) for a, k in asked]
    out[name] = hashlib.sha256("\\n".join(cells).encode()).hexdigest() if digest else cells
print(json.dumps(out))
"""


def _probe(order, asked=_ASKED, routes=_ROUTES, digest=False):
    src = Path(ramapoly.__file__).resolve().parent.parent
    arg = json.dumps([routes, asked, order, digest])
    proc = subprocess.run([sys.executable, "-c", _PROBE, arg], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return json.loads(proc.stdout)


def test_tables_do_not_depend_on_request_order():
    # the memo holds only the cells earlier requests needed: narrow cells
    # first, then wider ones above and below them, against every cell asked
    # row by row, each in a fresh interpreter
    narrow_first = _probe(list(_ASKED))
    row_by_row = _probe([(a, k) for a in range(61) for k in range(-1, a + 3)])
    assert narrow_first == row_by_row
    assert narrow_first["q_shor"][2] == str(q_shor(20, 19))


_PSI_CELLS = [(r, k) for r in range(-1, 62) for k in range(-2, r + 4)]
_Q_CELLS = [(n, k) for n in range(62) for k in range(-2, n + 3)]
# family -> (cells, sha256 of their lines in this order), recorded from the
# routes as they stood before one shift per cell, the multiply-free shifts
# and the zeng-b row table
_GOLDEN = {
    "psi": (_PSI_CELLS, "794d1e1a3643710fa59638e818d30fe3406008134e973878c1bc371142aecf85"),
    "q": (_Q_CELLS, "415dc73ce3b212aece79c9a6eaaa877ef3cf14e0597e6ff713872da1a57c8fa5"),
    "f": (_Q_CELLS, "1e5f1aa2b7a425f05c311dba714a9b47f5725dc2d58a268d542bcf519063670c"),
}


@pytest.mark.parametrize("family", sorted(ROUTES))
def test_every_route_to_sixty_matches_its_golden_digest_in_any_order(family):
    # every cell to N = 60 and out-of-range k, asked row by row and in
    # reverse, each in a fresh interpreter
    cells, want = _GOLDEN[family]
    names = [route.__name__ for route in ROUTES[family].values()]
    for order in (cells, cells[::-1]):
        assert _probe(order, cells, names, digest=True) == dict.fromkeys(names, want)


def test_near_diagonal_cells_compute_only_what_they_read():
    # shor, shor-alt, bew and f read (a-1, k) and (a-1, k-1), zeng-b only
    # (a-1, k): a cell beside the diagonal needs about one cell per row, not
    # the whole triangle; Q_{n,n-1} = f(n, n-1) = (2n-3)!!
    t0 = time.perf_counter()
    expected = double_factorial(797)
    for fn in (q_shor, q_shor_alt, q_zeng_b):
        assert fn(400, 399) == IntPoly.constant(expected)
    assert f(400, 399) == expected and f(800, 799) == double_factorial(1597)
    assert psi_bew(400, 400) == q_shor(401, 399).shift(-401)
    assert time.perf_counter() - t0 < 5
