"""Polynomials in x_1..x_k with coefficients in Z[a_1..a_k], the deglex
reduction system with leading terms x_i^(n-k+i), and classical symmetric
function identities checked by exact arithmetic."""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from schurbox.apoly import APoly
from schurbox.grobner import (
    XPoly, deglex_key, e_on_vars, groebner_generators, h_on_vars,
    monomial_basis, normal_form, parse_xpoly, schur_xpoly,
)
from schurbox.partitions import conjugate, pad, partitions_in_rect
from test_apoly import const_value


def alternant(alpha, k):
    """Oracle: the alternant a_alpha = sum over permutations w of
    sign(w) x^(w(alpha)), computed straight from the definition."""
    terms = {}
    for perm in permutations(range(k)):
        sign = 1
        seen = list(perm)
        for i in range(k):
            for j in range(i + 1, k):
                if seen[i] > seen[j]:
                    sign = -sign
        mono = tuple(alpha[p] for p in perm)
        if len(set(mono)) == k:
            terms[mono] = terms.get(mono, 0) + sign
    return XPoly(k, terms)


def xpoly_det(grid):
    """Determinant of a square matrix of XPolys by cofactor expansion."""
    m = len(grid)
    if m == 0:
        raise ValueError("empty matrix")
    if m == 1:
        return grid[0][0]
    k = grid[0][0].k
    total = XPoly.zero(k)
    for j in range(m):
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        term = grid[0][j] * xpoly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@st.composite
def xpolys(draw, k=2, max_deg=3, a_coeffs=False):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                     for _ in range(k))
        c = draw(st.integers(min_value=-4, max_value=4))
        if a_coeffs:
            # one a-monomial per x-monomial, which render() writes inline
            aexps = draw(st.tuples(*[st.integers(0, 2)] * k))
            terms[mono] = APoly.monomial(aexps, c)
        else:
            terms[mono] = terms.get(mono, 0) + c
    return XPoly(k, terms)


# -- ordering and ring operations ------------------------------------------------

def test_deglex_examples():
    assert deglex_key((0, 3)) > deglex_key((2, 0))   # degree wins first
    assert sorted([(0, 2), (2, 0), (1, 1)], key=deglex_key) == \
        [(0, 2), (1, 1), (2, 0)]


@given(xpolys(), xpolys(), xpolys())
def test_xpoly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == XPoly.zero(2)
    assert p * XPoly.const(2, 1) == p


@given(xpolys())
def test_xpoly_scalar_coefficients(p):
    assert p * 2 == p + p
    assert p * APoly.gen(1) * APoly.gen(2) == p * APoly.gen(2) * APoly.gen(1)
    assert not (p * 0)


def test_xpoly_leading_monomial():
    p = parse_xpoly("x1^2 + x1*x2^2 - x2", 2)
    assert max(p.terms, key=deglex_key) == (1, 2)


def test_xpoly_render_and_parse():
    cases = [
        "x1^2*x2 - x2^3 + a1*x1 - a2",
        "x1 + x2",
        "-x1^4",
        "0",
        "a1^2 - 2*a2",
        "-x1*x2 + 3*x2^2 + 7",
    ]
    for text in cases:
        assert parse_xpoly(text, 2).render() == text


@given(xpolys())
def test_xpoly_render_round_trip(p):
    assert parse_xpoly(p.render(), 2) == p


@given(xpolys(k=3, a_coeffs=True))
def test_xpoly_render_round_trip_three_variables(p):
    assert parse_xpoly(p.render(), 3) == p


def test_parse_xpoly_rejects_out_of_range_vars():
    with pytest.raises(ValueError):
        parse_xpoly("x3", 2)
    with pytest.raises(ValueError):
        parse_xpoly("a3*x1", 2)
    with pytest.raises(ValueError):
        parse_xpoly("y1", 2)


# -- symmetric building blocks ----------------------------------------------------

def test_h_and_e_small_cases():
    assert h_on_vars(2, 2) == parse_xpoly("x1^2 + x1*x2 + x2^2", 2)
    assert h_on_vars(2, 2, lo=2) == parse_xpoly("x2^2", 2)
    assert h_on_vars(0, 3) == XPoly.const(3, 1)
    assert e_on_vars(2, 2) == parse_xpoly("x1*x2", 2)
    assert e_on_vars(1, 3, hi=2) == parse_xpoly("x1 + x2", 3)
    assert e_on_vars(4, 3) == XPoly.zero(3)
    assert e_on_vars(0, 2) == XPoly.const(2, 1)


def test_schur_xpoly_small_cases():
    assert schur_xpoly((1,), 2) == parse_xpoly("x1 + x2", 2)
    assert schur_xpoly((2, 1), 2) == parse_xpoly("x1^2*x2 + x1*x2^2", 2)
    assert schur_xpoly((1, 1, 1), 2) == XPoly.zero(2)
    assert schur_xpoly((), 2) == XPoly.const(2, 1)
    assert schur_xpoly((m := 2,), 2) == h_on_vars(m, 2)
    assert schur_xpoly((1, 1), 3) == e_on_vars(2, 3)


def test_wide_schur_xpoly_needs_no_deep_recursion():
    # one tableau each; a recursion per cell overflowed the default limit
    assert schur_xpoly((1200,), 1) == parse_xpoly("x1^1200", 1)
    assert schur_xpoly((700, 700), 2) == parse_xpoly("x1^700*x2^700", 2)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=3))
@settings(max_examples=30, deadline=None)
def test_schur_xpoly_is_symmetric(parts):
    lam = tuple(sorted(parts, reverse=True))
    k = 3
    p = schur_xpoly(lam, k)
    for perm in permutations(range(k)):
        permuted = {tuple(mono[i] for i in perm): const_value(c)
                    for mono, c in p.terms.items()}
        assert XPoly(k, permuted) == p


@given(st.lists(st.integers(min_value=1, max_value=4),
                max_size=3, unique=False))
@settings(max_examples=25, deadline=None)
def test_bialternant_identity(parts):
    # a_rho * s_lambda = a_(lambda + rho)
    lam = tuple(sorted(parts, reverse=True))
    k = 3
    rho = tuple(range(k - 1, -1, -1))
    lam_p = pad(lam, k)
    shifted = tuple(lam_p[i] + rho[i] for i in range(k))
    assert alternant(rho, k) * schur_xpoly(lam, k) == alternant(shifted, k)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=3))
@settings(max_examples=25, deadline=None)
def test_jacobi_trudi(parts):
    # s_lambda = det(h_(lambda_u - u + v)) over complete homogeneous pieces
    lam = tuple(sorted(parts, reverse=True))
    if not lam:
        return
    k = 3
    m = len(lam)
    grid = [[_h_or_zero(lam[u] - u + v, k) for v in range(m)]
            for u in range(m)]
    assert xpoly_det(grid) == schur_xpoly(lam, k)


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=3))
@settings(max_examples=25, deadline=None)
def test_dual_jacobi_trudi(parts):
    # s_lambda = det(e_(lambda'_u - u + v)) over elementary pieces
    lam = tuple(sorted(parts, reverse=True))
    if not lam:
        return
    k = 3
    conj = conjugate(lam)
    m = len(conj)
    grid = [[_e_or_zero(conj[u] - u + v, k) for v in range(m)]
            for u in range(m)]
    assert xpoly_det(grid) == schur_xpoly(lam, k)


def _h_or_zero(m, k):
    return h_on_vars(m, k) if m >= 0 else XPoly.zero(k)


def _e_or_zero(m, k):
    return e_on_vars(m, k) if m >= 0 else XPoly.zero(k)


def test_tail_h_expansion_identity():
    # h_p(x_i..x_k) = sum_t (-1)^t e_t(x_1..x_(i-1)) h_(p-t)(x_1..x_k)
    for k in (2, 3):
        for i in range(1, k + 1):
            for p in range(0, 7):
                lhs = h_on_vars(p, k, lo=i)
                rhs = XPoly.zero(k)
                for t in range(i):
                    if p - t < 0:
                        continue
                    term = e_on_vars(t, k, hi=i - 1) * h_on_vars(p - t, k)
                    rhs = rhs + (term if t % 2 == 0 else -term)
                assert lhs == rhs, (k, i, p)


def test_h_from_lower_h_and_e():
    # h_p = -sum_(t=1..k) (-1)^t e_t h_(p-t) once p >= 1 (and e_t = 0 past k)
    for k in (2, 3):
        for p in range(1, 7):
            rhs = XPoly.zero(k)
            for t in range(1, min(p, k) + 1):
                term = e_on_vars(t, k) * h_on_vars(p - t, k)
                rhs = rhs + (-term if t % 2 == 0 else term)
            assert h_on_vars(p, k) == rhs, (k, p)


# -- the reduction system ------------------------------------------------------------

def test_generator_leading_terms():
    for k, n in ((1, 3), (2, 4), (2, 5), (3, 6), (3, 7)):
        gens = groebner_generators(k, n)
        assert len(gens) == k
        for i, g in enumerate(gens, start=1):
            mono = [0] * k
            mono[i - 1] = n - k + i
            assert max(g.terms, key=deglex_key) == tuple(mono)
            assert const_value(g.terms[tuple(mono)]) == 1


def test_generators_frozen_2_5():
    b1, b2 = groebner_generators(2, 5)
    assert b1.render() == "x1^4 + x1^3*x2 + x1^2*x2^2 + x1*x2^3 + x2^4 - a1"
    assert b2.render() == "x2^5 + a1*x1 - a2"


def test_generators_are_owned_by_the_caller():
    # a caller that empties a returned generator must not change the next
    # call, nor the reduction that normal_form builds from it
    groebner_generators(2, 4)[0].terms.clear()
    b1, b2 = groebner_generators(2, 4)
    assert b1 == parse_xpoly("x1^3 + x1^2*x2 + x1*x2^2 + x2^3 - a1", 2)
    assert b2 == parse_xpoly("x2^4 + a1*x1 - a2", 2)
    assert normal_form(2, 4, XPoly.monomial(2, (3, 0))).render() == \
        "-x1^2*x2 - x1*x2^2 - x2^3 + a1"


def test_constructor_copies_the_coefficients_it_is_given():
    c = APoly.gen(1)
    p = XPoly(2, {(1, 0): c})
    c.terms[(2,)] = 1
    assert p.render() == "a1*x1"


def test_mixed_variable_counts_rejected():
    p, q = XPoly.monomial(2, (1, 0)), XPoly.monomial(3, (0, 1, 0))
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_normal_form_examples_2_5():
    x1_4 = XPoly.monomial(2, (4, 0))
    assert normal_form(2, 5, x1_4).render() == \
        "-x1^3*x2 - x1^2*x2^2 - x1*x2^3 - x2^4 + a1"
    x2_5 = XPoly.monomial(2, (0, 5))
    assert normal_form(2, 5, x2_5).render() == "-a1*x1 + a2"


def test_heavy_normal_form_is_pinned():
    text = normal_form(3, 6, parse_xpoly("-7*x1^30*x2^15", 3)).render()
    assert len(text) == 13740
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a88f605a32b8e1d9d2da8b7ed924419fac132c0af32b35a1fe9cb2c2bec05ebf"


def test_sums_do_not_share_coefficients_with_their_operands():
    p, q = parse_xpoly("x1 + a1*x2", 2), parse_xpoly("x2", 2)
    (p + q).terms[(1, 0)].terms[()] = 5
    (p - q).terms[(1, 0)].terms[()] = 6
    assert p.render() == "x1 + a1*x2"


def test_normal_form_does_not_share_coefficients_with_its_input():
    p = parse_xpoly("x1 + a1*x2 + x1^3", 2)
    normal_form(2, 4, p).terms[(1, 0)].terms[()] = 5
    assert p.render() == "x1^3 + x1 + a1*x2"


def test_normal_form_kills_generators():
    for k, n in ((1, 4), (2, 4), (2, 5), (3, 6)):
        for g in groebner_generators(k, n):
            assert not normal_form(k, n, g)
        # and any polynomial multiple of a generator
        x_last = XPoly.monomial(k, tuple([0] * (k - 1) + [1]))
        for g in groebner_generators(k, n):
            assert not normal_form(k, n, g * x_last + g * 3)


@given(xpolys(max_deg=6))
@settings(max_examples=40, deadline=None)
def test_normal_form_idempotent_linear(p):
    k, n = 2, 5
    nf = normal_form(k, n, p)
    assert all(m[i] < n - k + 1 + i for m in nf.terms for i in range(k))
    assert normal_form(k, n, nf) == nf
    q = XPoly.monomial(k, (2, 3), -2)
    assert normal_form(k, n, p + q) == \
        normal_form(k, n, p) + normal_form(k, n, q)


@given(xpolys(max_deg=5), xpolys(max_deg=5))
@settings(max_examples=25, deadline=None)
def test_normal_form_multiplicative_modulo_ideal(p, q):
    k, n = 2, 5
    lhs = normal_form(k, n, p * q)
    rhs = normal_form(k, n, normal_form(k, n, p) * normal_form(k, n, q))
    assert lhs == rhs


def test_monomial_basis():
    assert monomial_basis(1, 4) == [(0,), (1,), (2,), (3,)]
    for k, n in ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6)):
        basis = monomial_basis(k, n)
        count = 1
        for i in range(1, k + 1):
            count *= n - k + i
        assert len(basis) == count
        assert len(set(basis)) == count
        assert all(mono[i] < n - k + 1 + i
                   for mono in basis for i in range(k))
        # ascending deglex
        assert basis == sorted(basis, key=deglex_key)


def test_is_normal_detects_reducible():
    # at (2, 5) a monomial is normal iff x1^4 and x2^5 do not divide it,
    # which is exactly when normal_form leaves it alone
    for mono, normal in (((4, 0), False), ((1, 5), False), ((3, 4), True)):
        assert all(e < b for e, b in zip(mono, (4, 5))) == normal
        p = XPoly.monomial(2, mono)
        assert (normal_form(2, 5, p) == p) == normal
