"""Kostka and Littlewood-Richardson counting.  The package's one LR
algorithm, the cellwise lattice-word walk, gives skew expansions and
products (the cells of mu, values capped at k, counts starting at nu).  It
is checked against the walk on the whole shape nu * mu, against the
strip-chain product expander kept here, an independent second LR
algorithm, and against exact polynomial arithmetic in Z[x_1..x_k]."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from schurbox.grobner import XPoly, deglex_key, h_on_vars, schur_xpoly
from schurbox.partitions import (
    check_partition, complement, conjugate, contains, dominates,
    enumerate_pkn, pad, size, horizontal_strip_extensions,
)
from schurbox.tableaux import (
    _lr_walk, kostka, lr_coefficient, schur_product_expand, skew_schur_expand,
    uncancelled_pieri,
)
from test_apoly import const_value
from test_grobner import xpoly_det


def schur_decompose(p, k):
    """Oracle: write a symmetric XPoly as a sum of Schur polynomials by
    repeatedly stripping the deglex-leading monomial, whose exponent vector
    is always a partition."""
    out = {}
    while p:
        mono = max(p.terms, key=deglex_key)
        lam = check_partition(mono)
        assert tuple(pad(lam, k)) == mono, f"leading term {mono} not dominant"
        c = const_value(p.terms[mono])
        out[lam] = c
        p = p - schur_xpoly(lam, k) * c
    return out


# -- the strip-chain oracle -------------------------------------------------------
# A second Littlewood-Richardson algorithm, independent of the package's
# walk: chains of horizontal strips under the ballot condition.

def _strips(shape, bounds, boxes, cap):
    """The horizontal strips of the given number of boxes on shape (a
    padded partition) with at most bounds[r] boxes in rows 0..r, as states
    new shape + next bounds.  The next strip, of cap boxes, may put in rows
    0..r at most as many boxes as this one put in rows 0..r-1 (the ballot
    condition); its bounds are capped at cap, and a strip after which it
    cannot fit is dropped."""
    last = len(shape) - 1
    out = []
    new, placed_to = list(shape), [0] * len(shape)

    def rec(row, placed):
        remaining = boxes - placed
        if not remaining:
            placed_to[row:] = [placed] * (last + 1 - row)
            # the next strip has no box in row 0, so rows 1.. must hold it
            if cap <= (placed_to[last - 1] if last else 0) and \
                    cap <= new[0] - new[last]:
                out.append(tuple(new + [0] + [b if b < cap else cap
                                              for b in placed_to[:-1]]))
            return
        # A row as long as the row above takes no box: step past it.
        while row and shape[row - 1] == shape[row]:
            if remaining > shape[row] - shape[last]:
                return
            placed_to[row] = placed
            row += 1
        # A row takes at most the old length of the row above it, so the
        # rows below this one hold at most shape[row] - shape[-1] boxes.
        hi = bounds[row] - placed
        if row and shape[row - 1] - shape[row] < hi:
            hi = shape[row - 1] - shape[row]
        if remaining < hi:
            hi = remaining
        lo = remaining - shape[row] + shape[last]
        for add in range(hi, (lo if lo > 0 else 0) - 1, -1):
            new[row] = shape[row] + add
            placed_to[row] = placed + add
            rec(row + 1, placed + add)
        new[row] = shape[row]

    rec(0, 0)
    return out


def _chain_products(mu, nu, max_len):
    """Expand s_mu * s_nu as {lam: count} over partitions lam with at most
    max_len parts, by growing mu with horizontal strips of sizes nu_1,
    nu_2, ... subject to the ballot condition: after placing value t, the
    number of t's in rows 1..i never exceeds the number of (t-1)'s in rows
    1..i-1.  A forward pass over {shape + ballot bounds: chains}: chains
    reaching the same state are counted together.  A bound is capped at the
    size of the strip it limits, so the last strip's states merge on shape
    alone."""
    # A state is one tuple, the padded shape and then the bounds (fewer
    # objects than a pair of tuples); the first strip has no ballot bound.
    states = {pad(mu, max_len) + (sum(nu),) * max_len: 1}
    for i, boxes in enumerate(nu):
        cap = nu[i + 1] if i + 1 < len(nu) else 0
        advanced = {}
        for state, count in states.items():
            for key in _strips(state[:max_len], state[max_len:], boxes, cap):
                advanced[key] = advanced.get(key, 0) + count
        states = advanced
    out = {}
    for state, count in states.items():
        lam = state[:max_len - state[:max_len].count(0)]
        out[lam] = out.get(lam, 0) + count
    return out


@st.composite
def small_partitions(draw, max_len=3, max_part=4):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_part),
                          max_size=max_len))
    return tuple(sorted(parts, reverse=True))


# -- Kostka numbers -----------------------------------------------------------

def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2, 1), (2, 2, 1, 1)) == 4
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    assert kostka((), ()) == 1


@given(small_partitions())
def test_kostka_diagonal_and_domination(lam):
    assert kostka(lam, lam) == 1
    # nonzero only below lam in dominance
    for mu in _partitions_of(size(lam), 4, 4):
        if kostka(lam, mu):
            assert dominates(lam, mu)


def test_kostka_size_mismatch():
    assert kostka((2, 1), (1, 1)) == 0
    assert kostka((1,), (1, 1)) == 0


@given(small_partitions())
@settings(max_examples=40)
def test_kostka_matches_monomial_coefficients(lam):
    # K_{lam,mu} is the coefficient of x^mu in s_lam, built here as the
    # Jacobi-Trudi determinant det(h_{lam_u - u + v}), not from kostka
    k = max(len(lam), 1) + 1
    m = max(len(lam), 1)
    parts = pad(lam, m)
    s = xpoly_det([[h_on_vars(parts[u] - u + v, k) for v in range(m)]
                   for u in range(m)])
    for mu in _partitions_of(size(lam), k, max(size(lam), 1)):
        want = s.terms.get(tuple(pad(mu, k)))
        want = const_value(want) if want is not None else 0
        assert kostka(lam, mu) == want


def _partitions_of(d, max_len, max_part):
    from schurbox.partitions import partitions_in_rect
    return list(partitions_in_rect(d, max_len, max_part))


# -- Littlewood-Richardson ------------------------------------------------------

def test_lr_examples():
    # both fillings of (4,3,2)/(3,1) with content (3,2)
    assert lr_coefficient((4, 3, 2), (3, 1), (3, 2)) == 2
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((1, 1, 1), (1,), (2,)) == 0
    assert lr_coefficient((2,), (1,), (1,)) == 1
    assert lr_coefficient((4,), (1,), (1,)) == 0


def test_lr_trivial_cases():
    assert lr_coefficient((3, 1), (3, 1), ()) == 1
    assert lr_coefficient((3, 1), (), (3, 1)) == 1
    assert lr_coefficient((3, 1), (2, 2), (1,)) == 0  # mu not contained


@given(small_partitions(), small_partitions())
@settings(max_examples=30, deadline=None)
def test_product_expansion_matches_polynomials(mu, nu):
    k = 3
    mu, nu = mu[:k], nu[:k]
    got = schur_product_expand(mu, nu, k)
    prod = schur_xpoly(mu, k) * schur_xpoly(nu, k)
    assert schur_decompose(prod, k) == got


@given(small_partitions(), small_partitions())
@settings(max_examples=60, deadline=None)
def test_two_lr_routes_agree(mu, nu):
    k = 3
    mu, nu = mu[:k], nu[:k]
    expansion = schur_product_expand(mu, nu, k)
    for lam in expansion:
        assert lr_coefficient(lam, mu, nu) == expansion[lam]
    # and vanishing outside the support
    for lam in _partitions_of(size(mu) + size(nu), k, size(mu) + size(nu)):
        assert lr_coefficient(lam, mu, nu) == expansion.get(lam, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_two_lr_routes_agree_on_every_box_pair(k):
    """Every ordered pair in the k x 3 box: the product expansion is exactly
    the strip chain's, and exactly the nonzero lr_coefficient values over
    all lam with at most k parts (lam_1 <= mu_1 + nu_1, as for every
    Littlewood-Richardson coefficient)."""
    box = enumerate_pkn(k, k + 3)
    for mu, nu in product(box, repeat=2):
        want = _chain_products(mu, nu, k)
        assert schur_product_expand(mu, nu, k) == want, (mu, nu)
        d, width = size(mu) + size(nu), sum(mu[:1] + nu[:1])
        assert want == {lam: c for lam in _partitions_of(d, k, width)
                        if (c := lr_coefficient(lam, mu, nu))}, (mu, nu)


def test_products_match_the_strip_chain_on_every_pair_at_4_8():
    box = enumerate_pkn(4, 8)
    for mu, nu in product(box, repeat=2):
        assert schur_product_expand(mu, nu, 4) == \
            _chain_products(mu, nu, 4), (mu, nu)


# -- the whole-shape oracle -------------------------------------------------------
# The product as the walk over every cell of nu * mu, the rows of nu
# included, rather than over mu's cells with the counts starting at nu.

def _shape_products(mu, nu, k):
    """s_mu s_nu in k variables: the walk on nu * mu, nu on top shifted
    past mu_1 and mu below it, with every value at most k."""
    top = mu[0] if mu else 0
    return _lr_walk(tuple(top + p for p in nu) + mu, (top,) * len(nu),
                    k).get((), {})


@pytest.mark.parametrize("n", range(1, 9))
def test_products_match_the_whole_shape_walk_on_every_pair(n):
    """Every ordered pair of box partitions for every k with n <= 8."""
    for k in range(1, n):
        box = enumerate_pkn(k, n)
        for mu, nu in product(box, repeat=2):
            assert schur_product_expand(mu, nu, k) == \
                _shape_products(mu, nu, k), (k, n, mu, nu)


@pytest.mark.parametrize("k, n", [(5, 10), (6, 12)])
def test_products_match_the_strip_chain_where_the_cap_binds(k, n):
    """200 seeded random box pairs with len(mu) + len(nu) > k: the shape
    nu * mu has more than k rows, so capping the values at k drops
    contents.  Checked against both oracles."""
    rng = random.Random(k * 100 + n)
    box = [lam for lam in enumerate_pkn(k, n) if lam]
    for _ in range(200):
        mu = rng.choice(box)
        nu = rng.choice([lam for lam in box if len(lam) + len(mu) > k])
        got = schur_product_expand(mu, nu, k)
        assert got == _chain_products(mu, nu, k), (mu, nu)
        assert got == _shape_products(mu, nu, k), (mu, nu)


@given(small_partitions(), small_partitions())
@settings(max_examples=40, deadline=None)
def test_lr_symmetry_in_factors(mu, nu):
    k = 3
    mu, nu = mu[:k], nu[:k]
    assert schur_product_expand(mu, nu, k) == schur_product_expand(nu, mu, k)


@pytest.mark.parametrize("k, n", [(3, 8), (4, 8)])
def test_lr_symmetry_in_factors_on_every_box_pair(k, n):
    """The walk fills the first factor's cells, so s_a s_b and s_b s_a are
    two different fillings; they agree on every ordered pair."""
    box = enumerate_pkn(k, n)
    for a, b in product(box, repeat=2):
        assert schur_product_expand(a, b, k) == \
            schur_product_expand(b, a, k), (a, b)


@given(small_partitions(), small_partitions())
@settings(max_examples=40, deadline=None)
def test_lr_dominance_sandwich(mu, nu):
    def entrywise_sum(mu, nu):
        rows = max(len(mu), len(nu))
        return check_partition(a + b for a, b in zip(pad(mu, rows),
                                                     pad(nu, rows)))

    def sorted_concat(mu, nu):
        return tuple(sorted(mu + nu, reverse=True))

    k = 4
    mu, nu = mu[:k], nu[:k]
    for lam, c in schur_product_expand(mu, nu, k).items():
        assert c > 0
        if lam:
            assert lam[0] <= (mu[0] if mu else 0) + (nu[0] if nu else 0)
        assert dominates(entrywise_sum(mu, nu), lam)
        assert dominates(lam, sorted_concat(mu, nu))
        assert contains(lam, mu) and contains(lam, nu)


def test_pieri_special_case_of_lr():
    # multiplying by a single row adds a horizontal strip
    lam = (3, 2)
    for j in range(4):
        got = schur_product_expand(lam, (j,) if j else (), 3)
        want = {mu: 1 for mu in horizontal_strip_extensions(lam, j, 3, 99)}
        assert got == want


# -- skew expansion ---------------------------------------------------------------

def brute_skew_xpoly(lam, mu, k):
    """Oracle: enumerate all skew semistandard fillings directly."""
    rows = len(lam)
    mu_p = pad(mu, rows)
    cells = [(r, c) for r in range(rows) for c in range(mu_p[r], lam[r])]
    terms = {}

    def rec(idx, grid, content):
        if idx == len(cells):
            terms[tuple(content)] = terms.get(tuple(content), 0) + 1
            return
        r, c = cells[idx]
        left = grid.get((r, c - 1), 1) if c - 1 >= mu_p[r] else 1
        above = grid.get((r - 1, c), 0) + 1 if r > 0 and c >= mu_p[r - 1] else 1
        for v in range(max(left, above), k + 1):
            grid[(r, c)] = v
            content[v - 1] += 1
            rec(idx + 1, grid, content)
            content[v - 1] -= 1
            del grid[(r, c)]

    rec(0, {}, [0] * k)
    return XPoly(k, terms)


def test_skew_expansion_examples():
    assert skew_schur_expand((4, 3, 2), (3, 1)) == \
        {(4, 1): 1, (3, 2): 2, (3, 1, 1): 1, (2, 2, 1): 1}
    assert skew_schur_expand((2, 1), ()) == {(2, 1): 1}
    assert skew_schur_expand((1,), (2,)) == {}


@given(small_partitions(), small_partitions())
@settings(max_examples=30, deadline=None)
def test_skew_expansion_matches_fillings(lam, mu):
    if not contains(lam, mu):
        return
    k = len(lam) + 1
    got = skew_schur_expand(lam, mu)
    poly = brute_skew_xpoly(lam, mu, k)
    want = schur_decompose(poly, k)
    want = {nu: c for nu, c in want.items() if len(nu) <= len(lam)}
    got = {nu: c for nu, c in got.items() if len(nu) < k}
    assert got == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_skew_expansion_matches_the_strip_chain_on_every_box_pair(k):
    """Every lam in the k x 3 box and every mu inside it: s_{lam/mu} read
    off the strip-chain products s_mu * s_nu over every nu of the right size
    inside lam (c_{mu,nu}^lam vanishes unless nu lies inside lam)."""
    box = enumerate_pkn(k, k + 3)
    for lam, mu in product(box, repeat=2):
        if contains(lam, mu):
            want = {nu: c for nu in box
                    if contains(lam, nu) and size(mu) + size(nu) == size(lam)
                    and (c := _chain_products(mu, nu, len(lam)).get(lam))}
            assert skew_schur_expand(lam, mu) == want, (lam, mu)


def test_skew_expansion_is_a_new_dict():
    got = skew_schur_expand((4, 3, 2), (3, 1))
    got[(3, 2)] = 0
    got.pop((4, 1))
    assert skew_schur_expand((4, 3, 2), (3, 1)) == \
        {(4, 1): 1, (3, 2): 2, (3, 1, 1): 1, (2, 2, 1): 1}


def test_skew_complement_identity():
    # removing the complement from the full box leaves a copy of lam
    for k, n in ((2, 4), (2, 5), (3, 6)):
        w = (n - k,) * k
        for lam in enumerate_pkn(k, n):
            assert skew_schur_expand(w, complement(lam, k, n)) == {lam: 1}


# -- uncancelled Pieri --------------------------------------------------------------

def test_uncancelled_pieri_worked_example():
    # expanding s_(-2,2,1) * h_2 at k=3 leaves s_(2,1) + s_(3)
    assert uncancelled_pieri((-2, 2, 1), 2) == {(2, 1): 1, (3,): 1}


def test_uncancelled_pieri_rejects_bad_vector():
    with pytest.raises(ValueError):
        uncancelled_pieri((-3, 0, 0), 1)
    with pytest.raises(ValueError):
        uncancelled_pieri((1, 1), -1)


@given(small_partitions(), st.integers(min_value=0, max_value=4))
@settings(max_examples=50)
def test_uncancelled_pieri_on_partitions_is_classical(lam, m):
    # for partition input every term survives with sign +1: the h-Pieri rule
    k = max(len(lam), 1)
    got = uncancelled_pieri(pad(lam, k), m)
    want = {mu: 1 for mu in horizontal_strip_extensions(lam, m, k, 99)}
    assert got == want
