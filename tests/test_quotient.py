"""The quotient ring in its abstract basis (s[lam]) indexed by partitions in
the k x (n-k) box, with coefficients in Z[a_1..a_k]: straightening, products,
the closed Pieri rule, duality with respect to the box-filling class, and the
symmetry/positivity scans.  Cross-checked against the x-variable reduction
system wherever both routes exist."""

import importlib
import json
import multiprocessing
import pkgutil
import random
import sys
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import schurbox
from schurbox import bases, clear_caches, quotient
from schurbox.apoly import (
    APoly, add_product, classical_specialization, parse_specialization,
    polys_of, quantum_specialization,
)
from schurbox.cli import main
from schurbox.grobner import h_on_vars, normal_form, schur_xpoly
from schurbox.partitions import (
    complement, enumerate_pkn, horizontal_strip_extensions, in_box, pad,
    partitions_in_rect, size, straighten_vector,
)
from schurbox.quotient import (
    QuotElem, canonical_order, check_context, multiply,
    omega, pieri_h, positivity_scan, reduce_h_overflow, s3_report,
    specialize_elem, straighten_combination, straighten_schur,
    structure_constant,
)
from schurbox.tableaux import lr_coefficient, schur_product_expand
from test_apoly import const_value


@st.composite
def quot_elems(draw, k=2, n=5):
    basis = enumerate_pkn(k, n)
    p = QuotElem.zero(k, n)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lam = draw(st.sampled_from(basis))
        c = draw(st.integers(min_value=-3, max_value=3))
        i = draw(st.integers(min_value=0, max_value=k))
        scalar = APoly.const(c) if i == 0 else APoly.gen(i) * c
        p = p + QuotElem.basis(k, n, lam) * scalar
    return p


# -- contexts and validation --------------------------------------------------

def test_context_validation():
    check_context(2, 5)
    check_context(1, 2)
    check_context(2, 2)  # k = n: the box is empty but the ring is fine
    for k, n in ((0, 3), (3, 2), (-1, 4)):
        with pytest.raises(ValueError):
            check_context(k, n)


def test_omega():
    assert omega(2, 5) == (3, 3)
    assert omega(3, 4) == (1, 1, 1)


def test_coeff_rejects_out_of_box():
    f = QuotElem.basis(2, 5, (3, 3))
    with pytest.raises(ValueError):
        f.coeff((4,))
    with pytest.raises(ValueError):
        f.coeff((1, 1, 1))


def test_mixed_contexts_rejected():
    f = QuotElem.basis(2, 5, (1,))
    g = QuotElem.basis(2, 4, (1,))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        multiply(f, g)


# -- straightening ------------------------------------------------------------

def test_straighten_fixed_on_box_partitions():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        for lam in enumerate_pkn(k, n):
            assert straighten_schur(k, n, lam) == QuotElem.basis(k, n, lam)


def test_straighten_too_many_rows_is_zero():
    assert not straighten_schur(2, 5, (1, 1, 1))
    assert not straighten_schur(3, 6, (2, 2, 1, 1))


def test_straighten_known_expansions():
    s = straighten_schur(3, 6, (5, 4, 1))
    assert s.render() == "-a2*s[3,1,1] + a1^2*s[1,1] - a1*a2*s[1] + a1*a3*s[]"
    s = straighten_schur(3, 6, (4, 4, 3))
    assert s.render() == \
        "-a2*s[3,3] + a3*s[3,2] + a1^2*s[3] - 2*a1*a2*s[2] + a2^2*s[1]"
    s = straighten_schur(2, 5, (7, 7))
    assert s.render() == "a1^2*s[3,3] - a1*a2*s[3,2] + a2^2*s[2,2]"


def test_straighten_classical_limit_can_vanish():
    # every term of the (5,4,1) expansion carries an a-factor
    s = straighten_schur(3, 6, (5, 4, 1))
    assert specialize_elem(s, classical_specialization(3)) == {}


def _full_walk(k, n, mu):
    """The nonvanishing terms (|mu + tau|, sign, lam) of one rim-hook step
    over all 2^(k-1) vectors tau = (-n, t_2, ..., t_k); |mu + tau| fixes
    the a_j of the term."""
    mu_p = pad(mu, k)
    terms = Counter()
    for tail in product((0, 1), repeat=k - 1):
        alpha = tuple(m + t for m, t in zip(mu_p, (-n,) + tail))
        res = straighten_vector(alpha)
        if res is not None:
            terms[(sum(alpha),) + res] += 1
    return terms


def test_surviving_rim_hooks_match_the_full_walk(monkeypatch):
    """One step of _straighten, with the recursion stubbed out, resolves
    exactly the nonvanishing terms of the full vector walk, on every shape
    with k <= 5, n-k <= 3 and n-k < mu_1 <= 3(n-k)."""
    step = quotient._straighten.__wrapped__
    seen = Counter()

    def recording(alpha):
        res = straighten_vector(alpha)
        if res is not None:
            seen[(sum(alpha),) + res] += 1
        return res

    monkeypatch.setattr(quotient, "straighten_vector", recording)
    # the flat memo of s[] with coefficient 1, whatever lam is
    monkeypatch.setattr(quotient, "_straighten", lambda k, n, lam: (0, 1))
    shapes = 0
    for k in range(1, 6):
        for n in range(k + 1, k + 4):
            for d in range(n - k + 1, 3 * (n - k) * k + 1):
                for mu in partitions_in_rect(d, k, 3 * (n - k)):
                    if mu[0] <= n - k:
                        continue
                    seen.clear()
                    step(k, n, mu)
                    assert seen == _full_walk(k, n, mu), (k, n, mu)
                    shapes += 1
    assert shapes == 3718


@lru_cache(maxsize=None)
def _rim_hook_oracle(k, n, mu):
    """The class of s_mu as {nu: APoly}, by the rim-hook recursion in APoly
    arithmetic, over the same surviving vectors as _straighten."""
    if in_box(mu, k, n):
        return {mu: APoly.const(1)}
    mu_p = pad(mu, k)
    vectors = [(-n,)]
    for r in Counter(mu_p[1:]).values():
        vectors = [tau + (1,) * a + (0,) * (r - a)
                   for tau in vectors for a in range(r + 1)]
    out = {}
    for tau in vectors:
        res = straighten_vector(tuple(m + t for m, t in zip(mu_p, tau)))
        if res is None:
            continue
        sgn, lam = res
        j = -sum(tau) - (n - k)
        coeff = APoly.gen(j) * (sgn * (-1 if (k - j) % 2 else 1))
        for nu, c in _rim_hook_oracle(k, n, lam).items():
            out[nu] = out.get(nu, APoly()) + coeff * c
    return {nu: c for nu, c in out.items() if c}


def test_straightening_matches_the_apoly_recursion():
    """The packed straightening against the APoly rim-hook recursion, on
    every mu with k <= 4, n <= 8 and mu_1 <= 3(n-k), and on the one-term
    shapes of large contexts."""
    shapes = 0
    for k in range(1, 5):
        for n in range(k, 9):
            for d in range(3 * (n - k) * k + 1):
                for mu in partitions_in_rect(d, k, 3 * (n - k)):
                    assert straighten_schur(k, n, mu).terms == \
                        _rim_hook_oracle(k, n, mu), (k, n, mu)
                    shapes += 1
    assert shapes == 4980
    for k, n, mu in ((16, 17, (2,)), (1500, 1501, (1,))):
        assert straighten_schur(k, n, mu).terms == \
            _rim_hook_oracle(k, n, mu)


def test_straighten_recursion_costs_one_frame_per_rim_hook():
    """At (1,2), s[m] = a1^(m//2) s[m%2] takes m//2 rim hooks: 350 of them
    fit under the default recursion limit only when each hook costs the
    memo's one frame (and its cache wrapper), not a second frame in the
    accumulator."""
    clear_caches()
    assert straighten_schur(1, 2, (700,)).render() == "a1^350*s[]"


def test_straighten_rejects_exponents_past_the_field_width(monkeypatch):
    """A coefficient whose degree, plus the degree that straightening adds,
    would carry out of an exponent field is a ValueError, not a wrong key;
    a partition too large for the fields is rejected before any of its
    rim hooks is straightened."""
    monkeypatch.setattr(quotient, "_W", 3)
    clear_caches()
    try:
        with pytest.raises(ValueError, match="does not fit"):
            straighten_schur(1, 2, (16,))
        assert quotient._straighten.cache_info().currsize == 0
        a1 = APoly.gen(1)
        # at (1,2), s[3] = a1*s[1]: degree 6 + 1 fits in 3 bits, 7 + 1 not
        assert straighten_combination(1, 2, {(3,): a1 ** 6}).render() == \
            "a1^7*s[1]"
        with pytest.raises(ValueError, match="does not fit"):
            straighten_combination(1, 2, {(3,): a1 ** 7})
        with pytest.raises(ValueError, match="does not fit"):
            straighten_combination(1, 2, {(1,): a1 ** 8})
    finally:
        clear_caches()


def test_monomial_key_holds_only_the_exponents():
    """A monomial's packed key holds e_j in field j-1 and nothing else, so
    it unpacks to e without its trailing zeros."""
    top = (1 << quotient._W) - 1
    for k in range(1, 7):
        for e in product((0, 1, 2, top), repeat=k):
            want = e[:max((j for j, x in enumerate(e, 1) if x), default=0)]
            assert quotient._fields(
                quotient._monomial_key(e, 0), quotient._W) == want, e


def test_canonical_order_is_the_box_enumeration():
    rng = random.Random(11)
    for n in range(12):
        for k in range(n + 1):
            box = enumerate_pkn(k, n)
            shuffled = list(box)
            rng.shuffle(shuffled)
            assert canonical_order(shuffled) == list(box), (k, n)


def test_straighten_degree_homogeneous():
    # deg a_i = n - k + i makes every straightening homogeneous
    for k, n, mu in ((3, 6, (5, 4, 1)), (3, 6, (4, 4, 3)), (2, 5, (7, 7)),
                     (2, 4, (5, 2)), (2, 5, (6, 3))):
        s = straighten_schur(k, n, mu)
        for lam, c in s.terms.items():
            for mono in c.terms:
                a_deg = sum((n - k + i + 1) * e
                            for i, e in enumerate(mono))
                assert a_deg + size(lam) == size(mu)


# -- ring structure -----------------------------------------------------------

@given(quot_elems(), quot_elems(), quot_elems())
@settings(max_examples=30, deadline=None)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert multiply(f, g) == multiply(g, f)
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
    assert multiply(f + g, h) == multiply(f, h) + multiply(g, h)
    assert multiply(f, QuotElem.one(2, 5)) == f
    assert f - f == QuotElem.zero(2, 5)


@given(quot_elems(k=3, n=6))
@settings(max_examples=20, deadline=None)
def test_scalar_action(f):
    assert f * 2 == f + f
    assert f * APoly.gen(2) == QuotElem(
        3, 6, {lam: c * APoly.gen(2) for lam, c in f.terms.items()})


# -- the product table --------------------------------------------------------

def _apoly_route_product(k, n, lam, mu):
    """s[lam] * s[mu] as {nu: APoly}: the LR expansion, straightened."""
    return straighten_combination(k, n, schur_product_expand(lam, mu, k)).terms


def _apoly_route_multiply(f, g):
    """The product of two elements summed coefficient by coefficient from
    {nu: APoly} products, the oracle of the packed rows."""
    k, n = f.context
    sums = {}
    for lam, cf in f.terms.items():
        for mu, cg in g.terms.items():
            c = cf * cg
            for nu, ap in _apoly_route_product(k, n, lam, mu).items():
                add_product(sums.setdefault(nu, {}), ap, c)
    return QuotElem(k, n, polys_of(sums))


@pytest.mark.parametrize("k, n", [(2, 6), (3, 7), (4, 8)])
def test_product_rows_match_the_apoly_route(k, n):
    """Every ordered pair's row holds, at each packed nu, its (e, c) pairs
    strictly ascending in e, so that equal coefficients are equal tuples,
    and reads back as the straightened LR expansion (one expansion for
    both orders of a pair: the LR coefficients are symmetric)."""
    box = enumerate_pkn(k, n)
    for i, lam in enumerate(box):
        for mu in box[i:]:
            want = {quotient._pack(k, n, nu): c for nu, c in
                    _apoly_route_product(k, n, lam, mu).items()}
            for pair in ((lam, mu), (mu, lam)):
                row = quotient._product_row(
                    k, n, schur_product_expand(*pair, k))
                for flat in row.values():
                    es = flat[::2]
                    assert all(a < b for a, b in zip(es, es[1:])), pair
                    assert all(flat[1::2]), pair
                assert {nu: quotient._coeff(flat)
                        for nu, flat in row.items()} == want, pair


def _random_elem(rng, k, n):
    """An element with up to three terms, each coefficient a sum of up to
    three signed monomials in a_1..a_k."""
    box = enumerate_pkn(k, n)
    terms = {}
    for lam in rng.sample(box, rng.randint(1, min(3, len(box)))):
        c = APoly()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(k))
            c = c + APoly.monomial(e, rng.choice((-3, -1, 1, 2)))
        terms[lam] = c
    return QuotElem(k, n, terms)


def test_multiply_general_coefficients_matches_the_apoly_route():
    rng = random.Random(19)
    for k, n in ((1, 3), (2, 5), (3, 6), (3, 7), (4, 7)):
        for _ in range(25):
            f, g = _random_elem(rng, k, n), _random_elem(rng, k, n)
            assert multiply(f, g) == _apoly_route_multiply(f, g), (f, g)


def test_multiply_reads_no_product_table():
    """multiply straightens the LR expansion of each pair of terms: on
    products of basis classes and of general elements it agrees with the
    APoly route."""
    rng = random.Random(20)
    for k, n in ((2, 5), (3, 7), (4, 8)):
        box = enumerate_pkn(k, n)
        pairs = [(QuotElem.basis(k, n, lam), QuotElem.basis(k, n, mu))
                 for lam, mu in rng.sample(list(product(box, box)), 10)]
        pairs += [(_random_elem(rng, k, n), _random_elem(rng, k, n))
                  for _ in range(5)]
        for f, g in pairs:
            assert multiply(f, g) == _apoly_route_multiply(f, g), (f, g)


def test_multiply_rejects_exponents_past_the_field_width(monkeypatch):
    """At (1,2), s[1] s[1] = a1*s[]: a coefficient product of degree 6
    gives a1^7, which fits 3-bit fields, and degree 7 is a ValueError,
    whichever factor carries the degree."""
    monkeypatch.setattr(quotient, "_W", 3)
    clear_caches()
    try:
        a1, s1 = APoly.gen(1), QuotElem.basis(1, 2, (1,))
        assert multiply(s1 * a1 ** 6, s1).render() == "a1^7*s[]"
        assert multiply(s1 * a1 ** 3, s1 * a1 ** 3).render() == "a1^7*s[]"
        for f, g in ((s1 * a1 ** 7, s1), (s1 * a1 ** 3, s1 * a1 ** 4),
                     (s1, s1 * (a1 ** 7 + 1))):
            with pytest.raises(ValueError, match="does not fit"):
                multiply(f, g)
    finally:
        clear_caches()


# -- Pieri --------------------------------------------------------------------

def test_pieri_frozen_example():
    got = pieri_h(3, 7, (4, 3, 2), 2)
    assert got.render() == (
        "s[4,4,3]"
        " + a1*s[3,2,1] + a1*s[3,3] + a1*s[4,2]"
        " - a2*s[2,2,1] - a2*s[3,1,1] - 2*a2*s[3,2] - a2*s[4,1]"
        " + a3*s[2,1,1] + a3*s[2,2] + a3*s[3,1]")
    assert got == multiply(QuotElem.basis(3, 7, (4, 3, 2)),
                           QuotElem.basis(3, 7, (2,)))


def test_pieri_equals_multiplication_everywhere():
    for k, n in ((2, 5), (3, 6)):
        for lam in enumerate_pkn(k, n):
            for j in range(n - k + 1):
                assert pieri_h(k, n, lam, j) == \
                    multiply(QuotElem.basis(k, n, lam),
                             straighten_schur(k, n, (j,))), (k, n, lam, j)


def test_pieri_validation():
    with pytest.raises(ValueError):
        pieri_h(2, 5, (4,), 1)       # lam outside the box
    with pytest.raises(ValueError):
        pieri_h(2, 5, (2, 1), 4)     # j > n - k
    with pytest.raises(ValueError):
        pieri_h(2, 5, (2, 1), -1)


def test_h_overflow_reduction():
    assert reduce_h_overflow(2, 5, 1).render() == "-a1*s[1,1] + a2*s[1]"
    with pytest.raises(ValueError):
        reduce_h_overflow(2, 5, 0)


def test_h_overflow_matches_reduction_system():
    # the class of h_{n+m} agrees with the x-variable normal form
    for k, n in ((2, 4), (2, 5), (3, 5)):
        for m in range(1, 4):
            elem = reduce_h_overflow(k, n, m)
            lhs = normal_form(k, n, h_on_vars(n + m, k))
            rhs = _as_xpoly(elem)
            assert lhs == rhs, (k, n, m)


def _as_xpoly(elem):
    """Independent image of a quotient element: sum of coefficient times the
    normal form of the corresponding Schur polynomial."""
    total = None
    for lam, c in elem.terms.items():
        piece = normal_form(elem.k, elem.n, schur_xpoly(lam, elem.k)) * c
        total = piece if total is None else total + piece
    if total is None:
        from schurbox.grobner import XPoly
        return XPoly.zero(elem.k)
    return normal_form(elem.k, elem.n, total)


def test_straightening_matches_reduction_system():
    # spot check of the two presentations on out-of-box rows and columns
    for k, n, mu in ((2, 5, (5, 2)), (2, 5, (7, 7)), (3, 6, (5, 4, 1)),
                     (2, 4, (4, 4)), (3, 5, (4, 2, 1))):
        elem = straighten_schur(k, n, mu)
        assert normal_form(k, n, schur_xpoly(mu, k)) == _as_xpoly(elem)


# -- duality ------------------------------------------------------------------

def test_top_coefficient_pairing_is_complementation():
    for k, n in ((2, 5), (3, 6)):
        w = omega(k, n)
        for lam in enumerate_pkn(k, n):
            for mu in enumerate_pkn(k, n):
                g = multiply(QuotElem.basis(k, n, lam),
                             QuotElem.basis(k, n, mu)).coeff(w)
                want = 1 if mu == complement(lam, k, n) else 0
                assert g == APoly.const(want), (lam, mu)


def test_schur_vanishing_above_the_box():
    # coeff at omega of the straightened s[lam] vanishes for every lam with
    # at most k parts and lam_1 <= 2(n-k), except lam = omega itself
    for k, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
        w = omega(k, n)
        for d in range(0, 2 * (n - k) * k + 1):
            for lam in partitions_in_rect(d, k, 2 * (n - k)):
                c = straighten_schur(k, n, lam).coeff(w)
                want = APoly.const(1 if lam == w else 0)
                assert c == want, (k, n, lam)


def test_h_monomial_vanishing():
    # coeff at omega of h_{g_1}..h_{g_k} vanishes for every exponent tuple g
    # with g_i <= 2n-k-i, except g = omega
    for k, n in ((2, 4), (2, 5), (3, 5)):
        w = omega(k, n)
        ranges = [range(0, 2 * n - k - i + 1) for i in range(1, k + 1)]
        for gamma in product(*ranges):
            f = QuotElem.one(k, n)
            for g in gamma:
                f = multiply(f, straighten_schur(k, n, (g,)))
            c = f.coeff(w)
            want = APoly.const(1 if gamma == w else 0)
            assert c == want, (k, n, gamma)


def test_structure_constants():
    # g(alpha, beta, gamma) = coeff of s[complement(gamma)] in the product
    assert structure_constant(2, 4, (1,), (1,), (1, 1)) == APoly.const(1)
    assert structure_constant(2, 4, (1,), (1,), (2, 1)) == APoly.const(0)
    assert structure_constant(2, 4, (2, 2), (2, 2), (2, 2)) == \
        APoly.gen(2) ** 2
    # symmetry in the first two slots
    assert structure_constant(3, 6, (2, 1), (3, 2), (1, 1)) == \
        structure_constant(3, 6, (3, 2), (2, 1), (1, 1))


# -- specializations ----------------------------------------------------------

def test_classical_limit_gives_lr_numbers():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        zeros = classical_specialization(k)
        for lam in enumerate_pkn(k, n):
            for mu in enumerate_pkn(k, n):
                prod = multiply(QuotElem.basis(k, n, lam),
                                QuotElem.basis(k, n, mu))
                got = {nu: const_value(c)
                       for nu, c in specialize_elem(prod, zeros).items()}
                want = {nu: lr_coefficient(nu, lam, mu)
                        for nu in enumerate_pkn(k, n)
                        if lr_coefficient(nu, lam, mu)}
                assert got == want, (k, n, lam, mu)


def test_quantum_gr24():
    qvals = quantum_specialization(2)
    q = APoly.monomial((1,), 1)
    prod = multiply(QuotElem.basis(2, 4, (1,)), QuotElem.basis(2, 4, (2, 2)))
    assert specialize_elem(prod, qvals) == {(1,): q}
    prod = multiply(QuotElem.basis(2, 4, (2, 2)), QuotElem.basis(2, 4, (2, 2)))
    assert specialize_elem(prod, qvals) == {(): q ** 2}
    prod = multiply(QuotElem.basis(2, 4, (2,)), QuotElem.basis(2, 4, (2,)))
    assert specialize_elem(prod, qvals) == {(2, 2): APoly.const(1)}
    # quantum Pieri: s[2,1] * s[1] = s[2,2] + q * s[]
    prod = multiply(QuotElem.basis(2, 4, (2, 1)), QuotElem.basis(2, 4, (1,)))
    assert specialize_elem(prod, qvals) == {(2, 2): APoly.const(1), (): q}


def test_specialize_at_integers():
    s = straighten_schur(3, 6, (5, 4, 1))
    vals = [APoly.const(1), APoly.const(2), APoly.const(-1)]
    got = specialize_elem(s, vals)
    assert got == {(3, 1, 1): APoly.const(-2), (1, 1): APoly.const(1),
                   (1,): APoly.const(-2), (): APoly.const(-1)}


# -- scans --------------------------------------------------------------------

def test_s3_symmetry_small():
    for k, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
        report = s3_report(k, n)
        assert report["ok"], report
        assert report["counterexamples"] == []
    # the parallel path returns the same thing
    assert s3_report(2, 4, jobs=2)["ok"]


def test_positivity_small():
    for k, n in ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6), (2, 6)):
        report = positivity_scan(k, n)
        assert report["ok"], report
        assert report["violations"] == []
    assert positivity_scan(2, 5, jobs=2)["ok"]


def test_scan_counts():
    # 6 basis classes in P_{2,4}: C(7,3) = 56 triples, C(7,2) = 21 pairs
    assert s3_report(2, 4)["triples"] == 56
    assert positivity_scan(2, 4)["pairs"] == 21


def test_positivity_scan_expands_each_pair_once_by_slab(monkeypatch):
    """One slab per first factor, in box order, and the products it expands
    are the unordered pairs in combinations_with_replacement order."""
    want = positivity_scan(3, 6)
    box = enumerate_pkn(3, 6)
    expand, slab = quotient.schur_product_expand, quotient._positivity_slab
    expanded, slabs = [], []

    def recording_expand(lam, mu, k):
        expanded.append((lam, mu))
        return expand(lam, mu, k)

    def recording_slab(k, n, box, i):
        slabs.append(i)
        return slab(k, n, box, i)

    monkeypatch.setattr(quotient, "schur_product_expand", recording_expand)
    monkeypatch.setattr(quotient, "_positivity_slab", recording_slab)
    assert positivity_scan(3, 6) == want
    assert expanded == list(combinations_with_replacement(box, 2))
    assert slabs == list(range(len(box)))


@pytest.mark.parametrize("k, n", [(2, 5), (3, 6)])
def test_parallel_scans_equal_serial(k, n):
    assert s3_report(k, n, jobs=2) == s3_report(k, n)
    assert positivity_scan(k, n, jobs=2) == positivity_scan(k, n)


def _times_class(k, n, nu, poly):
    """An expansion {shape: int} whose class is poly * s[nu]: s_nu times
    the product of h_{n-k+j}^e_j over each monomial c*a^e of poly, by the
    Pieri rule in k variables, since h_{n-k+j} is a_j in the quotient."""
    out = Counter()
    for e, c in poly.terms.items():
        shapes = Counter({nu: c})
        for j, m in enumerate(e, 1):
            for _ in range(m):
                grown = Counter()
                for rho, c_rho in shapes.items():
                    width = size(rho) + n - k + j
                    for sigma in horizontal_strip_extensions(
                            rho, n - k + j, k, width):
                        grown[sigma] += c_rho
                shapes = grown
        out.update(shapes)
    return out


def _corrupt_product(monkeypatch, n, pair, nu, fn):
    """Make the product s[lam] * s[mu] at (k, n) hold fn(coefficient) at nu
    for the ordered pair (lam, mu) only, by adding to its LR expansion,
    which the graded check and the substitution oracle both read."""
    expand = quotient.schur_product_expand

    def corrupted(lam, mu, k):
        expansion = expand(lam, mu, k)
        if (lam, mu) != pair:
            return expansion
        g = straighten_combination(k, n, expansion).terms.get(
            nu, APoly.const(0))
        out = Counter(expansion)
        out.update(_times_class(k, n, nu, fn(g) - g))
        return {shape: c for shape, c in out.items() if c}

    monkeypatch.setattr(quotient, "schur_product_expand", corrupted)


def _corrupt_expansion(monkeypatch, fn):
    """Make every LR expansion that quotient reads, for the scans' rows and
    for structure_constant, fn(lam, mu, expansion) for the ordered pair
    (lam, mu); fn gets a new dict and returns one."""
    expand = quotient.schur_product_expand
    monkeypatch.setattr(quotient, "schur_product_expand", lambda lam, mu, k:
                        fn(lam, mu, dict(expand(lam, mu, k))))


def _bump_s3_pair(lam, mu, expansion):
    """The expansion with S3_NU's multiplicity raised by one for S3_PAIR."""
    if (lam, mu) == S3_PAIR:
        expansion[S3_NU] = expansion.get(S3_NU, 0) + 1
    return expansion


# At (2,4), s[2] s[1] = s[3] + s[2,1] in two variables, and s[3] straightens
# to a1*s[].  Only the expansion of s[2] s[1] is corrupted, not that of
# s[1] s[2], so commutativity fails.  Its s[2,1] coefficient is g(2, 1, x)
# for x = complement((2,1)) = (1,), so the one triple that reads it is
# {1, 1, 2}, in the slots (gamma, alpha) and (gamma, beta).
S3_PAIR, S3_NU = ((2,), (1,)), (2, 1)
S3_COUNTEREXAMPLE = {"alpha": (1,), "beta": (1,), "gamma": (2,),
                     "permuted": ["1", "1", "1", "1", "2", "2"],
                     "expected": "1"}

# At (2,4), s[1] s[2,1] = s[2,2] + a1*s[1] - a2*s[]; with n-k-1 odd its
# s[1] coefficient reads b1, so negating it is a sign violation.
POSITIVITY_PAIR, POSITIVITY_NU = ((1,), (2, 1)), (1,)
POSITIVITY_VIOLATION = {"lam": (1,), "mu": (2, 1), "nu": (1,),
                        "in_b_variables": "-b1"}

# At (2,5), n-k-1 is even, so b_i = a_i.  s[1] s[3] = s[3,1] + a1*s[], and
# a1 - a2 in place of a1 has the one negative monomial -b2.
UNFLIPPED_PAIR, UNFLIPPED_NU = ((1,), (3,)), ()


def test_s3_scan_reports_a_broken_ordered_pair(monkeypatch):
    _corrupt_expansion(monkeypatch, _bump_s3_pair)
    report = s3_report(2, 4)
    assert not report["ok"] and report["triples"] == 56
    assert report["counterexamples"] == [S3_COUNTEREXAMPLE]


def test_s3_scan_checks_duality_in_the_unit_triples(monkeypatch):
    """Doubling every product keeps the six reads of each triple equal, so
    only duality, [s_omega](s_beta s_gamma) = 1 exactly when beta is the
    complement of gamma, catches it: in the unit triples ((), beta,
    complement(beta)), one per unordered pair {beta, complement(beta)}."""
    _corrupt_expansion(monkeypatch, lambda lam, mu, expansion: {
        nu: 2 * c for nu, c in expansion.items()})
    report = s3_report(2, 4)
    assert not report["ok"] and report["triples"] == 56
    assert report["counterexamples"] == [
        {"alpha": (), "beta": beta, "gamma": gamma,
         "permuted": ["2"] * 6, "expected": "1"}
        for beta, gamma in (((), (2, 2)), ((1,), (2, 1)), ((2,), (2,)),
                            ((1, 1), (1, 1)))]


def _six_reads_report(k, n):
    """The S3 report read triple by triple, the oracle of the slab scan:
    the six values g(., ., .) of each unordered triple, from
    structure_constant, against g(alpha, beta, gamma), or against the
    duality value when alpha is the unit class ()."""
    box = enumerate_pkn(k, n)
    bad = []
    for triple in combinations_with_replacement(box, 3):
        alpha, beta, gamma = triple
        values = [structure_constant(k, n, *p) for p in permutations(triple)]
        want = values[0] if alpha else APoly.const(
            int(beta == complement(gamma, k, n)))
        if values.count(want) < 6:
            bad.append({"alpha": alpha, "beta": beta, "gamma": gamma,
                        "permuted": [v.render() for v in values],
                        "expected": want.render()})
    return {"k": k, "n": n, "triples": comb(len(box) + 2, 3), "ok": not bad,
            "counterexamples": bad}


def _random_corruption(rng, k, n):
    """An fn for _corrupt_expansion, drawn from rng: one shape added to the
    expansions of one to three ordered pairs, the largest shape dropped
    from one, one negated, or every expansion doubled."""
    box = enumerate_pkn(k, n)
    kind = rng.choice(("add", "drop", "negate", "double"))
    pairs = {(rng.choice(box), rng.choice(box))
             for _ in range(rng.randint(1, 3) if kind == "add" else 1)}
    shape = rng.choice(box + ((n - k + 1,),))

    def corrupt(lam, mu, expansion):
        if kind == "double":
            return {nu: 2 * c for nu, c in expansion.items()}
        if (lam, mu) not in pairs:
            return expansion
        if kind == "add":
            expansion[shape] = expansion.get(shape, 0) + 1
        elif kind == "drop":
            del expansion[max(expansion)]
        else:
            expansion = {nu: -c for nu, c in expansion.items()}
        return expansion

    return corrupt


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6)])
def test_s3_scan_matches_the_six_reads_under_corruption(monkeypatch, k, n):
    """Under seeded corruptions of the LR expansions, the slab scan reports
    exactly what the six reads of every triple report, serially and with
    two workers.  The workers see the corruption only when they are forked
    from this process, so elsewhere only the serial scan is compared."""
    rng = random.Random(100 * k + n)
    forked = multiprocessing.get_start_method() == "fork"
    for _ in range(6):
        with monkeypatch.context() as m:
            _corrupt_expansion(m, _random_corruption(rng, k, n))
            want = _six_reads_report(k, n)
            assert not want["ok"]
            assert s3_report(k, n) == want
            if forked:
                assert s3_report(k, n, jobs=2) == want


def test_positivity_scan_reports_a_flipped_sign(monkeypatch):
    _corrupt_product(monkeypatch, 4, POSITIVITY_PAIR, POSITIVITY_NU,
                     lambda c: -c)
    report = positivity_scan(2, 4)
    assert not report["ok"] and report["pairs"] == 21
    assert report["violations"] == [POSITIVITY_VIOLATION]
    # forked workers see the corruption, and split the pairs by slab
    if multiprocessing.get_start_method() == "fork":
        assert positivity_scan(2, 4, jobs=2) == report


def test_positivity_scan_unflipped_signs(monkeypatch):
    _corrupt_product(monkeypatch, 5, UNFLIPPED_PAIR, UNFLIPPED_NU,
                     lambda c: c - APoly.gen(2))
    report = positivity_scan(2, 5)
    assert not report["ok"] and report["pairs"] == 55
    assert report["violations"] == [
        {"lam": (1,), "mu": (3,), "nu": (), "in_b_variables": "b1 - b2"}]
    if multiprocessing.get_start_method() == "fork":
        assert positivity_scan(2, 5, jobs=2) == report


def _signed_product(k, n, lam, mu):
    """{nu: b-polynomial} of s[lam] * s[mu] in APoly arithmetic: each
    coefficient g times (-1)^{|lam|+|mu|-|nu|}, then a_i -> -a_i when n-k-1
    is odd."""
    negated = [-APoly.gen(i) for i in range(1, k + 1)]
    expansion = quotient.schur_product_expand(lam, mu, k)
    out = {}
    for nu, g in straighten_combination(k, n, expansion).terms.items():
        poly = -g if (size(lam) + size(mu) - size(nu)) % 2 else g
        out[nu] = poly.specialize(negated) if (n - k - 1) % 2 else poly
    return out


def _positivity_by_substitution(k, n):
    """The violations that positivity_scan(k, n) must report, found in APoly
    arithmetic: a coefficient of _signed_product with a negative monomial,
    rendered in the b-variables."""
    out = []
    for lam, mu in combinations_with_replacement(enumerate_pkn(k, n), 2):
        for nu, poly in sorted(_signed_product(k, n, lam, mu).items()):
            if any(c < 0 for c in poly.terms.values()):
                out.append({"lam": lam, "mu": mu, "nu": nu,
                            "in_b_variables": poly.render("b")})
    return out


def _graded_product(k, n, expansion):
    """(keys, width, mask, total, bound) of a product's graded integer: the
    slot keys, width and mask of its degree's table, sum c_nu * N_nu over
    its LR expansion, and sum |c_nu| * top_nu, which bounds the |c| of
    every slot of the total."""
    d = size(next(iter(expansion)))
    keys, classes, width, mask = quotient._graded(k, n, d)[0]
    total = bound = 0
    for nu, c in expansion.items():
        value, top = classes[nu]
        total += c * value
        bound += abs(c) * top
    return keys, width, mask, total, bound


@pytest.mark.parametrize("k, n", [(3, 6), (4, 8)])
def test_graded_integers_hold_the_signed_products(k, n):
    """On every unordered pair, the graded integer of the product fits the
    slot bound and decodes, through the scan's slot reader, to the product
    signed in APoly arithmetic; n-k-1 is even at (3,6) and odd at (4,8)."""
    for lam, mu in combinations_with_replacement(enumerate_pkn(k, n), 2):
        keys, width, mask, total, bound = _graded_product(
            k, n, schur_product_expand(lam, mu, k))
        assert bound < 1 << (width - 1)
        slots = quotient._slots(keys, total + mask, width)
        # the nonzero slots are the whole integer
        index = {key: slot for slot, key in enumerate(keys)}
        assert sum(c << width * index[key]
                   for key, c in slots.items()) == total
        assert quotient._unpack(k, n, slots) == {
            nu: g for nu, g in _signed_product(k, n, lam, mu).items() if g}


def test_graded_tables_widen_until_the_products_fit(monkeypatch):
    """From 2-bit slots, the table of each degree whose products do not
    fit is rebuilt wider, and the clean and corrupted reports stay the
    same."""
    clean = positivity_scan(3, 6)
    with monkeypatch.context() as m:
        clear_caches()
        m.setattr(quotient, "_B", 2)
        try:
            assert positivity_scan(3, 6) == clean
            assert max(quotient._graded(3, 6, d)[0][2]
                       for d in range(19)) > 2
            _corrupt_product(m, 4, POSITIVITY_PAIR, POSITIVITY_NU,
                             lambda c: -c)
            assert positivity_scan(2, 4)["violations"] == \
                [POSITIVITY_VIOLATION]
        finally:
            clear_caches()


# At (2,5), 2(n-k) = 6, and s[3,2] * s[3,3] has degree 11.  Each corruption
# gives it what no LR product of two box classes has: a shape with a row
# wider than 6, a shape of another degree, or coefficients past the bound
# of _B-bit slots.
WIDE_PAIR = ((3, 2), (3, 3))
WIDE_CORRUPTIONS = {
    "wide row": lambda expansion: {**expansion, (11,): -1},
    "other degree": lambda expansion: {**expansion, (3, 3): 1},
    "past the bound": lambda expansion: {
        nu: -(1 << quotient._B) * c for nu, c in expansion.items()},
}


@pytest.mark.parametrize("case", sorted(WIDE_CORRUPTIONS))
def test_corrupted_products_are_checked_on_their_graded_integers(
        monkeypatch, case):
    """A corrupted product is still checked on its graded integer: its
    degree's table is rebuilt to hold it, the report equals the
    substitution's, and no product is summed in _accumulate (only the
    rim-hook steps of _straighten call it)."""
    fn = WIDE_CORRUPTIONS[case]
    _corrupt_expansion(monkeypatch, lambda lam, mu, expansion: fn(
        expansion) if (lam, mu) == WIDE_PAIR else expansion)
    want = _positivity_by_substitution(2, 5)
    assert want
    summed, accumulate = [], quotient._accumulate
    rim_hooks = quotient._straighten.__wrapped__.__code__

    def recording(k, n, terms):
        if sys._getframe(1).f_code is not rim_hooks:
            summed.append(terms)
        return accumulate(k, n, terms)

    monkeypatch.setattr(quotient, "_accumulate", recording)
    try:
        assert positivity_scan(2, 5)["violations"] == want
        assert not summed
        keys, classes, width, _ = quotient._graded(2, 5, 11)[0]
        assert classes.keys() >= fn(schur_product_expand(
            *WIDE_PAIR, 2)).keys()
        assert (width > quotient._B) == (case == "past the bound")
    finally:
        clear_caches()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6), (3, 7)])
def test_positivity_report_matches_the_substitution(monkeypatch, k, n, seed):
    """Random corruptions of random products, both parities of n-k-1: the
    scan's one parity rule reports what sign and substitution give."""
    rng = random.Random(seed)
    box = enumerate_pkn(k, n)
    for _ in range(6):
        pair = tuple(sorted(rng.sample(range(len(box)), 2)))
        m = APoly.monomial([rng.randrange(3) for _ in range(k)],
                           rng.choice((-2, -1, 1, 2)))
        _corrupt_product(monkeypatch, n, (box[pair[0]], box[pair[1]]),
                         rng.choice(box), rng.choice(
                             (lambda g: -g, lambda g, m=m: g + m)))
    want = _positivity_by_substitution(k, n)
    assert want and positivity_scan(k, n)["violations"] == want


def _cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_cli_s3_exits_1_on_a_counterexample(monkeypatch, capsys):
    _corrupt_expansion(monkeypatch, _bump_s3_pair)
    rc, out = _cli(capsys, "s3", "--k", "2", "--n", "4")
    assert rc == 1
    assert out == (
        "k=2 n=4: checked 56 triples, 1 counterexamples\n"
        "  alpha=[1] beta=[1] gamma=[2]: "
        "['1', '1', '1', '1', '2', '2'] expected=1\n")
    rc, out = _cli(capsys, "s3", "--k", "2", "--n", "4", "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["counterexamples"] == [
        {**S3_COUNTEREXAMPLE, "alpha": [1], "beta": [1], "gamma": [2]}]


def test_cli_positivity_exits_1_on_a_violation(monkeypatch, capsys):
    _corrupt_product(monkeypatch, 4, POSITIVITY_PAIR, POSITIVITY_NU,
                     lambda c: -c)
    rc, out = _cli(capsys, "positivity", "--k", "2", "--n", "4")
    assert rc == 1
    assert out == ("k=2 n=4: checked 21 pairs, 1 violations\n"
                   "  lam=[1] mu=[2, 1] nu=[1]: -b1\n")
    rc, out = _cli(capsys, "positivity", "--k", "2", "--n", "4",
                   "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"] == [
        {**POSITIVITY_VIOLATION, "lam": [1], "mu": [2, 1], "nu": [1]}]


# -- caches -------------------------------------------------------------------

def test_results_do_not_alias_the_caches():
    k, n, lam, mu = 2, 4, (2, 1), (2,)
    f, g = QuotElem.basis(k, n, lam), QuotElem.basis(k, n, mu)
    product = dict(multiply(f, g).terms)
    row = quotient._product_row(k, n, schur_product_expand(lam, mu, k))
    wide = dict(straighten_schur(k, n, (4, 1)).terms)
    # s[2,1] s[2] = s[4,1] + s[3,2]: rebuilt from a fresh straighten of
    # s[4,1], whose result is then mutated, as is the product's
    clear_caches()
    straighten_schur(k, n, (4, 1)).terms.clear()
    first = multiply(f, g)
    first.terms.clear()
    first.terms[()] = APoly.const(7)
    assert multiply(f, g).terms == product
    for nu, c in product.items():
        assert structure_constant(k, n, lam, mu, complement(nu, k, n)) == c
    assert quotient._product_row(
        k, n, schur_product_expand(lam, mu, k)) == row
    assert straighten_schur(k, n, (4, 1)).terms == wide


def test_constructor_copies_the_coefficients_it_is_given():
    c = APoly.gen(1)
    f = QuotElem(2, 4, {(1,): c})
    c.terms[(1,)] = 5
    assert f.render() == "a1*s[1]"


def test_constructor_sums_keys_that_check_alike():
    assert QuotElem(2, 4, {(1,): 1, (1, 0): 2}).render() == "3*s[1]"
    a1 = APoly.gen(1)
    assert QuotElem(2, 4, {(2,): a1, (2, 0): -a1, (): 0}).terms == {}


def test_straighten_coefficients_are_not_the_cached_ones():
    straighten_schur(2, 4, (3,)).terms[()].terms[(9,)] = 1
    assert straighten_schur(2, 4, (3,)).render() == "a1*s[]"


def test_structure_constant_is_not_the_table_entry():
    f, g = QuotElem.basis(2, 4, (2,)), QuotElem.basis(2, 4, (1,))
    before = multiply(f, g).render()
    structure_constant(2, 4, (2,), (1,), (1,)).terms[(5,)] = 1
    assert multiply(f, g).render() == before


def test_missing_coeff_is_not_the_shared_zero():
    QuotElem.basis(2, 4, (1,)).coeff((2,)).terms[(1,)] = 1
    assert structure_constant(2, 4, (1,), (1,), (1,)).render() == "0"


def test_specialization_slots_are_not_the_shared_zero():
    classical_specialization(2)[0].terms[()] = 5
    quantum_specialization(2)[0].terms[()] = 6
    parse_specialization("a2=q", 2)[0].terms[()] = 7
    assert structure_constant(2, 4, (2,), (2,), (2,)) == 0
    assert classical_specialization(2) == [APoly(), APoly()]
    spec = parse_specialization("classical", 3)
    spec[0].terms[(1,)] = 1
    assert not spec[1] and not spec[2]


def test_unit_coefficients_are_not_shared():
    QuotElem.basis(2, 4, (1,)).terms[(1,)].terms[(3,)] = 1
    QuotElem.one(2, 4).terms[()].terms[(4,)] = 1
    pieri_h(2, 4, (1,), 1).terms[(2,)].terms[(7,)] = 1
    assert QuotElem.one(2, 4).render() == "s[]"
    assert straighten_schur(2, 4, (1,)).render() == "s[1]"
    assert pieri_h(2, 4, (1,), 1).render() == "s[1,1] + s[2]"


def test_sums_do_not_share_coefficients_with_their_operands():
    f, g = QuotElem.basis(2, 4, (1,)), QuotElem.basis(2, 4, (2,))
    (f + g).terms[(1,)].terms[()] = 7
    (f - g).terms[(1,)].terms[()] = 9
    assert f.render() == "s[1]"
    assert g.render() == "s[2]"


def test_change_of_basis_zero_cells_are_not_shared():
    zeros = [c for row in bases.change_of_basis_matrix(2, 4, "h")
             for c in row if not c]
    zeros[0].terms[(1,)] = 1
    assert len(zeros) > 1 and not any(zeros[1:])
    assert structure_constant(2, 4, (1,), (1,), (1,)).render() == "0"


def test_schur_xpoly_is_not_the_cached_one():
    schur_xpoly((1,), 2).terms.clear()
    schur_xpoly((1,), 2).terms[(1, 0)].terms[(3,)] = 1
    assert schur_xpoly((1,), 2).render() == "x1 + x2"


def test_straighten_combination_drops_cancelled_terms():
    # at (1,2), s[3] = a1*s[1]: an int and an APoly coefficient that cancel
    result = straighten_combination(1, 2, {(3,): 1, (1,): -APoly.gen(1)})
    assert result == QuotElem.zero(1, 2)
    assert result.terms == {}
    # the pairs of one sum meet on the out-of-box partition (3,): they are
    # summed in one accumulator, not straightened apart
    result = quotient._straighten_sum(
        1, 2, [(1, [((3,), 1)]), (-1, [((3,), 1)])])
    assert result == QuotElem.zero(1, 2)
    assert result.terms == {}
    a1 = APoly.gen(1)
    assert quotient._straighten_sum(1, 2, [(a1, [((3,), 1)])] * 2) == \
        straighten_combination(1, 2, {(3,): 2 * a1})


def test_clear_caches_empties_every_cache():
    """The package's caches, found as clear_caches finds them (module
    attributes with cache_clear), are exactly the five with repeat reads,
    so a new cache fails here until it is listed; clear_caches empties
    them all and the results stay the same."""
    caches = {}
    for info in pkgutil.iter_modules(schurbox.__path__):
        module = importlib.import_module(f"schurbox.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                caches[f"{fn.__module__}.{fn.__qualname__}"] = fn
    assert sorted(caches) == [
        "schurbox.bases._kostka_inverse", "schurbox.quotient._fields",
        "schurbox.quotient._graded", "schurbox.quotient._straighten",
        "schurbox.tableaux.kostka"]

    def results():
        return (s3_report(2, 5), positivity_scan(2, 5),
                bases.classify_family(2, 5, "m"), pieri_h(2, 5, (2, 1), 2),
                normal_form(2, 5, schur_xpoly((3, 1), 2)))

    before = results()
    assert all(fn.cache_info().currsize for fn in caches.values())
    clear_caches()
    assert all(fn.cache_info().currsize == 0 for fn in caches.values())
    assert results() == before


# -- rendering ----------------------------------------------------------------

def test_render_zero_and_one():
    assert QuotElem.zero(2, 5).render() == "0"
    assert QuotElem.one(2, 5).render() == "s[]"
    assert (QuotElem.basis(2, 5, (1,)) * -1).render() == "-s[1]"


def test_payload_canonical_order():
    s = straighten_schur(3, 6, (5, 4, 1))
    payload = s.payload()
    assert payload["k"] == 3 and payload["n"] == 6
    assert payload["basis"] == "s"
    assert [t["partition"] for t in payload["terms"]] == \
        [[], [1], [1, 1], [3, 1, 1]]
    assert payload["terms"][0]["coeff"] == "a1*a3"
    assert payload["terms"][3]["coeff"] == "-a2"
