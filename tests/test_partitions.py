"""Box partitions, orders, strips, and vector straightening."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from schurbox.partitions import (
    EQUAL, GREATER, INCOMPARABLE, LESS,
    bounded_partitions, check_in_box, check_partition, cmp_graded_dominance,
    cmp_size_antidominance, complement, compositions, conjugate, contains,
    dominates, enumerate_pkn,
    horizontal_strip_extensions, horizontal_strip_restrictions, in_box,
    pad, partitions_in_rect, size, straighten_vector,
)


@st.composite
def boxes(draw, n_max=7):
    n = draw(st.integers(min_value=1, max_value=n_max))
    k = draw(st.integers(min_value=1, max_value=n))
    return k, n


@st.composite
def box_partitions(draw, n_max=7):
    k, n = draw(boxes(n_max))
    lam = draw(st.sampled_from(enumerate_pkn(k, n)))
    return k, n, lam


@st.composite
def partitions(draw, max_len=5, max_part=6):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_part),
                          max_size=max_len))
    return tuple(sorted(parts, reverse=True))


# -- validation and enumeration ---------------------------------------------

def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition([2, 2, 0, 0]) == (2, 2)
    assert check_partition([]) == ()
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, -1])
    with pytest.raises(ValueError):
        check_partition([2.0, 1])


def test_enumeration_counts():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert len(enumerate_pkn(k, n)) == comb(n, k)


def test_enumeration_canonical_order():
    got = enumerate_pkn(2, 5)
    assert got == ((), (1,), (2,), (1, 1), (3,), (2, 1),
                   (3, 1), (2, 2), (3, 2), (3, 3))
    got = enumerate_pkn(3, 5)
    assert got == ((), (1,), (2,), (1, 1), (2, 1), (1, 1, 1),
                   (2, 2), (2, 1, 1), (2, 2, 1), (2, 2, 2))


def test_enumeration_known_sets():
    # the two box families worked out explicitly in small rank
    assert set(enumerate_pkn(2, 4)) == {(), (1,), (2,), (1, 1), (2, 1), (2, 2)}
    assert set(enumerate_pkn(2, 5)) == {(), (1,), (2,), (3,), (1, 1), (2, 1),
                                        (3, 1), (2, 2), (3, 2), (3, 3)}


@given(boxes())
def test_enumeration_graded_then_lex_descending(kn):
    k, n = kn
    lams = enumerate_pkn(k, n)
    assert lams[0] == ()
    assert lams[-1] == ((n - k,) * k if n > k else ())
    for a, b in zip(lams, lams[1:]):
        assert size(a) < size(b) or (size(a) == size(b) and a > b)


def test_partitions_in_rect():
    assert list(partitions_in_rect(3, 2, 2)) == [(2, 1)]
    assert list(partitions_in_rect(0, 3, 3)) == [()]
    assert list(partitions_in_rect(4, 2, 2)) == [(2, 2)]
    assert list(partitions_in_rect(3, 3, 3)) == [(3,), (2, 1), (1, 1, 1)]


small_bounds = st.lists(st.integers(min_value=0, max_value=4), max_size=4)


@given(st.integers(min_value=-1, max_value=12), small_bounds, small_bounds)
def test_bounded_partitions_match_brute_force(d, hi, lo):
    rows = max(len(hi), len(lo))
    hi_p, lo_p = pad(hi, rows), pad(lo, rows)
    want = [check_partition(mu)
            for mu in product(*(range(l, h + 1) for l, h in zip(lo_p, hi_p)))
            if sum(mu) == d and list(mu) == sorted(mu, reverse=True)]
    assert list(bounded_partitions(d, hi, lo)) == sorted(want, reverse=True)


@given(st.integers(min_value=-1, max_value=6),
       st.integers(min_value=0, max_value=4))
def test_compositions_match_brute_force(m, slots):
    want = [c for c in product(range(max(m, 0) + 1), repeat=slots)
            if sum(c) == m]
    assert list(compositions(m, slots)) == want


def test_bounded_partition_regressions():
    # the lower bound lam[1:] leaves no room for an empty strip remainder
    assert horizontal_strip_restrictions((1, 1), 2) == []
    # strips larger than the shape
    assert horizontal_strip_restrictions((2, 1), 4) == []
    assert bounded_partitions(4, (2, 1)) == []
    assert horizontal_strip_extensions((), 1, 0, 3) == []
    assert horizontal_strip_extensions((2, 1), 2, 2, 3) == [(3, 2)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_check_in_box_message():
    assert check_in_box((3, 1), 2, 5) == (3, 1)
    with pytest.raises(ValueError, match=r"^\(4,\) does not fit in the 2 x 3 box$"):
        check_in_box((4,), 2, 5)


# -- complement and conjugate ------------------------------------------------

def test_complement_examples():
    assert complement((3, 1), 2, 5) == (2,)
    assert complement((), 2, 5) == (3, 3)
    assert complement((2, 1), 3, 5) == (2, 1)
    with pytest.raises(ValueError):
        complement((4,), 2, 5)


@given(box_partitions())
def test_complement_involution(knl):
    k, n, lam = knl
    nu = complement(lam, k, n)
    assert in_box(nu, k, n)
    assert complement(nu, k, n) == lam
    assert size(lam) + size(nu) == k * (n - k)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((4,)) == (1, 1, 1, 1)


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


# -- dominance orders ---------------------------------------------------------

def test_dominance_examples():
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1))
    assert dominates((3,), (3,))
    # different sizes never compare
    assert not dominates((2,), (1, 1, 1))
    assert not dominates((1, 1, 1), (2,))


@given(partitions(), partitions())
def test_dominance_antisymmetry(lam, mu):
    if dominates(lam, mu) and dominates(mu, lam):
        assert lam == mu


def test_cmp_size_antidominance():
    # bigger size always wins
    assert cmp_size_antidominance((3,), (1, 1)) == GREATER
    assert cmp_size_antidominance((1,), (1, 1)) == LESS
    assert cmp_size_antidominance((2, 1), (2, 1)) == EQUAL
    # within a size the *dominated* partition is larger
    assert cmp_size_antidominance((1, 1, 1), (2, 1)) == GREATER
    assert cmp_size_antidominance((3,), (2, 1)) == LESS
    # dominance-incomparable pair of equal size
    assert cmp_size_antidominance((4, 1, 1), (3, 3)) == INCOMPARABLE


def test_cmp_graded_dominance():
    assert cmp_graded_dominance((2, 1), (1, 1, 1)) == GREATER
    assert cmp_graded_dominance((1, 1, 1), (2, 1)) == LESS
    assert cmp_graded_dominance((2,), (2,)) == EQUAL
    assert cmp_graded_dominance((2,), (3,)) == INCOMPARABLE
    assert cmp_graded_dominance((4, 1, 1), (3, 3)) == INCOMPARABLE


@given(partitions(), partitions())
def test_cmp_functions_agree_with_dominates(lam, mu):
    c = cmp_graded_dominance(lam, mu)
    if c == GREATER:
        assert dominates(lam, mu) and lam != mu
    elif c == LESS:
        assert dominates(mu, lam) and lam != mu
    elif c == EQUAL:
        assert lam == mu
    else:
        assert not dominates(lam, mu) and not dominates(mu, lam)
    # antidominance flips the within-size comparison
    if size(lam) == size(mu):
        flipped = {GREATER: LESS, LESS: GREATER,
                   EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}[c]
        assert cmp_size_antidominance(lam, mu) == flipped


# -- strips -------------------------------------------------------------------

def brute_horizontal_strip(lam, mu, j):
    if not contains(lam, mu) or size(lam) - size(mu) != j:
        return False
    mu_p = pad(mu, len(lam)) if lam else ()
    # one box per column: column c gains a box in at most one row
    cols = {}
    for i in range(len(lam)):
        for c in range(mu_p[i], lam[i]):
            cols[c] = cols.get(c, 0) + 1
    return all(v == 1 for v in cols.values())


def test_strip_examples():
    assert brute_horizontal_strip((4, 4, 3), (4, 3, 2), 2)
    assert not brute_horizontal_strip((4, 4), (3, 3), 2)  # two boxes in column 4
    # vertical strips are horizontal strips of the conjugates
    assert brute_horizontal_strip(conjugate((3, 2, 1)), conjugate((2, 1)), 3)
    assert not brute_horizontal_strip(conjugate((4, 2)), conjugate((2, 2)), 2)


@given(box_partitions(), st.integers(min_value=0, max_value=4))
def test_strip_extension_enumerators(knl, j):
    k, n, lam = knl
    got = set(horizontal_strip_extensions(lam, j, k, n - k))
    want = {mu for mu in enumerate_pkn(k, n)
            if brute_horizontal_strip(mu, lam, j)}
    assert got == want


@given(partitions(max_len=4, max_part=5), st.integers(min_value=0, max_value=4))
def test_strip_restriction_enumerator(lam, j):
    got = set(horizontal_strip_restrictions(lam, j))
    want = set()
    for mu in _all_subpartitions(lam):
        if brute_horizontal_strip(lam, mu, j):
            want.add(mu)
    assert got == want


def _all_subpartitions(lam):
    if not lam:
        return [()]
    ranges = [range(0, p + 1) for p in lam]
    out = []
    for tup in product(*ranges):
        dec = tuple(sorted(tup, reverse=True))
        if dec == tup and contains(lam, check_partition(tup)):
            out.append(check_partition(tup))
    return out


@given(partitions(max_len=4, max_part=5), st.integers(min_value=0, max_value=20))
def test_subpartitions_of_size(lam, d):
    want = [mu for mu in _all_subpartitions(lam) if size(mu) == d]
    assert bounded_partitions(d, lam) == sorted(want, reverse=True)


# -- vector straightening ------------------------------------------------------

def test_straighten_vector_fixed_points():
    for lam in enumerate_pkn(3, 6):
        assert straighten_vector(pad(lam, 3)) == (1, lam)


def test_straighten_vector_examples():
    # the three rewrites occurring in the (5,4,1) rim-hook step at k=3, n=6
    assert straighten_vector((-1, 5, 2)) == (1, (4, 1, 1))
    assert straighten_vector((-1, 4, 2)) == (1, (3, 1, 1))
    assert straighten_vector((-1, 5, 1)) is None
    assert straighten_vector((-1, 4, 1)) is None
    # a negative beta entry kills the alternant
    assert straighten_vector((-3, 1, 0)) is None


def test_straighten_vector_adjacent_swap():
    # s_(alpha_1, alpha_2) = -s_(alpha_2 - 1, alpha_1 + 1)
    assert straighten_vector((1, 3)) == (-1, (2, 2))
    assert straighten_vector((0, 2)) == (-1, (1, 1))
    assert straighten_vector((1, 2)) is None


@given(st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=4))
def test_straighten_vector_sign_is_consistent(alpha):
    alpha = tuple(alpha)
    res = straighten_vector(alpha)
    if res is None:
        return
    sign, lam = res
    assert sign in (1, -1)
    k = len(alpha)
    lam_p = pad(lam, k)
    beta = sorted((alpha[i] + (k - 1 - i) for i in range(k)), reverse=True)
    assert [lam_p[i] + (k - 1 - i) for i in range(k)] == beta


def laplace_det(rows):
    """Oracle: determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] *
               laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


@given(st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=5))
def test_straighten_vector_sign_matches_the_alternant(alpha):
    # over distinct integers x, det[x^b for b in beta] = sign * the same
    # determinant with beta sorted decreasingly, and 0 when beta repeats
    k = len(alpha)
    beta = [alpha[i] + (k - 1 - i) for i in range(k)]
    xs = range(2, k + 2)

    def alternant(exps):
        return laplace_det([[x ** b for b in exps] for x in xs])

    res = straighten_vector(tuple(alpha))
    if res is None:
        if min(beta) >= 0:
            assert alternant(beta) == 0
        return
    sign, _ = res
    want = alternant(sorted(beta, reverse=True))
    assert want != 0
    assert alternant(beta) == sign * want
