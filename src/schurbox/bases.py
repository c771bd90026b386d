"""Alternative families indexed by box partitions and their basis status.

For lam in P_{k,n} the candidate families are

    h:  h_lam = h_{lam_1} h_{lam_2} ...      (complete homogeneous)
    m:  m_lam                                 (monomial symmetric)
    e:  e_{lam^t}                             (elementary, conjugate index)
    p:  p_lam = p_{lam_1} p_{lam_2} ...      (power sums)
    ht: h_{lam^t}                             (h on the conjugate index)

h, e, p and ht are products of one-part functions.  A member is built from
the member of its index without the last part: each Schur term s_lam is
multiplied in Lambda_k by the classical one-part rule, with integer signs,
and the sum is straightened once.  h_r adds the horizontal r-strips (Pieri),
e_r the vertical r-strips (dual Pieri), and p_r adds r to one entry of
lam + (k-1, ..., 0) and sorts it back in, with one sign per entry passed
(Murnaghan-Nakayama).  m inverts the Kostka matrix of each box stratum (the
box partitions of one size), with no straightening.

h, m and e are always bases.  p and ht may fail, or be bases only over
fields of certain characteristics; ``classify_family`` decides from the
determinant of the change-of-basis matrix against (s[lam]).  The grading
deg a_i = n-k+i makes the coefficient of s[mu] in the member of lam
homogeneous of degree |lam| - |mu|, so that matrix is block triangular by
size, and its determinant is the product of the determinants of its integer
diagonal blocks, the a = 0 (classical) blocks.
"""

from functools import lru_cache
from itertools import groupby

from .apoly import APoly
from .partitions import (
    bounded_partitions, check_context, check_in_box, check_partition,
    cmp_graded_dominance, cmp_size_antidominance, conjugate, enumerate_pkn,
    horizontal_strip_extensions, pad, partitions_in_rect, size, GREATER,
)
from .quotient import (
    QuotElem, _parallel_map, _straighten_sum, straighten_combination,
)
from .tableaux import kostka


def _check_indexing(k, n, lam):
    check_context(k, n)
    return check_in_box(check_partition(lam), k, n)


def _h_rule(k, lam, r):
    """Pieri: s_lam h_r is the sum of s_mu over the horizontal r-strips
    mu/lam with at most k rows, as (mu, sign) pairs."""
    return ((mu, 1) for mu in horizontal_strip_extensions(
        lam, r, k, (lam[0] if lam else 0) + r))


def _e_rule(k, lam, r):
    """Dual Pieri: s_lam e_r is the sum of s_mu over the vertical r-strips
    mu/lam with at most k rows (every row grows by at most one), as
    (mu, sign) pairs."""
    lam = pad(lam, k)
    return ((mu, 1) for mu in bounded_partitions(
        size(lam) + r, [p + 1 for p in lam], lam))


def _p_rule(k, lam, r):
    """Murnaghan-Nakayama: s_lam p_r is the sum of s_{lam + r e_i} over
    i = 1..k, as the nonzero (mu, sign) of their straightening, in i order.
    beta = lam + (k-1, ..., 0) decreases strictly; adding r to beta_i
    vanishes when beta_i + r is already an entry of beta, and otherwise
    moves it left past the j entries it now exceeds, with sign (-1)^j: mu
    takes beta_i + r at row i - j and adds 1 to each row it passes."""
    lam = pad(lam, k)
    beta = [p + k - 1 - i for i, p in enumerate(lam)]
    entries = set(beta)
    for i in range(k):
        v = beta[i] + r
        if v in entries:
            continue
        t = i
        while t and beta[t - 1] < v:
            t -= 1
        mu = (lam[:t] + (v - (k - 1 - t),)
              + tuple(p + 1 for p in lam[t:i]) + lam[i + 1:])
        yield mu[:k - mu.count(0)], -1 if (i - t) % 2 else 1


# family -> (the parts of the index lam, the rule of one part)
_ONE_PART = {"h": (tuple, _h_rule), "ht": (conjugate, _h_rule),
             "e": (conjugate, _e_rule), "p": (tuple, _p_rule)}


def _times_one_part(elem, r, rule):
    """elem times the one-part function of index r: rule on each Schur term,
    then one straightening of the sum."""
    k, n = elem.context
    return _straighten_sum(k, n, ((c, rule(k, lam, r))
                                  for lam, c in elem.terms.items()))


FAMILIES = ("h", "m", "e", "p", "ht")


def family_element(k, n, lam, family):
    """The class of the member indexed by lam (in the box) of the family h,
    m, e, p or ht (see the module docstring).  For a product family, the
    class of 1 times the one-part function of each part of its index in
    turn; for m, the row of lam in the exact inverse of its stratum's Kostka
    matrix, m_lam = sum_j inv[lam][j] s_{mu_j}, every mu_j already in the
    box."""
    if family == "m":
        lam = _check_indexing(k, n, lam)
        stratum, inv = _kostka_inverse(k, n, size(lam))
        return QuotElem(k, n, dict(zip(stratum, inv[stratum.index(lam)])))
    if family not in _ONE_PART:
        raise ValueError(
            f"unknown family {family!r} (expected one of {FAMILIES})")
    index, rule = _ONE_PART[family]
    out = QuotElem.one(k, n)
    for r in index(_check_indexing(k, n, lam)):
        out = _times_one_part(out, r, rule)
    return out


@lru_cache(maxsize=None)
def _kostka_inverse(k, n, d):
    """(stratum, inv) where stratum lists the box partitions of size d in
    lex-descending order and inv is the exact integer inverse of the Kostka
    matrix K[i][j] = K_{stratum_i, stratum_j}: upper unitriangular, since
    K_{lam,mu} != 0 forces lam >= mu in dominance, hence in lex, and the
    box block of the inverse over all partitions of d with at most k parts,
    since mu <= lam in the box forces mu_1 <= lam_1 <= n-k."""
    stratum = tuple(partitions_in_rect(d, k, n - k))
    r = len(stratum)
    K = [[kostka(stratum[i], stratum[j]) for j in range(r)] for i in range(r)]
    inv = [[0] * r for _ in range(r)]
    for i in range(r):
        inv[i][i] = 1
        for j in range(i + 1, r):
            inv[i][j] = -sum(inv[i][t] * K[t][j] for t in range(i, j))
    return stratum, tuple(tuple(row) for row in inv)


def s_in_m(k, n, lam):
    """The forward expansion s[lam] = sum_mu K_{lam,mu} m[mu]; nonzero
    entries land inside the box automatically (dominated by lam)."""
    lam = _check_indexing(k, n, lam)
    out = {}
    for mu in partitions_in_rect(size(lam), k, n - k):
        c = kostka(lam, mu)
        if c:
            out[mu] = c
    return out


def power_sum_class(k, n, r):
    """Class of the power sum p_r (r >= 1), via its hook expansion
    p_r = sum_{j=0}^{min(r,k)-1} (-1)^j s_{(r-j, 1^j)}."""
    check_context(k, n)
    if r < 1:
        raise ValueError("power sum index must be >= 1")
    return straighten_combination(k, n, {
        (r - j,) + (1,) * j: -1 if j % 2 else 1 for j in range(min(r, k))})


def _family_terms(k, n, family):
    """(basis, rows): the box partitions in canonical enumeration order, and
    the Schur-basis terms {mu: APoly} of the family member of each.  A
    product family builds the member of each index from the member of its
    prefix (the index without its last part), kept in a dict for this call;
    the prefix indexes a smaller box partition, which comes earlier in the
    order, and the first is the empty one."""
    check_context(k, n)
    basis = enumerate_pkn(k, n)
    if family not in _ONE_PART:
        return basis, [family_element(k, n, lam, family).terms
                       for lam in basis]
    index, rule = _ONE_PART[family]
    members = {(): QuotElem.one(k, n)}
    for parts in map(index, basis[1:]):
        members[parts] = _times_one_part(members[parts[:-1]], parts[-1], rule)
    return basis, [member.terms for member in members.values()]


def change_of_basis_matrix(k, n, family):
    """Rows: expansions of the family members in the Schur basis, rows and
    columns both in canonical enumeration order.  Entries are APoly, each a
    separate object (a zero cell included) that the caller owns."""
    basis, rows = _family_terms(k, n, family)
    return [[row.get(mu) or APoly() for mu in basis] for row in rows]


# family -> (row source, the order each row must descend in)
_TRIANGULAR = {"h": (lambda k, n, lam: family_element(k, n, lam, "h").terms,
                     cmp_size_antidominance),
               "m": (s_in_m, cmp_graded_dominance)}


def unitriangularity_check(k, n, family):
    """Verify the triangularity statements: the h family is unitriangular
    against s under size-then-antidominance, and s is unitriangular against
    m under graded dominance (within each size stratum).  Returns a report
    with any offending entries."""
    check_context(k, n)
    if family not in _TRIANGULAR:
        raise ValueError("triangularity is checked for the h and m families")
    row_of, order = _TRIANGULAR[family]
    failures = []
    for lam in enumerate_pkn(k, n):
        for mu, c in row_of(k, n, lam).items():
            if mu == lam and c != 1:
                why = "diagonal not 1"
            elif mu != lam and order(lam, mu) != GREATER:
                why = "entry above the diagonal order"
            else:
                continue
            entry = c.render() if isinstance(c, APoly) else c
            failures.append({"row": lam, "col": mu, "entry": entry,
                             "why": why})
    return {"k": k, "n": n, "family": family,
            "ok": not failures, "failures": failures}


def _bareiss_det(mat):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(row) for row in mat]
    size_ = len(m)
    if size_ == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(size_ - 1):
        if m[i][i] == 0:
            for r in range(i + 1, size_):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[i][i]
        for r in range(i + 1, size_):
            row_r = m[r]
            row_i = m[i]
            lead = row_r[i]
            for c in range(i + 1, size_):
                row_r[c] = (row_r[c] * pivot - lead * row_i[c]) // prev
            row_r[i] = 0
        prev = pivot
    return sign * m[-1][-1]


def classify_family(k, n, family):
    """Decide from the graded diagonal blocks of the change-of-basis matrix
    (the integer a = 0 blocks, one per size; see the module docstring)
    whether the family is a basis of the quotient, returning (verdict, detail):

        ("yes", 1)    unimodular transition: a basis over Z[a] and every field
        ("no", 0)     determinant zero: never a basis
        ("st", d)     determinant +-d with d > 1: a basis except in
                      characteristics dividing d
        ("a-dep", None)  a row breaks the grading (an entry with |mu| > |lam|,
                      or a non-constant entry with |mu| = |lam|), so the
                      product of the block determinants is not the determinant
    """
    det = 1
    for d, block in groupby(zip(*_family_terms(k, n, family)),
                            lambda member: size(member[0])):
        block = list(block)
        col = {lam: j for j, (lam, _) in enumerate(block)}
        mat = [[0] * len(block) for _ in block]
        for ints, (_, row) in zip(mat, block):
            for mu, c in row.items():
                if size(mu) == d and not c.terms.keys() - {()}:
                    ints[col[mu]] = c.terms.get((), 0)
                elif size(mu) >= d:
                    return ("a-dep", None)
        det *= _bareiss_det(mat)
    if det == 0:
        return ("no", 0)
    if abs(det) == 1:
        return ("yes", 1)
    return ("st", abs(det))


def basis_table(family, n_max, jobs=1):
    """Classification of every cell 1 <= k < n <= n_max; returns
    {(k, n): (verdict, detail)}.  The grid needs n_max >= 2."""
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    cells = [(k, n) for n in range(2, n_max + 1) for k in range(1, n)]
    results = _parallel_map(_classify_cell, [c + (family,) for c in cells],
                            jobs)
    return dict(zip(cells, results))


def _classify_cell(args):
    k, n, family = args
    return classify_family(k, n, family)
