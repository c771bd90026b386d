"""Tableau counting: Kostka numbers and Littlewood-Richardson coefficients.

One algorithm counts Littlewood-Richardson tableaux here.  ``_lr_walk``
fills one skew shape lam/mu cell by cell, straight from the definition of
lattice skew tableaux, and counts the fillings by content, grouped by
their need: the least gaps of a start after which a filling reads as a
lattice word.  On lam/mu it gives the skew expansion, for which
``skew_schur_expand``, ``lr_coefficient`` and ``quotient.pieri_h`` each
call it, uncached.  It also gives the product expansion s_mu * s_nu =
s_{nu * mu} = sum_lam c_{mu,nu}^lam s_lam in k variables (Macdonald,
Symmetric Functions and Hall Polynomials, I.5), which
``schur_product_expand`` returns.  On the shape nu * mu (nu set above and
to the right of mu, values capped at k) the rows of nu have one lattice
filling, row i all i's, and no cell of mu lies below a cell of nu.  So the
walk fills only the cells of mu, with room the gaps of nu, and
``_lr_read`` sums its groups at nu.  A walk with room n-k for every value
is the filling table of mu: it holds the product for every start in the
k x (n-k) box, and the scans of ``quotient`` read it at every second
factor.  The tests check it against the walk on nu * mu, a strip-chain
product expander and exact polynomial multiplication.
"""

from functools import lru_cache
from itertools import accumulate
from operator import add, le, sub

from .partitions import (
    check_partition, compositions, contains, dominates,
    horizontal_strip_restrictions, pad, straighten_vector,
)


@lru_cache(maxsize=None)
def kostka(lam, mu):
    """The Kostka number: semistandard tableaux of shape lam and content mu
    (mu a partition).  Zero unless |lam| = |mu| and lam dominates mu;
    K_{lam,lam} = 1.  Computed by stripping the maximal entry, which always
    occupies a horizontal strip."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        return 0
    if not lam:
        return 1
    if not dominates(lam, mu):
        return 0
    if lam == mu:
        return 1
    last = mu[-1]
    rest = mu[:-1]
    total = 0
    for kappa in horizontal_strip_restrictions(lam, last):
        total += kostka(kappa, rest)
    return total


def _lr_walk(lam, mu, top, room=()):
    """{need: {content: count}} over the semistandard fillings of lam/mu
    with values at most top whose reverse reading word (rows top to bottom,
    each read right to left) is lattice after some start, grouped by need.
    A word with content c in each prefix is lattice after a partition start
    exactly when start_(v-1) - start_v >= c_v - c_(v-1) in every prefix, so
    a filling is read after every start whose gaps cover its need: need_v
    is the largest c_v - c_(v-1) over its prefixes, the empty one included,
    for v = 2..top.  room lists room_v for v = 2, 3, ..., zeros past its
    end, and a filling is pruned once need_v passes room_v.  A need lists
    v = 2..len(room) + 1 and a content v = 1, 2, ..., each 0 past its end.

    The cells are filled in that order, backtracking by cell index, with
    the counts started at the partition whose gaps are room, so the walk
    prunes as if it read after that start.  With room () and top =
    len(lam), which no lattice filling exceeds, the one group, of need (),
    gives c_{mu,nu}^lam: the skew expansion.  With mu = () and top = k, the
    groups read at a start (_lr_read) give the product s_lam s_start in k
    variables: with room the gaps of start they are the walk after start,
    and with room n-k for every v, the filling table of lam, they hold the
    product for every start in the k x (n-k) box."""
    rows, n = len(lam), sum(lam) - sum(mu)
    mu_p = pad(mu, rows)
    # Per cell, the fill slots of its upper bound (right neighbour, else top
    # in slot n + 1) and strict lower bound (cell above, else 0 in slot n).
    cells = []
    for r in range(rows):
        for c in range(lam[r] - 1, mu_p[r] - 1, -1):
            i = len(cells)
            cells.append((i - 1 if c + 1 < lam[r] else n + 1,
                          i - lam[r] + mu_p[r - 1]
                          if r and c >= mu_p[r - 1] else n))
    fill = [0] * (n + 1) + [top]
    room = tuple(room[:max(top - 1, 0)])
    start = (*accumulate(room[::-1], initial=0),)[::-1]
    live = len(start)
    # counts[v] counts the v's read after start, a partition for a lattice
    # word, so no v past its first 0 fits; 0 marks an empty cell.  counts[0]
    # starts 2n + 1 above counts[1] and loses one per filled cell, while
    # counts[1] gains at most n, so every 1 fits; an int, unlike inf, keeps
    # every count an int.  For v <= live, slack[v] is the least counts[v-1]
    # - counts[v] over the prefixes, so need_v = room_v - slack[v], and
    # saved[i] is slack[fill[i]] before cell i took its value.  A v past
    # live has no room, so its need stays 0 untracked, and from live on the
    # counts are the content, a partition.
    if not n:
        return {(0,) * len(room): {(0,) * (live - 1): 1}}
    counts = [start[0] + 2 * n + 1, *start] + [0] * (top + 1 - live)
    slack = [0, 0, *room]
    saved = [0] * n
    out = {}
    idx, last = 0, n - 1
    while idx >= 0:
        hi_at, lo_at = cells[idx]
        v = fill[idx]
        counts[v] -= 1
        if v <= live:
            slack[v] = saved[idx]
        hi, lo = fill[hi_at], fill[lo_at]
        v = (v if v > lo else lo) + 1
        while v <= hi and counts[v] == counts[v - 1] > 0:
            v += 1
        v = v if v <= hi and counts[v] < counts[v - 1] else 0
        fill[idx] = v
        counts[v] += 1
        if not v:
            idx -= 1
            continue
        if v <= live:
            saved[idx] = s = slack[v]
            if (d := counts[v - 1] - counts[v]) < s:
                slack[v] = d
        if idx < last:
            idx += 1
            continue
        # a whole filling: count it, then try the last cell's next value
        need = tuple(map(sub, room, slack[2:]))
        content = (*map(sub, counts[1:live], start),
                   *counts[live:counts.index(0, live)])
        group = out.get(need)
        if group is None:
            group = out[need] = {}
        group[content] = group.get(content, 0) + 1
    return out


def _lr_read(groups, start, top):
    """A new dict {start + content: count}, summed over the groups of
    _lr_walk (values at most top) whose need the gaps of the partition
    start cover."""
    start = pad(start, top)
    gaps = tuple(map(sub, start, start[1:]))
    out = {}
    for need, contents in groups.items():
        if all(map(le, need, gaps)):
            for content, m in contents.items():
                nu = tuple(filter(None, (*map(add, start, content),
                                         *start[len(content):])))
                out[nu] = out.get(nu, 0) + m
    return out


def _skew(lam, mu):
    """The skew expansion {nu: c_{mu,nu}^lam} of lam/mu, mu inside lam, as
    a new dict."""
    return _lr_walk(lam, mu, len(lam)).get((), {})


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c_{mu,nu}^{lam}: the number of
    lattice fillings of the skew shape lam/mu with content nu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(mu) + sum(nu) != sum(lam) or not contains(lam, mu):
        return 0
    return _skew(lam, mu).get(nu, 0)


def schur_product_expand(mu, nu, k):
    """The multiset {lam: c_{mu,nu}^{lam}} over partitions lam with at most
    k parts: the walk over the cells of mu, the first factor, with every
    value at most k and room the gaps of nu, read at nu.  The cap drops the
    partitions needing more than k rows (they vanish in k variables)."""
    mu, nu = check_partition(mu), check_partition(nu)
    if len(mu) > k or len(nu) > k:
        raise ValueError(f"factors must have at most k={k} parts")
    gaps = tuple(map(sub, nu, (*nu[1:], 0)))
    return _lr_read(_lr_walk(mu, (), k, gaps), nu, k)


def skew_schur_expand(lam, mu):
    """Expansion of the skew Schur function s_{lam/mu} = sum_nu c_{mu,nu}^lam
    s_nu, as a new dict; empty when mu is not contained in lam."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not contains(lam, mu):
        return {}
    return _skew(lam, mu)


def uncancelled_pieri(alpha, m):
    """Multiply s_alpha by h_m before straightening: the signed multiset of
    partitions obtained from s_{alpha + beta} over all compositions beta of m
    into len(alpha) slots.  alpha may be any integer vector with
    alpha + (k-1, ..., 0) componentwise nonnegative."""
    k = len(alpha)
    rho = tuple(range(k - 1, -1, -1))
    if any(a + r < 0 for a, r in zip(alpha, rho)):
        raise ValueError(f"alpha + rho must be nonnegative, got {alpha}")
    if m < 0:
        raise ValueError("h index must be nonnegative")
    out = {}
    for beta in compositions(m, k):
        res = straighten_vector(tuple(a + b for a, b in zip(alpha, beta)))
        if res is not None:
            sign, lam = res
            out[lam] = out.get(lam, 0) + sign
    return {lam: c for lam, c in out.items() if c}
