"""Tableau counting: Kostka numbers and Littlewood-Richardson coefficients.

One algorithm counts Littlewood-Richardson tableaux here.  ``_lr_walk``
fills one skew shape lam/mu cell by cell, straight from the definition of
lattice skew tableaux, and counts the fillings by content.  On lam/mu it
gives the skew expansion, for which ``skew_schur_expand``,
``lr_coefficient`` and ``quotient.pieri_h`` each call it, uncached.  It
also gives the product expansion s_mu * s_nu = s_{nu * mu} = sum_lam
c_{mu,nu}^lam s_lam in k variables (Macdonald, Symmetric Functions and Hall
Polynomials, I.5), which ``schur_product_expand`` returns.  On the shape
nu * mu (nu set above and to the right of mu, values capped at k) the rows
of nu have one lattice filling, row i all i's, and no cell of mu lies below
a cell of nu.  So the walk fills only the cells of mu, with its counts
starting at the content nu.  The tests check it against the walk on
nu * mu, a strip-chain product expander and exact polynomial
multiplication.
"""

from functools import lru_cache

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


def _lr_walk(lam, mu, top, start=()):
    """{nu: count} over the semistandard fillings of lam/mu with values at
    most top whose reverse reading word (rows top to bottom, each read right
    to left) is a lattice word when read after the lattice word of the
    partition start, counted by content nu (start included).  The cells are
    filled in that order, backtracking by cell index.  With start = () and
    top = len(lam), which no lattice filling exceeds, the counts are
    c_{mu,nu}^lam: the skew expansion.  With mu = () and top = k they are
    the product s_lam s_start in k variables."""
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
    # counts[v] counts the v's read, a partition for a lattice word, so no
    # v past its first 0 fits; 0 marks an empty cell, inf lets every 1 in.
    counts = [float("inf"), *start] + [0] * (rows + 1)
    out = {}
    idx = 0
    while idx >= 0:
        if idx == n:
            nu = tuple(counts[1:counts.index(0, 1)])
            out[nu] = out.get(nu, 0) + 1
            idx -= 1
            continue
        hi_at, lo_at = cells[idx]
        v = fill[idx]
        counts[v] -= 1
        hi, lo = fill[hi_at], fill[lo_at]
        v = (v if v > lo else lo) + 1
        while v <= hi and counts[v] == counts[v - 1] > 0:
            v += 1
        v = v if v <= hi and counts[v] < counts[v - 1] else 0
        fill[idx] = v
        counts[v] += 1
        idx += 1 if v else -1
    return out


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c_{mu,nu}^{lam}: the number of
    lattice fillings of the skew shape lam/mu with content nu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(mu) + sum(nu) != sum(lam) or not contains(lam, mu):
        return 0
    return _lr_walk(lam, mu, len(lam)).get(nu, 0)


def schur_product_expand(mu, nu, k):
    """The multiset {lam: c_{mu,nu}^{lam}} over partitions lam with at most
    k parts: the walk over the cells of mu, the first factor, with every
    value at most k and the counts starting at the content nu.  The cap
    drops the partitions needing more than k rows (they vanish in k
    variables)."""
    mu, nu = check_partition(mu), check_partition(nu)
    if len(mu) > k or len(nu) > k:
        raise ValueError(f"factors must have at most k={k} parts")
    return _lr_walk(mu, (), k, nu)


def skew_schur_expand(lam, mu):
    """Expansion of the skew Schur function s_{lam/mu} = sum_nu c_{mu,nu}^lam
    s_nu, as a new dict; empty when mu is not contained in lam."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not contains(lam, mu):
        return {}
    return _lr_walk(lam, mu, len(lam))


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
