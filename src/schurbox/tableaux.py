"""Tableau counting: Kostka numbers and Littlewood-Richardson coefficients.

Two deliberately different algorithms coexist here.  ``_lr_tableaux``
fills one skew shape lam/mu cell by cell, straight from the definition of
lattice skew tableaux, and counts the fillings by content: the whole skew
expansion, which ``skew_schur_expand``, ``lr_coefficient`` and
``quotient.pieri_h`` read (the last in place, never changing it).
``schur_product_expand`` counts chains of horizontal strips with
ballot-sequence bookkeeping, producing a whole product expansion
s_mu * s_nu = sum_lam c_{mu,nu}^lam s_lam in one pass.  The tests check
the routes against each other and against exact polynomial multiplication.
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


@lru_cache(maxsize=None)
def _lr_tableaux(lam, mu):
    """{nu: c_{mu,nu}^lam} for mu inside lam: the semistandard fillings of
    lam/mu whose reverse reading word (rows top to bottom, each read right
    to left) is a lattice word, counted by content.  The cells are filled in
    that order, backtracking by cell index."""
    rows, n = len(lam), sum(lam) - sum(mu)
    mu_p = pad(mu, rows)
    # Per cell, the fill slots of its upper bound (right neighbour, else rows
    # in slot n + 1) and strict lower bound (cell above, else 0 in slot n).
    cells = []
    for r in range(rows):
        for c in range(lam[r] - 1, mu_p[r] - 1, -1):
            i = len(cells)
            cells.append((i - 1 if c + 1 < lam[r] else n + 1,
                          i - lam[r] + mu_p[r - 1]
                          if r and c >= mu_p[r - 1] else n))
    fill = [0] * (n + 1) + [rows]
    # counts[v] counts the v's placed, a partition for a lattice word, so no
    # v past its first 0 fits; 0 marks an empty cell, inf lets every 1 in.
    counts = [float("inf")] + [0] * (rows + 1)
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
        hi = fill[hi_at]
        v = max(v, fill[lo_at]) + 1
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
    return _lr_tableaux(lam, mu).get(nu, 0)


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


def schur_product_expand(mu, nu, k):
    """The multiset {lam: c_{mu,nu}^{lam}} over partitions lam with at most
    k parts.  Partitions needing more than k rows are dropped (they vanish
    in k variables)."""
    mu, nu = check_partition(mu), check_partition(nu)
    if len(mu) > k or len(nu) > k:
        raise ValueError(f"factors must have at most k={k} parts")
    if sum(nu) == 0:
        return {mu: 1}
    if sum(mu) == 0:
        return {nu: 1}
    return _chain_products(mu, nu, k)


def skew_schur_expand(lam, mu):
    """Expansion of the skew Schur function s_{lam/mu} = sum_nu c_{mu,nu}^lam
    s_nu, as a new dict; empty when mu is not contained in lam."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not contains(lam, mu):
        return {}
    return dict(_lr_tableaux(lam, mu))


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
