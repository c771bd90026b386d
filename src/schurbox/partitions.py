"""Partitions in a k x (n-k) box, partial orders, and vector straightening.

A partition is a tuple of weakly decreasing positive integers, e.g. (3, 1);
the empty partition is ().  Throughout, ``P_{k,n}`` denotes the partitions
with at most k parts, each part at most n-k, i.e. those fitting in a k-row,
(n-k)-column rectangle.  These index the Schur basis of the quotient ring
implemented in :mod:`schurbox.quotient`.
"""

from itertools import accumulate, combinations
from math import comb

# Four-valued outcome of the partial-order comparisons.
GREATER = "greater"
LESS = "less"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def check_partition(parts):
    """Validate and normalize a partition given as any integer iterable.

    Trailing zeros are dropped; raises ValueError if entries are negative,
    not weakly decreasing, or not integers.
    """
    parts = tuple(parts)
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"partition entries must be integers, got {p!r}")
        if p < 0:
            raise ValueError(f"partition entries must be nonnegative, got {p}")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"partition must be weakly decreasing, got {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def size(lam):
    """Number of boxes |lambda|."""
    return sum(lam)


def in_box(lam, k, n):
    """True iff lambda has at most k parts, each at most n-k."""
    return len(lam) <= k and (not lam or lam[0] <= n - k)


def check_in_box(lam, k, n):
    """Return lambda, or raise ValueError if it does not fit in the box."""
    if not in_box(lam, k, n):
        raise ValueError(f"{lam} does not fit in the {k} x {n - k} box")
    return lam


def check_box(k, n):
    """Validate 0 <= k <= n."""
    if not (isinstance(k, int) and isinstance(n, int)):
        raise ValueError("k and n must be integers")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def check_context(k, n):
    """Validate a quotient context: integers with 1 <= k <= n."""
    check_box(k, n)
    if k == 0:
        raise ValueError("quotient contexts need k >= 1")
    return k, n


def bounded_partitions(d, hi, lo=()):
    """The list of partitions mu of d with lo_i <= mu_i <= hi_i in every row
    i (rows past the end of hi or lo are bounded by 0), in lexicographically
    descending order.  Grown one row per pass as (prefix, remaining) pairs;
    the row capacity left below each row is pruned in O(1) from suffix sums
    of hi and lo, and a prefix is complete at its first zero part."""
    rows = max(len(hi), len(lo))
    hi = tuple(hi) + (0,) * (rows - len(hi))
    lo = tuple(lo) + (0,) * (rows - len(lo))
    hi_rest = tuple(accumulate(reversed(hi), initial=0))[::-1]
    lo_rest = tuple(accumulate(reversed(lo), initial=0))[::-1]
    level = [((), d)] if 0 <= d <= hi_rest[0] else []
    for i in range(rows):
        grown = []
        for prefix, remaining in level:
            if not remaining:
                if not lo_rest[i]:
                    grown.append((prefix, 0))
                continue
            top = min(hi[i], prefix[-1] if prefix else remaining,
                      remaining - lo_rest[i + 1])
            bottom = max(lo[i], 1, remaining - hi_rest[i + 1],
                         -(-remaining // (rows - i)))
            grown.extend((prefix + (m,), remaining - m)
                         for m in range(top, bottom - 1, -1))
        level = grown
    return [prefix for prefix, _ in level]


def partitions_in_rect(d, max_len, max_part):
    """The list of partitions of d with at most max_len parts, each at most
    max_part, in lexicographically descending order."""
    return bounded_partitions(d, (max_part,) * max_len)


def enumerate_pkn(k, n):
    """All partitions in the k x (n-k) box, graded by size and lexicographically
    descending within each size.  This is the canonical enumeration order used
    everywhere (matrix rows/columns, JSON term order).  Length is C(n, k).
    """
    check_box(k, n)
    out = []
    for d in range(k * (n - k) + 1):
        out.extend(partitions_in_rect(d, k, n - k))
    assert len(out) == comb(n, k)
    return tuple(out)


def complement(nu, k, n):
    """The box complement: rotate the complement of nu in the k x (n-k)
    rectangle by 180 degrees.  An involution on P_{k,n}."""
    check_in_box(nu, k, n)
    padded = pad(nu, k)
    return check_partition(tuple(n - k - padded[k - 1 - i] for i in range(k)))


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def pad(lam, k):
    """lambda extended with zeros to length k."""
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} parts")
    return tuple(lam) + (0,) * (k - len(lam))


def contains(lam, mu):
    """True iff the diagram of mu sits inside the diagram of lambda."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def dominates(lam, mu):
    """Dominance order: every prefix sum of lambda is >= the corresponding
    prefix sum of mu.  Defined only within a fixed size; returns False when
    |lambda| != |mu| (partitions of different sizes never dominate)."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def cmp_size_antidominance(lam, mu):
    """Compare in the size-then-antidominance order: lam > mu when
    |lam| > |mu|, or when the sizes agree and mu strictly dominates lam.
    Equal-size dominance-incomparable pairs are INCOMPARABLE."""
    if lam == mu:
        return EQUAL
    if sum(lam) != sum(mu):
        return GREATER if sum(lam) > sum(mu) else LESS
    lam_dom = dominates(lam, mu)
    mu_dom = dominates(mu, lam)
    if mu_dom and not lam_dom:
        return GREATER
    if lam_dom and not mu_dom:
        return LESS
    return INCOMPARABLE


def cmp_graded_dominance(lam, mu):
    """Compare in the graded dominance order: comparable only within a size,
    where lam > mu means lam strictly dominates mu."""
    if lam == mu:
        return EQUAL
    if sum(lam) != sum(mu):
        return INCOMPARABLE
    if dominates(lam, mu):
        return GREATER
    if dominates(mu, lam):
        return LESS
    return INCOMPARABLE


def straighten_vector(alpha):
    """Straighten the Schur 'function' of an arbitrary integer vector.

    For alpha in Z^k let beta = alpha + (k-1, k-2, ..., 0).  If beta has a
    negative or repeated entry the alternant vanishes and None is returned.
    Otherwise returns (sign, lam) where lam_i = (beta sorted strictly
    decreasing)_i - (k - i) and sign = (-1)^(number of pairs i < j with
    beta_i < beta_j), the sign of that sort; then s_alpha = sign * s_lam.
    """
    k = len(alpha)
    beta = tuple(alpha[i] + (k - 1 - i) for i in range(k))
    if any(b < 0 for b in beta):
        return None
    if len(set(beta)) != k:
        return None
    ascents = sum(1 for a, b in combinations(beta, 2) if a < b)
    # beta sorted is strictly decreasing and nonnegative, so lam is a
    # partition padded with zeros: only they need trimming.
    lam = tuple(b - (k - 1 - i)
                for i, b in enumerate(sorted(beta, reverse=True)))
    return -1 if ascents % 2 else 1, lam[:k - lam.count(0)]


def compositions(m, slots):
    """Yield the compositions of m into the given number of nonnegative parts
    (stars and bars), in lexicographically ascending order."""
    if slots == 0 or m < 0:
        if slots == m == 0:
            yield ()
        return
    ends = m + slots - 1
    for bars in combinations(range(ends), slots - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (ends,)))


def horizontal_strip_extensions(lam, j, k, max_part):
    """All partitions mu >= lam with at most k parts, mu_1 <= max_part, such
    that mu/lam is a horizontal strip of size j (lam_i <= mu_i <= lam_{i-1})."""
    lam_p = pad(lam, k)
    return bounded_partitions(size(lam) + j, ((max_part,) + lam_p)[:k], lam_p)


def horizontal_strip_restrictions(lam, j):
    """All partitions mu <= lam such that lam/mu is a horizontal strip of
    size j (lam_{i+1} <= mu_i <= lam_i)."""
    return bounded_partitions(size(lam) - j, lam, lam[1:])
