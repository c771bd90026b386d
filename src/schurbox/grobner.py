"""The ambient polynomial ring Z[a_1..a_k][x_1..x_k] and its reduction ideal.

The quotient ring is presented as P/J where J is generated by the k
polynomials

    b_i = h_{n-k+i}(x_i, ..., x_k)
          - sum_{t=0}^{i-1} (-1)^t e_t(x_1, ..., x_{i-1}) a_{i-t}

whose deglex leading terms x_i^{n-k+i} are pairwise coprime, so {b_1..b_k}
is a Groebner basis and division needs nothing beyond a per-coordinate
exponent check.  Monomials are compared degree-lexicographically with
x_1 > x_2 > ... > x_k.
"""

from heapq import heappop, heappush
from itertools import combinations

from .apoly import (
    APoly, APolyModule, add_product, attach_coefficient, check_exponents,
    iter_poly_terms, join_signed, monomial_factors, poly_of, polys_of,
    term_exponents,
)
from .partitions import check_context, check_partition, compositions
from .tableaux import kostka


def deglex_key(mono):
    """Sort key: ascending by total degree, then lexicographically with a
    larger exponent on an earlier variable winning."""
    return (sum(mono), mono)


class XPoly(APolyModule):
    """Sparse polynomial in x_1..x_k with APoly coefficients."""

    __slots__ = ()

    def __init__(self, k, terms=None):
        super().__init__((k,), terms)

    def _key(self, mono):
        mono = check_exponents(mono)
        if len(mono) != self.k:
            raise ValueError(f"monomial {mono} is not length {self.k}")
        return mono

    @classmethod
    def zero(cls, k):
        return cls(k)

    @classmethod
    def monomial(cls, k, mono, c=1):
        return cls(k, {tuple(mono): c})

    @classmethod
    def const(cls, k, c):
        return cls(k, {(0,) * k: c})

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            return super().__mul__(other)
        self._check_same(other)
        sums = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                add_product(sums.setdefault(mono, {}), c1, c2)
        return self._new(polys_of(sums))

    __rmul__ = __mul__

    def render(self):
        """Canonical text: terms in descending deglex; single-monomial
        coefficients are inlined with sign extraction, general coefficients
        parenthesized (or inlined for the x-constant term)."""
        return join_signed(
            attach_coefficient(self.terms[mono], monomial_factors(mono, "x"))
            for mono in sorted(self.terms, key=deglex_key, reverse=True))


def parse_xpoly(text, k):
    """Parse polynomial text in x_1..x_k with a_1..a_k coefficients."""
    sums = {}
    for coeff, symbols in iter_poly_terms(text):
        a, x = term_exponents(symbols, "ax", k)
        exps = sums.setdefault(x + (0,) * (k - len(x)), {})
        exps[a] = exps.get(a, 0) + coeff
    return XPoly._trusted((k,), polys_of(sums))


# -- symmetric polynomial generators ----------------------------------------

def h_on_vars(m, k, lo=1):
    """Complete homogeneous h_m(x_lo, ..., x_k) as an XPoly in k variables.
    h_0 = 1; h_m = 0 when m < 0 or the variable range is empty with m > 0."""
    slots = max(k - lo + 1, 0)
    return XPoly._trusted((k,), {(0,) * (k - slots) + beta: APoly.const(1)
                                 for beta in compositions(m, slots)})


def e_on_vars(t, k, hi=None):
    """Elementary e_t(x_1, ..., x_hi) as an XPoly in k variables; e_0 = 1,
    e_t = 0 for t < 0 or t > hi."""
    if hi is None:
        hi = k
    subsets = combinations(range(hi), t) if t >= 0 else ()
    return XPoly._trusted((k,), {
        tuple(int(i in subset) for i in range(k)): APoly.const(1)
        for subset in subsets})


def groebner_generators(k, n):
    """The Groebner basis (b_1, ..., b_k) of the defining ideal, deglex
    leading terms x_i^{n-k+i}; new XPolys that the caller owns."""
    check_context(k, n)
    gens = []
    for i in range(1, k + 1):
        b = h_on_vars(n - k + i, k, lo=i)
        for t in range(i):
            sign = -1 if t % 2 else 1
            b = b - e_on_vars(t, k, hi=i - 1) * (APoly.gen(i - t) * sign)
        gens.append(b)
    return tuple(gens)


def normal_form(k, n, p):
    """The unique representative of p modulo the ideal supported on monomials
    with every exponent alpha_i < n - k + i.  One exponent-dict sum per
    monomial; a monomial is classified once, when it enters, and only a
    reducible one goes on the heap.  The deglex-largest is rewritten first:
    its rewrites are all smaller, so its sum is final when it is popped, and
    it never comes back.  What is left when the heap is empty is normal."""
    if p.k != k:
        raise ValueError(f"polynomial has {p.k} variables, context has {k}")
    bounds = tuple(n - k + i for i in range(1, k + 1))
    # tails[i] = x_i^{n-k+i} - b_i: what the leading power rewrites to
    tails = [XPoly.monomial(k, (0,) * i + (bound,) + (0,) * (k - i - 1)) - b
             for i, (bound, b)
             in enumerate(zip(bounds, groebner_generators(k, n)))]
    sums, heap = {}, []

    def add_term(mono, c, q):
        if mono not in sums:
            sums[mono] = {}
            # the first index at or past its bound
            i = next((j for j in range(k) if mono[j] >= bounds[j]), None)
            if i is not None:
                heappush(heap, (-sum(mono), tuple(-e for e in mono), mono, i))
        add_product(sums[mono], c, q)

    for mono, c in p.terms.items():
        add_term(mono, c, 1)
    while heap:
        *_, mono, i = heappop(heap)
        c = poly_of(sums.pop(mono))
        if not c:
            continue
        rem = list(mono)
        rem[i] -= bounds[i]
        for tmono, tc in tails[i].terms.items():
            add_term(tuple(r + t for r, t in zip(rem, tmono)), tc, c)
    return p._new(polys_of(sums))


def monomial_basis(k, n):
    """All monomials x^alpha with alpha_i < n - k + i, in ascending deglex
    order; a Z[a]-module basis of the quotient, of size n(n-1)...(n-k+1)."""
    check_context(k, n)
    monos = [()]
    for i in range(1, k + 1):
        monos = [m + (e,) for m in monos for e in range(n - k + i)]
    return sorted(monos, key=deglex_key)


def schur_xpoly(lam, k):
    """The Schur polynomial s_lam(x_1, ..., x_k) = sum_mu K_{lam,mu} m_mu:
    the coefficient of x^alpha is the Kostka number of lam and alpha sorted
    into a partition.  Zero when lam has more than k rows.  A new XPoly that
    the caller owns."""
    lam = check_partition(lam)
    items = ((alpha, kostka(lam, tuple(sorted(alpha, reverse=True))))
             for alpha in compositions(sum(lam), k))
    return XPoly._trusted((k,), {alpha: APoly.const(c)
                                 for alpha, c in items if c})
