"""The quotient of symmetric polynomials in k variables by the relations
h_{n-k+1} = a_1, ..., h_n = a_k, in its Schur basis.

Elements are Z[a_1..a_k]-linear combinations of the classes s[lam] for lam
in the k x (n-k) box.  Setting every a_i = 0 recovers the cohomology ring of
the Grassmannian Gr(k, n); a_i = 0 for i < k with a_k = -(-1)^k q recovers
its quantum cohomology.

The workhorse is ``straighten_schur``: the class of s_mu for an arbitrary
partition mu with at most k parts, computed by the rim-hook recursion

    s[mu] = sum_{j=1..k} (-1)^{k-j} a_j
            sum_{tau in V, -|tau| = n-k+j} s[mu + tau]          (mu_1 > n-k)

over the vector set V = {(-n, t_2, ..., t_k) : t_i in {0,1}}, each summand
resolved through the alternant straightening of integer vectors; only the
vectors of V whose summand can be nonzero are listed.

Straightening sums into one sparse accumulator, {key: int}, with one packed
int key per term c * a^e * s[nu] (packed exponent vectors, as in Monagan
and Pearce, CASC 2007).  With b = (n-k).bit_length(), the low k*b bits hold
nu, part i in bits i*b to i*b + b - 1; above them, e_j sits in the _W-bit
field j-1.  Multiplying by a monomial is one integer addition.  An exponent
never reaches 2**_W: every term of the class of s_mu has |e| <= |mu| //
(n-k+1), since deg a_j = n-k+j, and larger inputs are a ValueError.  The
memo of each s_mu is a flat (key, c, key, c, ...) tuple.  Sums enter the
accumulator only as (c, expansion) pairs and leave it only as rows {packed
nu: (e, c, e, c, ...)}: the packed nu is the low k*b bits of a key, each e
the packed exponents above them, in ascending e, so two coefficients are
equal exactly when their tuples are.

Products follow Bertram, Ciocan-Fontanine and Fulton (J. Algebra, 1999):
expand in k variables by the Littlewood-Richardson rule, then straighten
the sum once (``multiply`` and the family steps of ``bases``).  No product
is cached: both scans run one slab per first factor alpha, and the S3 scan
holds the rows s[alpha] * s[y] of one slab at a time.

The positivity scan checks each product on graded integers (Kronecker
substitution, as in Harvey, J. Symbolic Comput. 2009).  Every packed key of
the classes of degree D gets a w-bit slot, and the class of s_nu is one int
N_nu = sum c * 2**(w*slot) over its terms, each c signed by the scan's
parity rule; a product of degree D is N = sum c_nu * N_nu over its LR
expansion.  While sum |c_nu| * max|c of N_nu| < 2**(w-1), each slot of N
holds one signed coefficient, with no carry, so adding the mask M of every
slot's top bit keeps all of M exactly when each is nonnegative.  A degree's
table is rebuilt, wider or with more shapes, until it holds the product, so
every product is checked, and its violations read, on its graded integer.
"""

import os
from collections import Counter
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement, permutations
from math import comb

from .apoly import (
    APoly, APolyModule, ZERO, ONE, add_product, attach_coefficient,
    join_signed, poly_of, polys_of,
)
from .partitions import (
    check_context, check_in_box, check_partition, complement, contains,
    enumerate_pkn, horizontal_strip_extensions, in_box, pad,
    partitions_in_rect, size, straighten_vector,
)
from .tableaux import _lr_walk, schur_product_expand


def omega(k, n):
    """The full box (n-k, ..., n-k), the top class."""
    return ((n - k),) * k if n > k else ()


class QuotElem(APolyModule):
    """An element sum_lam c_lam s[lam] with c_lam in Z[a_1..a_k] and every
    lam inside the k x (n-k) box."""

    __slots__ = ()

    def __init__(self, k, n, terms=None):
        super().__init__(check_context(k, n), terms)

    n = property(lambda self: self.context[1])

    def _key(self, lam):
        return check_in_box(check_partition(lam), *self.context)

    @classmethod
    def basis(cls, k, n, lam):
        return cls(k, n, {check_partition(lam): 1})

    @classmethod
    def zero(cls, k, n):
        return cls(k, n)

    @classmethod
    def one(cls, k, n):
        return cls(k, n, {(): 1})

    def __mul__(self, other):
        if isinstance(other, QuotElem):
            return multiply(self, other)
        return super().__mul__(other)

    __rmul__ = __mul__

    def coeff(self, mu):
        """The coefficient of s[mu] (mu must fit in the box), as a new APoly
        that the caller owns."""
        return APoly(self.terms.get(self._key(mu), ZERO).terms)

    def render(self):
        """Text form, largest basis element first:
        '-a2*s[3,1,1] + a1^2*s[1,1] - a1*a2*s[1] + a1*a3*s[]'."""
        return render_terms(self.terms)

    def payload(self, terms=None, var="a", spec=None):
        """JSON-ready dict of this element, or of the given coefficients
        (typically its specialization under spec, polynomials in var) on the
        same basis; terms follow the canonical enumeration order."""
        terms = self.terms if terms is None else terms
        out = {"k": self.k, "n": self.n, "basis": "s"}
        if spec is not None:
            out["spec"] = spec
        out["terms"] = [
            {"partition": list(lam), "coeff": terms[lam].render(var)}
            for lam in canonical_order(terms)]
        return out


def canonical_order(lams):
    """lams sorted as enumerate_pkn orders a box: by size, then descending."""
    return sorted(lams, key=lambda lam: (size(lam), tuple(-p for p in lam)))


def render_terms(terms, var="a"):
    """Shared text renderer for basis-indexed term dicts (APoly or
    q-polynomial coefficients), largest basis element first."""
    return join_signed(
        attach_coefficient(terms[lam], [f"s[{','.join(map(str, lam))}]"], var)
        for lam in reversed(canonical_order(terms)))


# -- straightening -----------------------------------------------------------

# Width of one exponent field of a packed key; an exponent must stay below
# 2**_W, or it would carry into the next field.
_W = 16


def _check_degree(d):
    """Reject a coefficient degree whose exponents might not fit a field."""
    if d >> _W:
        raise ValueError(f"coefficient degree up to {d} does not fit the "
                         f"{_W}-bit exponent fields of the straightening")


def _pack(k, n, lam):
    """The packed key of s[lam], for lam in the box, with coefficient 1."""
    b = (n - k).bit_length()
    return sum(p << (i * b) for i, p in enumerate(lam))


def _monomial_key(e, shift):
    """The packed key of the monomial a^e on the empty partition: e_j in
    the _W-bit field j-1 above the low shift bits."""
    return sum(x << (j * _W) for j, x in enumerate(e)) << shift


@lru_cache(maxsize=None)
def _fields(bits, width):
    """The width-bit fields of bits, lowest first, up to its last nonzero
    one: a packed partition or exponent vector, unpacked once and shared."""
    mask = (1 << width) - 1
    out = []
    while bits:
        out.append(bits & mask)
        bits >>= width
    return tuple(out)


@lru_cache(maxsize=None)
def _straighten(k, n, mu):
    """The class of s_mu, for mu with at most k parts, as a flat tuple
    (key, c, key, c, ...) of packed keys and nonzero ints.
    Entries 2 <= i < l <= k of beta = mu + tau + (k-1, ..., 0) differ by
    mu_i - mu_l + l - i + t_i - t_l, which is 0 only when l = i+1,
    mu_i = mu_l, t_i = 0 and t_l = 1, where the alternant vanishes; so a
    run of r equal parts in mu_2..mu_k takes the tails 1^a 0^(r-a).  A
    collision with the first entry is left to straighten_vector.  On the
    listed vectors beta_2..beta_k decrease strictly and beta_1 = mu_1 - n +
    k - 1 is the same for every tau, so the sorted beta, hence lam, fixes
    tau: each lam of the step comes from one tau."""
    _check_degree(size(mu) // (n - k + 1))
    if in_box(mu, k, n):
        return (_pack(k, n, mu), 1)
    step = []
    mu_p = pad(mu, k)
    vectors = [(-n,)]
    for r in Counter(mu_p[1:]).values():
        vectors = [tau + (1,) * a + (0,) * (r - a)
                   for tau in vectors for a in range(r + 1)]
    for tau in vectors:
        j = -sum(tau) - (n - k)
        res = straighten_vector(tuple(m + t for m, t in zip(mu_p, tau)))
        if res is None:
            continue
        sgn, lam = res
        # recurse from this frame, not from _accumulate's, so a rim hook
        # costs one frame of depth; _accumulate then reads the memo
        _straighten(k, n, lam)
        step.append((APoly.gen(j) * (sgn * (-1 if (k - j) % 2 else 1)),
                     ((lam, 1),)))
    return tuple(chain.from_iterable(_accumulate(k, n, step).items()))


def _accumulate(k, n, terms):
    """sum c * m * s_nu straightened, as {packed key: nonzero int}, over the
    (c, expansion) pairs of terms: c is an int or an APoly, each expansion
    an iterable of (nu, m) with int m.  Each c is packed once per pair, and
    its degree plus each nu's bound is checked against the exponent fields;
    a zero c is skipped without straightening its expansion."""
    shift = k * (n - k).bit_length()
    acc = {}
    get = acc.get
    for c, expansion in terms:
        if not c:
            continue
        if isinstance(c, int):
            deg, monos = 0, ((0, c),)
        else:
            deg = max(map(sum, c.terms))
            monos = [(_monomial_key(e, shift), ce)
                     for e, ce in c.terms.items()]
        for nu, m in expansion:
            if deg:
                _check_degree(deg + size(nu) // (n - k + 1))
            flat = _straighten(k, n, nu)
            for mono, ce in monos:
                cm = ce * m
                it = iter(flat)
                for key, ci in zip(it, it):
                    key += mono
                    acc[key] = get(key, 0) + ci * cm
    return {key: c for key, c in acc.items() if c}


def _rows(k, n, packed):
    """The rows {packed nu: (e, c, e, c, ...)} of a packed accumulator, the
    pairs of each nu in ascending e (its keys are nu + (e << k*b))."""
    shift = k * (n - k).bit_length()
    mask = (1 << shift) - 1
    row = {}
    for key, c in sorted(packed.items()):
        row.setdefault(key & mask, []).extend((key >> shift, c))
    return {nu: tuple(flat) for nu, flat in row.items()}


def _coeff(flat):
    """A new APoly of a row coefficient (e, c, e, c, ...), each e packed
    as by _monomial_key."""
    it = iter(flat)
    return poly_of({_fields(e, _W): c for e, c in zip(it, it)})


def _unpack(k, n, packed):
    """{nu: new APoly} of a packed accumulator, read from its rows."""
    b = (n - k).bit_length()
    return {_fields(nu, b): _coeff(flat)
            for nu, flat in _rows(k, n, packed).items()}


def _straighten_sum(k, n, terms):
    """The class of the sum of the (c, expansion) pairs of _accumulate."""
    return QuotElem._trusted((k, n), _unpack(k, n, _accumulate(k, n, terms)))


def straighten_schur(k, n, mu):
    """The class of s_mu in the quotient, for an arbitrary partition mu with
    at most k parts (the zero element when mu has more rows than k)."""
    check_context(k, n)
    mu = check_partition(mu)
    if len(mu) > k:
        return QuotElem.zero(k, n)
    return _straighten_sum(k, n, ((1, ((mu, 1),)),))


def straighten_combination(k, n, combination):
    """The class of sum_mu c_mu s_mu for a dict {mu: c_mu} of int or APoly
    coefficients on partitions mu with at most k parts, by _straighten_sum;
    a zero coefficient is skipped without straightening its partition.
    Every coefficient of the result is a new APoly."""
    check_context(k, n)
    return _straighten_sum(
        k, n, ((c, ((mu, 1),)) for mu, c in combination.items()))


# -- multiplication ----------------------------------------------------------

def _product_row(k, n, expansion):
    """The product of two box classes, as a new row (_rows), from its LR
    expansion in k variables."""
    return _rows(k, n, _accumulate(k, n, ((1, expansion.items()),)))


def multiply(f, g):
    """The product of two elements: c_f * c_g times the LR expansion of
    s[lam] * s[mu] in k variables, summed over the pairs of terms and
    straightened once."""
    f._check_same(g)
    k, n = f.context
    return _straighten_sum(k, n, (
        (cf * cg, schur_product_expand(lam, mu, k).items())
        for lam, cf in f.terms.items() for mu, cg in g.terms.items()))


def structure_constant(k, n, alpha, beta, gamma):
    """g(alpha, beta, gamma) = coeff of s[complement(gamma)] in
    s[alpha] * s[beta]; symmetric in all three arguments.  Returns a new
    APoly, read from a row built for this call."""
    check_context(k, n)
    alpha, beta, gamma = (check_partition(p) for p in (alpha, beta, gamma))
    for p in (alpha, beta, gamma):
        check_in_box(p, k, n)
    row = _product_row(k, n, schur_product_expand(alpha, beta, k))
    return _coeff(row.get(_pack(k, n, complement(gamma, k, n)), ()))


# -- Pieri rule --------------------------------------------------------------

def pieri_h(k, n, lam, j):
    """Multiply s[lam] by the class of h_j (0 <= j <= n-k), by the closed
    rule: horizontal j-strip extensions inside the box, corrected for each
    i by the skew class s_{lam/hook} of the hook (n-k-j+1, 1^{i-1}),
    weighted by (-1)^{i+1} a_i:

        s[lam] h_j = sum_{mu} s[mu]
                     - sum_{i=1..k} (-1)^i a_i s[lam/(n-k-j+1, 1^{i-1})]
    """
    check_context(k, n)
    lam = check_in_box(check_partition(lam), k, n)
    if not 0 <= j <= n - k:
        raise ValueError(f"need 0 <= j <= n-k = {n - k}, got j={j}")
    sums = {}
    for mu in horizontal_strip_extensions(lam, j, k, n - k):
        add_product(sums.setdefault(mu, {}), ONE, 1)
    for i in range(1, k + 1):
        hook = (n - k - j + 1,) + (1,) * (i - 1)
        # each hook holds the one before it, so no later hook fits in lam
        if not contains(lam, hook):
            break
        coeff_i = APoly.gen(i) * (1 if i % 2 else -1)
        for nu, c in _lr_walk(lam, hook, len(lam)).items():
            add_product(sums.setdefault(nu, {}), coeff_i, c)
    return QuotElem._trusted((k, n), polys_of(sums))


def reduce_h_overflow(k, n, m):
    """The class of h_{n+m} for m >= 1:
    sum_{j=0}^{k-1} (-1)^j a_{k-j} s[(m, 1^j)], straightened."""
    check_context(k, n)
    if m < 1:
        raise ValueError(f"overflow index must be >= 1, got {m}")
    return straighten_combination(k, n, {
        (m,) + (1,) * j: APoly.gen(k - j) * (-1 if j % 2 else 1)
        for j in range(k)})


# -- specialization ----------------------------------------------------------

def specialize_elem(f, values):
    """Substitute the a_i; returns {partition: q-polynomial} over the basis
    (zero coefficients dropped)."""
    return {lam: c2 for lam, c in f.terms.items()
            if (c2 := c.specialize(values))}


# -- verification scans ------------------------------------------------------

def s3_report(k, n, jobs=1):
    """Check full symmetry of the structure constants: for every unordered
    triple {alpha, beta, gamma} of box partitions, the six permuted values
    g(., ., .) equal g(alpha, beta, gamma), or, when alpha is the unit class
    () (drawn first in the scan's order), the duality value 1 if beta =
    complement(gamma) else 0, which checks duality on every ordered pair.
    Duality makes g(alpha, beta, gamma) the coefficient of s[omega] in the
    triple product s[alpha] s[beta] s[gamma].  The failing triples are
    found through the generators (12) and (23) of S3, one slab of rows per
    alpha, and only they are read six times.  Returns a report dict."""
    box = enumerate_pkn(*check_context(k, n))
    comp = [_pack(k, n, complement(z, k, n)) for z in box]
    flagged = set(chain.from_iterable(_parallel_map(
        partial(_s3_slab, k, n, box, comp), range(len(box)), jobs)))
    bad = []
    # sorted index triples come in combinations_with_replacement order
    for i, j, l in sorted(flagged):
        triple = alpha, beta, gamma = box[i], box[j], box[l]
        values = [structure_constant(k, n, *p) for p in permutations(triple)]
        if alpha:
            want = values[0]
        else:
            want = ONE if beta == complement(gamma, k, n) else ZERO
        bad.append({"alpha": alpha, "beta": beta, "gamma": gamma,
                    "permuted": [v.render() for v in values],
                    "expected": want.render()})
    return {"k": k, "n": n, "triples": comb(len(box) + 2, 3), "ok": not bad,
            "counterexamples": bad}


def _s3_slab(k, n, box, comp, i):
    """The failing triples of the slab of rows s[alpha] * s[y], alpha =
    box[i], as sorted index triples {i, j, l}: g(alpha, y, z) != g(alpha,
    z, y); g(alpha, y, z) != g(y, alpha, z) for y after alpha, where s[y] *
    s[alpha] is built only if its LR expansion differs, as a row is a
    function of its expansion; and g((), y, z) off the duality value.  box
    is enumerate_pkn(k, n) and comp[l] the packed key of the complement of
    box[l], both built once per scan."""
    alpha = box[i]
    rows, bad = [], set()
    for j, y in enumerate(box):
        expansion = schur_product_expand(alpha, y, k)
        rows.append(_product_row(k, n, expansion))
        if j > i and expansion != (other := schur_product_expand(y, alpha, k)):
            swapped = _product_row(k, n, other)
            bad.update((i, j, l) for l, c in enumerate(comp)
                       if rows[j].get(c) != swapped.get(c))
    for j, l in combinations_with_replacement(range(len(box)), 2):
        g = rows[j].get(comp[l], ())
        if g != rows[l].get(comp[j], ()) or not alpha and g != (
                (0, 1) if box[j] == complement(box[l], k, n) else ()):
            bad.add((i, j, l))
    return [tuple(sorted(t)) for t in bad]


def positivity_scan(k, n, jobs=1):
    """Scan every product of two basis classes for the sign-alternation
    pattern: (-1)^{|lam|+|mu|-|nu|} coeff_nu(s[lam] s[mu]), rewritten in the
    variables b_i = (-1)^{n-k-1} a_i, must have nonnegative coefficients.
    One slab per lam, as in s3_report; only the violations are kept.
    Returns a report dict listing violations (expected none)."""
    box = enumerate_pkn(*check_context(k, n))
    bad = list(chain.from_iterable(_parallel_map(
        partial(_positivity_slab, k, n, box), range(len(box)), jobs)))
    return {"k": k, "n": n, "pairs": comb(len(box) + 1, 2), "ok": not bad,
            "violations": bad}


def _sign_fields(k, n):
    """The key whose set bits are the low bits of the parts' fields of nu
    (none when n-k = 0) and, when n-k-1 is odd, of the exponent fields:
    the key of a_1 * ... * a_k.  A term c*a^e*s[nu] of a product of degree
    d enters the positivity check negated exactly when d plus the number of
    these bits set in its key is odd, since a sum of fields is odd when an
    odd number of them are."""
    b = (n - k).bit_length()
    shift = k * b
    return (sum(1 << p for p in range(0, shift, b or 1))
            | (n - k - 1) % 2 * _monomial_key((1,) * k, shift))


# Bits per slot of a new graded table (_graded), widened where needed.
_B = 16


@lru_cache(maxsize=None)
def _graded(k, n, d):
    """The degree-d table of the positivity check, in a one-item list for
    _positivity_slab to rebuild: at first _B-bit slots on the partitions
    of d with at most k parts, each at most 2(n-k), as LR products have."""
    return [_graded_table(k, n, d, _B, partitions_in_rect(d, k, 2 * (n - k)))]


def _graded_table(k, n, d, width, shapes):
    """(keys, classes, width, mask) for products of degree d: keys[slot] is
    a packed key; classes maps each shape nu to (N, top), where N is the
    sum of c * 2**(width*slot) over the terms c*key of the class of s_nu,
    each c signed by _sign_fields, and top is the largest |c|; mask has the
    top bit of every slot set."""
    odd = _sign_fields(k, n)
    slots, classes = {}, {}
    for nu in shapes:
        value = top = 0
        it = iter(_straighten(k, n, nu))
        for key, c in zip(it, it):
            slot = slots.setdefault(key, len(slots))
            top = max(top, abs(c))
            value += (-c if (d + (key & odd).bit_count()) % 2 else c) \
                << (width * slot)
        classes[nu] = (value, top)
    mask = ((1 << width * len(slots)) - 1) // ((1 << width) - 1) << width - 1
    return tuple(slots), classes, width, mask


def _slots(keys, biased, width):
    """{keys[slot]: c} over the nonzero slots c of a graded integer N, each
    |c| < half, read from N + mask, whose slots hold c + half."""
    half = 1 << (width - 1)
    return {key: c for slot, key in enumerate(keys)
            if (c := (biased >> width * slot) % (2 * half) - half)}


def _positivity_slab(k, n, box, i):
    """The sign violations in s[lam] * s[mu], lam = box[i], for mu in
    box[i:] (combinations_with_replacement order).  Signed and written in
    the b-variables, the monomial c*a^e of the s[nu] coefficient is c*b^e,
    negated when |lam| + |mu| - |nu| is odd, and again when n-k-1 and |e|
    are odd: the rule of _sign_fields, applied where a table is built.

    Each product is checked on its graded integer N (_graded).  A rebuild
    adds a shape outside the table, which only a faulty expansion has, or
    widens the slots to bound.bit_length() + 4 bits once the bound sum
    |c_nu| * top_nu reaches 2**(width-1).  Then N + mask keeps every top bit
    exactly when no coefficient is negative; else N's slots are reported."""
    lam = box[i]
    out = []
    for mu in box[i:]:
        base = size(lam) + size(mu)
        expansion = schur_product_expand(lam, mu, k)
        table = _graded(k, n, base)
        keys, classes, width, mask = table[0]
        if not classes.keys() >= expansion.keys():
            keys, classes, width, mask = table[0] = _graded_table(
                k, n, base, width, classes.keys() | expansion.keys())
        total = bound = 0
        for nu, c in expansion.items():
            value, top = classes[nu]
            total += c * value
            bound += abs(c) * top
        if bound >> (width - 1):
            keys, classes, width, mask = table[0] = _graded_table(
                k, n, base, bound.bit_length() + 4, classes)
            total = sum(c * classes[nu][0] for nu, c in expansion.items())
        if (total + mask) & mask == mask:
            continue
        found = _unpack(k, n, _slots(keys, total + mask, width))
        out.extend({"lam": lam, "mu": mu, "nu": nu,
                    "in_b_variables": g.render("b")}
                   for nu, g in sorted(found.items())
                   if min(g.terms.values()) < 0)
    return out


def worker_count(jobs, n_items):
    """Worker processes to use for n_items when jobs are requested: at least
    one, and never more than one per item or per CPU this process may run
    on (its affinity mask, where the platform has one)."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(jobs, cpus, n_items))


def _parallel_map(fn, items, jobs):
    """Yield fn(x) for the items x of a sequence, in order: lazily here, or
    over worker_count(jobs, len(items)) processes when that is more than
    one.  A worker that dies, as when the kernel kills it for lack of
    memory, is reported as a MemoryError."""
    if (workers := worker_count(jobs, len(items))) == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, items,
                              chunksize=max(1, len(items) // (workers * 4)))
    except BrokenExecutor as exc:
        raise MemoryError("a worker process died") from exc
