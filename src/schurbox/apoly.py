"""Exact multivariate polynomials in the deformation coefficients a_1, a_2, ...

Coefficients of quotient-ring elements live in Z[a_1, ..., a_k].  An APoly is
a sparse dict mapping exponent tuples (trailing zeros trimmed, so the same
object works for every k) to nonzero Python ints.  The canonical string form
sorts monomials graded-lexicographically descending with a_1 > a_2 > ... :

    a1^2 - a2        2*a1*a2        -a2 + 3

The same machinery doubles as Z[q] for quantum specializations: a polynomial
in the single symbol q is an APoly whose exponent tuples have length <= 1 and
which is rendered/parsed with var="q".
"""

import re
from operator import add


def _trim(exps):
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def add_product(exps, p, q):
    """Add p*q into exps, a dict {exponent tuple: int}, in place: p is an
    APoly, q an APoly or an int.  Sums that reach zero stay in exps until
    poly_of drops them."""
    if isinstance(q, int):
        for e, c in p.terms.items():
            exps[e] = exps.get(e, 0) + c * q
        return
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            # Exponents are nonnegative, so the sum of two trimmed tuples is
            # trimmed: the longer one's last entry survives.
            e = tuple(map(add, e1, e2)) + e1[len(e2):] + e2[len(e1):]
            exps[e] = exps.get(e, 0) + c1 * c2


def poly_of(exps):
    """A new APoly holding the nonzero entries of an exponent dict."""
    p = APoly()
    p.terms = {e: c for e, c in exps.items() if c}
    return p


def polys_of(sums):
    """{key: poly_of(exps)} over a dict of exponent dicts, without the keys
    whose sum is zero."""
    return {key: p for key, exps in sums.items() if (p := poly_of(exps))}


class APoly:
    """Integer polynomial in countably many ordered symbols a1 > a2 > ..."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            # exponent tuples that trim alike are summed, as + sums them
            for exps, c in terms.items():
                if not isinstance(c, int):
                    raise ValueError(f"coefficient {c!r} is not an integer")
                exps = _trim(exps)
                self.terms[exps] = self.terms.get(exps, 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        p = cls()
        if c:
            p.terms[()] = c
        return p

    @classmethod
    def gen(cls, i):
        """The generator a_i (1-indexed)."""
        if i < 1:
            raise ValueError("generator index is 1-based")
        p = cls()
        p.terms[(0,) * (i - 1) + (1,)] = 1
        return p

    @classmethod
    def monomial(cls, exps, c=1):
        p = cls()
        if c:
            p.terms[_trim(exps)] = c
        return p

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        if not isinstance(other, APoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        if not isinstance(other, APoly):
            return NotImplemented
        exps = dict(self.terms)
        add_product(exps, other, 1)
        return poly_of(exps)

    __radd__ = __add__

    def __neg__(self):
        p = APoly()
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        if not isinstance(other, APoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, APoly)):
            return NotImplemented
        exps = {}
        add_product(exps, self, other)
        return poly_of(exps)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = APoly.const(1)
        for _ in range(m):
            out = out * self
        return out

    # -- specialization ----------------------------------------------------

    def specialize(self, values):
        """A new APoly: the value at a_i = values[i-1], values being ints or
        APolys (typically polynomials in the single symbol q).  Raises
        ValueError if the polynomial mentions a generator beyond the list."""
        used = max(map(len, self.terms), default=0)
        if used > len(values):
            raise ValueError(f"polynomial uses a{used} but only "
                             f"{len(values)} values were supplied")
        total = APoly()
        for e, c in self.terms.items():
            for i, power in enumerate(e):
                if power:
                    c = c * values[i] ** power
            total = total + c
        return total

    # -- canonical text form -----------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (-sum(item[0]),
                                        tuple(-e for e in item[0])))

    def render(self, var="a"):
        """Canonical string: graded-lex descending monomials joined by
        ' + ' / ' - ', magnitude-1 coefficients elided next to symbols."""
        return join_signed(_signed_monomial(c, monomial_factors(e, var))
                           for e, c in self._sorted_terms())

    def __repr__(self):
        return self.render()


class APolyModule:
    """An element of a free Z[a]-module, QuotElem or XPoly: ``context`` is
    the tuple of ints that fixes the module, k first, and ``terms`` maps a
    basis key to a nonzero APoly coefficient that the element owns.  A
    subclass's constructor hands its context here with the terms; the
    subclass provides ``_key(key)``, the checked form of a basis key, and
    ``render()``."""

    __slots__ = ("context", "terms")

    k = property(lambda self: self.context[0])

    def __init__(self, context, terms=None):
        # _key reads the context; keys that check alike sum as + sums them
        self.context, sums = context, {}
        for key, c in (terms or {}).items():
            if isinstance(c, int):
                c = APoly.const(c)
            elif not isinstance(c, APoly):
                raise ValueError(
                    f"coefficient {c!r} is not an integer or an APoly")
            add_product(sums.setdefault(self._key(key), {}), c, 1)
        self.terms = polys_of(sums)

    @classmethod
    def _trusted(cls, context, terms):
        """An element holding terms as they are: the caller has just built
        them, with keys already checked and nonzero APoly coefficients that
        nothing else holds."""
        p = cls.__new__(cls)
        p.context, p.terms = context, terms
        return p

    def _new(self, terms):
        return self._trusted(self.context, terms)

    def _check_same(self, other):
        if self.context != other.context:
            raise ValueError(
                f"mixed contexts {self.context} and {other.context}")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __repr__(self):
        return self.render()

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same(other)
        sums = {}
        for terms in (self.terms, other.terms):
            for key, c in terms.items():
                add_product(sums.setdefault(key, {}), c, 1)
        return self._new(polys_of(sums))

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The scalar multiple by an int or APoly."""
        if isinstance(other, int):
            other = APoly.const(other)
        elif not isinstance(other, APoly):
            return NotImplemented
        if not other:
            return self._new({})
        return self._new({key: c * other for key, c in self.terms.items()})


def monomial_factors(exps, var):
    """The factor strings of one monomial, e.g. ['a1^2', 'a3']: the symbols
    are var1, var2, ... except for the single symbol q."""
    factors = []
    for i, power in enumerate(exps):
        if power:
            sym = var if var == "q" else f"{var}{i + 1}"
            factors.append(sym if power == 1 else f"{sym}^{power}")
    return factors


def _signed_monomial(c, factors):
    """(body, is_positive) of the integer c times the factors, with a
    magnitude-1 coefficient elided next to a factor."""
    mag = abs(c)
    if mag != 1 or not factors:
        factors = [str(mag)] + factors
    return "*".join(factors), c > 0


def join_signed(terms):
    """Join (body, is_positive) pairs as 'b1 - b2 + b3', with a leading
    minus when the first is negative; '0' when there are none."""
    pieces = []
    for body, positive in terms:
        if pieces:
            pieces.append(" + " if positive else " - ")
        elif not positive:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) or "0"


def attach_coefficient(c, factors, var="a"):
    """Render the APoly coefficient c attached to a list of monomial factor
    strings, as used by element/polynomial renderers.  Returns
    (body_without_sign, is_positive); a single-monomial coefficient is
    inlined with its sign extracted, a general coefficient is parenthesized
    (or, with no factors, inlined after pulling out a leading minus)."""
    if len(c.terms) == 1:
        (e, coeff), = c.terms.items()
        return _signed_monomial(coeff, monomial_factors(e, var) + factors)
    s = c.render(var)
    if not factors:
        if s.startswith("-"):
            return (-c).render(var), False
        return s, True
    return "(" + s + ")*" + "*".join(factors), True


ZERO = APoly()
ONE = APoly.const(1)

# A term: signs, then integer or symbol factors joined by '*'; a symbol is
# letters then digits, with an optional integer power after '^'.
_FACTOR = r"(?:(\d+)|([A-Za-z]+)(\d*)(?:\s*\^\s*(\d+))?)"
_TERM = re.compile(
    r"\s*((?:[+-]\s*)*)({0}(?:\s*\*\s*{0})*)\s*".format(_FACTOR))
_FACTORS = re.compile(r"\s*\*?\s*" + _FACTOR)


def iter_poly_terms(text):
    """Yield one (int_coeff, [(letters, digits, power), ...]) pair per term
    of polynomial text, a sum of signed terms (every term after the first
    starts with a sign).  Shared by the a- and x-polynomial parsers."""
    pos = 0
    while pos == 0 or pos < len(text):
        m = _TERM.match(text, pos)
        if not m or pos and not m.group(1):
            raise ValueError(f"cannot parse {text[pos:]!r}")
        pos = m.end()
        coeff, symbols = (-1) ** m.group(1).count("-"), []
        for num, letters, digits, power in _FACTORS.findall(m.group(2)):
            if num:
                coeff *= int(num)
            else:
                symbols.append((letters, digits, int(power or 1)))
        yield coeff, symbols


def term_exponents(symbols, letters, limit=None):
    """One trimmed exponent tuple per letter in letters: the powers of the
    symbols letter1, letter2, ... among a term's (letters, digits, power)
    triples, indices from 1 up to limit (unbounded when None).  Any other
    symbol is a ValueError that names it."""
    exps = {letter: [] for letter in letters}
    for name, digits, power in symbols:
        i = int(digits or 0)
        if name not in exps or i < 1:
            raise ValueError(f"unknown symbol {name + digits!r}")
        if limit is not None and i > limit:
            raise ValueError(
                f"symbol {name + digits!r} out of range for k={limit}")
        row = exps[name]
        row += [0] * (i - len(row))
        row[i - 1] += power
    return [_trim(exps[letter]) for letter in letters]


def parse_apoly(text, var="a"):
    """Parse the canonical polynomial text form (and harmless variants with
    different spacing or explicit 1 coefficients).  Inverse of render()."""
    terms = {}
    for coeff, symbols in iter_poly_terms(text):
        if var == "a":
            exps, = term_exponents(symbols, "a")
        else:
            for name, digits, _ in symbols:
                if name + digits != var:
                    raise ValueError(f"unknown symbol {name + digits!r}")
            exps = _trim([sum(power for *_, power in symbols)])
        terms[exps] = terms.get(exps, 0) + coeff
    return APoly(terms)


# -- named specializations -------------------------------------------------

def classical_specialization(k):
    """a_i -> 0 for all i: the quotient becomes the classical cohomology ring
    of the Grassmannian and coefficients become Littlewood-Richardson numbers."""
    return [APoly() for _ in range(k)]


def quantum_specialization(k):
    """a_1, ..., a_{k-1} -> 0 and a_k -> -(-1)^k q: quantum cohomology."""
    q = APoly.monomial((1,), 1)
    vals = [APoly() for _ in range(k)]
    vals[k - 1] = q * (-((-1) ** k))
    return vals


def parse_specialization(text, k):
    """Parse a CLI specialization: 'classical', 'quantum', or an explicit
    comma-separated assignment like 'a1=0,a2=q' (unassigned a_i default 0;
    values are integer or q-polynomials)."""
    text = text.strip()
    if text == "classical":
        return classical_specialization(k)
    if text == "quantum":
        return quantum_specialization(k)
    vals = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"bad assignment {piece!r} (expected ai=value)")
        lhs, rhs = piece.split("=", 1)
        m = re.fullmatch(r"\s*a(\d+)\s*", lhs)
        if not m:
            raise ValueError(f"bad assignment target {lhs.strip()!r}")
        i = int(m.group(1))
        if not 1 <= i <= k:
            raise ValueError(f"a{i} out of range for k={k}")
        if i in vals:
            raise ValueError(f"a{i} assigned twice")
        vals[i] = parse_apoly(rhs, var="q")
    return [vals[i] if i in vals else APoly() for i in range(1, k + 1)]
