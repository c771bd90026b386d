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
from itertools import zip_longest


def _trim(exps):
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def accumulate(out, key, c):
    """Add c to out[key] in a sparse dict, dropping the key when the sum is
    zero, so that no zero coefficient is ever stored."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class APoly:
    """Integer polynomial in countably many ordered symbols a1 > a2 > ..."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    self.terms[_trim(exps)] = c

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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = APoly.const(other)
        if not isinstance(other, APoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            accumulate(out, e, c)
        p = APoly()
        p.terms = out
        return p

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
        if isinstance(other, int):
            if not other:
                return APoly()
            p = APoly()
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        if not isinstance(other, APoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, _trim(a + b for a, b in
                                      zip_longest(e1, e2, fillvalue=0)),
                           c1 * c2)
        p = APoly()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = APoly.const(1)
        for _ in range(m):
            out = out * self
        return out

    def __reduce__(self):
        return (_rebuild_apoly, (self.terms,))

    # -- queries -----------------------------------------------------------

    def is_const(self):
        return not self.terms or set(self.terms) == {()}

    def const_value(self):
        if not self.is_const():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((), 0)

    def max_index(self):
        """Largest i such that a_i occurs (0 for constants)."""
        return max(map(len, self.terms), default=0)

    def flip_by_degree_parity(self):
        """Negate every monomial of odd total degree (the substitution
        a_i -> -a_i for all i)."""
        p = APoly()
        p.terms = {e: (-c if sum(e) % 2 else c) for e, c in self.terms.items()}
        return p

    # -- specialization ----------------------------------------------------

    def evaluate(self, values):
        """The value at a_i = values[i-1]: a plain int when every value is an
        int, otherwise an APoly (values may be APolys, typically polynomials
        in the single symbol q).  Raises ValueError if the polynomial
        mentions a generator beyond the list."""
        if self.max_index() > len(values):
            raise ValueError(
                f"polynomial uses a{self.max_index()} but only "
                f"{len(values)} values were supplied")
        total = 0
        for e, c in self.terms.items():
            term = c
            for i, power in enumerate(e):
                if power:
                    term = term * values[i] ** power
            total = total + term
        return total

    def specialize(self, values):
        """Substitute values[i-1] for a_i, as evaluate() does, but always
        return an APoly."""
        value = self.evaluate(values)
        return value if isinstance(value, APoly) else APoly.const(value)

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


def _rebuild_apoly(terms):
    p = APoly()
    p.terms = dict(terms)
    return p


class APolyModule:
    """Shared arithmetic of the sparse Z[a]-modules QuotElem and XPoly:
    ``terms`` maps a basis key to a nonzero APoly coefficient.  Subclasses
    provide ``_new(terms)``, an element of the same context holding the given
    terms, and ``_check_same(other)``, which rejects a mixed context."""

    __slots__ = ("terms",)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self._new(out)

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

_TOKEN = re.compile(r"\s*(?:(\d+)|([+\-*^])|([A-Za-z]+\d*))")


def iter_poly_terms(text):
    """Tokenize polynomial text (terms joined by +/-, atoms joined by *,
    integer exponents after ^) and yield one (int_coeff, {symbol: power})
    pair per term.  Shared by the a- and x-polynomial parsers."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("op", m.group(2)))
        else:
            tokens.append(("sym", m.group(3)))
    if not tokens:
        raise ValueError("empty polynomial text")

    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign")
        coeff = 1
        powers = {}
        expecting_atom = True
        while i < len(tokens):
            kind, val = tokens[i]
            if kind == "op" and val in "+-" and not expecting_atom:
                break
            if kind == "op" and val == "*":
                if expecting_atom:
                    raise ValueError("misplaced '*'")
                expecting_atom = True
                i += 1
                continue
            if not expecting_atom:
                raise ValueError(f"missing operator before {val!r}")
            if kind == "int":
                coeff *= val
                i += 1
            elif kind == "sym":
                power = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
                    if tokens[i + 1][0] != "int":
                        raise ValueError("exponent must be an integer")
                    power = tokens[i + 1][1]
                    i += 2
                powers[val] = powers.get(val, 0) + power
            else:
                raise ValueError(f"unexpected token {val!r}")
            expecting_atom = False
        if expecting_atom:
            raise ValueError("term ended after '*'")
        yield sign * coeff, powers


def parse_apoly(text, var="a"):
    """Parse the canonical polynomial text form (and harmless variants with
    different spacing or explicit 1 coefficients).  Inverse of render()."""
    result = ZERO
    for coeff, powers in iter_poly_terms(text):
        exps = {}
        for name, power in powers.items():
            if var == "a":
                m = re.fullmatch(r"a(\d+)", name)
                if not m or int(m.group(1)) < 1:
                    raise ValueError(f"unknown symbol {name!r}")
                idx = int(m.group(1))
            else:
                if name != var:
                    raise ValueError(f"unknown symbol {name!r}")
                idx = 1
            exps[idx - 1] = exps.get(idx - 1, 0) + power
        width = max(exps) + 1 if exps else 0
        e = tuple(exps.get(j, 0) for j in range(width))
        result = result + APoly.monomial(e, coeff)
    return result


# -- named specializations -------------------------------------------------

def classical_specialization(k):
    """a_i -> 0 for all i: the quotient becomes the classical cohomology ring
    of the Grassmannian and coefficients become Littlewood-Richardson numbers."""
    return [ZERO] * k


def quantum_specialization(k):
    """a_1, ..., a_{k-1} -> 0 and a_k -> -(-1)^k q: quantum cohomology."""
    q = APoly.monomial((1,), 1)
    vals = [ZERO] * k
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
    vals = [ZERO] * k
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
        vals[i - 1] = parse_apoly(rhs, var="q")
    return vals
