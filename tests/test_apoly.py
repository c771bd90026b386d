"""The coefficient ring Z[a_1, ..., a_k] and its canonical text form."""

import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schurbox.apoly import (
    APoly, ONE, ZERO, classical_specialization, parse_apoly,
    parse_specialization, quantum_specialization,
)
from schurbox.grobner import XPoly, parse_xpoly
from schurbox.quotient import QuotElem, straighten_schur


@st.composite
def apolys(draw, max_vars=3, max_deg=3, max_coeff=9):
    nterms = draw(st.integers(min_value=0, max_value=5))
    p = ZERO
    for _ in range(nterms):
        exps = tuple(draw(st.integers(min_value=0, max_value=max_deg))
                     for _ in range(max_vars))
        c = draw(st.integers(min_value=-max_coeff, max_value=max_coeff))
        p = p + APoly.monomial(exps, c)
    return p


a1, a2, a3 = APoly.gen(1), APoly.gen(2), APoly.gen(3)


def const_value(p):
    """The value of a constant APoly (0 for the zero polynomial); fails on
    any coefficient that mentions some a_i."""
    assert set(p.terms) <= {()}, f"{p} is not constant"
    return p.terms.get((), 0)


# -- ring laws ----------------------------------------------------------------

@given(apolys(), apolys(), apolys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p * ZERO == ZERO


@given(apolys(), st.integers(min_value=-9, max_value=9))
def test_int_scalars(p, c):
    assert p * c == APoly.const(c) * p
    assert p + c == p + APoly.const(c)


def test_no_zero_terms_stored():
    p = a1 - a1
    assert not p.terms
    assert (a1 * 0).terms == {}
    assert (2 * a2 - a2 - a2).terms == {}


# -- canonical strings ----------------------------------------------------------

def test_render_examples():
    assert (a1 * a1 - a2).render() == "a1^2 - a2"
    assert (2 * a1 * a2).render() == "2*a1*a2"
    assert (-a2).render() == "-a2"
    assert ZERO.render() == "0"
    assert ONE.render() == "1"
    assert APoly.const(-7).render() == "-7"
    assert (a1 + 1).render() == "a1 + 1"


def test_render_graded_lex_descending():
    p = 1 + a1 + a1 * a1 + a1 * a2 + a2 * a2
    assert p.render() == "a1^2 + a1*a2 + a2^2 + a1 + 1"
    q = a3 + a2 + a1
    assert q.render() == "a1 + a2 + a3"


def test_parse_examples():
    assert parse_apoly("a1^2 - a2") == a1 * a1 - a2
    assert parse_apoly("2*a1*a2") == 2 * a1 * a2
    assert parse_apoly("-a2 + 3") == 3 - a2
    assert parse_apoly("0") == ZERO
    assert parse_apoly("a1*a1") == a1 * a1
    with pytest.raises(ValueError):
        parse_apoly("")
    with pytest.raises(ValueError):
        parse_apoly("a0")
    with pytest.raises(ValueError):
        parse_apoly("x1")
    with pytest.raises(ValueError):
        parse_apoly("a1 +")
    with pytest.raises(ValueError):
        parse_apoly("2 ** a1")


# The accepted language of the polynomial reader: signs in runs, '*' between
# factors, '^' after a symbol, leading zeros, any whitespace between tokens.
ACCEPTED = [
    ("--a1", a1),
    ("+ - a2", -a2),
    ("a1 ^ 2", a1 * a1),
    ("2 * a1*a1", 2 * a1 * a1),
    ("a01", a1),
    ("a1^0 - 3*2", APoly.const(-5)),
    ("\ta1 *\n a2\t-\n3 ", a1 * a2 - 3),
    ("a2 - - a2 + 0*a3", 2 * a2),
]


@pytest.mark.parametrize("text, value", ACCEPTED)
def test_parse_accepted_variants(text, value):
    assert parse_apoly(text) == value


def test_parse_xpoly_accepted_variants():
    assert parse_xpoly("007*x1", 2) == XPoly.monomial(2, (1, 0), 7)
    assert parse_xpoly(" x2 ^\t3 *a2\n+ x02", 2) == XPoly(
        2, {(0, 3): a2, (0, 1): 1})
    assert parse_apoly("- q ^ 2 + 2", var="q").render("q") == "-q^2 + 2"


# One input per way the reader rejects text; each is rejected by both
# parsers and every variable set.
REJECTED = ["", "  ", "x1 +", "2 ** a1", "a1^", "x1^x2", "2*", "x1 2",
            "a1 @ 2", "^2", "2^3", "a0", "a", "q1", "x3", "y1"]


@pytest.mark.parametrize("text", REJECTED)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_apoly(text)
    with pytest.raises(ValueError):
        parse_apoly(text, var="q")
    with pytest.raises(ValueError):
        parse_xpoly(text, 2)


def test_parse_errors_name_the_symbol():
    with pytest.raises(ValueError, match="unknown symbol 'y1'"):
        parse_xpoly("x1 + y1", 2)
    with pytest.raises(ValueError, match="symbol 'x3' out of range for k=2"):
        parse_xpoly("x3", 2)
    with pytest.raises(ValueError, match="unknown symbol 'q1'"):
        parse_apoly("q1", var="q")
    with pytest.raises(ValueError, match=r"cannot parse '\*\* a1'"):
        parse_apoly("2 ** a1")


@given(apolys())
def test_render_parse_round_trip(p):
    assert parse_apoly(p.render()) == p


def test_q_variable_round_trip():
    q = parse_apoly("-q + 3", var="q")
    assert q.render("q") == "-q + 3"
    assert parse_apoly("q^2 - 2*q", var="q").render("q") == "q^2 - 2*q"
    with pytest.raises(ValueError):
        parse_apoly("a1", var="q")


# -- specialization --------------------------------------------------------------

def test_specialize_integers():
    p = a1 * a1 - a2
    assert const_value(p.specialize([2, 3])) == 1
    assert p.specialize([0, 0]) == ZERO
    with pytest.raises(ValueError):
        (a3 + a1).specialize([1, 2])


@given(apolys(max_vars=2), apolys(max_vars=2),
       st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_specialize_is_a_ring_map(p, q, v1, v2):
    vals = [v1, v2, 0]
    assert (p + q).specialize(vals) == p.specialize(vals) + q.specialize(vals)
    assert (p * q).specialize(vals) == p.specialize(vals) * q.specialize(vals)


@pytest.mark.parametrize("build, coeff", [
    (lambda: APoly({(1,): 0.5}), 0.5),
    (lambda: QuotElem(2, 4, {(1,): 1.5}), 1.5),
    (lambda: QuotElem(2, 4, {(1,): "2"}), "2"),
    (lambda: XPoly(2, {(1, 0): Fraction(1, 3)}), Fraction(1, 3)),
], ids=["apoly-float", "quot-float", "quot-str", "xpoly-fraction"])
def test_constructors_reject_non_integer_coefficients(build, coeff):
    # coefficients live in Z[a]: a float, str or Fraction is named, not kept
    with pytest.raises(ValueError, match=re.escape(repr(coeff))):
        build()


def test_apoly_is_unhashable():
    # a caller may change the terms of an APoly it was handed
    with pytest.raises(TypeError):
        hash(a1)


def test_named_specializations():
    assert classical_specialization(3) == [ZERO, ZERO, ZERO]
    # a_k -> -(-1)^k q
    assert quantum_specialization(2)[0] == ZERO
    assert quantum_specialization(2)[1].render("q") == "-q"
    assert quantum_specialization(3)[2].render("q") == "q"
    assert quantum_specialization(1)[0].render("q") == "q"


def test_parse_specialization():
    vals = parse_specialization("a1=0,a2=q", 2)
    assert vals[0] == ZERO
    assert vals[1].render("q") == "q"
    vals = parse_specialization("a2=-q", 2)
    assert vals[0] == ZERO and vals[1].render("q") == "-q"
    assert parse_specialization("classical", 4) == [ZERO] * 4
    assert parse_specialization("quantum", 2) == quantum_specialization(2)
    with pytest.raises(ValueError):
        parse_specialization("a3=1", 2)
    with pytest.raises(ValueError):
        parse_specialization("b1=1", 2)
    with pytest.raises(ValueError, match="a1 assigned twice"):
        parse_specialization("a1=q,a1=2", 2)


def test_constructor_sums_exponents_that_trim_alike():
    assert APoly({(1,): 2, (1, 0): 3}).terms == {(1,): 5}
    assert APoly({(1,): 2, (1, 0): -2}).render() == "0"
    assert APoly({(0, 1): 1, (0, 1, 0, 0): 1, (): -4}).render() == "2*a2 - 4"


def test_pickle_round_trip():
    for x in (a1 * a1 - 3 * a2, straighten_schur(3, 6, (5, 4, 1)),
              parse_xpoly("x1^2*a2 - x2 + 7", 2)):
        assert pickle.loads(pickle.dumps(x)) == x
