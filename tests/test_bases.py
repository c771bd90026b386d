"""The five alternative spanning families (h, m, e-conjugate, p,
h-conjugate): expansions in the Schur basis, triangularity, and the
basis/non-basis classification over different coefficient rings.  The
expansions are cross-checked against the x-variable reduction system."""

from itertools import permutations

import pytest

from schurbox import bases
from schurbox.apoly import APoly, classical_specialization, parse_apoly
from schurbox.bases import (
    FAMILIES, _bareiss_det, basis_table, change_of_basis_matrix,
    classify_family, family_element, power_sum_class, s_in_m,
    unitriangularity_check,
)
from schurbox.grobner import (
    XPoly, e_on_vars, h_on_vars, normal_form, parse_xpoly, schur_xpoly,
)
from schurbox.partitions import (
    conjugate, enumerate_pkn, pad, size, straighten_vector,
)
from schurbox.quotient import QuotElem, multiply, straighten_schur
from schurbox.tableaux import kostka


def quot(k, n, text_terms):
    """Build an element from {partition: coefficient-string} literals."""
    p = QuotElem.zero(k, n)
    for lam, c in text_terms.items():
        p = p + QuotElem.basis(k, n, lam) * parse_apoly(c)
    return p


def power_sum_xpoly(r, k):
    """Oracle: the power sum x_1^r + ... + x_k^r."""
    return parse_xpoly(" + ".join(f"x{i}^{r}" for i in range(1, k + 1)), k)


def monomial_sym_xpoly(lam, k):
    """Oracle: the monomial symmetric polynomial as a sum over distinct
    rearrangements of the exponent vector."""
    if len(lam) > k:
        return XPoly.zero(k)
    return XPoly(k, {mono: 1 for mono in set(permutations(pad(lam, k)))})


def family_xpoly(lam, family, k):
    """Oracle: the actual symmetric polynomial underlying a family member."""
    if family == "h":
        parts = lam
        factor = h_on_vars
    elif family == "ht":
        parts = conjugate(lam)
        factor = h_on_vars
    elif family == "e":
        parts = conjugate(lam)
        factor = e_on_vars
    elif family == "p":
        parts = lam
        factor = power_sum_xpoly
    elif family == "m":
        return monomial_sym_xpoly(lam, k)
    else:
        raise AssertionError(family)
    poly = XPoly.const(k, 1)
    for part in parts:
        poly = poly * factor(part, k)
    return poly


def nf_image(elem):
    """Normal form of the x-variable polynomial an element stands for."""
    k, n = elem.k, elem.n
    total = XPoly.zero(k)
    for lam, c in elem.terms.items():
        total = total + normal_form(k, n, schur_xpoly(lam, k)) * c
    return normal_form(k, n, total)


# -- frozen expansion tables ----------------------------------------------------

H_TABLE_35 = {
    (): {(): "1"},
    (1,): {(1,): "1"},
    (2,): {(2,): "1"},
    (1, 1): {(2,): "1", (1, 1): "1"},
    (2, 1): {(): "a1", (2, 1): "1"},
    (1, 1, 1): {(): "a1", (1, 1, 1): "1", (2, 1): "2"},
    (2, 2): {(1,): "a1", (2, 2): "1"},
    (2, 1, 1): {(): "-a2", (1,): "2*a1", (2, 1, 1): "1", (2, 2): "1"},
    (2, 2, 1): {(1,): "-a2", (1, 1): "a1", (2,): "2*a1", (2, 2, 1): "1"},
    (2, 2, 2): {(): "a1^2", (1, 1): "-a2", (2, 1): "2*a1", (2, 2, 2): "1"},
}

M_TABLE_35 = {
    (): {(): 1},
    (1,): {(1,): 1},
    (2,): {(1, 1): 1, (2,): 1},
    (1, 1): {(1, 1): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 1},
    (1, 1, 1): {(1, 1, 1): 1},
    (2, 2): {(2, 1, 1): 1, (2, 2): 1},
    (2, 1, 1): {(2, 1, 1): 1},
    (2, 2, 1): {(2, 2, 1): 1},
    (2, 2, 2): {(2, 2, 2): 1},
}

P_TABLE_24 = {
    (): {(): "1"},
    (1,): {(1,): "1"},
    (2,): {(1, 1): "-1", (2,): "1"},
    (1, 1): {(1, 1): "1", (2,): "1"},
    (2, 1): {(): "a1"},
    (2, 2): {(): "2*a2", (1,): "-a1", (2, 2): "2"},
}


def test_h_expansion_table_3_5():
    assert list(H_TABLE_35) == list(enumerate_pkn(3, 5))
    for lam, want in H_TABLE_35.items():
        assert family_element(3, 5, lam, "h") == quot(3, 5, want), lam


def test_h_expansion_render_example():
    assert family_element(3, 5, (2, 2, 2), "h").render() == \
        "s[2,2,2] + 2*a1*s[2,1] - a2*s[1,1] + a1^2*s[]"


def test_s_in_m_table_3_5():
    for lam, want in M_TABLE_35.items():
        assert s_in_m(3, 5, lam) == want, lam


def test_p_expansion_table_2_4():
    for lam, want in P_TABLE_24.items():
        assert family_element(2, 4, lam, "p") == quot(2, 4, want), lam


def test_p_linear_dependence_witness_2_4():
    # the relation that stops the p-family from being a basis at (2,4)
    dep = (family_element(2, 4, (2, 1), "p")
           - family_element(2, 4, (), "p") * APoly.gen(1))
    assert not dep


def test_ht_linear_dependence_witness_2_3():
    dep = (family_element(2, 3, (1, 1), "ht")
           - family_element(2, 3, (), "ht") * APoly.gen(1))
    assert not dep


# -- inversion and triangularity ------------------------------------------------

def test_m_expansion_inverts_kostka():
    for k, n in ((2, 5), (3, 5), (3, 6), (2, 6), (4, 7)):
        for nu in enumerate_pkn(k, n):
            total = QuotElem.zero(k, n)
            for mu, c in s_in_m(k, n, nu).items():
                total = total + family_element(k, n, mu, "m") * c
            assert total == QuotElem.basis(k, n, nu), (k, n, nu)


def test_h_at_zero_is_forward_kostka():
    for k, n in ((2, 5), (3, 5)):
        for lam in enumerate_pkn(k, n):
            elem = family_element(k, n, lam, "h")
            for mu in enumerate_pkn(k, n):
                if size(mu) == size(lam):
                    c = elem.terms.get(mu, APoly.const(0))
                    assert c.terms.get((), 0) == kostka(mu, lam)


def test_unitriangularity_reports():
    for n in range(2, 7):
        for k in range(1, n):
            for family in ("h", "m"):
                report = unitriangularity_check(k, n, family)
                assert report["ok"], report
                assert report["failures"] == []


def test_unitriangularity_other_families_rejected():
    for family in ("e", "p", "ht", "x"):
        with pytest.raises(ValueError):
            unitriangularity_check(2, 4, family)


def test_change_of_basis_matrix_shape():
    basis = enumerate_pkn(3, 5)
    rows = change_of_basis_matrix(3, 5, "h")
    assert len(rows) == 10 and all(len(r) == 10 for r in rows)
    for i, lam in enumerate(basis):
        assert rows[i][i] == APoly.const(1)
        assert rows[i] == [
            family_element(3, 5, lam, "h").terms.get(mu, APoly.const(0))
            for mu in basis]


# -- the reduction-system oracle --------------------------------------------------

def test_family_expansions_match_reduction_system():
    for k, n in ((2, 4), (2, 5), (3, 5)):
        for family in FAMILIES:
            for lam in enumerate_pkn(k, n):
                elem = family_element(k, n, lam, family)
                want = normal_form(k, n, family_xpoly(lam, family, k))
                assert nf_image(elem) == want, (k, n, family, lam)


def test_power_sum_class_matches_reduction_system():
    for k, n in ((2, 4), (2, 5), (3, 5)):
        for r in range(1, 2 * n + 1):
            elem = power_sum_class(k, n, r)
            want = normal_form(k, n, power_sum_xpoly(r, k))
            assert nf_image(elem) == want, (k, n, r)


def test_power_sum_hook_alternation():
    # p_r = sum_j (-1)^j s_(r-j, 1^j) with at most k rows, as polynomials
    for k in (2, 3):
        for r in range(1, 6):
            total = XPoly.zero(k)
            for j in range(min(r, k)):
                term = schur_xpoly((r - j,) + (1,) * j, k)
                total = total + (term if j % 2 == 0 else -term)
            assert total == power_sum_xpoly(r, k), (k, r)


def test_hook_schur_from_h_and_e():
    # s_(m, 1^j) = sum_{i=1..m} (-1)^(i-1) h_(m-i) e_(j+i), as polynomials
    for k in (2, 3, 4):
        for m in range(1, 5):
            for j in range(0, 4):
                total = XPoly.zero(k)
                for i in range(1, m + 1):
                    term = h_on_vars(m - i, k) * e_on_vars(j + i, k)
                    total = total + (term if i % 2 == 1 else -term)
                assert total == schur_xpoly((m,) + (1,) * j, k), (k, m, j)


def test_family_element_dispatch():
    with pytest.raises(ValueError):
        family_element(3, 5, (2, 1), "q")


# -- the one-part rules -------------------------------------------------------------

ONE_PART_RULES = {"h": (bases._h_rule, h_on_vars),
                  "e": (bases._e_rule, e_on_vars),
                  "p": (bases._p_rule, power_sum_xpoly)}


def test_one_part_rules_are_products_in_k_variables():
    # Before straightening: sum sign * s_mu over the rule's terms is
    # s_lam times the one-part polynomial, in k variables.
    for k in (1, 2, 3):
        for d in range(4):
            for lam in enumerate_pkn(k, k + d):
                if size(lam) != d:
                    continue
                for name, (rule, factor) in ONE_PART_RULES.items():
                    for r in range(1, 5):
                        total = XPoly.zero(k)
                        for mu, sign in rule(k, lam, r):
                            total = total + schur_xpoly(mu, k) * sign
                        want = schur_xpoly(lam, k) * factor(r, k)
                        assert total == want, (k, lam, name, r)


def test_p_rule_matches_straightening_each_vector():
    """The O(k) sign of the p rule against the old rule: straighten
    lam + r e_i for each i, keeping the nonzero results in i order."""
    cases = 0
    for k in range(1, 7):
        for lam in enumerate_pkn(k, k + 6):
            padded = pad(lam, k)
            for r in range(1, 12):
                want = [res[::-1] for i in range(k) if (
                    res := straighten_vector(
                        padded[:i] + (padded[i] + r,) + padded[i + 1:]))]
                assert list(bases._p_rule(k, lam, r)) == want, (k, lam, r)
                cases += 1
    assert cases == 18865


def product_route_member(k, n, lam, family):
    """Oracle: the member as a chain of full quotient products by the
    straightened one-part classes h_r = s_(r), e_r = s_(1^r) and p_r."""
    one_part = {"h": lambda r: straighten_schur(k, n, (r,)),
                "e": lambda r: straighten_schur(k, n, (1,) * r),
                "p": lambda r: power_sum_class(k, n, r)}
    factor = one_part[family[0]]
    out = QuotElem.one(k, n)
    for r in (lam if family in ("h", "p") else conjugate(lam)):
        out = multiply(out, factor(r))
    return out


def test_one_part_members_match_product_route():
    for n in range(2, 8):
        for k in range(1, n):
            for family in ("h", "ht", "e", "p"):
                for lam in enumerate_pkn(k, n):
                    assert family_element(k, n, lam, family) == \
                        product_route_member(k, n, lam, family), \
                        (k, n, family, lam)


def test_family_terms_rows_match_family_element():
    # the prefix-built rows of a table against one fold per member
    for n in range(2, 8):
        for k in range(1, n):
            for family in FAMILIES:
                basis, rows = bases._family_terms(k, n, family)
                assert basis == enumerate_pkn(k, n)
                for lam, row in zip(basis, rows):
                    assert row == family_element(k, n, lam, family).terms, \
                        (k, n, family, lam)


def grassmannian_member(k, n, lam, family):
    """Oracle: the family member in H*(Gr(k,n)), the quotient at a = 0, as
    {mu: int}: the one-part rules folded over integer dicts from the unit,
    then every shape with mu_1 > n-k dropped, since those s_mu are zero
    there (Macdonald I.3)."""
    index, rule = bases._ONE_PART[family]
    out = {(): 1}
    for r in index(lam):
        step = {}
        for mu, c in out.items():
            for nu, m in rule(k, mu, r):
                step[nu] = step.get(nu, 0) + c * m
        out = {mu: c for mu, c in step.items() if c}
    return {mu: c for mu, c in out.items() if not mu or mu[0] <= n - k}


def test_family_terms_at_a_zero_are_the_grassmannian_members():
    # the a-free part of each coefficient, against the fold at a = 0
    for n in range(2, 10):
        for k in range(1, n):
            for family in ("h", "e", "p", "ht"):
                basis, rows = bases._family_terms(k, n, family)
                for lam, row in zip(basis, rows):
                    assert grassmannian_member(k, n, lam, family) == {
                        mu: c.terms[()] for mu, c in row.items()
                        if () in c.terms}, (k, n, family, lam)


# -- classification ----------------------------------------------------------------

def test_classify_known_cells():
    assert classify_family(2, 4, "p") == ("no", 0)
    assert classify_family(2, 5, "p") == ("st", 4)
    assert classify_family(3, 5, "p") == ("st", 24)
    assert classify_family(2, 3, "ht") == ("no", 0)
    assert classify_family(2, 5, "ht") == ("st", 2)
    assert classify_family(3, 6, "ht") == ("yes", 1)
    # fourteen a_i, and one 1 x 1 block for each size 0..14
    assert classify_family(14, 15, "p") == ("yes", 1)
    assert classify_family(14, 15, "ht") == ("no", 0)
    for family in ("h", "m", "e"):
        assert classify_family(3, 6, family) == ("yes", 1)
        assert classify_family(2, 5, family) == ("yes", 1)
    with pytest.raises(ValueError):
        classify_family(2, 4, "nope")


def two_point_verdict(k, n, family):
    """Oracle: the verdict from the determinant of the whole matrix,
    evaluated at all a_i = 0 and at a_i = the i-th prime; "a-dep" when the
    two disagree."""
    rows = change_of_basis_matrix(k, n, family)
    primes = [2, 3, 5, 7, 11, 13][:k]
    d0, d1 = (_bareiss_det([[c.specialize(values).terms.get((), 0)
                             for c in row] for row in rows])
              for values in ([0] * k, primes))
    if d0 != d1:
        return ("a-dep", None)
    if d0 == 0:
        return ("no", 0)
    return ("yes", 1) if abs(d0) == 1 else ("st", abs(d0))


def test_family_matrices_are_graded():
    # The coefficient of s[mu] in the member of lam is homogeneous of degree
    # |lam| - |mu| when deg a_i = n-k+i: zero above the size blocks, and
    # constant on the diagonal blocks.
    for n in range(2, 8):
        for k in range(1, n):
            basis = enumerate_pkn(k, n)
            for family in FAMILIES:
                rows = change_of_basis_matrix(k, n, family)
                for lam, row in zip(basis, rows):
                    for mu, c in zip(basis, row):
                        for exps in c.terms:
                            deg = sum(e * (n - k + i)
                                      for i, e in enumerate(exps, 1))
                            assert deg == size(lam) - size(mu), \
                                (k, n, family, lam, mu, c)


def test_classify_matches_two_point_full_determinant():
    for n in range(2, 8):
        for k in range(1, n):
            for family in FAMILIES:
                assert classify_family(k, n, family) == \
                    two_point_verdict(k, n, family), (k, n, family)


@pytest.mark.parametrize("mu, coeff", [
    ((2,), APoly.gen(1)),        # non-constant entry in a diagonal block
    ((2, 2), APoly.const(1)),    # entry above the diagonal blocks
])
def test_classify_off_grading_row_is_a_dep(monkeypatch, mu, coeff):
    real = bases._family_terms

    def broken(k, n, family):
        basis, rows = real(k, n, family)
        rows = [dict(row) for row in rows]
        rows[basis.index((1, 1))][mu] = coeff
        return basis, rows

    monkeypatch.setattr(bases, "_family_terms", broken)
    assert classify_family(2, 4, "h") == ("a-dep", None)


def test_h_m_e_always_bases_small():
    for family, n_max in (("h", 8), ("m", 6), ("e", 8)):
        table = basis_table(family, n_max)
        assert len(table) == n_max * (n_max - 1) // 2
        assert all(v == ("yes", 1) for v in table.values()), (family, table)


def test_basis_table_ht_to_8():
    assert basis_table("ht", 8) == {
        (1, 2): ("yes", 1),
        (1, 3): ("yes", 1), (2, 3): ("no", 0),
        (1, 4): ("yes", 1), (2, 4): ("yes", 1), (3, 4): ("no", 0),
        (1, 5): ("yes", 1), (2, 5): ("st", 2), (3, 5): ("no", 0),
        (4, 5): ("no", 0),
        (1, 6): ("yes", 1), (2, 6): ("no", 0), (3, 6): ("yes", 1),
        (4, 6): ("no", 0), (5, 6): ("no", 0),
        (1, 7): ("yes", 1), (2, 7): ("st", 324), (3, 7): ("st", 144),
        (4, 7): ("no", 0), (5, 7): ("no", 0), (6, 7): ("no", 0),
        (1, 8): ("yes", 1), (2, 8): ("st", 25515), (3, 8): ("no", 0),
        (4, 8): ("yes", 1), (5, 8): ("no", 0), (6, 8): ("no", 0),
        (7, 8): ("no", 0),
    }


def test_basis_table_p_small():
    assert basis_table("p", 4) == {
        (1, 2): ("yes", 1),
        (1, 3): ("yes", 1), (2, 3): ("yes", 1),
        (1, 4): ("yes", 1), (2, 4): ("no", 0), (3, 4): ("yes", 1),
    }
    assert basis_table("p", 4, jobs=2) == basis_table("p", 4)
