"""End-to-end acceptance checks, one test per criterion.  Run with

    pytest -v tests/test_acceptance.py

to get one pass/fail line per criterion.  Every test pins an explicit
wall-clock budget; all comparisons are exact (integer/symbolic), never
approximate."""

import time
from itertools import product as iproduct

from schurbox.apoly import APoly, classical_specialization, parse_apoly
from schurbox.bases import basis_table, family_element, s_in_m
from schurbox.grobner import (
    XPoly, e_on_vars, h_on_vars, monomial_basis, normal_form, schur_xpoly,
)
from schurbox.partitions import (
    complement, enumerate_pkn, pad, partitions_in_rect, size,
    horizontal_strip_extensions,
)
from schurbox.quotient import (
    QuotElem, multiply, omega, pieri_h, positivity_scan, s3_report,
    specialize_elem, straighten_schur,
)
from schurbox.tableaux import lr_coefficient, uncancelled_pieri

from test_apoly import const_value
from test_grobner import alternant, xpoly_det


class budget:
    """Assert the block finishes inside its wall-clock allowance."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, \
                f"took {elapsed:.1f}s, budget {self.seconds}s"
        return False


def quot(k, n, text_terms):
    p = QuotElem.zero(k, n)
    for lam, c in text_terms.items():
        p = p + QuotElem.basis(k, n, lam) * parse_apoly(c)
    return p


def nf_image(elem):
    """Normal form of the x-polynomial a quotient element stands for."""
    k, n = elem.k, elem.n
    total = XPoly.zero(k)
    for lam, c in elem.terms.items():
        total = total + normal_form(k, n, schur_xpoly(lam, k)) * c
    return normal_form(k, n, total)


def test_criterion_01_normal_forms_2_5():
    with budget(1):
        assert normal_form(2, 5, XPoly.monomial(2, (4, 0))).render() == \
            "-x1^3*x2 - x1^2*x2^2 - x1*x2^3 - x2^4 + a1"
        assert normal_form(2, 5, XPoly.monomial(2, (0, 5))).render() == \
            "-a1*x1 + a2"


def test_criterion_02_basis_counts_up_to_8():
    with budget(5):
        for n in range(1, 9):
            for k in range(1, n + 1):
                falling = 1
                for i in range(k):
                    falling *= n - i
                assert len(monomial_basis(k, n)) == falling, (k, n)
                choose = falling
                for i in range(1, k + 1):
                    choose //= i
                assert len(enumerate_pkn(k, n)) == choose, (k, n)


def test_criterion_03_h_to_s_table_3_5():
    table = {
        (): {(): "1"},
        (1,): {(1,): "1"},
        (2,): {(2,): "1"},
        (1, 1): {(2,): "1", (1, 1): "1"},
        (2, 1): {(): "a1", (2, 1): "1"},
        (1, 1, 1): {(): "a1", (1, 1, 1): "1", (2, 1): "2"},
        (2, 2): {(1,): "a1", (2, 2): "1"},
        (2, 1, 1): {(): "-a2", (1,): "2*a1", (2, 1, 1): "1", (2, 2): "1"},
        (2, 2, 1): {(1,): "-a2", (1, 1): "a1", (2,): "2*a1", (2, 2, 1): "1"},
        (2, 2, 2): {(): "a1^2", (1, 1): "-a2", (2, 1): "2*a1",
                    (2, 2, 2): "1"},
    }
    with budget(1):
        assert list(table) == list(enumerate_pkn(3, 5))
        for lam, want in table.items():
            assert family_element(3, 5, lam, "h") == quot(3, 5, want), lam


def test_criterion_04_s_to_m_table_3_5():
    table = {
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
    with budget(1):
        for lam, want in table.items():
            assert s_in_m(3, 5, lam) == want, lam


def test_criterion_05_pieri_3_7():
    want = quot(3, 7, {
        (4, 4, 3): "1",
        (4, 2): "a1", (3, 2, 1): "a1", (3, 3): "a1",
        (4, 1): "-a2", (2, 2, 1): "-a2", (3, 1, 1): "-a2", (3, 2): "-2*a2",
        (2, 2): "a3", (2, 1, 1): "a3", (3, 1): "a3",
    })
    with budget(1):
        got = pieri_h(3, 7, (4, 3, 2), 2)
        assert got == want
        assert got.coeff((3, 2)) == APoly.gen(2) * -2
        assert got == multiply(QuotElem.basis(3, 7, (4, 3, 2)),
                               QuotElem.basis(3, 7, (2,)))


def test_criterion_06_rim_hook_3_6():
    with budget(1):
        assert straighten_schur(3, 6, (5, 4, 1)) == quot(3, 6, {
            (3, 1, 1): "-a2", (1, 1): "a1^2", (1,): "-a1*a2", (): "a1*a3",
        })
        assert straighten_schur(3, 6, (4, 4, 3)) == quot(3, 6, {
            (3, 3): "-a2", (3, 2): "a3", (3,): "a1^2", (2,): "-2*a1*a2",
            (1,): "a2^2",
        })


def test_criterion_07_s3_symmetry_to_6():
    with budget(120):
        for n in range(2, 7):
            for k in range(1, n):
                report = s3_report(k, n)
                assert report["ok"], report


def test_criterion_08_positivity_to_7():
    with budget(1800):
        for n in range(2, 8):
            for k in range(1, n):
                report = positivity_scan(k, n)
                assert report["ok"], report


def test_criterion_09_classical_limit_is_lr_to_6():
    with budget(60):
        for n in range(2, 7):
            for k in range(1, n + 1):
                zeros = classical_specialization(k)
                basis = enumerate_pkn(k, n)
                for alpha in basis:
                    for beta in basis:
                        prod = multiply(QuotElem.basis(k, n, alpha),
                                        QuotElem.basis(k, n, beta))
                        got = {nu: const_value(c)
                               for nu, c in specialize_elem(prod,
                                                            zeros).items()}
                        for gamma in basis:
                            assert got.get(gamma, 0) == \
                                lr_coefficient(gamma, alpha, beta), \
                                (k, n, alpha, beta, gamma)


P_VERDICTS = {
    2: ["yes"],
    3: ["yes", "yes"],
    4: ["yes", "no", "yes"],
    5: ["yes", "st", "st", "yes"],
    6: ["yes", "st", "no", "no", "yes"],
    7: ["yes", "st", "st", "st", "st", "yes"],
    8: ["yes", "st", "st", "no", "st", "no", "yes"],
}

HT_VERDICTS = {
    2: ["yes"],
    3: ["yes", "no"],
    4: ["yes", "yes", "no"],
    5: ["yes", "st", "no", "no"],
    6: ["yes", "no", "yes", "no", "no"],
    7: ["yes", "st", "st", "no", "no", "no"],
    8: ["yes", "st", "no", "yes", "no", "no", "no"],
}


def test_criterion_10_non_basis_tables_to_8():
    p_expansions = {
        (): {(): "1"},
        (1,): {(1,): "1"},
        (2,): {(1, 1): "-1", (2,): "1"},
        (1, 1): {(1, 1): "1", (2,): "1"},
        (2, 1): {(): "a1"},
        (2, 2): {(): "2*a2", (1,): "-a1", (2, 2): "2"},
    }
    with budget(600):
        p_table = basis_table("p", 8)
        ht_table = basis_table("ht", 8)
        for n in range(2, 9):
            for k in range(1, n):
                assert p_table[(k, n)][0] == P_VERDICTS[n][k - 1], \
                    ("p", k, n, p_table[(k, n)])
                assert ht_table[(k, n)][0] == HT_VERDICTS[n][k - 1], \
                    ("ht", k, n, ht_table[(k, n)])
        for lam, want in p_expansions.items():
            assert family_element(2, 4, lam, "p") == quot(2, 4, want), lam


def test_criterion_11_two_route_oracle():
    with budget(300):
        for k, n in ((2, 4), (2, 5), (3, 5)):
            bound = 2 * (n - k) + n
            for d in range(bound + 1):
                for mu in partitions_in_rect(d, k, d):
                    lhs = nf_image(straighten_schur(k, n, mu))
                    rhs = normal_form(k, n, schur_xpoly(mu, k))
                    assert lhs == rhs, (k, n, mu)


def test_criterion_12_identity_suite():
    with budget(120):
        # tail h expansion, including the empty-alphabet edge i = k+1
        for k in (2, 3):
            for i in range(1, k + 2):
                for p in range(0, 7):
                    lhs = h_on_vars(p, k, lo=i)
                    rhs = XPoly.zero(k)
                    for t in range(i):
                        if p - t < 0:
                            continue
                        term = e_on_vars(t, k, hi=i - 1) * h_on_vars(p - t, k)
                        rhs = rhs + (term if t % 2 == 0 else -term)
                    assert lhs == rhs, ("heh", k, i, p)
        # h in terms of lower h's and e's
        for k in (2, 3):
            for p in range(1, 7):
                rhs = XPoly.zero(k)
                for t in range(1, min(p, k) + 1):
                    term = e_on_vars(t, k) * h_on_vars(p - t, k)
                    rhs = rhs + (-term if t % 2 == 0 else term)
                assert h_on_vars(p, k) == rhs, ("heh0", k, p)
        # Jacobi-Trudi, both forms, and the bialternant
        k = 3
        rho = (2, 1, 0)
        for d in range(0, 7):
            for lam in partitions_in_rect(d, k, d):
                m = max(len(lam), 1)
                grid = [[_h_or_zero(pad(lam, m)[u] - u + v, k)
                         for v in range(m)] for u in range(m)]
                assert xpoly_det(grid) == schur_xpoly(lam, k), ("jt", lam)
                from schurbox.partitions import conjugate
                conj = conjugate(lam)
                mc = max(len(conj), 1)
                grid = [[_e_or_zero(pad(conj, mc)[u] - u + v, k)
                         for v in range(mc)] for u in range(mc)]
                assert xpoly_det(grid) == schur_xpoly(lam, k), ("djt", lam)
                lam_p = pad(lam, k)
                shifted = tuple(lam_p[i] + rho[i] for i in range(k))
                assert alternant(rho, k) * schur_xpoly(lam, k) == \
                    alternant(shifted, k), ("bialt", lam)
        # hook Schur polynomials from h's and e's
        for k in (2, 3, 4):
            for m in range(1, 5):
                for j in range(0, 4):
                    total = XPoly.zero(k)
                    for i in range(1, m + 1):
                        term = h_on_vars(m - i, k) * e_on_vars(j + i, k)
                        total = total + (term if i % 2 == 1 else -term)
                    assert total == schur_xpoly((m,) + (1,) * j, k), (k, m, j)
        # uncancelled Pieri agrees with the classical rule on partitions
        for lam in ((2, 1), (3,), (2, 2, 1)):
            for m in range(0, 4):
                got = uncancelled_pieri(pad(lam, len(lam)), m)
                want = {mu: 1
                        for mu in horizontal_strip_extensions(lam, m,
                                                              len(lam), 99)}
                assert got == want, ("pieri", lam, m)
        # top-coefficient vanishing for straightened Schur classes
        for n in range(2, 7):
            for k in range(1, n):
                w = omega(k, n)
                for d in range(0, 2 * (n - k) * k + 1):
                    for lam in partitions_in_rect(d, k, 2 * (n - k)):
                        c = straighten_schur(k, n, lam).coeff(w)
                        want = APoly.const(1 if lam == w else 0)
                        assert c == want, ("s-vanish", k, n, lam)
        # top-coefficient vanishing for h-monomials
        for k, n in ((2, 4), (2, 5), (3, 5)):
            w = omega(k, n)
            ranges = [range(0, 2 * n - k - i + 1) for i in range(1, k + 1)]
            for gamma in iproduct(*ranges):
                f = QuotElem.one(k, n)
                for g in gamma:
                    f = multiply(f, straighten_schur(k, n, (g,)))
                want = APoly.const(1 if gamma == w else 0)
                assert f.coeff(w) == want, ("h-vanish", k, n, gamma)


def _h_or_zero(m, k):
    return h_on_vars(m, k) if m >= 0 else XPoly.zero(k)


def _e_or_zero(m, k):
    return e_on_vars(m, k) if m >= 0 else XPoly.zero(k)
