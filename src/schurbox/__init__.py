"""Exact Schur calculus in the quotient of symmetric polynomials in k
variables by the deformed relations h_{n-k+1} = a_1, ..., h_n = a_k.

The quotient is free over Z[a_1..a_k] on the Schur classes s[lam] indexed by
partitions in the k x (n-k) box; setting all a_i = 0 gives the cohomology of
the Grassmannian Gr(k, n), and a_k = -(-1)^k q (others 0) its quantum
cohomology.
"""

from . import apoly, bases, grobner, partitions, quotient, tableaux
from .apoly import (
    APoly, classical_specialization, parse_apoly, parse_specialization,
    quantum_specialization,
)
from .partitions import (
    check_partition, cmp_graded_dominance, cmp_size_antidominance, complement,
    conjugate, dominates, enumerate_pkn, in_box,
)
from .tableaux import (
    kostka, lr_coefficient, schur_product_expand, skew_schur_expand,
    uncancelled_pieri,
)
from .grobner import (
    XPoly, groebner_generators, monomial_basis, normal_form, parse_xpoly,
    schur_xpoly,
)
from .quotient import (
    QuotElem, multiply, omega, pieri_h, positivity_scan, reduce_h_overflow,
    s3_report, specialize_elem, straighten_schur, structure_constant,
)
from .bases import (
    basis_table, change_of_basis_matrix, classify_family, family_element,
    power_sum_class, s_in_m, unitriangularity_check,
)

__version__ = "0.1.0"


def clear_caches():
    """Empty every lru_cache in the package (straightening and the unpacked
    fields of its keys, Kostka numbers and Kostka inverses; products, skew
    expansions, box enumerations and Groebner data are not cached).
    Every cache is unbounded, so a long-lived caller that moves on from a
    context can call this to free its memory."""
    for module in (apoly, bases, grobner, partitions, quotient, tableaux):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

__all__ = [
    "APoly", "QuotElem", "XPoly",
    "basis_table", "change_of_basis_matrix", "check_partition",
    "classical_specialization", "classify_family", "clear_caches",
    "cmp_graded_dominance", "cmp_size_antidominance", "complement",
    "conjugate", "dominates",
    "enumerate_pkn", "family_element", "groebner_generators", "in_box",
    "kostka", "lr_coefficient", "monomial_basis", "multiply", "normal_form",
    "omega", "parse_apoly",
    "parse_specialization", "parse_xpoly", "pieri_h", "positivity_scan",
    "power_sum_class", "quantum_specialization", "reduce_h_overflow",
    "s3_report", "s_in_m", "schur_product_expand", "schur_xpoly",
    "skew_schur_expand",
    "specialize_elem", "straighten_schur", "structure_constant",
    "uncancelled_pieri", "unitriangularity_check",
]
