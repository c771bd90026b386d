"""Command-line interface.

Subcommands:

    straighten   class of s_mu for an arbitrary partition mu (at most k parts)
    multiply     product of two Schur basis classes
    pieri        product of a basis class with the class of h_j
    expand       a family member (h, m, e, p, ht) in the Schur basis
    nf           normal form of a polynomial in x_1..x_k modulo the ideal
    s3           structure-constant symmetry scan over a whole context
    positivity   sign-alternation scan over all products of basis classes
    basis-table  classification grid of a family over 1 <= k < n <= n_max

Exit codes: 0 on success, 1 when a verification scan finds a counterexample,
2 on usage or parse errors, 3 when an input is too deep (Python's recursion
limit) or too large (out of memory) to compute.
"""

import argparse
import json
import re
import sys

from .apoly import parse_specialization
from .bases import FAMILIES, basis_table, family_element
from .grobner import normal_form, parse_xpoly
from .partitions import check_context, check_partition
from .quotient import (
    QuotElem, multiply, pieri_h, positivity_scan, render_terms, s3_report,
    specialize_elem, straighten_schur,
)

_PARTITION_RE = re.compile(r"\[(?:\d+(?:,\d+)*)?\]")


def parse_partition_arg(text):
    """Parse the strict bracket form '[3,1]' (empty: '[]')."""
    text = text.strip()
    if not _PARTITION_RE.fullmatch(text):
        raise ValueError(f"bad partition {text!r} (expected e.g. [3,1] or [])")
    inner = text[1:-1]
    parts = tuple(int(p) for p in inner.split(",")) if inner else ()
    return check_partition(parts)


def _elem_output(elem, spec_text, fmt):
    """Render an element, optionally specialized, in the requested format."""
    terms, var = elem.terms, "a"
    if spec_text is not None:
        terms = specialize_elem(elem, parse_specialization(spec_text, elem.k))
        var = "q"
    if fmt == "json":
        return json.dumps(elem.payload(terms, var, spec_text))
    return render_terms(terms, var)


def cmd_straighten(args):
    check_context(args.k, args.n)
    mu = parse_partition_arg(args.mu)
    if len(mu) > args.k:
        raise ValueError(f"{mu} has more than k={args.k} parts")
    elem = straighten_schur(args.k, args.n, mu)
    print(_elem_output(elem, args.spec, args.format))
    return 0


def cmd_multiply(args):
    lam = parse_partition_arg(args.lam)
    mu = parse_partition_arg(args.mu)
    f = QuotElem.basis(args.k, args.n, lam)
    g = QuotElem.basis(args.k, args.n, mu)
    print(_elem_output(multiply(f, g), args.spec, args.format))
    return 0


def cmd_pieri(args):
    lam = parse_partition_arg(args.lam)
    elem = pieri_h(args.k, args.n, lam, args.j)
    print(_elem_output(elem, args.spec, args.format))
    return 0


def cmd_expand(args):
    lam = parse_partition_arg(args.lam)
    elem = family_element(args.k, args.n, lam, args.family)
    print(_elem_output(elem, args.spec, args.format))
    return 0


def cmd_nf(args):
    check_context(args.k, args.n)
    poly = parse_xpoly(args.poly, args.k)
    nf = normal_form(args.k, args.n, poly)
    if args.format == "json":
        print(json.dumps({"k": args.k, "n": args.n, "poly": nf.render()}))
    else:
        print(nf.render())
    return 0


def _scan_output(report, fmt, noun, found, line):
    """Print a scan report as JSON, or as a summary line and one line(item)
    per item found; exit status 1 when anything was found."""
    if fmt == "json":
        print(json.dumps(report))
    else:
        print(f"k={report['k']} n={report['n']}: checked {report[noun]} "
              f"{noun}, {len(report[found])} {found}")
        for item in report[found]:
            print("  " + line(item))
    return 0 if report["ok"] else 1


def cmd_s3(args):
    return _scan_output(
        s3_report(args.k, args.n, jobs=args.jobs), args.format,
        "triples", "counterexamples",
        lambda ce: f"alpha={list(ce['alpha'])} beta={list(ce['beta'])} "
                   f"gamma={list(ce['gamma'])}: {ce['permuted']} "
                   f"expected={ce['expected']}")


def cmd_positivity(args):
    return _scan_output(
        positivity_scan(args.k, args.n, jobs=args.jobs), args.format,
        "pairs", "violations",
        lambda v: f"lam={list(v['lam'])} mu={list(v['mu'])} "
                  f"nu={list(v['nu'])}: {v['in_b_variables']}")


def _cell_text(verdict, detail):
    return f"st({detail})" if verdict == "st" else verdict


def cmd_basis_table(args):
    table = basis_table(args.family, args.n_max, jobs=args.jobs)
    if args.format == "json":
        cells = [{"k": k, "n": n, "verdict": v, "det": d}
                 for (k, n), (v, d) in sorted(table.items(),
                                              key=lambda kv: (kv[0][1], kv[0][0]))]
        print(json.dumps({"family": args.family, "n_max": args.n_max,
                          "cells": cells}))
        return 0
    width = max([len(_cell_text(*v)) for v in table.values()] + [6])
    header = "n\\k " + " ".join(f"{k:>{width}}" for k in range(1, args.n_max))
    print(header)
    for n in range(2, args.n_max + 1):
        row = [f"{_cell_text(*table[(k, n)]):>{width}}" for k in range(1, n)]
        print(f"{n:>3} " + " ".join(row))
    return 0


def _add_context_args(sub):
    sub.add_argument("--k", type=int, required=True,
                     help="number of variables")
    sub.add_argument("--n", type=int, required=True,
                     help="relation offset (box is k rows by n-k columns)")


def _add_output_args(sub, spec=True):
    if spec:
        sub.add_argument("--spec", default=None,
                         help="specialize the a_i: 'classical', 'quantum', "
                              "or e.g. 'a1=0,a2=q'")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurbox",
        description="Exact Schur calculus in the quotient of symmetric "
                    "polynomials by h_{n-k+1} = a_1, ..., h_n = a_k.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("straighten", help="class of s_mu, mu arbitrary")
    _add_context_args(p)
    p.add_argument("--mu", required=True, help="partition, e.g. [5,4,1]")
    _add_output_args(p)
    p.set_defaults(fn=cmd_straighten)

    p = subs.add_parser("multiply", help="product of two basis classes")
    _add_context_args(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="first factor, a partition in the box")
    p.add_argument("--mu", required=True,
                   help="second factor, a partition in the box")
    _add_output_args(p)
    p.set_defaults(fn=cmd_multiply)

    p = subs.add_parser("pieri", help="product with the class of h_j")
    _add_context_args(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition in the box")
    p.add_argument("--j", type=int, required=True, help="0 <= j <= n-k")
    _add_output_args(p)
    p.set_defaults(fn=cmd_pieri)

    p = subs.add_parser("expand", help="family member in the Schur basis")
    _add_context_args(p)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition in the box")
    _add_output_args(p)
    p.set_defaults(fn=cmd_expand)

    p = subs.add_parser("nf", help="normal form modulo the defining ideal")
    _add_context_args(p)
    p.add_argument("--poly", required=True,
                   help="polynomial in x1..xk (a1..ak coefficients allowed)")
    _add_output_args(p, spec=False)
    p.set_defaults(fn=cmd_nf)

    p = subs.add_parser("s3", help="structure-constant symmetry scan")
    _add_context_args(p)
    p.add_argument("--jobs", type=int, default=1)
    _add_output_args(p, spec=False)
    p.set_defaults(fn=cmd_s3)

    p = subs.add_parser("positivity", help="sign-alternation scan")
    _add_context_args(p)
    p.add_argument("--jobs", type=int, default=1)
    _add_output_args(p, spec=False)
    p.set_defaults(fn=cmd_positivity)

    p = subs.add_parser("basis-table", help="family classification grid")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_output_args(p, spec=False)
    p.set_defaults(fn=cmd_basis_table)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large to compute "
              f"({type(exc).__name__})", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
