"""Seeded command lists for the benchmark workloads.

Each workload is one pass: a list of ``Op``s, each the argv of one
``python -m schurbox.cli`` process.  A run repeats the pass, closed loop with
one client, until its time is up.  The seed picks every input; the program
receives only the generated argv.

Why each workload exists:

* ``scan-positivity``: ``positivity`` at (4,8), 2485 pairs, twice serial
  and once with ``--jobs 2``.  Every product is built once and read once, so
  it is dominated by LR expansion (``tableaux``) and ``APoly`` arithmetic.
* ``scan-s3``: ``s3`` at (3,8), 30856 triples.  About 3k products are built
  and then read hundreds of thousands of times: the read-heavy counterpart,
  dominated by ``quotient``.
* ``families``: ``basis-table --family p --n-max 9``, 36 cells.  Many small
  contexts, general-element multiplication and Bareiss determinants: the only
  workload for ``bases``.
* ``query-wide``: 40 one-off queries, each in its own process: wide
  straightens (k = 1..4), high-degree normal forms (the only workload for
  ``grobner``) and a few deep straightens.  Set-up is a visible share of
  each query's latency here.

For the scans the seed picks the output format (text or JSON) of each
command; the work is the same either way.
"""

import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("scan-positivity", "scan-s3", "families", "query-wide")


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    argv:  arguments after ``python -m schurbox.cli``.
    items: work items the command completes (pairs, triples, cells, 1 query).
    kind:  "scan", "scan-jobs2", "table", "straighten" or "nf".
    deep:  a straighten deep enough to exceed the interpreter's recursion
           limit in a recursive implementation; it is attempted and counted
           like any other query, but its failure does not fail the gate.
    """

    argv: tuple
    items: int
    kind: str
    deep: bool = False

    @property
    def primary(self):
        """Whether the op feeds latency, throughput and memory; the --jobs 2
        repeat only feeds the speed-up."""
        return self.kind != "scan-jobs2"


def _fmt(rng):
    return rng.choice(("text", "json"))


def _context(k, n):
    return ("--k", str(k), "--n", str(n))


def _scan_positivity(rng):
    k, n = 4, 8
    pairs = comb(comb(n, k) + 1, 2)
    serial = [Op(("positivity",) + _context(k, n) + ("--format", _fmt(rng)),
                 pairs, "scan") for _ in range(2)]
    jobs2 = Op(("positivity",) + _context(k, n) + ("--jobs", "2",
                                                   "--format", _fmt(rng)),
               pairs, "scan-jobs2")
    # Two serial scans per parallel one: the serial ones feed every metric
    # but the speed-up.
    return [serial[0], jobs2, serial[1]]


def _scan_s3(rng):
    k, n = 3, 8
    triples = comb(comb(n, k) + 2, 3)
    return [Op(("s3",) + _context(k, n) + ("--format", _fmt(rng)),
               triples, "scan")]


def _families(rng):
    n_max = 9
    cells = n_max * (n_max - 1) // 2
    return [Op(("basis-table", "--family", "p", "--n-max", str(n_max),
                "--format", _fmt(rng)), cells, "table")]


def _partition_text(parts):
    return "[" + ",".join(str(p) for p in parts if p) + "]"


def _wide_partition(rng, k, n, lo, hi):
    """A partition of a size in [lo, hi] with at most k parts whose first row
    is wider than the box (n-k) and at most 20*(n-k)."""
    while True:
        total = rng.randint(lo, hi)
        cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
        parts = sorted((b - a for a, b in zip((0,) + tuple(cuts),
                                              tuple(cuts) + (total,))),
                       reverse=True)
        if n - k < parts[0] <= 20 * (n - k):
            return parts


def _straighten(k, n, parts, rng, deep=False):
    argv = ("straighten",) + _context(k, n) + (
        "--mu", _partition_text(parts), "--format", _fmt(rng))
    return Op(argv, 1, "straighten", deep)


def _nf(k, n, coeff, exps, rng):
    factors = [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
    rng.shuffle(factors)
    poly = "*".join([str(coeff)] + factors)
    # "--poly=" keeps a negative coefficient from reading as an option.
    return Op(("nf",) + _context(k, n) + (f"--poly={poly}",
                                          "--format", _fmt(rng)), 1, "nf")


# The slowest queries of the stream.  Their shapes are fixed so that the tail
# of the latency distribution (query_s.p90) and the peak memory compare like
# with like across seeds; the seed varies the coefficient, the factor order
# and the output format.
_HEAVY_STRAIGHTEN = ((40, 30, 20), (45, 25, 20), (60, 20, 10), (50, 30, 10))
_HEAVY_NF = ((3, 7, (25, 20, 0)), (3, 7, (30, 20, 0)), (3, 6, (30, 15, 0)),
             (3, 7, (28, 22, 0)), (3, 6, (30, 10, 0)))


def _query_wide(rng):
    ops = []
    for _ in range(6):                         # k = 1: closed form a1^q s[r]
        n = rng.randint(2, 9)
        ops.append(_straighten(1, n, (rng.randint(n, 60 * n),), rng))
    for _ in range(10):
        n = rng.randint(5, 8)
        ops.append(_straighten(2, n, _wide_partition(rng, 2, n, 40, 160),
                               rng))
    for _ in range(5):
        n = rng.choice((6, 7))
        ops.append(_straighten(3, n, _wide_partition(rng, 3, n, 35, 55), rng))
    for _ in range(4):
        ops.append(_straighten(4, 9, _wide_partition(rng, 4, 9, 28, 38), rng))
    for _ in range(3):                         # light normal forms
        n = rng.randint(5, 6)
        d = rng.randint(40, 70)
        e1 = rng.randint(d // 2, d)
        ops.append(_nf(2, n, rng.randint(1, 99), (e1, d - e1), rng))
    for parts in _HEAVY_STRAIGHTEN:
        ops.append(_straighten(3, 7, parts, rng))
    for k, n, exps in _HEAVY_NF:
        ops.append(_nf(k, n, rng.choice((-1, 1)) * rng.randint(2, 99),
                       exps, rng))
    # Deep straightens (3 of 40): recursion depth grows with mu_1 / n.
    ops.append(_straighten(1, 2, (rng.randint(1500, 3000),), rng, deep=True))
    ops.append(_straighten(2, 3, (rng.randint(2000, 3000), 1), rng,
                           deep=True))
    ops.append(_straighten(1, 2, (rng.randint(1500, 3000),), rng, deep=True))
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "scan-positivity": _scan_positivity,
    "scan-s3": _scan_s3,
    "families": _families,
    "query-wide": _query_wide,
}


def build_ops(workload, seed):
    """The pass of ``workload`` for ``seed``: the same seed gives the same
    list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
