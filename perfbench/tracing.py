"""Spans around the package's layer entry points, recorded from outside.

``install`` replaces each entry point listed in ``TARGETS`` by a wrapper: the
module attribute in every ``schurbox`` namespace that imported it, and the
listed methods on their classes.  Nothing in the package changes on disk.
A span is (name, start, end, parent span); all spans of one process belong
to one operation, whose id is stored once with them.  Spans stay in memory
(flat arrays) and are written out when the process ends.

Code that is not wrapped (small helpers such as ``check_partition`` or
``_trim``) counts towards the nearest enclosing span.  A layer's self time is
the time inside its spans minus the time covered by their child spans.

Besides the spans, the traced process records two marks with the monotonic
clock that the parent times it with: just before it calls the CLI's ``main``
("enter") and just after that returns ("return").  The time outside the
spans (start-up, imports, exit) is measured from these marks, independently
of the spans, so the consistency check in ``summarize`` fails when the spans
miss part of the command's run.
"""

import json
import sys
import time
from array import array

clock = time.perf_counter

LAYERS = ("partitions", "tableaux", "apoly", "grobner", "quotient", "bases",
          "cli")

# Entry points per layer module; the span is named "<module>.<attribute>".
# "Class.method" wraps a method on its class.
TARGETS = {
    "partitions": ("straighten_vector", "enumerate_pkn", "enumerate_v_set",
                   "horizontal_strip_extensions",
                   "horizontal_strip_restrictions", "subpartitions_of_size",
                   "partitions_in_rect", "complement", "conjugate"),
    "tableaux": ("schur_product_expand", "kostka", "lr_coefficient",
                 "skew_schur_expand", "uncancelled_pieri"),
    "apoly": ("APoly.__mul__", "APoly.__rmul__", "APoly.__add__",
              "APoly.__radd__", "APoly.__sub__", "APoly.__neg__",
              "APoly.__pow__", "APoly.specialize",
              "APoly.flip_by_degree_parity", "parse_apoly",
              "parse_specialization"),
    "grobner": ("normal_form", "parse_xpoly", "groebner_generators",
                "schur_xpoly", "monomial_basis", "XPoly.__add__",
                "XPoly.__mul__", "XPoly.__rmul__"),
    "quotient": ("straighten_schur", "_straighten", "_basis_product",
                 "multiply", "pieri_h", "structure_constant",
                 "reduce_h_overflow", "specialize_elem", "s3_report",
                 "positivity_scan", "_s3_triple", "_positivity_pair",
                 "QuotElem.__add__", "QuotElem.__mul__", "QuotElem.__rmul__"),
    "bases": ("family_element", "change_of_basis_matrix", "classify_family",
              "basis_table", "_bareiss_det", "_eval_int", "_kostka_inverse"),
    "cli": ("main",),
}

# Rendering (text, payload and JSON) is timed as the cli layer's "render"
# spans, whichever module the code lives in.
RENDER_TARGETS = (("cli", "_elem_output"), ("grobner", "XPoly.render"))

SCAN_SPANS = ("quotient.s3_report", "quotient.positivity_scan",
              "quotient._s3_triple", "quotient._positivity_pair")

CACHES = {"tableaux.lr_coefficient": "tableaux.lr_coefficient",
          "tableaux.kostka": "tableaux.kostka",
          "quotient.straighten": "quotient._straighten",
          "quotient.basis_product": "quotient._basis_product"}


class Recorder:
    """Span store of one traced process."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"apoly.mul.term_pairs": 0, "apoly.max_terms": 0,
                         "tableaux.lr_tableaux": 0,
                         "grobner.normal_form.terms_out": 0,
                         "bases.bareiss.cells": 0, "bases.det_bits": 0}
        self.straightened = set()
        self.originals = {}
        self.missing = []
        self.marks = {}

    def wrap(self, span_name, fn, count=None):
        """fn inside a span; count(args, result) updates counters after the
        span has ended."""
        nid = len(self.names)
        self.names.append(span_name)
        end, stack = self.end, self.stack
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, end.append
        push, pop = stack.append, stack.pop

        # The clock is read first and last, so the bookkeeping counts
        # towards this span and not towards its caller's self time.
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(end)
            add_name(nid)
            add_parent(stack[-1])
            add_start(t0)
            add_end(t0)
            push(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count_mul(self, args, result):
        a, b = args
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counters["apoly.mul.term_pairs"] += len(a.terms) * other
        self._count_terms(args, result)

    def _count_terms(self, args, result):
        if hasattr(result, "terms") and \
                len(result.terms) > self.counters["apoly.max_terms"]:
            self.counters["apoly.max_terms"] = len(result.terms)

    def _count_lr(self, args, result):
        self.counters["tableaux.lr_tableaux"] += sum(result.values())

    def _count_straighten(self, args, result):
        self.straightened.add(args)

    def _count_nf(self, args, result):
        self.counters["grobner.normal_form.terms_out"] += len(result.terms)

    def _count_det(self, args, result):
        self.counters["bases.bareiss.cells"] += len(args[0]) ** 3
        self.counters["bases.det_bits"] += abs(result).bit_length()

    def dump(self, path):
        """Write the spans (binary arrays) and a JSON header next to them."""
        caches = {}
        for key, target in CACHES.items():
            fn = self.originals.get(target)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            caches[key] = None if info is None else \
                {"hits": info.hits, "misses": info.misses,
                 "currsize": info.currsize}
        counters = dict(self.counters)
        counters["quotient.straighten.distinct"] = len(self.straightened)
        header = {"op": self.op_id, "names": self.names,
                  "count": len(self.start), "counters": counters,
                  "caches": caches, "missing": self.missing,
                  "marks": self.marks}
        with open(path + ".bin", "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
        with open(path + ".json", "w") as f:
            json.dump(header, f)


def install(rec):
    """Wrap every target found in the imported schurbox modules."""
    counting = {"apoly.APoly.__mul__": rec._count_mul,
                "apoly.APoly.__rmul__": rec._count_mul,
                "apoly.APoly.__add__": rec._count_terms,
                "apoly.APoly.__radd__": rec._count_terms,
                "tableaux.schur_product_expand": rec._count_lr,
                "quotient._straighten": rec._count_straighten,
                "grobner.normal_form": rec._count_nf,
                "bases._bareiss_det": rec._count_det}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "schurbox" or name.startswith("schurbox.")]
    plan = [(layer, attr, f"{layer}.{attr}")
            for layer, attrs in TARGETS.items() for attr in attrs]
    plan += [(mod, attr, f"cli.render:{mod}.{attr}")
             for mod, attr in RENDER_TARGETS]
    for mod_name, attr, span_name in plan:
        module = sys.modules.get(f"schurbox.{mod_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = owner.__dict__.get(method) if isinstance(owner, type) else \
            getattr(owner, method, None)
        if fn is None:
            rec.missing.append(span_name)
            continue
        rec.originals[f"{mod_name}.{attr}"] = fn
        traced = rec.wrap(span_name, fn, counting.get(span_name))
        if owner_name:
            setattr(owner, method, traced)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, traced)


# -- analysis -----------------------------------------------------------------

def load(path):
    """(header, spans) where spans is a list of
    (name, start, end, parent, op) tuples."""
    with open(path + ".json") as f:
        header = json.load(f)
    n = header["count"]
    cols = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as f:
        for col in cols:
            col.fromfile(f, n)
    names = header["names"]
    spans = [(names[i], s, e, p, header["op"])
             for i, p, s, e in zip(*cols)]
    return header, spans


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            child[parent] += e - s
    return [e - s - c for (_, s, e, _, _), c in zip(spans, child)]


def check_nesting(spans):
    """Problems with span structure: unfinished spans, spans outside their
    parent's interval, negative self time."""
    problems = []
    for i, (name, s, e, parent, _) in enumerate(spans):
        if e < s:
            problems.append(f"span {i} ({name}) ended before it started")
        elif parent >= 0:
            _, ps, pe, _, _ = spans[parent]
            if s < ps or e > pe:
                problems.append(f"span {i} ({name}) lies outside its parent")
        if len(problems) >= 5:
            break
    return problems


def _hit_ratio(caches, key):
    infos = [c[key] for c in caches]
    if not infos or any(i is None for i in infos):
        return None
    hits = sum(i["hits"] for i in infos)
    lookups = hits + sum(i["misses"] for i in infos)
    return hits / lookups if lookups else None


def summarize(traced):
    """Per-layer metrics of one traced pass.  traced: list of dicts with the
    op's "header", "spans", spawn time "t0" and "wall_s" (spawn to exit, on
    the clock of the header's marks), for the ops that succeeded.
    Returns (metrics, consistency)."""
    self_s = {layer: 0.0 for layer in LAYERS}
    present, calls, problems = set(), {}, []
    scan = render = bareiss = 0.0
    for t in traced:
        spans = t["spans"]
        problems += check_nesting(spans)
        for (name, s, e, _, _), own in zip(spans, self_times(spans)):
            layer = layer_of(name)
            present.add(layer)
            self_s[layer] += own
            calls[name] = calls.get(name, 0) + 1
            if name in SCAN_SPANS:
                scan += own
            if name.startswith("cli.render"):
                render += e - s
            if name == "bases._bareiss_det":
                bareiss += e - s
    wall = sum(t["wall_s"] for t in traced)
    # Spawn to "enter" plus "return" to exit, measured by the marks.
    startup = sum(t["header"]["marks"]["enter"] - t["t0"] for t in traced)
    exit_ = sum(t["t0"] + t["wall_s"] - t["header"]["marks"]["return"]
                for t in traced)
    unattributed = startup + exit_
    counters = {}
    for t in traced:
        for key, v in t["header"]["counters"].items():
            counters[key] = (max(counters.get(key, 0), v)
                             if key == "apoly.max_terms"
                             else counters.get(key, 0) + v)
    caches = [t["header"]["caches"] for t in traced]

    def own(layer):
        return self_s[layer] if layer in present else None

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    metrics = {
        "tableaux.self_s": own("tableaux"),
        "tableaux.schur_product_expand.calls":
            count("tableaux.schur_product_expand"),
        "tableaux.lr_tableaux": counters.get("tableaux.lr_tableaux", 0),
        "tableaux.lr_coefficient.hit_ratio":
            _hit_ratio(caches, "tableaux.lr_coefficient"),
        "tableaux.kostka.hit_ratio": _hit_ratio(caches, "tableaux.kostka"),
        "apoly.self_s": own("apoly"),
        "apoly.mul.calls": count("apoly.APoly.__mul__",
                                 "apoly.APoly.__rmul__"),
        "apoly.add.calls": count("apoly.APoly.__add__",
                                 "apoly.APoly.__radd__"),
        "apoly.mul.term_pairs": counters.get("apoly.mul.term_pairs", 0),
        "apoly.max_terms": counters.get("apoly.max_terms", 0),
        "quotient.self_s": own("quotient"),
        "quotient.scan.self_s":
            scan if any(n in calls for n in SCAN_SPANS) else None,
        "quotient.straighten.distinct":
            counters.get("quotient.straighten.distinct", 0),
        "quotient.straighten.hit_ratio":
            _hit_ratio(caches, "quotient.straighten"),
        "quotient.basis_product.reads": count("quotient._basis_product"),
        "quotient.basis_product.hit_ratio":
            _hit_ratio(caches, "quotient.basis_product"),
        "quotient.multiply.calls": count("quotient.multiply"),
        "grobner.self_s": own("grobner"),
        "grobner.normal_form.calls": count("grobner.normal_form"),
        "grobner.normal_form.terms_out":
            counters.get("grobner.normal_form.terms_out", 0),
        "bases.self_s": own("bases"),
        "bases.family_element.calls": count("bases.family_element"),
        "bases.bareiss.s": bareiss if "bases._bareiss_det" in calls else None,
        "bases.bareiss.cells": counters.get("bases.bareiss.cells", 0),
        "bases.det_bits": counters.get("bases.det_bits", 0),
        "partitions.self_s": own("partitions"),
        "partitions.straighten_vector.calls":
            count("partitions.straighten_vector"),
        "cli.self_s": own("cli"),
        "cli.render_s": render if any(n.startswith("cli.render")
                                      for n in calls) else None,
        "trace.startup_s": startup,
        "trace.unattributed_s": unattributed,
        "trace.wall_s": wall,
    }
    # Layer self times plus the time outside the CLI's main, as the marks
    # measure it, must add up to the traced wall time, within 1 ms per
    # command plus 0.1% of the wall time.  Time inside main that no span
    # covers, or spans timed wrongly, break the sum.
    attributed = sum(self_s.values())
    tolerance = 1e-3 * len(traced) + 1e-3 * wall
    consistency = {
        "layer_self_s": attributed, "unattributed_s": unattributed,
        "wall_s": wall, "tolerance_s": tolerance,
        "ok": (not problems and startup >= 0 and exit_ >= 0
               and abs(attributed + unattributed - wall) <= tolerance),
        "problems": problems,
        "unwrapped": sorted({name for t in traced
                             for name in t["header"]["missing"]}),
    }
    return metrics, consistency
