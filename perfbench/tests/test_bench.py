"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402


# -- spans and self time ------------------------------------------------------

def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


NESTED = [
    _span("cli.main", 0.0, 10.0, -1),
    _span("quotient.multiply", 1.0, 7.0, 0),
    _span("apoly.APoly.__mul__", 2.0, 3.0, 1),
    _span("apoly.APoly.__add__", 4.0, 6.5, 1),
    _span("tableaux.kostka", 8.0, 9.0, 0),
]


def test_self_time_subtracts_children():
    assert tracing.self_times(NESTED) == [3.0, 2.5, 1.0, 2.5, 1.0]


def test_check_nesting_flags_broken_spans():
    assert tracing.check_nesting(NESTED) == []
    broken = NESTED + [_span("apoly.APoly.__neg__", 6.0, 7.5, 3),
                       _span("apoly.APoly.__add__", 5.0, 4.0, 1)]
    problems = tracing.check_nesting(broken)
    assert any("outside its parent" in p for p in problems)
    assert any("ended before" in p for p in problems)


# Spawned at 99 on the parent's clock, exits at 111; the CLI's main runs
# from 100 to 110, which the spans (0 to 10 on their own clock) cover.
MARKS = {"enter": 100.0, "return": 110.0}


def _traced(spans, marks=MARKS, **header):
    header = {"counters": {}, "missing": [], "marks": marks,
              "caches": dict.fromkeys(tracing.CACHES), **header}
    return [{"header": header, "spans": spans, "t0": 99.0, "wall_s": 12.0}]


def test_layer_metrics_consistency():
    traced = _traced(NESTED, counters={"apoly.max_terms": 4}, caches={
        key: {"hits": 3, "misses": 1, "currsize": 1}
        for key in tracing.CACHES})
    metrics, consistency = tracing.summarize(traced)
    assert metrics["apoly.self_s"] == 3.5
    assert metrics["quotient.self_s"] == 2.5
    assert metrics["tableaux.self_s"] == 1.0
    assert metrics["cli.self_s"] == 3.0
    assert metrics["bases.self_s"] is None          # layer absent
    assert metrics["apoly.mul.calls"] == 1
    assert metrics["quotient.straighten.hit_ratio"] == 0.75
    assert metrics["trace.startup_s"] == 1.0
    assert metrics["trace.unattributed_s"] == 2.0
    assert consistency["ok"]


def test_consistency_fails_on_time_no_span_covers():
    # main's 10 s hold two root spans with a 2 s gap between them.
    gapped = [_span("cli.main", 0.0, 4.0, -1),
              _span("quotient.multiply", 6.0, 10.0, -1)]
    _, consistency = tracing.summarize(_traced(gapped))
    assert not consistency["ok"]
    # So are spans that last longer than main did by the marks.
    late = _traced(NESTED, marks={"enter": 100.0, "return": 108.0})
    assert not tracing.summarize(late)[1]["ok"]


def test_missing_cache_reports_null():
    traced = _traced(NESTED, missing=["bases.basis_table"])
    metrics, consistency = tracing.summarize(traced)
    assert consistency["unwrapped"] == ["bases.basis_table"]
    assert metrics["quotient.straighten.hit_ratio"] is None
    assert metrics["tableaux.kostka.hit_ratio"] is None


def test_traced_cli_records_consistent_spans(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    path = str(tmp_path / "op")
    proc = run.spawn([sys.executable, str(BENCH / "traced_cli.py"), path, "7",
                      "positivity", "--k", "2", "--n", "5"], 60)
    assert proc.rc == 0
    assert proc.out == b"k=2 n=5: checked 55 pairs, 0 violations\n"
    header, spans = tracing.load(path)
    assert header["op"] == 7 and header["missing"] == []
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert all(s[4] == 7 for s in spans)
    metrics, consistency = tracing.summarize(
        [{"header": header, "spans": spans, "t0": proc.t0,
          "wall_s": proc.wall_s}])
    assert consistency["ok"], consistency
    assert 0 < metrics["trace.startup_s"] < metrics["trace.unattributed_s"]
    assert metrics["tableaux.schur_product_expand.calls"] == 55
    assert metrics["quotient.basis_product.reads"] == 55


# -- percentiles and comparison -----------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(39) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def _record(wall, failed=False):
    return {"primary": True, "failed": failed, "wall_s": wall, "time_s": wall,
            "items": 1, "rss_mb": 20.0, "kind": "straighten"}


def test_failed_query_ranks_above_every_success():
    assert stats.percentile([0.3, math.inf, 0.1, 0.2], 100) == math.inf
    assert stats.percentile([0.3, math.inf, 0.1, 0.2], 75) == 0.3
    passes = [[_record(0.1 * i) for i in range(1, 10)]
              + [_record(0.01, failed=True)]]
    metrics, samples = run.e2e_metrics(passes, [0.05])
    assert metrics["query_s.p90"] == 0.9
    assert metrics["query_s.p50"] == 0.5
    passes[0][-2]["failed"] = True
    metrics, _ = run.e2e_metrics(passes, [0.05])
    assert metrics["query_s.p90"] > 0.9          # the limit, not 0.01
    assert metrics["fail_ratio"] == 0.2
    assert metrics["items_per_s"] == 8 / sum(r["wall_s"] for r in passes[0])
    assert samples["query_s"] == 10


def test_calibration_scales_each_command_by_its_neighbours():
    cals = iter([0.5, 0.25, 0.75, 0.25])
    walls = iter([1.5, 0.5, 1.0])
    records = run.run_calibrated(
        "abc", lambda op: {"op": op, "wall_s": next(walls)},
        lambda: next(cals))
    assert [r["op"] for r in records] == list("abc")
    assert [r["cal_s"] for r in records] == [0.375, 0.5, 0.5]
    assert records[0]["time_s"] == 1.5 * run.CAL_REF_S / 0.375


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert stats.verdict(base, [1.01, 1.0, 1.02, 0.99], "lower", 0.1) == \
        "within bound"
    assert stats.verdict(base, [1.3, 1.31, 1.29], "lower", 0.1) == "worse"
    assert stats.verdict(base, [1.3, 1.31, 1.29], "higher", 0.1) == "better"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.4]
    assert stats.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert stats.verdict(noisy, [0.2, 0.21, 0.19], "lower", 0.1) == "better"


# -- generator ----------------------------------------------------------------

def test_same_seed_same_argv():
    for w in WORKLOADS:
        assert build_ops(w, 5) == build_ops(w, 5)
    assert build_ops("query-wide", 5) != build_ops("query-wide", 6)


def test_query_wide_composition():
    ops = build_ops("query-wide", 3)
    assert len(ops) == 40
    assert sum(op.deep for op in ops) == 3              # under 10%
    assert {op.argv[0] for op in ops} == {"straighten", "nf"}
    assert all(int(checks._opt(op.argv, "--k")) in (1, 2)
               for op in ops if op.deep)


# -- output gate --------------------------------------------------------------

STRAIGHTEN = ("straighten", "--k", "3", "--n", "6", "--mu", "[5,4,1]",
              "--format", "text")
STRAIGHTEN_OUT = b"-a2*s[3,1,1] + a1^2*s[1,1] - a1*a2*s[1] + a1*a3*s[]\n"


def test_gate_accepts_a_correct_output():
    digests = {checks.argv_key(STRAIGHTEN): checks.digest(STRAIGHTEN_OUT)}
    assert checks.check_output(STRAIGHTEN, STRAIGHTEN_OUT, digests) == []


def test_gate_rejects_digest_mismatch():
    digests = {checks.argv_key(STRAIGHTEN): checks.digest(STRAIGHTEN_OUT)}
    corrupted = STRAIGHTEN_OUT.replace(b"a1*a3", b"a2*a2")
    assert checks.check_output(STRAIGHTEN, corrupted, {}) == []
    assert checks.check_output(STRAIGHTEN, corrupted, digests) == \
        ["stdout does not match the reference digest"]


def test_gate_rejects_inhomogeneous_coefficient():
    corrupted = STRAIGHTEN_OUT.replace(b"a1^2*s[1,1]", b"a1^3*s[1,1]")
    assert any("degrees" in p
               for p in checks.check_output(STRAIGHTEN, corrupted, {}))
    outside = STRAIGHTEN_OUT.replace(b"s[3,1,1]", b"s[4,1]")
    assert any("outside" in p
               for p in checks.check_output(STRAIGHTEN, outside, {}))


def test_gate_checks_k1_closed_form():
    argv = ("straighten", "--k", "1", "--n", "3", "--mu", "[7]",
            "--format", "json")
    good = b'{"k": 1, "n": 3, "basis": "s", "terms": [{"partition": [1], ' \
           b'"coeff": "a1^2"}]}'
    assert checks.check_output(argv, good, {}) == []
    bad = good.replace(b'"a1^2"', b'"2*a1^2"')
    assert any("closed form" in p for p in checks.check_output(argv, bad, {}))


def test_gate_checks_normal_forms():
    argv = ("nf", "--k", "2", "--n", "5", "--poly=x1^4", "--format", "text")
    good = b"-x1^3*x2 - x1^2*x2^2 - x1*x2^3 - x2^4 + a1\n"
    assert checks.check_output(argv, good, {}) == []
    unreduced = good.replace(b"x2^4", b"x1^4")
    assert any("not reduced" in p
               for p in checks.check_output(argv, unreduced, {}))
    assert any("unreadable" in p
               for p in checks.check_output(argv, b"x1^^2\n", {}))


def test_gate_checks_scan_reports():
    argv = ("positivity", "--k", "2", "--n", "5", "--format", "text")
    assert checks.check_output(
        argv, b"k=2 n=5: checked 55 pairs, 0 violations\n", {}) == []
    assert checks.check_output(
        argv, b"k=2 n=5: checked 54 pairs, 0 violations\n", {})
    assert checks.check_output(
        argv, b"k=2 n=5: checked 55 pairs, 1 violations\n", {})
    argv = ("s3", "--k", "2", "--n", "4", "--format", "json")
    report = b'{"k": 2, "n": 4, "triples": 56, "ok": true, ' \
             b'"counterexamples": []}'
    assert checks.check_output(argv, report, {}) == []
    assert checks.check_output(argv, report.replace(b"true", b"false"), {})


def test_spawn_kills_a_command_over_its_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wall, rc, _, _, _, timed_out, _ = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
    assert timed_out and rc != 0 and wall < 10


def test_suite_ignores_a_stale_result_of_a_crashed_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    stale = {"problems": [], "attempted": 1, "failed": 0,
             "metrics": {"setup_s": 0.05}}
    for w in WORKLOADS:
        (tmp_path / f"run-{w}-seed1.json").write_text(json.dumps(stale))
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k:
                        subprocess.CompletedProcess(a, 1, "", "Traceback"))
    out = tmp_path / "suite.json"
    assert run.suite(SimpleNamespace(seeds="1", out=str(out))) == 1
    assert json.loads(out.read_text())["runs"] == {}
