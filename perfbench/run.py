"""The schurbox benchmark.

Run from the repository root; standard library only.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload (see workloads.py).  Every command is a fresh
        ``python -m schurbox.cli`` process, so import, start-up and caches
        start cold; one client runs each command and waits for it.  Passes
        over the workload's commands repeat until S seconds have passed.
        With --trace 0 it reports the end-to-end metrics, with --trace 1 the
        per-layer metrics of traced processes (tracing.py).  The last line of
        stdout is one JSON object; the full result, with the environment, is
        written to perfbench/out/.  Exits 1 when an output check fails.

    python3 perfbench/run.py suite [--seeds 1,2,3] [--out FILE]
        Runs every workload once per seed, for BENCHMARK.json's run_seconds,
        and prints each end-to-end metric with its unit: median and
        quartiles over the runs.  Writes FILE (default
        perfbench/out/suite.json).  Exits 1 when any check fails.

    python3 perfbench/run.py compare BEFORE.json AFTER.json
        One row per (workload, metric) of two suite files: both medians and
        quartiles, the ratio, and whether AFTER is within the metric's bound,
        worse, better or unresolved (run-to-run spread above the bound).
        Metrics that BENCHMARK.json does not list have no bound and are
        shown as "ungated".

    python3 perfbench/run.py capture
        Records the stdout digests of the default seed's commands in
        perfbench/digests.json.

End-to-end metrics (untraced; timings are spawn-to-exit, scaled by host
speed as measured by the calibration process, see CAL_PROBE):
    setup_s        median time from spawn until schurbox.cli is imported and
                   its parser built
    items_per_s    work items (pairs, triples, table cells, queries) per
                   second of command wall time; median over passes
    query_s.p50    latency of one command; a failed command ranks above
    query_s.p90    every success.  The latency workload is
                   query-wide; on the others each command is one whole scan
                   or table, so query_s.p50 tracks 1/items_per_s there
    peak_rss_mb    peak resident memory of the computing process; median
                   over passes of each pass's largest
    fail_ratio     failed over attempted commands (also in the JSON line
                   as "failed" and "attempted")
    speedup_jobs2  serial over --jobs 2 wall time (scan-positivity only)
The --jobs 2 commands only feed speedup_jobs2.
"""

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import checks
import stats
import tracing
from workloads import WORKLOADS, build_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1

SETUP_SAMPLES = 15
SETUP_PROBE = ("import time\n"
               "from schurbox.cli import build_parser\n"
               "build_parser()\n"
               "print(repr(time.monotonic()))\n")
# Per-command limits.  A command over its limit is killed and counts as
# failed; so is every command still running RUN_LIMIT_S after the run began.
TIMEOUT_S = {"scan": 100, "scan-jobs2": 100, "table": 100,
             "straighten": 20, "nf": 20, "setup": 20}
RUN_LIMIT_S = 170

# The speed of a shared host drifts by tens of percent over seconds to
# minutes, which swamps run-to-run differences.  So every timing is scaled by
# a calibration process (fixed pure-Python work, its own interpreter start
# included) run just before and just after it:
#     time_s = wall_s * CAL_REF_S / (mean of the two calibration wall times),
# i.e. seconds on a host where the calibration takes CAL_REF_S.  The two
# calibrations must be close in time to the command: on a shared 2-core Xeon
# host, with calibrations 2 s apart, the query-wide median latency of one
# seed still varied by 40% from pass to pass, and by 2% with one between
# every two commands.  Unscaled
# metrics are kept in the result file as "raw_metrics".
CAL_PROBE = ("d = {}\n"
             "for i in range(80000):\n"
             "    k = (i % 97, i % 89, (i >> 3) % 7)\n"
             "    d[k] = d.get(k, 0) + i * 3\n"
             "sorted(d.items())\n")
CAL_REF_S = 0.2

# End-to-end metrics reported besides those of BENCHMARK.json, without a
# bound: fail_ratio may be 0, speedup_jobs2 exists on one workload, and
# query_s.p90 has fewer than ten samples beyond it in a run (the tail
# percentile those samples support is recorded as query_s.tail_percentile).
# name -> (unit, better).
EXTRA_METRICS = {"query_s.p90": ("s", "lower"),
                 "fail_ratio": ("ratio", "lower"),
                 "speedup_jobs2": ("x", "higher")}


# -- environment --------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_rev():
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256():
    files = sorted((ROOT / "src").rglob("*.py"))
    return checks.digest(b"".join(p.relative_to(ROOT).as_posix().encode()
                                  + b"\0" + p.read_bytes() for p in files))


def environment(seed):
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "rev": _git_rev(),
            "src_sha256": _src_sha256(), "seed": seed}


# -- running commands ---------------------------------------------------------

def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


Finished = namedtuple("Finished", "wall_s rc rss_mb out err timed_out t0")


def spawn(cmd, timeout):
    """Run cmd to completion and return a Finished: wall time, exit code,
    peak RSS in MB, stdout and stderr bytes, whether it timed out, and the
    monotonic spawn time.  On timeout the command's whole process group (its
    --jobs workers too) is killed."""
    out_path, err_path = OUT / "stdout.tmp", OUT / "stderr.tmp"
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=_child_env(), start_new_session=True)

        def kill():
            killed.append(True)
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - t0
    return Finished(wall, proc.returncode, usage.ru_maxrss / 1024,
                    out_path.read_bytes(), err_path.read_bytes(),
                    bool(killed), t0)


def cli_cmd(argv):
    return [sys.executable, "-m", "schurbox.cli", *argv]


def run_op(op, digests, deadline, cmd=None):
    """Run one op and check it.  A failed op timed out, exited non-zero,
    printed a traceback or printed a wrong output; a wrong output (or any
    failure of a non-deep op) also fails the gate."""
    timeout = min(TIMEOUT_S[op.kind], deadline - time.monotonic())
    run = spawn(cmd or cli_cmd(op.argv), max(timeout, 0))
    crashed = run.timed_out or run.rc != 0 or b"Traceback" in run.err
    problems = [] if crashed else \
        checks.check_output(op.argv, run.out, digests)
    if crashed and not op.deep:
        why = "timed out" if run.timed_out else f"exit {run.rc}"
        problems.append(
            f"{why}: {run.err.decode(errors='replace')[-300:]!r}")
    return {"argv": list(op.argv), "kind": op.kind, "deep": op.deep,
            "primary": op.primary, "items": op.items, "t0": run.t0,
            "wall_s": run.wall_s, "rc": run.rc, "rss_mb": run.rss_mb,
            "failed": crashed or bool(problems), "problems": problems}


def setup_sample(deadline):
    """{"wall_s": time from spawn until the parser is built}."""
    timeout = min(TIMEOUT_S["setup"], deadline - time.monotonic())
    run = spawn([sys.executable, "-c", SETUP_PROBE], max(timeout, 0))
    if run.rc != 0:
        raise RuntimeError(f"import probe failed: {run.err.decode()[-300:]}")
    return {"wall_s": float(run.out) - run.t0}


def measure_setup(deadline):
    """Records of SETUP_SAMPLES set-up probes, each scaled by the
    calibrations just before and after it, after one unrecorded probe that
    compiles the bytecode caches."""
    setup_sample(deadline)
    return run_calibrated(range(SETUP_SAMPLES),
                          lambda _: setup_sample(deadline),
                          lambda: calibrate(deadline))


def calibrate(deadline):
    """Wall time of one calibration process."""
    timeout = min(TIMEOUT_S["setup"], deadline - time.monotonic())
    run = spawn([sys.executable, "-c", CAL_PROBE], max(timeout, 0))
    if run.rc != 0:
        raise RuntimeError(f"calibration failed: {run.err.decode()[-300:]}")
    return run.wall_s


def run_calibrated(ops, run_one, calibrate):
    """Records of run_one(op) for each op, in order, each with "cal_s" (the
    mean of the calibrations just before and just after it) and the scaled
    "time_s"."""
    records = []
    before = calibrate()
    for op in ops:
        r = run_one(op)
        after = calibrate()
        r["cal_s"] = (before + after) / 2
        r["time_s"] = r["wall_s"] * CAL_REF_S / r["cal_s"]
        records.append(r)
        before = after
    return records


def run_passes(seconds, run_pass):
    """Repeat run_pass until `seconds` have passed, at least once."""
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_pass())
    return passes


# -- end-to-end run -----------------------------------------------------------

def e2e_metrics(passes, setup, key="time_s"):
    """All end-to-end metrics from the op records of each pass, timed by
    each record's `key` ("time_s" scaled, "wall_s" raw)."""
    records = [r for p in passes for r in p]
    primary = [r for r in records if r["primary"]]
    fail_latency = max(TIMEOUT_S[r["kind"]] for r in primary)
    latencies = [math.inf if r["failed"] else r[key] for r in primary]

    def latency(p):
        v = stats.percentile(latencies, p)
        return v if math.isfinite(v) else fail_latency

    rates, peaks = [], []
    for p in passes:
        prim = [r for r in p if r["primary"]]
        done = sum(r["items"] for r in prim if not r["failed"])
        rates.append(done / sum(r[key] for r in prim))
        peaks.append(max(r["rss_mb"] for r in prim))
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(rates),
        "query_s.p50": latency(50),
        "query_s.p90": latency(90),
        "peak_rss_mb": statistics.median(peaks),
        "fail_ratio": sum(r["failed"] for r in records) / len(records),
    }
    jobs2 = [r[key] for r in records if r["kind"] == "scan-jobs2"]
    if jobs2:
        serial = [r[key] for r in primary]
        metrics["speedup_jobs2"] = (statistics.median(serial)
                                    / statistics.median(jobs2))
    samples = {"setup_s": len(setup), "items_per_s": len(passes),
               "query_s": len(latencies), "peak_rss_mb": len(passes),
               "fail_ratio": len(records),
               "query_s.tail_percentile": stats.tail_percentile(
                   len(latencies))}
    if jobs2:
        samples["speedup_jobs2"] = len(jobs2)
    return metrics, samples


def run_e2e(ops, seconds, digests, deadline):
    """(scaled metrics, raw metrics, sample counts, op records)."""
    setup = measure_setup(deadline)
    passes = run_passes(seconds, lambda: run_calibrated(
        ops, lambda op: run_op(op, digests, deadline),
        lambda: calibrate(deadline)))
    metrics, samples = e2e_metrics(passes, [r["time_s"] for r in setup])
    raw, _ = e2e_metrics(passes, [r["wall_s"] for r in setup], "wall_s")
    return metrics, raw, samples, [r for p in passes for r in p]


# -- traced run ---------------------------------------------------------------

def run_traced(ops, seconds, digests, deadline):
    """Alternate an untraced and a traced pass over the primary ops until
    `seconds` have passed.  Spans of failed ops are left out of the layer
    metrics and of the consistency check.  Returns the per-layer metrics
    (median over traced passes), each pass's consistency check and the op
    records."""
    ops = [op for op in ops if op.primary]
    span_dir = OUT / "spans"
    span_dir.mkdir(exist_ok=True)
    pass_metrics, pass_consistency = [], []

    def one_pair():
        untraced = [run_op(op, digests, deadline) for op in ops]
        traced, spans_of_ok = [], []
        for i, op in enumerate(ops):
            path = str(span_dir / f"op{i}")
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), path,
                   str(i), *op.argv]
            rec = run_op(op, digests, deadline, cmd)
            traced.append(rec)
            if not rec["failed"]:
                header, spans = tracing.load(path)
                spans_of_ok.append({"header": header, "spans": spans,
                                    "t0": rec["t0"], "wall_s": rec["wall_s"]})
            for suffix in (".json", ".bin"):
                Path(path + suffix).unlink(missing_ok=True)
        metrics, consistency = tracing.summarize(spans_of_ok)
        untraced_wall = sum(r["wall_s"] for r in untraced)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_ratio"] = (sum(r["wall_s"] for r in traced)
                                           / untraced_wall)
        metrics["trace.failed_ops"] = len(ops) - len(spans_of_ok)
        consistency["overhead_ratio"] = metrics["trace.overhead_ratio"]
        pass_metrics.append(metrics)
        pass_consistency.append(consistency)
        return untraced + traced

    records = [r for p in run_passes(seconds, one_pair) for r in p]
    merged = {}
    for key in pass_metrics[0]:
        values = [m[key] for m in pass_metrics if m[key] is not None]
        merged[key] = statistics.median(values) if values else None
    return merged, pass_consistency, records


# -- one run ------------------------------------------------------------------

def _unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(args):
    if not (ROOT / "src" / "schurbox" / "cli.py").is_file():
        print(f"error: no schurbox sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = _load_json(ROOT / "BENCHMARK.json")
    digests = _load_json(DIGESTS) if DIGESTS.is_file() else {}
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    ops = build_ops(args.workload, args.seed)
    env = environment(args.seed)
    if args.trace:
        metrics, consistency, records = run_traced(ops, args.seconds,
                                                   digests, deadline)
        wanted = spec["per_layer"]
        samples = {"traced_passes": len(consistency)}
        raw = {}
    else:
        metrics, raw, samples, records = run_e2e(ops, args.seconds,
                                                 digests, deadline)
        consistency = []
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: v[0] for k, v in EXTRA_METRICS.items()})
    for key in metrics:
        units.setdefault(key, _unit(key))
    problems = [f"{' '.join(r['argv'])}: {p}"
                for r in records for p in r["problems"]]
    problems += [f"trace consistency: {c}" for c in consistency
                 if not c["ok"]]
    failed = sum(r["failed"] for r in records)
    result = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics,
              "raw_metrics": raw,
              "samples": samples, "consistency": consistency,
              "attempted": len(records), "failed": failed,
              "problems": problems, "records": records}
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-" \
           f"seed{args.seed}.json"
    with open(OUT / name, "w") as f:
        json.dump(result, f, indent=1)

    print(f"schurbox benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = f"  (unscaled {raw[key]:.6g})" if raw.get(key, value) != value \
            else ""
        print(f"  {key:<38} {shown:>12} {units.get(key, '')}{note}")
    print("  samples: " + " ".join(f"{k}={v}" for k, v in samples.items()))
    for c in consistency:
        print(f"  consistency: layers {c['layer_self_s']:.4f} s + "
              f"unattributed {c['unattributed_s']:.4f} s vs traced wall "
              f"{c['wall_s']:.4f} s (tolerance {c['tolerance_s']:.4f} s): "
              f"{'ok' if c['ok'] else 'FAILED'}; trace.overhead_ratio "
              f"{c['overhead_ratio']:.3f}")
        if c["unwrapped"]:
            print(f"  not found, so not traced: {', '.join(c['unwrapped'])}")
    print(f"  failed {failed} of {len(records)} commands "
          f"({sum(r['failed'] and r['deep'] for r in records)} deep)")
    for p in problems:
        print(f"  CHECK FAILED {p}")
    print(f"  full result: {(OUT / name).relative_to(ROOT)}")
    line = {"correct": not problems, "attempted": len(records),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in wanted}}
    print(json.dumps(line))
    return 0 if not problems else 1


# -- suite, compare, capture --------------------------------------------------

def _metric_specs():
    """name -> (unit, better, bound); bound None for the ungated extras."""
    spec = _load_json(ROOT / "BENCHMARK.json")
    specs = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    specs.update({name: (unit, better, None)
                  for name, (unit, better) in EXTRA_METRICS.items()})
    return specs


def suite(args):
    seconds = _load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs, ok = {}, True
    OUT.mkdir(exist_ok=True)
    for w in WORKLOADS:
        for seed in seeds:
            # A run that crashes writes no result; a file from an earlier
            # suite must not stand in for it.
            result_path = OUT / f"run-{w}-seed{seed}.json"
            result_path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode not in (0, 1) or not result_path.is_file():
                print(proc.stdout + proc.stderr, file=sys.stderr)
                ok = False
                continue
            result = _load_json(result_path)
            ok &= proc.returncode == 0
            for p in result["problems"]:
                print(f"{w} seed {seed}: CHECK FAILED {p}")
            runs.setdefault(w, []).append(
                {"seed": seed, "correct": proc.returncode == 0,
                 "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": result["metrics"]})
    out = Path(args.out) if args.out else OUT / "suite.json"
    with open(out, "w") as f:
        json.dump({"env": environment(seeds[0]), "seeds": seeds,
                   "seconds": seconds, "runs": runs}, f, indent=1)
    specs = _metric_specs()
    print(f"{'workload':<16} {'metric':<14} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'unit':<6} runs")
    for w, rs in runs.items():
        for name, (unit, _, _) in specs.items():
            values = [r["metrics"][name] for r in rs if name in r["metrics"]]
            if values:
                q1, med, q3 = stats.quartiles(values)
                print(f"{w:<16} {name:<14} {med:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {unit:<6} {len(values)}")
    print(f"results: {out}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def compare(args):
    before, after = _load_json(args.before), _load_json(args.after)
    specs = _metric_specs()
    print(f"{'workload':<16} {'metric':<14} {'before':>10} {'q1..q3':>21} "
          f"{'after':>10} {'q1..q3':>21} {'ratio':>7}  verdict")
    for w in before["runs"]:
        for name, (unit, better, bound) in specs.items():
            b = [r["metrics"][name] for r in before["runs"][w]
                 if name in r["metrics"]]
            a = [r["metrics"][name] for r in after["runs"].get(w, [])
                 if name in r["metrics"]]
            if not a or not b:
                continue
            qb, qa = stats.quartiles(b), stats.quartiles(a)
            ratio = qa[1] / qb[1] if qb[1] else \
                (1.0 if qa[1] == qb[1] else math.inf)
            if bound is None:
                verdict = f"ungated ({better} is better, {unit})"
            else:
                verdict = (f"{stats.verdict(b, a, better, bound)} "
                           f"({better} is better, bound {bound:g}, {unit})")
            print(f"{w:<16} {name:<14} {qb[1]:>10.4g} "
                  f"{qb[0]:>10.4g}..{qb[2]:<10.4g} {qa[1]:>10.4g} "
                  f"{qa[0]:>10.4g}..{qa[2]:<10.4g} {ratio:>7.3f}  {verdict}")
    return 0


def capture(args):
    """Record the stdout digest of every non-deep command of the default
    seed; refuses when a command fails its invariant checks."""
    OUT.mkdir(exist_ok=True)
    digests = {}
    for w in WORKLOADS:
        for op in build_ops(w, DEFAULT_SEED):
            if op.deep:
                continue
            run = spawn(cli_cmd(op.argv), TIMEOUT_S[op.kind])
            problems = checks.check_output(op.argv, run.out, {})
            if run.rc != 0 or run.timed_out or problems:
                print(f"{' '.join(op.argv)}: rc={run.rc} {problems} "
                      f"{run.err.decode()[-300:]}", file=sys.stderr)
                return 1
            digests[checks.argv_key(op.argv)] = checks.digest(run.out)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(digests)} digests written to {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None):
    import argparse
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    if argv[:1] == ["suite"]:
        parser.add_argument("mode")
        parser.add_argument("--seeds", default="1,2,3")
        parser.add_argument("--out", default=None)
        return suite(parser.parse_args(argv))
    if argv[:1] == ["compare"]:
        parser.add_argument("mode")
        parser.add_argument("before")
        parser.add_argument("after")
        return compare(parser.parse_args(argv))
    if argv[:1] == ["capture"]:
        return capture(parser.parse_args([]))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
