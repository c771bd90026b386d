"""The command-line interface: output strings, JSON payloads, exit codes."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from schurbox import cli, clear_caches, quotient
from schurbox.cli import main, parse_partition_arg
from schurbox.quotient import worker_count


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parse_partition_arg():
    assert parse_partition_arg("[3,1]") == (3, 1)
    assert parse_partition_arg("[]") == ()
    assert parse_partition_arg(" [7] ") == (7,)
    for bad in ("3,1", "[3,1", "[3, 1]", "[a]", "[1,-2]", "", "[1,2,]"):
        with pytest.raises(ValueError):
            parse_partition_arg(bad)


# -- straighten ---------------------------------------------------------------

def test_straighten_text(capsys):
    rc, out, _ = run(capsys, "straighten", "--k", "3", "--n", "6",
                     "--mu", "[5,4,1]")
    assert rc == 0
    assert out == "-a2*s[3,1,1] + a1^2*s[1,1] - a1*a2*s[1] + a1*a3*s[]\n"


def test_straighten_in_box_is_itself(capsys):
    rc, out, _ = run(capsys, "straighten", "--k", "2", "--n", "4",
                     "--mu", "[2,1]")
    assert rc == 0 and out == "s[2,1]\n"


def test_straighten_json(capsys):
    rc, out, _ = run(capsys, "straighten", "--k", "3", "--n", "6",
                     "--mu", "[5,4,1]", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["n"] == 6 and payload["basis"] == "s"
    assert [t["partition"] for t in payload["terms"]] == \
        [[], [1], [1, 1], [3, 1, 1]]
    assert {t["coeff"] for t in payload["terms"]} == \
        {"a1*a3", "-a1*a2", "a1^2", "-a2"}


# Each answer has at most three terms, so its cost must not follow the box
# (C(n, k) partitions) or the 2^(k-1) rim-hook vectors, and a wide partition
# must not cost a Python frame per row or per cell.
_ONES = ",".join(["1"] * 1049)
@pytest.mark.parametrize("argv, want", [
    (("straighten", "--k", "16", "--n", "17", "--mu", "[2]"), "a1*s[]"),
    (("straighten", "--k", "8", "--n", "28", "--mu", "[1]"), "s[1]"),
    (("straighten", "--k", "1500", "--n", "1501", "--mu", "[1]"), "s[1]"),
    (("multiply", "--k", "300", "--n", "301", "--lambda", "[1]",
      "--mu", "[1]"), "s[1,1] + a1*s[]"),
    (("multiply", "--k", "1100", "--n", "1101", "--lambda", "[1]",
      "--mu", "[1]"), "s[1,1] + a1*s[]"),
    (("pieri", "--k", "2", "--n", "700", "--lambda", "[600,500]",
      "--j", "698"), "a1*s[599,500] + a1*s[600,499] - a2*s[599,499]"),
    pytest.param(("pieri", "--k", "1100", "--n", "1102", "--lambda",
                  f"[1,{_ONES}]", "--j", "1"),
                 f"s[1,1,{_ONES}] + s[2,{_ONES}]", id="pieri-k1100-1^1050"),
    pytest.param(("multiply", "--k", "1100", "--n", "1102", "--lambda",
                  f"[1,{_ONES}]", "--mu", "[1]"),
                 f"s[1,1,{_ONES}] + s[2,{_ONES}]",
                 id="multiply-k1100-1^1050"),
])
def test_small_answers_in_large_contexts_are_fast(capsys, argv, want):
    clear_caches()
    start = time.perf_counter()
    rc, out, _ = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (rc, out) == (0, want + "\n")
    assert elapsed < 2, elapsed


def test_straighten_too_many_parts_is_usage_error(capsys):
    rc, _, err = run(capsys, "straighten", "--k", "2", "--n", "4",
                     "--mu", "[1,1,1]")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("k, mu, message", [
    ("-1", "[]", "need 0 <= k <= n, got k=-1, n=3"),
    ("0", "[1]", "quotient contexts need k >= 1"),
])
def test_straighten_bad_context_is_named(capsys, k, mu, message):
    rc, out, err = run(capsys, "straighten", "--k", k, "--n", "3",
                       "--mu", mu)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.fixture
def three_bit_fields(monkeypatch):
    """Straightening with 3-bit exponent fields, on caches that hold no
    key packed at another width, before or after."""
    monkeypatch.setattr(quotient, "_W", 3)
    clear_caches()
    yield
    clear_caches()


def test_straighten_exponent_overflow_is_usage_error(capsys,
                                                     three_bit_fields):
    # at (1,2), s[m] = a1^(m//2) s[m%2]; a 3-bit field holds a1^7, not a1^8
    rc, out, _ = run(capsys, "straighten", "--k", "1", "--n", "2",
                     "--mu", "[15]")
    assert (rc, out) == (0, "a1^7*s[1]\n")
    rc, out, err = run(capsys, "straighten", "--k", "1", "--n", "2",
                       "--mu", "[16]")
    assert (rc, out) == (2, "")
    assert err.startswith("error: coefficient degree up to 8 does not fit")
    assert err.count("\n") == 1


# -- multiply and pieri ---------------------------------------------------------

def test_multiply_text(capsys):
    rc, out, _ = run(capsys, "multiply", "--k", "2", "--n", "5",
                     "--lambda", "[1]", "--mu", "[1]")
    assert rc == 0 and out == "s[1,1] + s[2]\n"


def test_multiply_quantum_specialization(capsys):
    rc, out, _ = run(capsys, "multiply", "--k", "2", "--n", "4",
                     "--lambda", "[1]", "--mu", "[2,2]", "--spec", "quantum")
    assert rc == 0 and out == "q*s[1]\n"


def test_multiply_quantum_json(capsys):
    rc, out, _ = run(capsys, "multiply", "--k", "2", "--n", "4",
                     "--lambda", "[2,2]", "--mu", "[2,2]",
                     "--spec", "quantum", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["spec"] == "quantum"
    assert payload["terms"] == [{"partition": [], "coeff": "q^2"}]


def test_multiply_classical_drops_quantum_terms(capsys):
    rc, out, _ = run(capsys, "multiply", "--k", "2", "--n", "4",
                     "--lambda", "[2,2]", "--mu", "[2,2]",
                     "--spec", "classical")
    assert rc == 0 and out == "0\n"


def test_multiply_out_of_box_is_usage_error(capsys):
    rc, _, err = run(capsys, "multiply", "--k", "2", "--n", "5",
                     "--lambda", "[4]", "--mu", "[1]")
    assert rc == 2 and "does not fit" in err


def test_pieri_text(capsys):
    rc, out, _ = run(capsys, "pieri", "--k", "3", "--n", "7",
                     "--lambda", "[4,3,2]", "--j", "2")
    assert rc == 0
    assert out == ("s[4,4,3]"
                   " + a1*s[3,2,1] + a1*s[3,3] + a1*s[4,2]"
                   " - a2*s[2,2,1] - a2*s[3,1,1] - 2*a2*s[3,2] - a2*s[4,1]"
                   " + a3*s[2,1,1] + a3*s[2,2] + a3*s[3,1]\n")


def test_pieri_bad_j_is_usage_error(capsys):
    rc, _, err = run(capsys, "pieri", "--k", "2", "--n", "5",
                     "--lambda", "[1]", "--j", "9")
    assert rc == 2 and "error:" in err


# -- expand ---------------------------------------------------------------------

def test_expand_h(capsys):
    rc, out, _ = run(capsys, "expand", "--k", "3", "--n", "5",
                     "--family", "h", "--lambda", "[2,2,2]")
    assert rc == 0
    assert out == "s[2,2,2] + 2*a1*s[2,1] - a2*s[1,1] + a1^2*s[]\n"


def test_expand_p_with_relation(capsys):
    rc, out, _ = run(capsys, "expand", "--k", "2", "--n", "4",
                     "--family", "p", "--lambda", "[2,1]")
    assert rc == 0 and out == "a1*s[]\n"


# -- nf ---------------------------------------------------------------------------

def test_nf_text(capsys):
    rc, out, _ = run(capsys, "nf", "--k", "2", "--n", "5",
                     "--poly", "x1^4")
    assert rc == 0
    assert out == "-x1^3*x2 - x1^2*x2^2 - x1*x2^3 - x2^4 + a1\n"


def test_nf_json(capsys):
    rc, out, _ = run(capsys, "nf", "--k", "2", "--n", "5",
                     "--poly", "x2^5", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"k": 2, "n": 5, "poly": "-a1*x1 + a2"}


@pytest.mark.xfail(strict=True, reason=(
    "a multi-term x-constant with a negative leading coefficient is printed "
    "as '-' and its negation; fixing it changes digested benchmark outputs, "
    "so the fix has to re-capture the benchmark digests"))
def test_nf_multi_term_x_constant_keeps_its_signs(capsys):
    _, alone, _ = run(capsys, "nf", "--k", "2", "--n", "4", "--poly", "a2 - a1")
    _, after_x, _ = run(capsys, "nf", "--k", "2", "--n", "4",
                        "--poly", "x1 + a2 - a1")
    assert alone == "-a1 + a2\n"
    assert after_x == "x1 - a1 + a2\n"


def test_nf_bad_variable_is_usage_error(capsys):
    rc, _, err = run(capsys, "nf", "--k", "2", "--n", "5", "--poly", "x3")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("route", ["nf", "spec"])
@pytest.mark.parametrize("text", [
    "", "  ", "x1 +", "2 ** a1", "a1^", "x1^x2", "2*", "x1 2", "a1 @ 2",
    "^2", "2^3", "a0", "a", "q1", "x3", "y1"])
def test_bad_polynomial_text_is_one_line_usage_error(capsys, route, text):
    if route == "nf":
        argv = ("nf", "--k", "2", "--n", "4", f"--poly={text}")
    else:
        argv = ("multiply", "--k", "2", "--n", "4", "--lambda", "[1]",
                "--mu", "[1]", "--spec", f"a1={text}")
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.endswith("\n")


# -- scans -------------------------------------------------------------------------

def test_s3_scan(capsys):
    rc, out, _ = run(capsys, "s3", "--k", "2", "--n", "4")
    assert rc == 0
    assert out == "k=2 n=4: checked 56 triples, 0 counterexamples\n"


def test_s3_scan_json_parallel(capsys):
    rc, out, _ = run(capsys, "s3", "--k", "2", "--n", "4",
                     "--jobs", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["triples"] == 56


def test_positivity_scan(capsys):
    rc, out, _ = run(capsys, "positivity", "--k", "2", "--n", "5")
    assert rc == 0
    assert out == "k=2 n=5: checked 55 pairs, 0 violations\n"


def test_positivity_scan_json(capsys):
    rc, out, _ = run(capsys, "positivity", "--k", "3", "--n", "5",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []


@pytest.mark.parametrize("argv", [
    ("positivity", "--k", "2", "--n", "4"),
    ("s3", "--k", "2", "--n", "4"),
    ("basis-table", "--family", "e", "--n-max", "4"),
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, argv, jobs):
    rc, out, err = run(capsys, *argv, "--jobs", jobs)
    assert rc == 2 and out == ""
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_worker_count_is_capped():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    assert worker_count(1, 100) == 1
    assert worker_count(2, 100) == min(2, cpus)
    assert worker_count(10**6, 3) == min(3, cpus)
    assert worker_count(10**6, 10**6) == cpus
    assert worker_count(4, 0) == 1
    for jobs in (0, -3):
        with pytest.raises(ValueError):
            worker_count(jobs, 10)


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5},
                        raising=False)
    assert worker_count(4, 100) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count(4, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(4, 100) == 1


@pytest.mark.parametrize("spec, message", [
    ("a1=q,a1=2", "a1 assigned twice"),
    ("a2=1, a02=q", "a2 assigned twice"),
    ("a3=1", "a3 out of range for k=2"),
    ("b1=1", "bad assignment target 'b1'"),
])
def test_bad_specialization_is_usage_error(capsys, spec, message):
    rc, out, err = run(capsys, "straighten", "--k", "2", "--n", "4",
                       "--mu", "[3,1]", "--spec", spec)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


# -- basis-table --------------------------------------------------------------------

def test_basis_table_text(capsys):
    rc, out, _ = run(capsys, "basis-table", "--family", "p", "--n-max", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n\\k", "1", "2", "3", "4"]
    assert lines[1].split() == ["2", "yes"]
    assert lines[3].split() == ["4", "yes", "no", "yes"]
    assert lines[4].split() == ["5", "yes", "st(4)", "st(24)", "yes"]


def test_basis_table_json(capsys):
    rc, out, _ = run(capsys, "basis-table", "--family", "ht", "--n-max", "4",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "ht"
    cells = {(c["k"], c["n"]): (c["verdict"], c["det"]) for c in payload["cells"]}
    assert cells == {
        (1, 2): ("yes", 1),
        (1, 3): ("yes", 1), (2, 3): ("no", 0),
        (1, 4): ("yes", 1), (2, 4): ("yes", 1), (3, 4): ("no", 0),
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n_max", ["1", "0", "-3"])
def test_basis_table_n_max_below_two_is_usage_error(capsys, fmt, n_max):
    rc, out, err = run(capsys, "basis-table", "--family", "p",
                       "--n-max", n_max, "--format", fmt)
    assert rc == 2 and out == ""
    assert err == f"error: n_max must be at least 2, got {n_max}\n"


def test_basis_table_parallel_matches_serial(capsys):
    rc1, out1, _ = run(capsys, "basis-table", "--family", "e", "--n-max", "5")
    rc2, out2, _ = run(capsys, "basis-table", "--family", "e", "--n-max", "5",
                       "--jobs", "2")
    assert rc1 == rc2 == 0 and out1 == out2


# -- inputs too deep or too large ------------------------------------------------------

def test_too_deep_input_exits_3_without_traceback(capsys):
    rc, out, err = run(capsys, "straighten", "--k", "1", "--n", "2",
                       "--mu", "[3000]")
    assert rc == 3 and out == ""
    assert err == "error: input too deep or too large to compute " \
        "(RecursionError)\n"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "straighten_schur", exhausted)
    rc, out, err = run(capsys, "straighten", "--k", "2", "--n", "4",
                       "--mu", "[2,1]")
    assert rc == 3 and out == ""
    assert err == "error: input too deep or too large to compute " \
        "(MemoryError)\n"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork"
                    or worker_count(2, 2) < 2,
                    reason="needs two forked workers, which see the patch")
def test_dead_worker_exits_3(capsys, monkeypatch):
    """A worker that exits abruptly, as one the kernel kills for memory,
    fails the scan with exit code 3, not 1, and no traceback."""
    monkeypatch.setattr(quotient, "_packed_product", lambda *a: os._exit(1))
    rc, out, err = run(capsys, "positivity", "--k", "2", "--n", "4",
                       "--jobs", "2")
    assert rc == 3 and out == ""
    assert err == "error: input too deep or too large to compute " \
        "(MemoryError)\n"


def test_cli_import_leaves_out_the_process_pool():
    """concurrent.futures is imported only when a scan starts workers."""
    code = "import sys, schurbox.cli; print('concurrent' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=60).stdout
    assert got == "False\n"


# -- determinism ---------------------------------------------------------------------

def test_output_is_deterministic(capsys):
    first = run(capsys, "multiply", "--k", "3", "--n", "6",
                "--lambda", "[3,2,1]", "--mu", "[2,2]")
    second = run(capsys, "multiply", "--k", "3", "--n", "6",
                 "--lambda", "[3,2,1]", "--mu", "[2,2]")
    assert first == second
