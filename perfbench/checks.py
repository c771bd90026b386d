"""The output gate: every command the benchmark runs has its output checked.

* Scans must report ``ok`` with exactly C(N+1,2) pairs or C(N+2,3) triples,
  N = C(n,k); the family table must have one cell per 1 <= k < n <= n_max.
* Stdout must match the SHA-256 digest recorded in ``digests.json`` for the
  same argv, where there is one (captured at the commit that introduced the
  benchmark, for the default seed).
* Every straighten and normal form, for every seed, is checked against
  invariants that need no reference output:
    - each coefficient of s[nu] in the straightening of s[mu] is homogeneous
      of degree |mu| - |nu| with deg a_i = n-k+i, and nu fits in the box;
    - for k = 1, s[m] = a1^(m // n) * s[m % n] exactly;
    - a normal form has every x_i exponent below n-k+i and is homogeneous of
      the input's degree.

The outputs are parsed here, independently of the package under test.
"""

import hashlib
import json
import re
from math import comb

_INT = re.compile(r"\d+")
_SYM = re.compile(r"([ax])(\d+)(?:\^(\d+))?")
_SCHUR = re.compile(r"s\[((?:\d+(?:,\d+)*)?)\]")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def argv_key(argv):
    return " ".join(argv)


# -- parsing rendered sums ----------------------------------------------------

def _split_top(text, seps):
    """Split at separators outside parentheses, keeping the separators."""
    pieces, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in seps:
                if text.startswith(sep, i):
                    pieces.append(text[start:i])
                    start = i
                    i += len(sep) - 1
                    break
        i += 1
    pieces.append(text[start:])
    return pieces


def _add(poly, mono, c):
    s = poly.get(mono, 0) + c
    if s:
        poly[mono] = s
    else:
        poly.pop(mono, None)


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = dict(m1)
            for i, e in m2:
                m[i] = m.get(i, 0) + e
            _add(out, tuple(sorted(m.items())), c1 * c2)
    return out


def parse_sum(text):
    """Parse a rendered element or x-polynomial into {key: coefficient}.

    A key is ``("s", partition)``, ``("x", {i: exponent})`` as a sorted item
    tuple, or ``("x", ())`` for a term with no basis factor.  A coefficient
    is a polynomial in the a_i: {sorted ((i, exponent), ...): int}.
    Raises ValueError on text it cannot read."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in _split_top(text, (" + ", " - ")):
        sign = 1
        if term.startswith(" - "):
            sign, term = -1, term[3:]
        elif term.startswith(" + "):
            term = term[3:]
        elif term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = {(): sign}
        key, xs = None, {}
        for factor in _split_top(term, ("*",)):
            factor = factor.lstrip("*")
            if factor.startswith("(") and factor.endswith(")"):
                inner = parse_sum(factor[1:-1])
                if any(k != ("x", ()) for k in inner):
                    raise ValueError(f"basis factor inside parentheses: "
                                     f"{factor!r}")
                coeff = _mul(coeff, inner.get(("x", ()), {}))
            elif _INT.fullmatch(factor):
                coeff = {m: c * int(factor) for m, c in coeff.items()}
            elif (m := _SCHUR.fullmatch(factor)):
                key = ("s", tuple(int(p) for p in m.group(1).split(",")
                                  if p))
            elif (m := _SYM.fullmatch(factor)):
                var, idx = m.group(1), int(m.group(2))
                power = int(m.group(3) or 1)
                if var == "a":
                    coeff = _mul(coeff, {((idx, power),): 1})
                else:
                    xs[idx] = xs.get(idx, 0) + power
            else:
                raise ValueError(f"cannot read factor {factor!r}")
        if key is None:
            key = ("x", tuple(sorted(xs.items())))
        elif xs:
            raise ValueError(f"mixed s and x factors in {term!r}")
        target = out.setdefault(key, {})
        for mono, c in coeff.items():
            _add(target, mono, c)
        if not target:
            del out[key]
    return out


def _element_terms(stdout, fmt):
    """Terms of a straighten output in either format."""
    if fmt == "json":
        payload = json.loads(stdout)
        terms = {}
        for t in payload["terms"]:
            coeff = parse_sum(t["coeff"]).get(("x", ()), {})
            terms[("s", tuple(t["partition"]))] = coeff
        return terms
    return parse_sum(stdout)


def _weighted_degrees(coeff, k, n):
    return {sum(e * (n - k + i) for i, e in mono) for mono in coeff}


# -- per-command checks -------------------------------------------------------

def _opt(argv, name):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return None


def _check_scan(argv, stdout, fmt):
    k, n = int(_opt(argv, "--k")), int(_opt(argv, "--n"))
    size = comb(n, k)
    if argv[0] == "positivity":
        noun, expected, bad_key = "pairs", comb(size + 1, 2), "violations"
    else:
        noun, expected, bad_key = "triples", comb(size + 2, 3), \
            "counterexamples"
    if fmt == "json":
        report = json.loads(stdout)
        count, ok = report[noun], report["ok"] is True and not report[bad_key]
    else:
        m = re.fullmatch(rf"k={k} n={n}: checked (\d+) {noun}, 0 {bad_key}\n",
                         stdout)
        count, ok = (int(m.group(1)), True) if m else (None, False)
    problems = []
    if not ok:
        problems.append(f"scan not ok: {stdout[:200]!r}")
    if count != expected:
        problems.append(f"checked {count} {noun}, expected {expected}")
    return problems


def _check_table(argv, stdout, fmt):
    n_max = int(_opt(argv, "--n-max"))
    expected = {(k, n) for n in range(2, n_max + 1) for k in range(1, n)}
    if fmt == "json":
        cells = {(c["k"], c["n"]): c["verdict"]
                 for c in json.loads(stdout)["cells"]}
    else:
        cells = {}
        for line in stdout.splitlines()[1:]:
            n, *verdicts = line.split()
            cells.update({(k, int(n)): v
                          for k, v in enumerate(verdicts, start=1)})
    problems = []
    if set(cells) != expected:
        problems.append(f"table has {len(cells)} cells, expected "
                        f"{len(expected)}")
    verdicts = {re.sub(r"\(\d+\)$", "", v) for v in cells.values()}
    if not verdicts <= {"yes", "no", "st", "a-dep"}:
        problems.append(f"unknown verdicts {sorted(verdicts)}")
    return problems


def _check_straighten(argv, stdout, fmt):
    k, n = int(_opt(argv, "--k")), int(_opt(argv, "--n"))
    mu = tuple(int(p) for p in _opt(argv, "--mu")[1:-1].split(",") if p)
    terms = _element_terms(stdout, fmt)
    problems = []
    for (_, nu), coeff in terms.items():
        if len(nu) > k or (nu and nu[0] > n - k):
            problems.append(f"s{list(nu)} is outside the {k} x {n - k} box")
        degrees = _weighted_degrees(coeff, k, n)
        if degrees != {sum(mu) - sum(nu)}:
            problems.append(f"coefficient of s{list(nu)} has degrees "
                            f"{sorted(degrees)}, expected {sum(mu) - sum(nu)}")
    if k == 1:
        m = mu[0] if mu else 0
        rest = (m % n,) if m % n else ()
        expected = {("s", rest): {((1, m // n),) if m // n else (): 1}}
        if terms != expected:
            problems.append(f"k=1 closed form a1^{m // n}*s[{m % n}] "
                            f"violated")
    return problems


def _check_nf(argv, stdout, fmt):
    k, n = int(_opt(argv, "--k")), int(_opt(argv, "--n"))
    poly_in = parse_sum(_opt(argv, "--poly"))
    degree_in = {sum(e for _, e in key[1]) + d
                 for key, coeff in poly_in.items()
                 for d in _weighted_degrees(coeff, k, n)}
    text = json.loads(stdout)["poly"] if fmt == "json" else stdout
    problems = []
    for (_, xs), coeff in parse_sum(text).items():
        for i, e in xs:
            if e >= n - k + i:
                problems.append(f"x{i}^{e} is not reduced (bound {n - k + i})")
        degrees = {sum(e for _, e in xs) + d
                   for d in _weighted_degrees(coeff, k, n)}
        if degrees != degree_in:
            problems.append(f"term degrees {sorted(degrees)}, expected "
                            f"{sorted(degree_in)}")
    return problems


_CHECKS = {
    "positivity": _check_scan,
    "s3": _check_scan,
    "basis-table": _check_table,
    "straighten": _check_straighten,
    "nf": _check_nf,
}


def check_output(argv, stdout, digests):
    """Problems with the stdout (bytes) of a command that exited 0; an empty
    list means the output passed every check."""
    problems = []
    expected = digests.get(argv_key(argv))
    if expected is not None and digest(stdout) != expected:
        problems.append("stdout does not match the reference digest")
    fmt = _opt(argv, "--format") or "text"
    try:
        problems += _CHECKS[argv[0]](argv, stdout.decode(), fmt)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable output ({type(exc).__name__}: {exc})")
    return problems
