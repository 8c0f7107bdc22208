"""Output checks, run after the timed loop on the saved reports.

Every job must exit 0.  Then, by the job's check kind:

- boundary: the report's sha256 equals the golden hash recorded in
  golden.json; on Z^d the accepted set equals the union of
  `l1_restrictions` over the trailing window, and on F_n a stabilized set
  equals `free_end_restrictions` (both from tests/oracles.py, unmodified).
- hash: the sha256 equals the golden hash (exact reports: Cayley tau,
  parabolic orbit functionals, Hahn-Banach fixtures, gallery witnesses).
- finite_metric / finite_mcshane / heis_metric: seeded inputs, so the report
  is recomputed exactly from the argv or its counts are checked.
- tracial / almost_fixed: float reports; their stated properties are checked,
  not their bytes, so a later accuracy fix does not read as a failure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from oracles import free_end_restrictions, l1_restrictions

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


@lru_cache(maxsize=None)
def _l1(d: int, r: int, R: int) -> frozenset:
    return frozenset(l1_restrictions(d, r, R))


def _check_boundary(argv, report) -> str | None:
    res = report["result"]["restrictions"]
    got = [tuple(f["values"]) for f in res["functionals"]]
    if not report["result"]["unboundedness"]["passed"]:
        return "unboundedness audit failed"
    group = _opt(argv, "--group")
    r, rmax, window = (int(_opt(argv, f)) for f in ("--r", "--rmax", "--window"))
    if group == "zd":
        d = int(_opt(argv, "--dim"))
        want = frozenset().union(*(_l1(d, r, R) for R in range(max(r, rmax - window), rmax + 1)))
        if set(got) != want:
            return "accepted set differs from l1_restrictions"
    elif group == "free" and res["certificate"]["kind"] == "stabilized":
        if sorted(got) != free_end_restrictions(int(_opt(argv, "--rank")), r):
            return "stabilized set differs from free_end_restrictions"
    return None


def _check_finite_metric(argv, report) -> str | None:
    n = len(json.loads(_opt(argv, "--space"))["params"]["matrix"])
    res = report["result"]
    want = {"passed": True, "points": n, "pairs": n * (n - 1) // 2, "triples": n**3, "failure": None}
    return None if res == want else f"metric report {res} != {want}"


def _check_finite_mcshane(argv, report) -> str | None:
    matrix = [[Fraction(v) for v in row]
              for row in json.loads(_opt(argv, "--space"))["params"]["matrix"]]
    domain = json.loads(_opt(argv, "--domain"))
    values = [Fraction(v) for v in json.loads(_opt(argv, "--values"))]
    sup = _opt(argv, "--mode") == "sup"
    rows = report["result"]["values"]
    if len(rows) != len(matrix):
        return "wrong number of evaluated points"
    for b, row in enumerate(rows):
        if sup:
            want = max(v - matrix[a][b] for a, v in zip(domain, values))
        else:
            want = min(v + matrix[a][b] for a, v in zip(domain, values))
        if row["point"] != str(b) or Fraction(row["value"]) != want:
            return f"extension value at {b} is {row['value']}, expected {want}"
    return None


def _check_heis_metric(argv, report) -> str | None:
    res = report["result"]
    ok = (res["passed"] and res["failure"] is None and res["points"] == 48
          and res["pairs"] == 48 * 47 // 2 and res["triples"] == int(_opt(argv, "--triples")))
    return None if ok else f"heisenberg metric report {res}"


def _check_tracial(argv, report) -> str | None:
    pairs = report["result"]["pairs"]
    if len(pairs) != int(_opt(argv, "--count")):
        return "wrong number of pairs"
    for p in pairs:
        if not (p["passed"] and p["closed_form_gap"] == 0
                and p["estimate_gap"] <= p["proof_bound"] + 1e-9
                and abs(abs(p["estimate_fg"] - p["estimate_gf"]) - p["estimate_gap"]) <= 1e-12):
            return f"tracial pair fails its bound: {p}"
    return None


def _check_almost_fixed(argv, report) -> str | None:
    res = report["result"]
    ok = (res["audit_passed"] and res["equality_mode"] and res["audit_worst"] <= 1e-9
          and res["audit_checked"] == int(_opt(argv, "--grid"))
          and res["displacement_bound"] <= 2.0**-30)
    return None if ok else f"almost-fixed audit {res}"


PROPERTY_CHECKS = {
    "boundary": _check_boundary,
    "finite_metric": _check_finite_metric,
    "finite_mcshane": _check_finite_mcshane,
    "heis_metric": _check_heis_metric,
    "tracial": _check_tracial,
    "almost_fixed": _check_almost_fixed,
}
HASHED = {"boundary", "hash"}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def check_job(job, code, path: Path, golden: dict) -> str | None:
    """None if the job's report is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    data = path.read_bytes()
    if job.check in HASHED:
        want = golden.get(job.key)
        if want is None:
            return "no golden hash recorded for this configuration"
        if hashlib.sha256(data).hexdigest() != want:
            return "report bytes differ from the golden hash"
    prop = PROPERTY_CHECKS.get(job.check)
    return prop(job.argv, json.loads(data)) if prop else None
