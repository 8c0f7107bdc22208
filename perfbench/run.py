#!/usr/bin/env python3
"""Benchmark driver for the horokit CLI.

    python3 perfbench/run.py --workload sphere-heavy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One process runs one workload as a
closed loop: one client, one thread, one job at a time.  Each job calls
`horokit.cli.main(argv + ["--out", path])` in-process, so argument parsing,
the computation, JSON serialization and the file write are all timed.
Reports are checked after the loop (checks.py).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a separately traced pass with `--trace 1` (layertrace.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, job_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# Stop starting jobs after this much loop time, so that even a much slower
# program ends the run within three minutes; the run then counts as incorrect.
DEADLINE_S = 120.0
# The median time of calibrate() on the reference machine (2 vCPU Intel Xeon,
# Python 3.11.7).  Host contention on a shared machine changes its speed by
# up to a quarter within a minute; every timed interval is scaled by the
# speed of calibrate() measured around it, so the end-to-end times are in
# reference-machine seconds.  The raw times are kept in the result file.
CAL_REF_S = 0.006


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return time.perf_counter() - t0


def scaled(times, cals, half_window: int = 5) -> list[float]:
    """Raw intervals in reference seconds.  cals[i] and cals[i + 1] bracket
    times[i]; the speed for an interval is the median of the calibrations
    within `half_window` places of it, as one calibration alone is noisy."""
    return [t * CAL_REF_S / statistics.median(cals[max(0, i + 1 - half_window): i + 1 + half_window])
            for i, t in enumerate(times)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times: interpreter start, `import horokit.cli` and
    job-list generation, up to the moment the first job could start.
    Returns the times and the calibrations around them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        cals.append(calibrate())
    return times, cals


def run_one(cli, job, path: Path) -> tuple[float, object]:
    """One job: its time and its exit code (or what it raised).  The cyclic
    collector is emptied first, untimed, so that each job starts from the
    collector state of a fresh process whatever ran before it."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        code = cli.main([*job.argv, "--out", str(path)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        traceback.print_exc()
        code = f"raised {type(exc).__name__}"
    return time.perf_counter() - t0, code


def run_jobs(cli, jobs, run_dir: Path):
    """The timed closed loop.  Returns per-job times, exit codes, and the
    calibrations taken before each job and after the last."""
    times, codes, cals = [], [], [calibrate()]
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if time.perf_counter() - start > DEADLINE_S:
            break
        t, code = run_one(cli, job, run_dir / f"{i}.json")
        times.append(t)
        codes.append(code)
        cals.append(calibrate())
    return times, codes, cals


def check_all(runs) -> list[str]:
    """Check (job, exit code, report path) triples; returns the failures."""
    from checks import check_job, load_golden

    golden = load_golden()
    failures = []
    for job, code, path in runs:
        try:
            why = check_job(job, code, path, golden)
        except Exception as exc:
            why = f"check raised {exc!r}"
        if why:
            failures.append(f"{path.name} [{label(job)}]: {why}")
    return failures


def label(job) -> str:
    return " ".join(a if len(a) <= 24 else a[:20] + "..." for a in job.argv)


def tail_percentile(times) -> tuple[int, float]:
    """The highest whole percentile (nearest rank) with at least ten jobs beyond it."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, cli, jobs, run_dir):
    setup_raw, setup_cals = measure_setup(args)
    raw, codes, cals = run_jobs(cli, jobs, run_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = check_all((j, c, run_dir / f"{i}.json") for i, (j, c) in enumerate(zip(jobs, codes)))
    setup, times = scaled(setup_raw, setup_cals), scaled(raw, cals)
    p, tail = tail_percentile(times)
    n = len(times)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(sum(times), "s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    speed = CAL_REF_S / statistics.median(cals)
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups (raw {statistics.median(setup_raw):.4g} s)",
        "wall_s": f"sum over the job loop, {n} jobs (raw {sum(raw):.4g} s, machine speed {speed:.3f})",
        "job_p50_s": f"n={n} jobs (raw {statistics.median(raw):.4g} s)",
        "job_tail_s": f"p{p}, n={n} jobs",
        "peak_rss_mb": "ru_maxrss at loop end",
    }
    detail = {"setup_raw_s": setup_raw, "setup_calibration_s": setup_cals, "tail_percentile": p,
              "calibration_s": cals,
              "jobs": [{"job": label(j), "s": t, "raw_s": r, "code": c}
                       for j, t, r, c in zip(jobs, times, raw, codes)]}
    return metrics, notes, (n, len(jobs)), failures, detail


def per_layer(args, cli, jobs, run_dir, cycles):
    """The first half of the cycles, each job run untraced and traced in
    alternating order, so that warm-up falls on neither side."""
    from layertrace import Tracer

    jobs = jobs[: len(jobs) // cycles * math.ceil(cycles / 2)]
    tracer = Tracer()
    runs = {False: [], True: []}  # traced? -> [(job, time, code, path)]
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if time.perf_counter() - start > DEADLINE_S:
            break
        tracer.job = i
        for traced in (False, True) if i % 2 == 0 else (True, False):
            path = run_dir / f"{i}-{'traced' if traced else 'plain'}.json"
            if traced:
                tracer.install()
            try:
                t, code = run_one(cli, job, path)
            finally:
                tracer.uninstall()
            runs[traced].append((job, t, code, path))
    failures = check_all((j, c, p) for j, _, c, p in runs[False] + runs[True])
    self_s, per_job = tracer.self_times()
    job_s = sum(t for _, t, _, _ in runs[True])
    metrics = tracer.layer_metrics(self_s, job_s)
    metrics["trace.overhead_ratio"] = metric(job_s / sum(t for _, t, _, _ in runs[False]) - 1, "1")
    metrics["trace.job_s"] = metric(job_s, "s")
    metrics["trace.self_coverage"] = metric(sum(self_s.values()) / job_s, "1")
    OUT.mkdir(exist_ok=True)
    stem = f"trace-{args.workload}-{args.seed}"
    tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")
    families: dict[str, dict] = {}
    for i, (job, t, _, _) in enumerate(runs[True]):
        fam = families.setdefault(job.kind, {"jobs": 0, "job_s": 0.0, "self_s": defaultdict(float)})
        fam["jobs"] += 1
        fam["job_s"] += t
        for name, s in per_job[i].items():
            fam["self_s"][name] += s
    print("traced self-time shares by job family:")
    for kind, fam in sorted(families.items()):
        top = sorted(fam["self_s"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {s / fam['job_s']:.1%}" for name, s in top)
        print(f"  {kind:34s} {fam['jobs']:3d} jobs {fam['job_s']:8.3f} s  {shares}")
    detail = {"self_s": self_s, "families": families,
              "jobs": [{"job": label(j), "s": t, "self_s": dict(per_job[i])}
                       for i, (j, t, _, _) in enumerate(runs[True])]}
    notes = {f"{name}.self_share": f"{s:.4g} s self time" for name, s in self_s.items()}
    attempted = len(runs[False]) + len(runs[True])
    return metrics, notes, (attempted, 2 * len(jobs)), failures, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "horokit" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.stderr.write(f"perfbench: no horokit source tree at {ROOT}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.setup_probe:
        import horokit.cli  # noqa: F401

        job_list(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    import horokit.cli as cli

    jobs, cycles = job_list(args.workload, args.seed, args.seconds)
    run_dir = OUT / f"reports-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, notes, (attempted, planned), failures, detail = per_layer(
                args, cli, jobs, run_dir, cycles)
        else:
            metrics, notes, (attempted, planned), failures, detail = end_to_end(args, cli, jobs, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    complete = attempted == planned
    print(f"workload={args.workload} seed={args.seed} cycles={cycles} jobs={attempted} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}")
    print(f"  {'failed_ratio':40s} {len(failures)}/{attempted} = {len(failures) / max(attempted, 1):.6g}")
    for f in failures:
        print(f"  FAILED {f}")
    if not complete:
        print(f"  INCOMPLETE: only {attempted} of {planned} jobs started within {DEADLINE_S:.0f} s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "failures": failures, **detail}, indent=1))
    print(json.dumps({"correct": not failures and complete, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
