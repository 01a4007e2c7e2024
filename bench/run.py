"""The plaid benchmark: seeded verification workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload is a closed loop: one process, one client, one job at a time.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures an untraced half, replays the same jobs with
every public ``plaid`` function wrapped (see tracer.py), and reports the
per-layer metrics and the tracing overhead.  Every verdict is checked; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload, untraced and traced, each in a fresh process, and prints a table.

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

START = perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# The same names as workloads.WORKLOADS, known here before plaid is imported.
WORKLOADS = ("sweep-dense", "sweep-pet", "pairs-align", "chain-probe")
DEFAULT_SEED = 1
SETUP_PROBES = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    n = len(sorted_values)
    pos = (n - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: list[float], cap: float = 100.0) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile up
    to `cap` with at least ten samples strictly above its value; the median
    when no percentile has ten."""
    s = sorted(values)
    best = (50.0, percentile(s, 50.0))
    for p in TAIL_LADDER:
        if p > cap:
            break
        v = percentile(s, p)
        if sum(1 for x in s if x > v) >= 10:
            best = (p, v)
    return best[0], best[1], sum(1 for x in s if x > best[1])


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def execute(job, span) -> tuple[str, bool]:
    """Run one job; a job that raises is a failed job, not a failed run."""
    try:
        verdict = job.run(span)
        ok = bool(job.gate(verdict))
    except Exception as exc:  # the loop must go on; the error is the verdict
        verdict = {"error": f"{type(exc).__name__}: {exc}"}
        ok = False
    return json.dumps(verdict, sort_keys=True, default=str), ok


def run_jobs(jobs, n: int, span):
    """Run the first n jobs of the repeated pass, one at a time.

    Returns (records, wall seconds); a record is (job index, latency s,
    verdict, ok)."""
    records = []
    t0 = perf_counter()
    for i in range(n):
        t = perf_counter()
        with span("bench.job"):
            verdict, ok = execute(jobs[i % len(jobs)], span)
        records.append((i % len(jobs), perf_counter() - t, verdict, ok))
    return records, perf_counter() - t0


def run_passes(jobs, seconds: float, span):
    """Whole passes only, as many as bring the total nearest to `seconds`
    (at least one), so every run measures the same mix of jobs.

    Returns (records, wall seconds, passes)."""
    records, wall = run_jobs(jobs, len(jobs), span)
    passes = max(1, round(seconds / wall))
    if passes > 1:
        more, more_wall = run_jobs(jobs, (passes - 1) * len(jobs), span)
        records += more
        wall += more_wall
    return records, wall, passes


def count_failed(records) -> int:
    """Jobs that failed their gate or disagree with the first pass's verdict."""
    first = {}
    for idx, _, verdict, _ in records:
        first.setdefault(idx, verdict)
    return sum(1 for idx, _, verdict, ok in records
               if not ok or verdict != first[idx])


def digest(jobs, records) -> str:
    """Hash of every job's key and first verdict, in pass order."""
    h = hashlib.sha256()
    for job, (_, _, verdict, _) in zip(jobs, records):
        h.update(f"{job.key}\t{verdict}\n".encode())
    return h.hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest pinned for this workload and seed, if there is one."""
    with open(os.path.join(BENCH_DIR, "pinned.json")) as fh:
        pinned = json.load(fh)
    return pinned["digests"].get(workload) if seed == pinned["seed"] else None


# ---------------------------------------------------------------------------
# Stamps and set-up time
# ---------------------------------------------------------------------------

def stamps(seed: int) -> dict:
    import numpy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": commit, "seed": seed}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from starting a fresh process to its first job being ready:
    interpreter start, importing plaid and generating the jobs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return times


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    import workloads
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_own_s = perf_counter() - START
    if args.setup_probe:
        print("ready", flush=True)
        return {}
    no_span = workloads.no_span
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, **stamps(args.seed),
              "jobs_per_pass": len(jobs)}
    notes = []
    if not args.trace:
        records, wall, passes = run_passes(jobs, args.seconds, no_span)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = records
    else:
        from tracer import Tracer
        # The traced replay runs the same whole passes as the untraced half,
        # so per-layer numbers are per pass of a fixed job list.
        records, wall_a, passes = run_passes(jobs, args.seconds / 2, no_span)
        tracer = Tracer()
        tracer.install()
        try:
            traced, wall_b = run_jobs(jobs, len(records), tracer.span)
        finally:
            tracer.uninstall()
        if [r[2] for r in traced] != [r[2] for r in records]:
            notes.append("traced verdicts differ from untraced verdicts")
        timed = records + traced
    failed = count_failed(timed)
    record["digest"] = digest(jobs, records)
    pin = pinned_digest(args.workload, args.seed)
    if pin is not None and record["digest"] != pin:
        notes.append("digest differs from the one pinned for this seed")
    mismatches = workloads.oracle_mismatches(args.workload, args.seed)
    if mismatches:
        notes.append(f"dense tiles disagree with tile_bits_at: {mismatches[:3]}")
    record["oracle_squares"] = workloads.oracle_squares(args.workload)

    lat_ms = [r[1] * 1e3 for r in records]
    record["jobs"] = len(timed)
    record["passes"] = passes
    if not args.trace:
        p, tail_ms, beyond = tail(lat_ms, workloads.TAIL_CAP[args.workload])
        setups = setup_seconds(args.workload, args.seed)
        record.update(tail_percentile=p, tail_samples_beyond=beyond,
                      latency_samples=len(lat_ms), setup_probes_s=setups,
                      setup_own_s=setup_own_s, wall_s=wall,
                      fail_ratio=failed / len(timed))
        metrics = {
            "jobs_per_s": metric(len(records) / wall, "1/s"),
            "job_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "job_tail_ms": metric(tail_ms, "ms"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(wall_b, passes)
        metrics["trace.untraced_wall_s"] = metric(wall_a / passes, "s")
        metrics["trace.overhead_share"] = metric(wall_b / wall_a - 1, "ratio")
        record["spans_file"] = write_spans(tracer, args)
        record["fail_ratio"] = failed / len(timed)
    record["notes"] = notes
    return {"record": record,
            "result": {"correct": failed == 0 and not notes,
                       "attempted": len(timed), "failed": failed,
                       "metrics": metrics}}


def write_spans(tracer, args) -> str:
    """Spans are kept in memory during the run and written out here."""
    import numpy as np
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    np.savez_compressed(
        path, names=np.array(tracer.names),
        name=np.frombuffer(tracer.sp_name, dtype=np.int32),
        parent=np.frombuffer(tracer.sp_parent, dtype=np.int32),
        start=np.frombuffer(tracer.sp_start, dtype=np.float64),
        end=np.frombuffer(tracer.sp_end, dtype=np.float64))
    return os.path.relpath(path, ROOT)


def print_result(workload: str, out: dict):
    for name, m in out["result"]["metrics"].items():
        print(f"{workload:12s} {name:38s} {m['value']:>14.6g} {m['unit']}")
    rec = out["record"]
    if "tail_percentile" in rec:
        print(f"{workload:12s} {'job_tail_ms is':38s} p{rec['tail_percentile']:g}"
              f" with {rec['tail_samples_beyond']} of {rec['latency_samples']}"
              " samples beyond")
    print(f"{workload:12s} {'fail_ratio':38s} {rec['fail_ratio']:>14.6g} ratio")
    print(json.dumps({"record": rec}, default=str))


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args) -> dict:
    """Each workload, untraced then traced, in its own fresh process; ends
    with a table of the end-to-end metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{workload} (trace {trace}) exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
            if not trace:
                rec = json.loads(lines[-2])["record"]
                table += [(workload, n, m["value"], m["unit"])
                          for n, m in res["metrics"].items()]
                table.append((workload, "fail_ratio", rec["fail_ratio"], "ratio"))
                table.append((workload, f"  job_tail_ms = p{rec['tail_percentile']:g}",
                              rec["tail_samples_beyond"], "samples beyond"))
    print()
    for workload, name, value, unit in table:
        print(f"{workload:12s} {name:24s} {value:>14.6g} {unit}")
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plaid", "__init__.py")):
        print(f"error: no plaid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        out = run_workload(args)
        if args.setup_probe:
            return 0
        print_result(args.workload, out)
        result = out["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
