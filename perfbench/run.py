"""edgestat benchmark driver.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 60 --trace 0

Workloads and metrics are listed, with the reason for each workload, in
BENCHMARK.json.  ``reproduce-w2`` (the same as ``reproduce`` with
``--workers 2``) also runs here, but is left out of BENCHMARK.json: at about
24 s a process, too few of its processes fit in one run to give a steady
median on a shared 2-vCPU host.  Load is a single closed loop: one fresh
interpreter (perfbench/child.py) at a time, each started after the last has
exited, and repeated while another process still fits in ``--seconds`` of
measuring.  Set-up time is taken from extra processes that stop once set-up is
done, plus the measured ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced process and reports the per-layer metrics, the tracing
overhead (traced minus untraced wall time) and how many exact counters drifted
from perfbench/baseline_counts.json.  Output is a readable summary followed by
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
BASELINE_COUNTS = os.path.join(HERE, "baseline_counts.json")
WORKLOADS = ("reproduce", "reproduce-w2", "slice")

SETUP_PROBES = 11
DEADLINE_S = 170  # every run must end within 180 s, whatever the program does


def spawn(root: str, workload: str, seed: int, mode: str, workdir: str, timeout: float) -> dict:
    """Run one child to completion; return its result or {"error": ...}."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, CHILD, workload, str(seed), mode, str(t0), workdir],
        cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        except ProcessLookupError:
            pass
        proc.communicate()
        return {"error": f"{mode} process timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} process exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def stamp(root: str) -> dict:
    src_files = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    nonblank = 0
    for path in src_files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
        nonblank += sum(1 for line in data.splitlines() if line.strip())
    versions = {}
    for dist in ("numpy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest()[:16],
        "src_nonblank_lines": nonblank,
    }


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def counter_drift(workload: str, traced: list[dict], spec: dict) -> list[str]:
    """Exact counters of the traced runs that differ from the recorded baseline."""
    with open(BASELINE_COUNTS, encoding="utf-8") as fh:
        baseline = json.load(fh).get(workload, {})
    drift = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] != "count" or name not in baseline:
            continue
        seen = sorted({t["layers"][name] for t in traced})
        if seen != [baseline[name]]:
            drift.append(f"{name}: baseline {baseline[name]}, measured {seen}")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "edgestat", "__init__.py")):
        print("perfbench: no edgestat source at ./src/edgestat; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)

    def remaining() -> float:
        return start + DEADLINE_S - time.monotonic()

    problems: list[str] = []
    attempted = failed = 0

    def launch(mode: str) -> dict | None:
        nonlocal attempted, failed
        result = spawn(root, args.workload, args.seed, mode, workdir, remaining())
        if "error" in result:
            attempted += 1
            failed += 1
            problems.append(result["error"])
            return None
        if mode != "setup":
            attempted += result["attempted"]
            failed += result["failed"]
            problems.extend(result["problems"])
        return result

    probes = [launch("setup") for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if args.trace else ("run",)
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    measure_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for mode in modes:
            result = launch(mode)
            if result is not None:
                runs[mode].append(result)
        # Stop before a further round would overrun --seconds, so that a run
        # of long processes ends near its time budget rather than a round late.
        took = time.monotonic() - round_start
        if time.monotonic() - measure_start + took > args.seconds or remaining() < 1.5 * took + 5:
            break

    if not all(runs[mode] for mode in modes):
        print("perfbench: no run completed; " + "; ".join(problems[:5]), file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in probes + runs["run"] + runs.get("trace", []) if r]
    untraced = runs["run"]
    info = stamp(root)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                processes={mode: len(rs) for mode, rs in runs.items()}, setup_samples=len(setups))
    digests = sorted({r["digest"] for rs in runs.values() for r in rs if "digest" in r})
    if digests:
        info["digest"] = digests[0] if len(digests) == 1 else digests
        if len(digests) > 1:
            problems.append("runs on one seed gave different exact results")
            failed += 1
            attempted += 1

    if args.trace:
        traced = runs["trace"]
        values = {
            name: statistics.median(t["layers"][name] for t in traced)
            for name in (m["name"] for m in spec["per_layer"])
            if name in traced[0]["layers"]
        }
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in untraced)
        drift = counter_drift(args.workload, traced, spec)
        for line in drift:
            print(f"perfbench: COUNTER DRIFT on {args.workload}: {line}", file=sys.stderr)
        values["counters.drift"] = len(drift)
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
            "ok_ratio": (attempted - failed) / attempted,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("perfbench " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
