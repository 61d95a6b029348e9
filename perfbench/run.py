"""clusterlab benchmark: the command that measures one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop with one client:
each repetition is a fresh interpreter (child.py), started only after the
previous one has ended.  Repetitions continue while another one still
fits in ``--seconds``, with at least MIN_REPS of them.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``setup_s`` (spawn to ready, median of every repetition
plus extra set-up-only processes), ``wall_s`` (jobs run and encoded to
JSON, output checks excluded) and ``peak_rss_mib`` (the child's maximum
RSS).  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of layers.py.

Every job's output is checked (workloads.py), compared with the committed
digests (digests.json) and required to be identical in every repetition,
traced or not.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one child to completion and return its result with ``setup_s``."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    return out


def repeat(workload: str, seed: int, seconds: float, modes: tuple[str, ...],
           min_cycles: int) -> dict[str, list[dict]]:
    """Cycles of one child per mode, while another cycle fits in ``seconds``."""
    reps: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            reps[mode].append(spawn(workload, seed, mode))
        now = time.monotonic()
        if len(reps[modes[0]]) >= min_cycles and now - start + (now - cycle_start) > seconds:
            return reps


def check_outputs(workload: str, seed: int, runs: list[dict], problems: list[str]) -> tuple[int, int]:
    """Count attempted and failed jobs over all repetitions.

    A job fails when it raised, when its own check failed, when its digest
    differs from the committed one, or when it differs from the first
    repetition's output.
    """
    committed = json.loads((HERE / "digests.json").read_text())[workload]
    first = {job["name"]: job["digest"] for job in runs[0]["jobs"]}
    attempted = failed = 0
    for run in runs:
        for job in run["jobs"]:
            attempted += 1
            name, digest = job["name"], job["digest"]
            want = committed.get(str(seed), {}) if job.get("seeded") else committed["any"]
            reason = job["error"]
            if reason is None and name in want and digest != want[name]:
                reason = "output differs from the committed digest"
            elif reason is None and not job.get("seeded") and name not in want:
                reason = "no committed digest for this job"
            elif reason is None and digest != first[name]:
                reason = "output differs between repetitions"
            if reason is not None:
                failed += 1
                problems.append(f"{name}: {reason}")
    return attempted, failed


def trace_metrics(traced: list[dict], plain: list[dict], problems: list[str]) -> dict[str, float]:
    """Per-layer metrics: exact counts must repeat, times are medians."""
    for run in traced:
        problems.extend(f"still bound to an untraced function: {where}" for where in run["unpatched"])
    problems.extend(f"{span} recorded no call"
                    for span, calls in traced[0]["span_calls"].items() if calls == 0)
    out = {}
    for name, _, _ in layers.PER_LAYER:
        if name == "trace.overhead_ratio":
            out[name] = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain))
        elif name.endswith("_s"):
            out[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            values = {r["layers"][name] for r in traced}
            if len(values) != 1:
                problems.append(f"{name} differs between traced repetitions: {sorted(values)}")
            out[name] = traced[0]["layers"][name]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "clusterlab" / "__init__.py").is_file():
        print(f"no clusterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    spawn(args.workload, args.seed, "setup")  # warm-up (page cache, bytecode), discarded
    problems: list[str] = []
    if args.trace:
        reps = repeat(args.workload, args.seed, args.seconds, ("plain", "traced"), 1)
        runs = reps["plain"] + reps["traced"]
        attempted, failed = check_outputs(args.workload, args.seed, runs, problems)
        metrics = trace_metrics(reps["traced"], reps["plain"], problems)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        print(f"{args.workload}: wall_s per repetition untraced"
              f" {[round(run['wall_s'], 3) for run in reps['plain']]},"
              f" traced {[round(run['wall_s'], 3) for run in reps['traced']]}")
    else:
        runs = repeat(args.workload, args.seed, args.seconds, ("plain",), MIN_REPS)["plain"]
        attempted, failed = check_outputs(args.workload, args.seed, runs, problems)
        setups = [run["setup_s"] for run in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "setup")["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(run["wall_s"] for run in runs),
            "peak_rss_mib": statistics.median(run["rss_mib"] for run in runs),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
        print(f"{args.workload}: {len(runs)} repetitions, {len(setups)} set-up samples;"
              f" wall_s per repetition {[round(run['wall_s'], 3) for run in runs]}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio = {failed / attempted} ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
