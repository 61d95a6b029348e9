"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (set up, report readiness, stop), ``plain`` (run the
jobs untraced) or ``traced`` (run them under the layer tracer).  The
last line of standard output is one JSON object; ``run.py`` reads it.

Set-up is what a CLI user pays on every invocation: importing
``clusterlab.cli`` and generating the inputs from the seed.  The child
reports the CLOCK_MONOTONIC time at which set-up ended, so the parent can
time it from the moment it spawned the process.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads  # puts the checkout's src first on sys.path
import clusterlab.cli  # the CLI's import cost is part of set-up


def run_jobs(jobs) -> tuple[float, list[dict]]:
    """Run every job, timing run plus JSON encoding; check outputs untimed."""
    wall = 0.0
    results = []
    for job in jobs:
        start = time.perf_counter()
        try:
            payload = job.run()
            text = json.dumps(payload, indent=2, sort_keys=True)
        except Exception as error:  # a failing job is counted, not fatal
            wall += time.perf_counter() - start
            results.append({"name": job.name, "digest": None,
                            "error": f"{type(error).__name__}: {error}"})
            continue
        wall += time.perf_counter() - start
        reason = job.check(payload)
        results.append({"name": job.name, "seeded": job.seeded,
                        "digest": hashlib.sha256(text.encode()).hexdigest(), "error": reason})
    return wall, results


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if not Path(clusterlab.cli.__file__).resolve().is_relative_to(workloads.SRC):
        print(f"clusterlab was imported from {clusterlab.cli.__file__}, not {workloads.SRC}",
              file=sys.stderr)
        return 2
    jobs = workloads.build(workload, seed)
    out = {"ready": time.monotonic()}
    if mode == "plain":
        out["wall_s"], out["jobs"] = run_jobs(jobs)
    elif mode == "traced":
        import layers
        from tracer import Tracer, bindings

        targets, classes = layers.targets()
        with Tracer() as tracer:
            tracer.install(targets, classes)
            out["unpatched"] = bindings([fn for _, fn, _ in targets], classes)
            out["wall_s"], out["jobs"] = run_jobs(jobs)
        out["span_calls"] = {name: tracer.calls[name] for name in tracer.self_s}
        out["layers"] = layers.metrics(tracer)
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
