"""Record the SHA-256 of every job's JSON output into digests.json.

    python3 perfbench/record_digests.py

Jobs whose output does not depend on the seed are stored under ``any``
and checked on every seed; seeded jobs are stored for the default seed 0
and the held-out seed HELD_OUT.  Run this only when an output is meant
to change, and say why in the change that commits the new file.
"""

from __future__ import annotations

import json

from run import HERE, spawn
from workloads import WORKLOADS

SEEDS = (0, 7919)  # the default seed and a held-out one


def main() -> None:
    digests = {}
    for workload in WORKLOADS:
        entry = digests[workload] = {"any": {}}
        for seed in SEEDS:
            for job in spawn(workload, seed, "plain")["jobs"]:
                if job["error"] is not None:
                    raise SystemExit(f"{workload} seed {seed}: {job['name']}: {job['error']}")
                if job["seeded"]:
                    entry.setdefault(str(seed), {})[job["name"]] = job["digest"]
                elif entry["any"].setdefault(job["name"], job["digest"]) != job["digest"]:
                    raise SystemExit(f"{workload}: unseeded job {job['name']} depends on the seed")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
