"""The benchmark's workloads: jobs built from a seed, and the check each
job's output must pass.

Why these three.  Each layer a ROADMAP item will optimise does most of
the work in one workload and little in another:

- ``induction`` is a few huge Laurent products (K=4 then K=5 of the
  winding induction on C(2,2)).  Packed monomials show here.
- ``flips`` is annulus-bound: flips, strip face walks and cover-flip
  checks on small polynomials.  Local flips show here; a faster
  multiply should barely register.
- ``enumerate`` is exchange graphs on seeded Ã quivers, Ã recognition
  and quiver recovery: canonical forms, quiver mutation and many tiny
  polynomials.  Structural recognition and the engine clean-up show
  here, and so does per-call overhead that a big-product kernel adds.

Every workload ends with the small ``crosscheck`` job on C(2,1), which
touches every traced layer once, so each per-layer time is measured on
every workload, never reported as a constant zero.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# the benchmark always runs the sources of the checkout it sits in
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from clusterlab import annulus, engine, quiver, verify  # noqa: E402

WORKLOADS = ("induction", "flips", "enumerate")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]  # returns the job's JSON payload
    check: Callable[[object], Optional[str]]  # None when right, else the reason
    seeded: bool = False  # the output depends on the workload seed


def _report(name: str, **params) -> Callable[[], list]:
    def run():
        return [r.to_json() for r in verify.run_report(name, **params)]

    return run


def _reports_passed(name: str) -> Callable[[object], Optional[str]]:
    def check(payload) -> Optional[str]:
        if not payload or any(r["name"] != name or r["passed"] is not True for r in payload):
            return f"{name} report did not pass"
        return None

    return check


def _crosscheck() -> dict:
    fan = annulus.initial_triangulation(annulus.MarkedAnnulus(2, 1))
    fan_quiver = annulus.quiver_of(fan)
    return {
        "reports": [r.to_json() for r in verify.run_report("unistructurality", p=2, q=1, depth=2)],
        "fan_type": quiver.classify_tilde_A(fan_quiver).to_json(),
        "cover_flip": annulus.verify_cover_flip(fan, 0, 3),
        "graph": engine.exchange_graph(engine.initial_seed(fan_quiver), 1).to_json(),
    }


def _check_crosscheck(payload) -> Optional[str]:
    reason = check_graph(payload["graph"], 3, 1)
    if reason is not None:
        return reason
    if payload["fan_type"] != {"type": "TildeA", "p": 2, "q": 1}:
        return "fan triangulation of C(2,1) is not recognised as TildeA(2,1)"
    if payload["cover_flip"] is not True:
        return "cover flip failed on the fan of C(2,1)"
    return _reports_passed("unistructurality")(payload["reports"])


CROSSCHECK = Job("crosscheck:C(2,1)", _crosscheck, _check_crosscheck)


def walk(rng: random.Random, p: int, q: int, steps: int) -> dict:
    """JSON of the Ã(p, q) quiver after ``steps`` mutations at seeded
    points, never the same point twice in a row (that would undo a step)."""
    current = quiver.tilde_A_canonical(p, q)
    last = None
    for _ in range(steps):
        last = rng.choice([k for k in range(current.n) if k != last])
        current = current.mutate(last)
    return quiver.quiver_to_json(current)


def _graph_job(name: str, data: dict, depth: int) -> Job:
    def run():
        seed = engine.initial_seed(quiver.quiver_from_json(data))
        return engine.exchange_graph(seed, depth).to_json()

    return Job(name, run, lambda payload: check_graph(payload, data["n"], depth), seeded=True)


def check_graph(payload: dict, rank: int, depth: int) -> Optional[str]:
    """Structural checks that hold for an exchange graph from any root.

    The root cluster is the coordinate cluster; clusters have ``rank``
    distinct variables; an edge joins clusters that share all but one
    variable and whose depths differ by at most one; every node inside
    the depth bound has all ``rank`` neighbours.
    """
    nodes = payload["nodes"]
    if payload["depth"] != depth or nodes[payload["root"]]["depth"] != 0:
        return "root or depth bound is wrong"
    root = nodes[payload["root"]]["cluster"]
    units = sorted(tuple(t["e"]) for v in root for t in v["terms"])
    if units != sorted(tuple(int(i == j) for j in range(rank)) for i in range(rank)):
        return "root cluster is not the coordinate cluster"
    clusters = []
    for node in nodes:
        cluster = {repr(v["terms"]) for v in node["cluster"]}
        if len(cluster) != rank or node["quiver"]["n"] != rank or not 0 <= node["depth"] <= depth:
            return "a node has the wrong size or depth"
        clusters.append(cluster)
    degree = Counter()
    for a, k, b in payload["edges"]:
        if not 0 <= k < rank or len(clusters[a] & clusters[b]) != rank - 1:
            return f"edge {a}-{b} does not join adjacent clusters"
        if abs(nodes[a]["depth"] - nodes[b]["depth"]) > 1:
            return f"edge {a}-{b} skips a depth level"
        degree[a] += 1
        degree[b] += 1
    for i, node in enumerate(nodes):
        if node["depth"] < depth and degree[i] != rank:
            return f"node {i} inside the bound has {degree[i]} neighbours, not {rank}"
    return None


def _classify_job(name: str, data: dict, expected: dict, seeded: bool) -> Job:
    def run():
        return quiver.classify_tilde_A(quiver.quiver_from_json(data)).to_json()

    def check(payload) -> Optional[str]:
        return None if payload == expected else f"classified as {payload}, want {expected}"

    return Job(name, run, check, seeded)


# the two non-Ã controls, as arrow lists
E6 = {"n": 6, "arrows": [[0, 1], [1, 2], [2, 3], [3, 4], [2, 5]]}
D6_AFFINE = {"n": 7, "arrows": [[0, 2], [1, 2], [2, 3], [3, 4], [4, 5], [4, 6]]}

FULL = {
    "induction_K": (4, 5),
    "case2_depth": 6,
    "cover_flip_runs": 3,
    "unistructurality": (3, 1, 4),
    "graphs": ((3, 3, 6), (4, 3, 5), (5, 4, 4)),
    "graph_walk": 3,
    "classify": ((3, 3), (4, 2), (5, 1), (4, 3), (5, 2), (6, 1)),
    "classify_walk": 6,
    "recovery": (3, 2, 4),
}

# tiny parameters of the same jobs, for the harness's own tests
SMOKE = {
    "induction_K": (3,),
    "case2_depth": 4,
    "cover_flip_runs": 1,
    "unistructurality": (1, 1, 2),
    "graphs": ((2, 1, 2),),
    "graph_walk": 2,
    "classify": ((2, 1), (2, 2)),
    "classify_walk": 2,
    "recovery": (1, 1, 3),
}


def build(workload: str, seed: int, params: dict = FULL) -> list[Job]:
    """The workload's jobs, in run order; inputs come from ``seed`` only."""
    rng = random.Random(seed)
    if workload == "induction":
        jobs = [
            Job(f"report:induction:C(2,2):K={k}", _report("induction", p=2, q=2, K=k),
                _reports_passed("induction"))
            for k in params["induction_K"]
        ]
    elif workload == "flips":
        depth = params["case2_depth"]
        jobs = [Job(f"report:case2-geometric:C(4,1):depth={depth}",
                    _report("case2-geometric", p=4, q=1, depth=depth),
                    _reports_passed("case2-geometric"))]
        # the report's JSON does not depend on its rng seed, only its work does
        for i in range(params["cover_flip_runs"]):
            jobs.append(Job(f"report:cover-flip:run={i}",
                            _report("cover-flip", rng_seed=rng.randrange(2**31)),
                            _reports_passed("cover-flip")))
        p, q, depth = params["unistructurality"]
        jobs.append(Job(f"report:unistructurality:C({p},{q}):depth={depth}",
                        _report("unistructurality", p=p, q=q, depth=depth),
                        _reports_passed("unistructurality")))
    elif workload == "enumerate":
        jobs = [
            _graph_job(f"graph:A({p},{q}):depth={depth}", walk(rng, p, q, params["graph_walk"]), depth)
            for p, q, depth in params["graphs"]
        ]
        for p, q in params["classify"]:
            for i in range(2):
                data = walk(rng, p, q, params["classify_walk"])
                jobs.append(_classify_job(f"classify:A({p},{q}):walk={i}", data,
                                          {"type": "TildeA", "p": p, "q": q}, seeded=True))
        jobs.append(_classify_job("classify:E6", E6, {"type": "Other"}, seeded=False))
        jobs.append(_classify_job("classify:D6-affine", D6_AFFINE, {"type": "Other"}, seeded=False))
        p, q, depth = params["recovery"]
        jobs.append(Job(f"report:quiver-recovery:C({p},{q}):depth={depth}",
                        _report("quiver-recovery", p=p, q=q, depth=depth),
                        _reports_passed("quiver-recovery")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs + [CROSSCHECK]
