"""Fixed-operand layer probes and the scaling sweep.  Neither is gated.

    python3 perfbench/probes.py            # probes only, about 15 s
    python3 perfbench/probes.py --sweep    # probes and sweep, about 90 s

Prints one JSON object.  Probes time one layer on fixed operands, each
the median of REPEATS calls in this process:

- ``laurent.mul``: the largest product the winding induction performs
  at K=4 (491 x 394 terms, arity 4), captured from a real run;
- ``quiver.canon``: ``canonical_permutation`` on a rank-9 Ã(5,4) quiver
  reached by a fixed mutation walk;
- ``annulus.flip``: one flip on the most-wound triangulation the
  induction at K=5 flips.

The sweep runs each point once in a fresh interpreter, as a CLI user
would: induction at K=4/5/6, case2-geometric at depth 5/6/7, and the
exchange graph at depth 4 rooted at every canonical Ã(p, q) up to rank 9.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

import workloads
from clusterlab import annulus, engine, laurent, quiver, verify
from tracer import Tracer

REPEATS = 5
SWEEP = (
    [f"induction:{k}" for k in (4, 5, 6)]
    + [f"case2-geometric:{d}" for d in (5, 6, 7)]
    + [f"graph:{p}:{n - p}" for n in range(2, 10) for p in range((n + 1) // 2, n)]
)


def timed(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def capture(span: str, original, score, run) -> tuple:
    """Arguments of the call to ``original`` with the highest ``score``
    while ``run()`` executes."""
    best = [None, None]

    def keep(tracer, args, result):
        value = score(args)
        if best[0] is None or value > best[0]:
            best[:] = [value, args]

    with Tracer() as tracer:
        tracer.install([(span, original, keep)], (laurent.LaurentPoly,))
        run()
    return best[1]


def winding(args) -> int:
    tri = args[0]
    return max(abs(x) for arc in tri.arcs for _, x in arc.chord)


def probes() -> dict:
    poly = laurent.LaurentPoly
    a, b = capture("laurent.mul", vars(poly)["__mul__"],
                   lambda args: len(args[0].terms) * len(args[1].terms),
                   lambda: verify.run_report("induction", p=2, q=2, K=4))
    rank9 = quiver.quiver_from_json(workloads.walk(random.Random(0), 5, 4, 6))
    tri, target = capture("annulus.flip", annulus.flip, winding,
                          lambda: verify.run_report("induction", p=2, q=2, K=5))
    return {
        "laurent.mul": {"terms": [len(a.terms), len(b.terms)], "arity": a.arity,
                        "median_s": timed(lambda: a * b)},
        "quiver.canon": {"rank": rank9.n, "arrows": len(rank9.arrows()),
                         "median_s": timed(lambda: quiver.canonical_permutation(rank9), 50)},
        "annulus.flip": {"max_abs_position": winding((tri, target)),
                         "median_s": timed(lambda: annulus.flip(tri, target), 50)},
    }


def point(name: str) -> dict:
    """Run one sweep point and return its size and time."""
    kind, *params = name.split(":")
    start = time.perf_counter()
    if kind == "induction":
        verify.run_report("induction", p=2, q=2, K=int(params[0]))
        size = {"K": int(params[0])}
    elif kind == "case2-geometric":
        verify.run_report("case2-geometric", p=4, q=1, depth=int(params[0]))
        size = {"depth": int(params[0])}
    else:
        p, q = map(int, params)
        graph = engine.exchange_graph(engine.initial_seed(quiver.tilde_A_canonical(p, q)), 4)
        size = {"rank": p + q, "depth": 4, "nodes": graph.node_count()}
    return {"point": name, **size, "wall_s": time.perf_counter() - start}


def main(argv: list[str]) -> None:
    if argv[:1] == ["--point"]:
        print(json.dumps(point(argv[1])))
        return
    out = {"probes": probes()}
    if "--sweep" in argv:
        out["sweep"] = [
            json.loads(subprocess.run([sys.executable, __file__, "--point", name],
                                      capture_output=True, text=True, check=True).stdout)
            for name in SWEEP
        ]
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
