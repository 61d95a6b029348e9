"""The layer metrics of the benchmark: which clusterlab functions are
traced, the counters attached to them, and how they become per-layer
metrics.

Layers are the package modules ``laurent``, ``quiver``, ``engine``,
``annulus`` and ``verify``; each is measured by timing calls into its
public functions, so nothing inside the package changes.
"""

from __future__ import annotations

import inspect

from tracer import Tracer

# (metric name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.mul.max_terms", "count", "lower"),
    ("laurent.div.calls", "count", "lower"),
    ("laurent.div.self_s", "s", "lower"),
    ("laurent.div.fail_ratio", "ratio", "lower"),
    ("laurent.subst.calls", "count", "lower"),
    ("laurent.subst.self_s", "s", "lower"),
    ("laurent.to_json.calls", "count", "lower"),
    ("laurent.to_json.self_s", "s", "lower"),
    ("quiver.canon.calls", "count", "lower"),
    ("quiver.canon.self_s", "s", "lower"),
    ("quiver.mutate.calls", "count", "lower"),
    ("quiver.mutate.self_s", "s", "lower"),
    ("quiver.class.calls", "count", "lower"),
    ("quiver.class.nodes", "count", "lower"),
    ("quiver.classify.calls", "count", "lower"),
    ("quiver.classify.self_s", "s", "lower"),
    ("engine.mutate_seed.calls", "count", "lower"),
    ("engine.mutate_seed.self_s", "s", "lower"),
    ("engine.canonical_seed.self_s", "s", "lower"),
    ("engine.exchange_graph.self_s", "s", "lower"),
    ("engine.graph.nodes", "count", "higher"),
    ("engine.graph.new_ratio", "ratio", "higher"),
    ("annulus.flip.calls", "count", "lower"),
    ("annulus.flip.self_s", "s", "lower"),
    ("annulus.flip_state.calls", "count", "lower"),
    ("annulus.flip_state.self_s", "s", "lower"),
    ("annulus.cover_flip.calls", "count", "lower"),
    ("annulus.cover_flip.self_s", "s", "lower"),
    ("annulus.crossing.calls", "count", "lower"),
    ("annulus.crossing.self_s", "s", "lower"),
    ("annulus.flip_bfs.self_s", "s", "lower"),
    ("annulus.quiver_of.calls", "count", "lower"),
    ("verify.report.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _on_mul(tracer: Tracer, args, result) -> None:
    from clusterlab.laurent import LaurentPoly

    a, b = args
    # an int operand is coerced to a constant: one term, or none when zero
    width = len(b.terms) if isinstance(b, LaurentPoly) else int(bool(b))
    tracer.count("laurent.mul.term_pairs", len(a.terms) * width)
    if isinstance(result, LaurentPoly):
        tracer.maximum("laurent.mul.max_terms", len(result.terms))


def _on_div(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.count("laurent.div.failed")


def _on_class(tracer: Tracer, args, result) -> None:
    tracer.count("quiver.class.nodes", len(result))


def _on_mutate_seed(tracer: Tracer, args, result) -> None:
    if tracer.open["engine.exchange_graph"]:
        tracer.count("engine.graph.mutations")


def _on_graph(tracer: Tracer, args, result) -> None:
    tracer.count("engine.graph.nodes", result.node_count())
    tracer.count("engine.graph.added", result.node_count() - 1)


def targets():
    """``(span name, function, after hook)`` for every traced function, and
    the classes whose methods are among them."""
    from clusterlab import annulus, engine, laurent, quiver, verify

    poly, quiv = laurent.LaurentPoly, quiver.Quiver
    out = [
        ("laurent.mul", vars(poly)["__mul__"], _on_mul),
        ("laurent.div", laurent.try_div_exact, _on_div),
        ("laurent.subst", laurent.substitute, None),
        ("laurent.to_json", laurent.poly_to_json, None),
        ("quiver.canon", quiver.canonical_permutation, None),
        ("quiver.mutate", vars(quiv)["mutate"], None),
        ("quiver.class", quiver.mutation_class, _on_class),
        ("quiver.classify", quiver.classify_tilde_A, None),
        ("engine.mutate_seed", engine.mutate_seed, _on_mutate_seed),
        ("engine.canonical_seed", engine.canonical_seed, None),
        ("engine.exchange_graph", engine.exchange_graph, _on_graph),
        ("annulus.flip", annulus.flip, None),
        ("annulus.flip_state", annulus.flip_state, None),
        ("annulus.cover_flip", annulus.verify_cover_flip, None),
        ("annulus.crossing", annulus.crossing_number, None),
        ("annulus.flip_bfs", annulus.flip_bfs, None),
        ("annulus.quiver_of", annulus.quiver_of, None),
    ]
    out.extend(
        ("verify.report", fn, None)
        for name, fn in sorted(vars(verify).items())
        if inspect.isfunction(fn) and (name.startswith("report_") or name == "run_report")
    )
    return out, (poly, quiv)


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition (overhead ratio excluded)."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    div_calls = calls["laurent.div"]
    mutations = counters["engine.graph.mutations"]
    derived = {
        "laurent.mul.term_pairs": counters["laurent.mul.term_pairs"],
        "laurent.mul.max_terms": tracer.maxima.get("laurent.mul.max_terms", 0),
        "laurent.div.fail_ratio": counters["laurent.div.failed"] / div_calls if div_calls else 0.0,
        "quiver.class.nodes": counters["quiver.class.nodes"],
        "engine.graph.nodes": counters["engine.graph.nodes"],
        "engine.graph.new_ratio": counters["engine.graph.added"] / mutations if mutations else 0.0,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]]
    return out
