"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They run every workload at tiny parameters and check the tracer and the
output checks; the timed benchmark is run.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types

import pytest

import layers
import run
import workloads  # puts the checkout's src first on sys.path
from tracer import Tracer, bindings

import clusterlab.cli  # noqa: E402,F401  (binds flip_op, which the tracer must find)
from clusterlab import annulus, quiver  # noqa: E402


def _cold() -> None:
    """Empty the package's caches, as a fresh benchmark process has them."""
    quiver._class_cache.clear()
    annulus.triangles.cache_clear()
    annulus.quiver_of.cache_clear()


def _outputs(jobs) -> dict[str, str]:
    out = {}
    for job in jobs:
        payload = job.run()
        assert job.check(payload) is None, job.name
        out[job.name] = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_workload_traced_and_untraced_agree(workload):
    _cold()
    plain = _outputs(workloads.build(workload, 3, workloads.SMOKE))
    _cold()
    targets, classes = layers.targets()
    with Tracer() as tracer:
        tracer.install(targets, classes)
        assert bindings([fn for _, fn, _ in targets], classes) == []
        traced = _outputs(workloads.build(workload, 3, workloads.SMOKE))
    assert traced == plain
    values = layers.metrics(tracer)
    assert {name for name, _, _ in layers.PER_LAYER} - set(values) == {"trace.overhead_ratio"}
    # the crosscheck job reaches every traced function on every workload
    assert [name for name in tracer.self_s if tracer.calls[name] == 0] == []
    assert values["laurent.mul.term_pairs"] >= values["laurent.mul.calls"] > 0


def test_restore_puts_back_every_patched_attribute():
    targets, classes = layers.targets()
    originals = [fn for _, fn, _ in targets]
    before = bindings(originals, classes)
    # re-exports and direct imports are among the bindings the tracer must find
    for where in ("clusterlab.verify.try_div_exact", "clusterlab.verify.substitute",
                  "clusterlab.annulus.mutate_seed", "clusterlab.cli.flip_op",
                  "clusterlab.flip", "LaurentPoly.__rmul__"):
        assert where in before
    tracer = Tracer()
    tracer.install(targets, classes)
    assert bindings(originals, classes) == []
    tracer.restore()
    assert bindings(originals, classes) == before
    assert not tracer._patches


def test_self_time_excludes_nested_spans():
    module = types.ModuleType("tracer_fixture")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    inner(); inner(); time.sleep(0.01)\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    try:
        with Tracer() as tracer:
            tracer.install([("outer", module.outer, None), ("inner", module.inner, None)])
            module.outer()
        assert tracer.calls == {"outer": 1, "inner": 2}
        assert 0.04 <= tracer.self_s["inner"] < 0.1
        assert 0.01 <= tracer.self_s["outer"] < 0.04
    finally:
        del sys.modules[module.__name__]


def test_install_refuses_a_target_bound_nowhere():
    with Tracer() as tracer, pytest.raises(LookupError):
        tracer.install([("orphan", lambda: None, None)])


def test_graph_check_rejects_a_missing_edge():
    job = workloads.build("enumerate", 0, workloads.SMOKE)[0]
    payload = job.run()
    assert job.check(payload) is None
    payload["edges"].pop()
    assert job.check(payload) is not None


def test_output_check_counts_wrong_and_unstable_outputs():
    committed = json.loads((run.HERE / "digests.json").read_text())["flips"]["any"]
    good = [{"name": n, "digest": d, "error": None, "seeded": False} for n, d in committed.items()]
    problems: list[str] = []
    assert run.check_outputs("flips", 5, [{"jobs": good}] * 2, problems) == (2 * len(good), 0)
    assert problems == []
    bad = [dict(good[0], digest="0" * 64)] + good[1:]
    assert run.check_outputs("flips", 5, [{"jobs": good}, {"jobs": bad}], problems) == (2 * len(good), 1)
    assert len(problems) == 1
