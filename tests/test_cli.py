import hashlib
import json

import pytest
from click.testing import CliRunner

from clusterlab import annulus, engine, laurent, verify
from clusterlab.annulus import (
    MarkedAnnulus,
    arc_to_json,
    initial_triangulation,
    make_arc,
    triangulation_to_json,
)
from clusterlab.cli import main
from clusterlab.engine import Seed, initial_seed, seed_to_json
from clusterlab.errors import CounterexampleFound, ExponentOverflow, SearchExhausted
from clusterlab.laurent import coordinates, poly_to_json
from clusterlab.quiver import Quiver, quiver_to_json, tilde_A_canonical
from clusterlab.verify import report_winding_induction

# the envelope's error classes that mean invalid input, and exit 2
INVALID_INPUT = {
    "InvalidQuiver", "InvalidAnnulus", "InvalidArc", "InvalidParameter", "InvalidTriangulation",
}


C11 = MarkedAnnulus(1, 1)


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    """Write ``payload`` as JSON; bytes and str are written as they are."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_classify(runner, tmp_path):
    path = write(tmp_path, "q.json", quiver_to_json(tilde_A_canonical(3, 2)))
    result = runner.invoke(main, ["classify", "--quiver", path])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"type": "TildeA", "p": 3, "q": 2}


def test_mutate_quiver_roundtrip(runner, tmp_path):
    quiver = tilde_A_canonical(2, 1)
    path = write(tmp_path, "q.json", quiver_to_json(quiver))
    result = runner.invoke(main, ["mutate-quiver", "--quiver", path, "--at", "1"])
    assert result.exit_code == 0
    once = json.loads(result.output)
    path2 = write(tmp_path, "q2.json", once)
    result2 = runner.invoke(main, ["mutate-quiver", "--quiver", path2, "--at", "1"])
    assert json.loads(result2.output) == quiver_to_json(quiver)


def test_mutate_seed_trace(runner, tmp_path):
    seed = initial_seed(tilde_A_canonical(1, 1))
    path = write(tmp_path, "s.json", seed_to_json(seed))
    result = runner.invoke(main, ["mutate-seed", "--seed", path, "--at", "0", "--trace"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["trace"]["product"] == "x2^2 + 1"


def test_exchange_graph_with_dot(runner, tmp_path):
    seed = initial_seed(tilde_A_canonical(1, 1))
    path = write(tmp_path, "s.json", seed_to_json(seed))
    dot = tmp_path / "g.dot"
    result = runner.invoke(
        main, ["exchange-graph", "--seed", path, "--depth", "2", "--dot", str(dot)]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["nodes"]) == 5
    assert len(payload["edges"]) == 4
    assert dot.read_text() == "\n".join([
        "graph exchange {",
        '  n0 [label="(2 1),(1 0)"];',
        '  n1 [label="(1 2),(0 1)"];',
        '  n2 [label="(1 0),(0 0)"];',
        '  n3 [label="(0 1),(0 0)"];',
        '  n4 [label="(0 0),(0 0)"];',
        "  n3 -- n4;",
        "  n2 -- n4;",
        "  n1 -- n3;",
        "  n0 -- n2;",
        "}\n",
    ])



def test_exchange_graph_quiver_conflict_exits_1(runner, tmp_path, monkeypatch):
    # negating every mutated quiver keeps the exchange sums, so the clusters
    # are the true ones, but a node closing an odd cycle (a pentagon of
    # Ã(2,1)) is reached with both signs. One cluster with two quivers is a
    # typed error, which the CLI reports in its envelope, not a traceback
    true_mutate = engine.mutate_seed

    def negating(seed, k, memo):
        mutated = true_mutate(seed, k, memo)
        return Seed(Quiver([[-m for m in row] for row in mutated.quiver.b]), mutated.cluster)

    monkeypatch.setattr(engine, "mutate_seed", negating)
    root = initial_seed(tilde_A_canonical(2, 1))
    with pytest.raises(CounterexampleFound, match="disagree on the quiver"):
        engine.exchange_graph(root, 3)
    path = write(tmp_path, "s.json", seed_to_json(root))
    result = runner.invoke(main, ["exchange-graph", "--seed", path, "--depth", "3"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "CounterexampleFound"
    assert "disagree on the quiver" in envelope["detail"]

def test_annulus_flip(runner, tmp_path):
    tri = initial_triangulation(MarkedAnnulus(3, 2))
    path = write(tmp_path, "t.json", triangulation_to_json(tri))
    result = runner.invoke(main, ["annulus", "flip", "--triangulation", path, "--arc", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["new_arc"] == {"e1": {"b": 1, "pos": 0}, "e2": {"b": 1, "pos": 2}}


def test_annulus_variable(runner, tmp_path):
    ann = MarkedAnnulus(1, 1)
    path = write(tmp_path, "a.json", arc_to_json(make_arc(ann, (0, 0), (1, 1))))
    result = runner.invoke(
        main, ["annulus", "variable", "--p", "1", "--q", "1", "--arc", path]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["display"] == "x1^2*x2^-1 + x2^-1"


def test_annulus_variable_reports_a_descent_past_its_cap(runner, tmp_path, monkeypatch):
    # a flip that changes nothing never brings the arc in; the descent
    # stops at its cap, and the CLI exits 1 with the envelope
    monkeypatch.setattr(annulus, "flip_state", lambda state, idx: (state, None))
    path = write(tmp_path, "a.json", arc_to_json(make_arc(C11, (0, 0), (1, 1))))
    result = runner.invoke(main, ["annulus", "variable", "--p", "1", "--q", "1", "--arc", path])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "FlipSearchExceeded"
    assert "no flip path to" in envelope["detail"]


def test_verify_case1_on_one_one_finds_no_pair(runner):
    # C(1,1) has no once-crossing peripheral/bridging pair (the Coverage
    # table's case1 cell), a failed construction rather than invalid input
    result = runner.invoke(main, ["verify", "--report", "case1", "--p", "1", "--q", "1"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "ConstructionFailed"
    assert "no once-crossing peripheral/bridging pair" in envelope["detail"]


def test_verify_passes(runner):
    result = runner.invoke(main, ["verify", "--report", "case3-n2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload[0]["passed"] is True


# sha256 of the stdout of `clusterlab verify --report all`: every report at
# its defaults, the invariant a refactor must keep
VERIFY_ALL_SHA256 = "1ec743176aea6d5d391634878741e1ba715aa6e21c608ec2e24644f4b6465eed"


def test_verify_all_output_is_pinned(runner):
    result = runner.invoke(main, ["verify", "--report", "all"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_rejects_unknown_report(runner):
    # an unknown name is invalid input, reported in the JSON envelope
    result = runner.invoke(main, ["verify", "--report", "bogus"])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["error"] == "InvalidParameter"
    assert "bogus" in payload["detail"] and "unistructurality" in payload["detail"]


def test_verify_reports_errors_as_failure(runner):
    # C(2,1) has fewer than four marked points on each boundary, which
    # case2-geometric refuses as a typed precondition error in the envelope
    result = runner.invoke(
        main, ["verify", "--report", "case2-geometric", "--p", "2", "--q", "1"]
    )
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["error"] == "InvalidParameter"
    assert "outer or the inner boundary" in payload["detail"]


@pytest.mark.parametrize("sizes", [["--p", "0", "--q", "0"], ["--p", "0"], ["--q", "0"]])
def test_verify_rejects_zero_annulus_sizes(runner, sizes):
    # an explicit 0 must not fall back to the report's default annulus
    result = runner.invoke(main, ["verify", "--report", "case1", *sizes])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["error"] == "InvalidAnnulus"


@pytest.mark.parametrize("args", [
    ["--report", "quiver-recovery", "--p", "1", "--q", "2"],
    ["--report", "case2-geometric", "--p", "3"],
    ["--report", "induction", "--K", "2"],
    ["--report", "unistructurality", "--p", "2", "--q", "1", "--depth", "-2"],
    ["--report", "case2-geometric", "--p", "4", "--q", "1", "--depth", "-1"],
    # a parameter the report does not take is rejected, not ignored
    ["--report", "lemma31", "--p", "9"],
    ["--report", "all", "--K", "2"],
    ["--report", "cover-flip", "--depth", "-3"],
    ["--report", "case3-n2", "--p", "0"],
    ["--report", "induction", "--depth", "99"],
    ["--report", "all", "--seed-rng", "0"],
])
def test_verify_rejects_bad_parameters_with_envelope(runner, args):
    # a report precondition is a typed error, caught into the JSON envelope;
    # a negative depth is one too, not a one-node flip ball that passes or
    # a search that comes back empty
    result = runner.invoke(main, ["verify", *args])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["passed"] is False
    assert payload["error"] == "InvalidParameter"


def test_verify_seed_rng_is_read_only_by_cover_flip(runner):
    rejected = runner.invoke(main, ["verify", "--report", "case2-formal", "--seed-rng", "5"])
    assert rejected.exit_code == 2
    assert "rng_seed" in json.loads(rejected.output)["detail"]
    taken = runner.invoke(main, ["verify", "--report", "cover-flip", "--seed-rng", "5"])
    assert taken.exit_code == 0
    assert [report["name"] for report in json.loads(taken.output)] == ["cover-flip"]


def test_verify_induction_on_an_untrusted_lattice_exits_1(runner, monkeypatch):
    # the support lattice has no second counting path: when its packed
    # lattice test cannot be trusted, the report raises and the CLI exits 1
    monkeypatch.setattr(laurent, "_pivot_lattice", lambda *args: None)
    with pytest.raises(ExponentOverflow):
        report_winding_induction(2, 2, 3)
    result = runner.invoke(main, ["verify", "--report", "induction", "--K", "3"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "ExponentOverflow"
    assert envelope["detail"]


def test_verify_induction_on_an_oversized_support_box_exits_1(runner, monkeypatch):
    # a support box over the limit is refused before any support is built,
    # so the CLI exits 1 with the envelope, not a MemoryError traceback
    monkeypatch.setattr(laurent, "SUPPORT_BOX_LIMIT", 1000)
    result = runner.invoke(main, ["verify", "--report", "induction"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "LimitExceeded"
    assert "support box" in envelope["detail"]


def test_verify_induction_on_three_three_exceeds_the_support_box(runner):
    # C(3,3) at K = 3 needs a support box of 3.32e8 slots, over the 2**28
    # limit, so the report refuses it in the envelope; ROADMAP item 2 (a
    # smaller box) will turn this coverage cell into a pass
    result = runner.invoke(main, ["verify", "--report", "induction", "--p", "3", "--q", "3", "--K", "3"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "LimitExceeded"
    assert "3.32e+08 slots" in envelope["detail"]


def test_verify_unistructurality_with_an_unreached_clique_exits_1(runner, monkeypatch):
    # a clique yielded twice is one the walk over the flip graph cannot
    # certify a second time; the report raises SearchExhausted, with no
    # second certification path, and the CLI exits 1 with the envelope
    true_cliques = verify._compatible_cliques

    def twice(ann, arcs, size):
        cliques = list(true_cliques(ann, arcs, size))
        return cliques + cliques[-1:]

    monkeypatch.setattr(verify, "_compatible_cliques", twice)
    with pytest.raises(SearchExhausted):
        verify.report_unistructurality(2, 1, 4)
    result = runner.invoke(main, ["verify", "--report", "unistructurality"])
    assert result.exit_code == 1
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == "SearchExhausted"
    assert "pairwise-compatible subset" in envelope["detail"]


@pytest.mark.parametrize("command,payload,error", [
    (["mutate-seed", "--at", "5", "--seed"],
     seed_to_json(initial_seed(tilde_A_canonical(1, 1))), "InvalidParameter"),
    (["mutate-quiver", "--at", "5", "--quiver"],
     quiver_to_json(tilde_A_canonical(1, 1)), "InvalidParameter"),
    (["exchange-graph", "--depth", "2", "--limit", "1", "--seed"],
     seed_to_json(initial_seed(tilde_A_canonical(1, 1))), "LimitExceeded"),
    (["classify", "--quiver"], {"n": 2, "arrows": [[0, 1], [1, 0]]}, "InvalidQuiver"),
    (["classify", "--quiver"], {"n": 2, "arrows": [[0.5, 1]]}, "InvalidQuiver"),
    (["classify", "--quiver"], {"n": 2, "arrows": [[0]]}, "InvalidQuiver"),
    (["classify", "--quiver"], {"n": 2, "arrows": [[True, 1]]}, "InvalidQuiver"),
    (["classify", "--quiver"], {"n": 2.5, "arrows": []}, "InvalidQuiver"),
    (["exchange-graph", "--depth", "-1", "--seed"],
     seed_to_json(initial_seed(tilde_A_canonical(1, 1))), "InvalidParameter"),
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [poly_to_json(coordinates(2)[0])] * 2}, "InvalidParameter"),
    (["classify", "--quiver"], "{not json", "InvalidParameter"),
    (["classify", "--quiver"], b"\xff\xfe{}", "InvalidParameter"),
    # malformed annulus and seed JSON is rejected, not truncated to an int
    (["annulus", "variable", "--p", "2", "--q", "1", "--arc"],
     {"e1": {"b": 0, "pos": 0.9}, "e2": {"b": 1, "pos": 0}}, "InvalidArc"),
    (["annulus", "variable", "--p", "2", "--q", "1", "--arc"],
     {"e1": {"b": 0}, "e2": {"b": 1, "pos": 0}}, "InvalidArc"),
    (["annulus", "flip", "--arc", "0", "--triangulation"], [1, 2], "InvalidParameter"),
    (["annulus", "flip", "--arc", "0", "--triangulation"],
     {"p": 1.5, "q": 1, "arcs": []}, "InvalidAnnulus"),
    (["annulus", "flip", "--arc", "0", "--triangulation"],
     {"p": 1, "q": 1, "arcs": [1, 2]}, "InvalidArc"),
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [{"arity": 2, "terms": [{"e": [1.9, 0], "c": "1"}]},
                  poly_to_json(coordinates(2)[1])]}, "InvalidParameter"),
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [{"arity": 2, "terms": [{"e": [1, 0], "c": "x"}]},
                  poly_to_json(coordinates(2)[1])]}, "InvalidParameter"),
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1))}, "InvalidParameter"),
    # an arc set that is not a triangulation is invalid input, not an internal error
    (["annulus", "flip", "--arc", "0", "--triangulation"],
     {"p": 1, "q": 1, "arcs": []}, "InvalidTriangulation"),
    (["annulus", "flip", "--arc", "0", "--triangulation"],
     {"p": 1, "q": 1, "arcs": [arc_to_json(make_arc(C11, (0, 0), (1, 0)))] * 2},
     "InvalidTriangulation"),
    (["annulus", "flip", "--arc", "0", "--triangulation"],
     {"p": 1, "q": 1, "arcs": [arc_to_json(make_arc(C11, (0, 0), (1, 0))),
                               arc_to_json(make_arc(C11, (0, 0), (1, 2)))]},
     "InvalidTriangulation"),
    # cluster variables of different arities, or a zero variable, are invalid seeds
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [poly_to_json(coordinates(3)[0]), poly_to_json(coordinates(2)[1])]},
     "InvalidParameter"),
    (["exchange-graph", "--depth", "1", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [poly_to_json(coordinates(2)[0]), poly_to_json(coordinates(3)[1])]},
     "InvalidParameter"),
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [{"arity": 2, "terms": []}, poly_to_json(coordinates(2)[1])]},
     "InvalidParameter"),
    # an arc index outside 0..p+q-1 is neither reinterpreted nor an IndexError
    (["annulus", "flip", "--arc", "-1", "--triangulation"],
     triangulation_to_json(initial_triangulation(MarkedAnnulus(2, 1))), "InvalidParameter"),
    (["annulus", "flip", "--arc", "5", "--triangulation"],
     triangulation_to_json(initial_triangulation(MarkedAnnulus(2, 1))), "InvalidParameter"),
    # a coefficient string int() would read but poly_to_json never writes
    (["mutate-seed", "--at", "0", "--seed"],
     {"quiver": quiver_to_json(tilde_A_canonical(1, 1)),
      "cluster": [{"arity": 2, "terms": [{"e": [1, 0], "c": "+1"}]},
                  poly_to_json(coordinates(2)[1])]}, "InvalidParameter"),
    # a depth-0 pool holds no exchange partner: invalid input, not a failed check
    (["verify", "--report", "quiver-recovery", "--p", "2", "--q", "1", "--depth", "0"],
     None, "InvalidParameter"),
])
def test_every_command_reports_errors_in_the_envelope(runner, tmp_path, command, payload, error):
    # payload None: the command reads no input file
    if payload is not None:
        command = [*command, write(tmp_path, "input.json", payload)]
    result = runner.invoke(main, command)
    # a typed error becomes the JSON envelope, not a traceback; invalid
    # input exits 2, any other package error 1
    assert result.exit_code == (2 if error in INVALID_INPUT else 1)
    envelope = json.loads(result.output)
    assert envelope["passed"] is False
    assert envelope["error"] == error
    assert envelope["detail"]
