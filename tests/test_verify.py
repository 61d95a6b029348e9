import functools
import hashlib
import itertools
import json
import random
import sys

import pytest

from clusterlab import annulus, engine, laurent, verify
from clusterlab.annulus import (
    MarkedAnnulus,
    Triangulation,
    TriSeed,
    classify_arc,
    crossing_number,
    flip,
    flip_bfs,
    flip_levels,
    flip_state,
    initial_state,
    initial_triangulation,
    verify_cover_flip,
)
from clusterlab.engine import Seed, exchange_terms, initial_seed, mutate_seed
from clusterlab.errors import (
    ClusterLabError,
    CounterexampleFound,
    CrossingMismatch,
    HypothesisNotSatisfied,
    IdentityFailed,
    InvalidParameter,
    MalformedTriangulation,
    SearchExhausted,
    ShapeMismatch,
    SideConditionViolated,
)
from clusterlab.laurent import LaurentPoly, coordinates, poly_prod, substitute
from clusterlab.quiver import tilde_A_canonical
from clusterlab.verify import (
    _BRIDGING_PATTERNS,
    _PERIPHERAL_PATTERNS,
    REPORT_NAMES,
    IdentityReport,
    _compatible_cliques,
    _find_bridging_setup,
    _labeled_matches,
    _band,
    _match_side,
    _opposite_pair,
    _run_rows,
    _winding_walk,
    check_dichotomy,
    max_peripheral_crossing,
    report_bridging_chain_formal,
    report_crossing_quadrilateral,
    report_peripheral_chain_formal,
    report_unistructurality,
    report_winding_induction,
    run_report,
)


class TestIdentityReport:
    def test_passed_is_constant(self):
        # every failed check raises, so a report only exists once it passed
        report = IdentityReport(name="x")
        assert report.passed is True
        assert report.to_json()["passed"] is True
        with pytest.raises(TypeError):
            IdentityReport(name="x", passed=False)


class TestDichotomy:
    def test_rank_two_instance(self):
        x1, x2 = coordinates(2)
        mutated = mutate_seed(initial_seed(tilde_A_canonical(1, 1)), 0)
        x1p = mutated.cluster[0]
        report = check_dichotomy(x1, x1p, [[[x2, x2], []]], [x1p, x2], "a")
        assert report.passed
        assert report.witness["x1_in_cluster"] == "False"

    def test_degenerate_single_term_rejected(self):
        x1, x2 = coordinates(2)
        with pytest.raises(SideConditionViolated):
            check_dichotomy(x1, x2, [[[x1, x2]]], [x1, x2], "a")

    def test_wrong_hypothesis_rejected(self):
        x1, x2 = coordinates(2)
        with pytest.raises(HypothesisNotSatisfied):
            check_dichotomy(x1, x2, [[[x2, x2]]], [x1, x2], "a")

    def test_both_members_is_a_counterexample(self):
        # a rigged two-term identity whose factors both sit in the reference set
        x1, x2 = coordinates(2)
        sigma = [[x1, x2 - 1], [x1]]
        with pytest.raises(CounterexampleFound):
            check_dichotomy(x1, x2, [sigma], [x1, x2], "a")

    def test_variant_b_formal_instance(self):
        report = run_report("lemma31")[0]
        assert report.passed


class TestFormalChains:
    def test_peripheral_chain(self):
        report = report_peripheral_chain_formal()
        assert report.passed
        assert len(report.notes) == 2  # both unprimed displays break the chain

    def test_peripheral_chain_is_evaluated_once_per_specialization(self, monkeypatch):
        calls = []
        original = verify._peripheral_chain

        def recording(ones=()):
            calls.append(tuple(ones))
            return original(ones)

        monkeypatch.setattr(verify, "_peripheral_chain", recording)
        report_peripheral_chain_formal()
        assert calls == [(), (8, 10)]

    def test_bridging_chains(self):
        for n in (2, 3, 4):
            assert report_bridging_chain_formal(n).passed

    def test_bridging_chain_validates_n(self):
        with pytest.raises(ValueError):
            report_bridging_chain_formal(5)


class TestQuadrilateral:
    def test_smallest_instance(self):
        report = report_crossing_quadrilateral(2, 1)
        assert report.passed

    def test_boundary_degeneration(self):
        report = report_crossing_quadrilateral(3, 2)
        assert report.passed
        assert report.context["boundary_sides"] == 2

    def test_loop_diagonal_instance(self):
        report = report_crossing_quadrilateral(1, 2)
        assert report.passed
        assert report.context["loop"]

    @pytest.mark.parametrize("p,q", [
        (p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6 and (p, q) != (1, 1)
    ])
    def test_loop_is_read_off_the_found_diagonal(self, p, q):
        # the found peripheral diagonal is a loop, its span its boundary's
        # period, exactly on these annuli; C(1,1) has no case1 pair at all
        report = report_crossing_quadrilateral(p, q)
        assert report.context["loop"] == (p == 2 or (p, q) == (1, 2))

    def test_a_wrong_exchange_fails_case1(self, monkeypatch):
        # case1 does not re-check x1 * x2 == p1 + p2 itself; a flip whose
        # new variable breaks it still fails, at check_dichotomy's hypothesis
        def wrong(state, idx):
            new_state, result = flip_state(state, idx)
            cluster = list(new_state.seed.cluster)
            cluster[idx] = cluster[idx] + LaurentPoly.one(cluster[idx].arity)
            return TriSeed(new_state.tri, Seed(new_state.seed.quiver, tuple(cluster))), result

        monkeypatch.setattr(verify, "flip_state", wrong)
        with pytest.raises(HypothesisNotSatisfied):
            report_crossing_quadrilateral(2, 1)


class TestGeometricChain:
    def test_four_one(self):
        report = run_report("case2-geometric", p=4, q=1, depth=6)[0]
        assert report.passed
        assert report.witness["crossing"] == "2"

    def test_peripheral_crossing_ceiling(self):
        assert max_peripheral_crossing(MarkedAnnulus(4, 2)) == 2

    @pytest.mark.parametrize("p,q,distance,s10", [
        (1, 4, 2, "1"),
        (2, 4, 3, "x1*x2^-1 + x2^-1*x6"),
        (1, 5, 3, "1"),
    ], ids=["1-4", "2-4", "1-5"])
    def test_four_points_on_the_inner_boundary(self, p, q, distance, s10):
        report = run_report("case2-geometric", p=p, q=q)[0]
        assert report.witness["crossing"] == "2"
        assert report.context["found_at_flip_distance"] == distance
        bindings = dict(item.split("=") for item in report.witness["side_bindings"].split(", "))
        assert bindings["S10"] == s10

    def test_small_boundary_rejected(self):
        with pytest.raises(InvalidParameter, match="outer or the inner boundary"):
            run_report("case2-geometric", p=2, q=1)


class TestSideMatch:
    @pytest.fixture
    def arcs(self):
        return initial_triangulation(MarkedAnnulus(2, 1)).arcs

    def test_a_fresh_token_binds_to_the_remaining_side(self, arcs):
        a, b, _ = arcs
        got = _match_side((("z4",), ("S8",)), (b, a), {"z4": a}, {}, frozenset(arcs))
        assert got == [({"z4": a}, {"S8": b})]

    def test_a_boundary_side_binds_a_token_to_one(self, arcs):
        a, _, _ = arcs
        got = _match_side((("z4",), ("S8",)), (None, a), {"z4": a}, {}, frozenset(arcs))
        assert got == [({"z4": a}, {"S8": None})]
        # the values are read off the arcs once, a boundary side as 1: the
        # first inner-boundary match of C(1,4) binds S10 to a boundary side
        *_, bindings, _ = next(
            _labeled_matches(MarkedAnnulus(1, 4), 2, "peripheral", _PERIPHERAL_PATTERNS)
        )
        assert bindings["S10"] == LaurentPoly.one(5)

    def test_a_bound_token_is_compared_with_its_side(self, arcs):
        a, b, c = arcs
        side = ((), ("S8", "S10"))
        assert _match_side(side, (b, a), {}, {"S8": a, "S10": b}, frozenset(arcs)) == [
            ({}, {"S8": a, "S10": b})
        ]
        assert _match_side(side, (b, a), {}, {"S8": a, "S10": c}, frozenset(arcs)) == []
        assert _match_side(side, (b, a), {}, {"S8": c}, frozenset(arcs)) == []

    def test_two_fresh_tokens_do_not_match(self, arcs):
        a, b, _ = arcs
        assert _match_side(((), ("S8", "S10")), (a, b), {}, {}, frozenset(arcs)) == []
        assert _match_side(((), ("S8", "S10")), (a, b), {}, {"S10": b}, frozenset(arcs)) == []

    def test_a_fresh_key_binds_only_to_an_unused_start_slot(self, arcs):
        a, b, c = arcs
        side = (("z2", "z5"), ())
        assert _match_side(side, (a, b), {"z1": a}, {}, frozenset(arcs)) == []
        assert _match_side(side, (a, None), {"z1": c}, {}, frozenset(arcs)) == []
        assert _match_side(side, (a, b), {"z1": c}, {}, frozenset({b, c})) == []
        assert _match_side(side, (a, b), {"z1": c}, {}, frozenset(arcs)) == [
            ({"z1": c, "z2": a, "z5": b}, {}),
            ({"z1": c, "z2": b, "z5": a}, {}),
        ]

    def test_a_doubled_side_binds_once(self, arcs):
        a, b, c = arcs
        assert _match_side((("z4",), ("S8",)), (a, a), {"z4": a}, {}, frozenset(arcs)) == [
            ({"z4": a}, {"S8": a})
        ]
        assert _match_side((("z2",), ("S8",)), (b, b), {"z1": a}, {}, frozenset(arcs)) == [
            ({"z1": a, "z2": b}, {"S8": b})
        ]

    def test_coupled_tokens_on_the_peripheral_search(self):
        # the second relation of the five-flip chain is z1'*z3 + S8*S10;
        # on C(5,1) the search meets an S8 that is an arc variable
        matches = _labeled_matches(MarkedAnnulus(5, 1), 3, "peripheral", _PERIPHERAL_PATTERNS)
        for start, labeling, _, values, bindings, _ in matches:
            if bindings["S8"] != bindings["S10"]:
                break
        else:
            pytest.fail("no match with distinct S8 and S10")
        middle, first = flip_state(start, labeling[0])
        _, second = flip_state(middle, labeling[1])
        variable = {None: LaurentPoly.one(6), **middle.assignment}
        assert values["z1'"] == variable[first.new_arc]
        # one pair is z1' and z3, so the other is S8 and S10
        pair = {first.new_arc, start.tri.arcs[labeling[2]]}
        (other,) = [sides for sides in second.pairs if set(sides) != pair]
        s8, s10 = bindings["S8"], bindings["S10"]
        side8, side10 = other if variable[other[0]] == s8 else other[::-1]
        assert (variable[side8], variable[side10]) == (s8, s10) and s8 != s10
        starts = frozenset(start.tri.arcs)
        side = ((), ("S8", "S10"))
        assert _match_side(side, other, {}, {"S8": side8}, starts) == [({}, {"S8": side8, "S10": side10})]
        assert _match_side(side, other, {}, {}, starts) == []
        assert _match_side(side, other, {}, {"S8": side8, "S10": side8}, starts) == []

    def test_the_rows_build_no_arc_set(self, monkeypatch):
        # a fresh key is tested against the start arcs as they stand, so
        # matching the rows builds no arc set; only the flip ball does
        start, labeling, *_ = _find_bridging_setup(MarkedAnnulus(2, 2))
        keys = {"z1": start.tri.arcs[labeling[0]]}
        want = [found[1] for found in _run_rows(start, start.tri, _BRIDGING_PATTERNS, keys, {})]
        built = []
        monkeypatch.setattr(Triangulation, "arc_set", property(built.append))
        got = [found[1] for found in _run_rows(start, start.tri, _BRIDGING_PATTERNS, keys, {})]
        assert want and got == want and not built


# the oracle meets the same products and quotients under many labelings;
# both are pure, so they are cached
@functools.lru_cache(maxsize=1 << 14)
def _product(factors, arity):
    return poly_prod(factors, arity)


@functools.lru_cache(maxsize=1 << 14)
def _quotient(actual, base):
    return laurent.try_div_exact(actual, base)


def _match_product(
    actual: LaurentPoly,
    known,
    tokens: tuple[str, ...],
    bindings: dict[str, LaurentPoly],
):
    """The algebraic reference for _match_side: match actual ==
    prod(known) * prod(value of each side token).

    Every token but the last must already be bound; the last is compared
    with the exact quotient of actual by everything else, or bound to it
    on first use.  Returns the extended bindings or None.
    """
    if not tokens:
        return dict(bindings) if actual == _product(tuple(known), actual.arity) else None
    *inner, last = tokens
    if any(token not in bindings for token in inner):
        return None
    base = _product((*known, *(bindings[token] for token in inner)), actual.arity)
    quotient = _quotient(actual, base)
    if quotient is None:
        return None
    bound = bindings.get(last)
    if bound is not None:
        return dict(bindings) if bound == quotient else None
    extended = dict(bindings)
    extended[last] = quotient
    return extended


def _side_products(state, pairs):
    """The product of each side pair's variables in state, a boundary side
    counting as 1: an exchange relation's two terms, formed from the
    quadrilateral and not taken from the mutation."""
    variables = state.assignment
    return [
        _product(tuple(variables[side] for side in pair if side is not None), state.seed.rank)
        for pair in pairs
    ]


def _run_pattern_sequence(state, labeling, patterns, values, bindings):
    """Flip labeling[slot] for each pattern's slot in turn, unifying each
    exchange relation's two products with the pattern's sides, in either
    order.  Returns the final state, the value table and the bindings, or
    None."""
    if not patterns:
        return state, values, bindings
    (token, slot, (keys1, side1), (keys2, side2)), rest = patterns[0], patterns[1:]
    next_state, result = flip_state(state, labeling[slot])
    p1, p2 = _side_products(state, result.pairs)
    for first, second in ((p1, p2), (p2, p1)):
        step1 = _match_product(first, [values[k] for k in keys1], side1, bindings)
        if step1 is None:
            continue
        step2 = _match_product(second, [values[k] for k in keys2], side2, step1)
        if step2 is None:
            continue
        extended = dict(values)
        extended[token] = next_state.seed.cluster[labeling[slot]]
        outcome = _run_pattern_sequence(next_state, labeling, rest, extended, step2)
        if outcome is not None:
            return outcome
    return None


def _permuted_matches(node, kind, patterns, fresh):
    """Every labeling of one ball node tried in permutation order, each
    matched by _run_pattern_sequence; fresh gives each labeling a new flip
    memo."""
    start = node.state
    for first, arc in enumerate(start.tri.arcs):
        if classify_arc(arc)[0] != kind:
            continue
        others = [j for j in range(len(start.tri.arcs)) if j != first]
        for rest in itertools.permutations(others, max(slot for _, slot, *_ in patterns)):
            labeling = (first,) + rest
            values = {f"z{i + 1}": start.seed.cluster[s] for i, s in enumerate(labeling)}
            state = TriSeed(start.tri, start.seed) if fresh else start
            outcome = _run_pattern_sequence(state, labeling, patterns, values, {})
            if outcome is not None:
                yield (start, labeling, *outcome, node.depth)


def _exhaustive_matches(ann, depth, kind, patterns):
    """The slow oracle for _labeled_matches: the whole flip ball first,
    sorted by (depth, sorted arcs), and every labeling flipped afresh (a
    new flip memo per labeling, so nothing is shared between them)."""
    nodes = sorted(
        flip_bfs(ann, depth).values(),
        key=lambda node: (node.depth, tuple(sorted(node.state.tri.arcs))),
    )
    for node in nodes:
        yield from _permuted_matches(node, kind, patterns, fresh=True)


def _memo_sharing_matches(levels, kind, patterns):
    """The algebraic oracle at the speed of a shared memo: the flip ball's
    levels in turn, every labeling of a node flipped from the node's own
    state, so the root's memo serves them all."""
    for level in levels:
        for node in sorted(level, key=lambda node: tuple(sorted(node.state.tri.arcs))):
            yield from _permuted_matches(node, kind, patterns, fresh=False)


def _recorded_divisions(monkeypatch) -> list:
    """Every exchange division lockstep flips make from here on, keyed by
    (cluster set, leaving variable), which names (arc set, flipped arc)
    whatever the slot order.  A division is a call of exchange_terms,
    which mutate_seed makes only on a memo miss, inside a flip's mutation
    (so exchange graphs do not count)."""
    divisions, flipping = [], []

    def mutating(seed, k, memo):
        flipping.append(True)
        try:
            return mutate_seed(seed, k, memo)
        finally:
            flipping.pop()

    def recording(seed, k):
        if flipping:
            divisions.append((frozenset(seed.cluster), seed.cluster[k]))
        return exchange_terms(seed, k)

    monkeypatch.setattr(annulus, "mutate_seed", mutating)
    monkeypatch.setattr(engine, "exchange_terms", recording)
    return divisions


def _comparable(match):
    start, labeling, end, values, bindings, distance = match
    return start.tri.arcs, labeling, end.tri.arcs, values, bindings, distance


# (p, q, depth, kind, count, oracle): the first count matches, or all of
# them for None.  The exhaustive walk checks five prefixes; the
# memo-sharing walk checks every match at depth 3 on every C(p,q) with
# p + q <= 6, and the first bridging setup at rank 7
LABELED_SEARCH_CASES = [
    pytest.param(p, q, depth, kind, count, _exhaustive_matches, id=f"{p}-{q}-{depth}-{kind}-{count}")
    for p, q, depth, kind, count in [
        (4, 1, 4, "peripheral", 4),
        (5, 1, 3, "peripheral", 2),
        (2, 1, 5, "bridging", 0),
        (2, 2, 5, "bridging", 3),
        (3, 2, 4, "bridging", 3),
    ]
] + [
    pytest.param(p, rank - p, 3, kind, None, _memo_sharing_matches, id=f"{p}-{rank - p}-3-{kind}-all")
    for rank in range(2, 7)
    for p in range(1, rank)
    for kind in ("peripheral", "bridging")
] + [pytest.param(4, 3, 5, "bridging", 1, _memo_sharing_matches, id="4-3-5-bridging-1")]


class TestLazyLabeledSearch:
    @pytest.mark.parametrize("p,q,depth,kind,count,oracle", LABELED_SEARCH_CASES)
    def test_same_matches_as_the_exhaustive_walk(self, monkeypatch, p, q, depth, kind, count, oracle):
        patterns = {"peripheral": _PERIPHERAL_PATTERNS, "bridging": _BRIDGING_PATTERNS}[kind]
        # count 0: no match lies within depth, so both searches run dry;
        # count None: every match within depth, in order
        ann = MarkedAnnulus(p, q)
        if oracle is _exhaustive_matches:
            slow = oracle(ann, depth, kind, patterns)
        else:
            # both walks read one lazily grown flip ball, so each of its
            # flips is made once
            ours, theirs = itertools.tee(flip_levels(ann, depth))
            monkeypatch.setattr(verify, "flip_levels", lambda *_: ours)
            slow = oracle(theirs, kind, patterns)
        lazy = itertools.islice(_labeled_matches(ann, depth, kind, patterns), count or None)
        slow = itertools.islice(slow, count or None)
        lazy = [_comparable(m) for m in lazy]
        assert count is None or len(lazy) == count
        assert lazy == [_comparable(m) for m in slow]

    def test_bound_below_the_first_match_exhausts_both(self, monkeypatch):
        with pytest.raises(SearchExhausted):
            verify.report_peripheral_chain_geometric(4, 1, 1)
        monkeypatch.setattr(verify, "_labeled_matches", _exhaustive_matches)
        with pytest.raises(SearchExhausted):
            verify.report_peripheral_chain_geometric(4, 1, 1)

    @pytest.mark.parametrize("search", [
        lambda: run_report("case2-geometric"),
        lambda: _find_bridging_setup(MarkedAnnulus(2, 2)),
    ], ids=["case2-geometric", "bridging-setup-C22"])
    def test_each_flip_is_made_once(self, monkeypatch, search):
        # every exchange division of the search, the flip ball's included
        divisions = _recorded_divisions(monkeypatch)
        search()
        assert divisions and len(divisions) == len(set(divisions))

    @pytest.mark.parametrize("p,q,depth,kind,patterns", [
        (2, 2, 5, "bridging", _BRIDGING_PATTERNS),
        (4, 1, 6, "peripheral", _PERIPHERAL_PATTERNS),
    ], ids=["bridging-setup-C22", "case2-geometric"])
    def test_the_search_divides_only_in_flips(self, monkeypatch, p, q, depth, kind, patterns):
        # every binding of laurent.try_div_exact in the package is counted,
        # so a matcher dividing on its own shows as a surplus over the
        # exchange divisions of the flips
        divisions = _recorded_divisions(monkeypatch)
        calls = []
        original = laurent.try_div_exact

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "clusterlab":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        next(_labeled_matches(MarkedAnnulus(p, q), depth, kind, patterns))
        assert len(calls) == len(divisions) > 0


class TestInduction:
    def test_two_two_K4(self):
        report = run_report("induction", p=2, q=2, K=4)[0]
        assert report.passed

    def test_K_validation(self):
        with pytest.raises(ValueError):
            run_report("induction", K=2)

    def test_the_setup_search_divides_no_flip_back(self, monkeypatch):
        # the flips back to a state the search came from reuse the stored
        # reverse exchange: 326 divisions on C(4,4), where a memo of
        # forward exchanges alone made 524
        divisions = _recorded_divisions(monkeypatch)
        _find_bridging_setup(MarkedAnnulus(4, 4))
        assert len(divisions) == len(set(divisions)) == 326

    def test_a_miscounted_crossing_raises_crossing_mismatch(self, monkeypatch):
        # one crossing too many on every pair fails the first 2k - 1 check
        monkeypatch.setattr(verify, "crossing_number", lambda a, b, ann: crossing_number(a, b, ann) + 1)
        with pytest.raises(CrossingMismatch, match="first-slot arc at k=2 crosses 4, want 3"):
            report_winding_induction(2, 2, 3)

    def test_opposite_pair_finds_the_pair_by_its_sides(self):
        # on the fan of C(1,1), flipping arc 0 gives x1 * x1' = x2^2 + 1:
        # arc 1 twice against two boundary segments
        tri = initial_state(MarkedAnnulus(1, 1)).tri
        pairs = flip(tri, 0).pairs
        assert _opposite_pair(pairs, tri.arcs[1]) == (None, None)
        with pytest.raises(ShapeMismatch):
            _opposite_pair(pairs, tri.arcs[0])

    def test_opposite_pair_needs_a_square_pair(self):
        # the inner fan arc of C(3,2) has no side twice on its quadrilateral
        tri = initial_state(MarkedAnnulus(3, 2)).tri
        with pytest.raises(ShapeMismatch):
            _opposite_pair(flip(tri, 3).pairs, tri.arcs[0])


def winding_setup():
    """The C(2,2) setup of the induction: (bridging arc, end state of the
    setup, first slot, fourth slot, cross term)."""
    ann = MarkedAnnulus(2, 2)
    setup, labeling, state, values, _, _ = _find_bridging_setup(ann)
    cross_term = values["z2'"] * values["z3''"]
    return setup.tri.arcs[labeling[0]], state, labeling[0], labeling[3], cross_term


def flip_state_walk(state, slot1, slot4, cross_term, K):
    """The winding flips made with flip_state, which mutates the seed and
    divides every exchange sum: the slow path the band recurrence
    replaces.  Returns z1_k, z4_k and their arcs, keyed by k."""
    def step(state, slot, other):
        new_state, result = flip_state(state, slot)
        (square,) = [j for j, (a, b) in enumerate(result.pairs) if a is not None and a == b]
        assert result.pairs[square][0] == state.tri.arcs[other]
        assert _side_products(state, result.pairs)[1 - square] == cross_term
        return new_state

    z1_vals, z4_vals = {2: state.seed.cluster[slot1]}, {}
    z1_arcs, z4_arcs = {2: state.tri.arcs[slot1]}, {}
    for k in range(2, K + 1):
        state = step(state, slot4, slot1)
        z4_vals[k], z4_arcs[k] = state.seed.cluster[slot4], state.tri.arcs[slot4]
        if k < K:
            state = step(state, slot1, slot4)
            z1_vals[k + 1], z1_arcs[k + 1] = state.seed.cluster[slot1], state.tri.arcs[slot1]
    return z1_vals, z4_vals, z1_arcs, z4_arcs


class TestBandRecurrence:
    @pytest.fixture(scope="class")
    def setup(self):
        gamma, state, slot1, slot4, cross_term = winding_setup()
        band = _band(state.seed.cluster[slot4], state.seed.cluster[slot1], cross_term)
        return gamma, state, slot1, slot4, cross_term, band

    @pytest.mark.parametrize("K", [3, 4, 5, 6, 7, 8])
    def test_matches_the_flip_state_walk(self, setup, K):
        gamma, state, slot1, slot4, cross_term, band = setup
        fast = _winding_walk(state, slot1, slot4, cross_term, band, K)
        slow = flip_state_walk(state, slot1, slot4, cross_term, K)
        assert fast == slow
        ann = MarkedAnnulus(2, 2)
        z1_arcs, z4_arcs = fast[2], fast[3]
        assert [crossing_number(z1_arcs[k], gamma, ann) for k in range(2, K + 1)] == [
            2 * k - 1 for k in range(2, K + 1)
        ]
        assert [crossing_number(z4_arcs[k], gamma, ann) for k in range(2, K + 1)] == [
            2 * k for k in range(2, K + 1)
        ]

    def test_band_is_the_five_term_loop(self, setup):
        *_, band = setup
        assert len(band.terms) == 5
        assert band.has_positive_coefficients()

    @pytest.mark.parametrize("change", [1, -1, 2])
    def test_a_changed_band_coefficient_raises(self, setup, change):
        gamma, state, slot1, slot4, cross_term, band = setup
        for exps in band.terms:
            changed = band + LaurentPoly(band.arity, {exps: change})
            with pytest.raises(IdentityFailed):
                _winding_walk(state, slot1, slot4, cross_term, changed, 4)

    def test_a_changed_cross_term_raises(self, setup):
        gamma, state, slot1, slot4, cross_term, band = setup
        x1 = coordinates(cross_term.arity)[0]
        for changed in (cross_term + 1, cross_term * x1):
            with pytest.raises(ShapeMismatch):
                _winding_walk(state, slot1, slot4, changed, band, 4)

    def test_a_quiver_out_of_step_raises(self, setup):
        # the quiver mutated at a slot the winding never flips
        gamma, state, slot1, slot4, cross_term, band = setup
        other = min(set(range(len(state.tri.arcs))) - {slot1, slot4})
        wrong = TriSeed(state.tri, Seed(state.seed.quiver.mutate(other), state.seed.cluster))
        with pytest.raises(MalformedTriangulation):
            _winding_walk(wrong, slot1, slot4, cross_term, band, 4)

    def test_the_winding_flips_do_not_divide(self, monkeypatch):
        # every exact division goes through laurent.try_div_exact (div_exact
        # and the engine call it there)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        original = laurent.try_div_exact
        monkeypatch.setattr(laurent, "try_div_exact", counting)
        counts = {}
        for K in (4, 8):
            calls.clear()
            report_winding_induction(2, 2, K)
            counts[K] = len(calls)
        assert counts[4] == counts[8] > 0

    def test_one_exchange_product_per_walk(self, setup, monkeypatch):
        # the recurrence conserves x_{n+1} * x_{n-1} - x_n**2, so the walk
        # forms the product of a new winding variable and the one it
        # replaces once, at the first flip
        gamma, state, slot1, slot4, cross_term, band = setup
        products = []
        original = LaurentPoly.__mul__

        def recording(a, b):
            products.append((a, b))
            return original(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", recording)
        counts = {}
        for K in range(4, 9):
            products.clear()
            z1_vals, z4_vals, _, _ = _winding_walk(state, slot1, slot4, cross_term, band, K)
            counts[K] = len(products)
            chain = [state.seed.cluster[slot4]]
            for k in range(2, K + 1):
                chain += [z1_vals[k], z4_vals[k]]
            exchanges = [
                (a, b) for a, b in products for new, old in zip(chain[2:], chain)
                if {id(a), id(b)} == {id(new), id(old)}
            ]
            assert len(exchanges) == 1
        # K + 1 adds two flips, each one band product and one product of
        # the opposite pair's two sides
        assert {counts[K + 1] - counts[K] for K in range(4, 8)} == {4}


def full_residuals(values, z1_vals, z4_vals):
    """The residuals of the induction multiplied out in full, the slow path
    the factor proof replaces: (every residual positive, term counts)."""
    z1v, z2v = values["z1"], values["z2"]
    prefix = values["z1'"] * values["z3'"]
    positive, counts = True, {}
    for m in range(3, max(z4_vals) + 1):
        prefix = prefix * (z1_vals[m - 1] * z4_vals[m - 1])
        residual_one = prefix * (z1v * z1_vals[m] - z2v * z4_vals[m - 1])
        residual_two = prefix * z1_vals[m] * (z1v * z4_vals[m] - z2v * z1_vals[m])
        for tag, residual in ((2 * m + 2, residual_one), (2 * m + 3, residual_two)):
            positive = positive and bool(residual) and residual.has_positive_coefficients()
            counts[tag] = len(residual.terms)
    return positive, counts


def support_product(first, *rest):
    """The support of the product of the factors, every coefficient 1,
    from dict products with the coefficients reset to 1 after each: the
    path the support bitsets replace."""
    def ones(poly):
        return LaurentPoly(poly.arity, dict.fromkeys(poly.terms, 1))

    total = ones(first)
    for factor in rest:
        total = ones(total * ones(factor))
    return total


def support_counts(values, z1_vals, z4_vals):
    """The residual term counts of the induction from support products."""
    z1v, z2v = values["z1"], values["z2"]
    prefix = support_product(values["z1'"], values["z3'"])
    counts = {}
    for m in range(3, max(z4_vals) + 1):
        prefix = support_product(z1_vals[m - 1], z4_vals[m - 1], prefix)
        small_one = z1v * z1_vals[m] - z2v * z4_vals[m - 1]
        small_two = z1v * z4_vals[m] - z2v * z1_vals[m]
        counts[2 * m + 2] = len(support_product(small_one, prefix).terms)
        counts[2 * m + 3] = len(support_product(z1_vals[m], small_two, prefix).terms)
    return counts


class TestInductionFactorProof:
    @staticmethod
    def record(monkeypatch, tamper=lambda *args: args):
        """Capture the (possibly tampered) factors the proof is given."""
        seen = []
        original = verify._residual_term_counts

        def recording(*args):
            args = tamper(*args)
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "_residual_term_counts", recording)
        return seen

    @pytest.mark.parametrize("K", [3, 4, 5, 6])
    def test_matches_the_full_products(self, monkeypatch, K):
        seen = self.record(monkeypatch)
        report = report_winding_induction(2, 2, K)
        (factors,) = seen
        positive, counts = full_residuals(*factors)
        assert positive
        assert report.witness["residual_term_counts"] == str(counts)

    @pytest.mark.parametrize("table,key", [(2, 2), (2, 3), (2, 5), (1, 4), (0, "z3'")])
    def test_a_factor_that_is_not_positive_raises(self, monkeypatch, table, key):
        # negates (values, z1_k, z4_k)[table][key]: a z1_k or z4_k also sits
        # in a small difference, z3' only in the prefix
        def negate(*factors):
            factors = [dict(f) for f in factors]
            factors[table][key] = -factors[table][key]
            return factors

        seen = self.record(monkeypatch, negate)
        with pytest.raises(IdentityFailed):
            report_winding_induction(2, 2, 5)
        positive, _ = full_residuals(*seen[0])
        assert not positive

    @pytest.mark.parametrize("p,q,K", [(2, 2, 6), (3, 2, 3), (2, 3, 3)])
    def test_support_bitsets_match_the_support_products(self, monkeypatch, p, q, K):
        # C(3,2) and C(2,3) have rank-4 lattices in 5 variables, whose
        # support boxes are sparse
        seen = self.record(monkeypatch)
        report = report_winding_induction(p, q, K)
        (factors,) = seen
        assert report.witness["residual_term_counts"] == str(support_counts(*factors))

    def test_one_pivot_lattice_per_report(self, monkeypatch):
        counts = verify._residual_term_counts
        seen = self.record(monkeypatch)
        report_winding_induction(2, 2, 6)
        calls = []
        original = laurent._pivot_lattice

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(laurent, "_pivot_lattice", recording)
        counts(*seen[0])
        assert len(calls) == 1

    def test_K8_counts_are_pinned(self):
        # recorded from the full products, before the factor proof
        report = report_winding_induction(2, 2, 8)
        assert report.witness["residual_term_counts"] == str({
            8: 318, 9: 644, 10: 1179, 11: 1999, 12: 3192, 13: 4858,
            14: 7109, 15: 10069, 16: 13874, 17: 18672, 18: 24623, 19: 31899,
        })

    def test_K12_counts_are_pinned(self):
        # the documented scaling point; recorded from the support products
        report = report_winding_induction(2, 2, 12)
        assert report.witness["residual_term_counts"] == str({
            8: 318, 9: 644, 10: 1179, 11: 1999, 12: 3192, 13: 4858, 14: 7109,
            15: 10069, 16: 13874, 17: 18672, 18: 24623, 19: 31899, 20: 40684,
            21: 51174, 22: 63577, 23: 78113, 24: 95014, 25: 114524, 26: 136899,
            27: 162407,
        })


# the induction at K = 3 on the annuli where a side token binds to an arc
# variable: S7 on C(3,2), S6 on C(2,3); on C(2,2) every side token is 1.
# S8 -> S5 in z4' or z3'' changes none of these three induction reports,
# as S5 and S8 both bind to 1; it breaks the formal chains instead.
SIDE_TOKEN_ANNULI = {
    (3, 2): ("{8: 11508, 9: 41646}", "S5=1, S6=1, S7=x1*x2^-1 + x2^-1*x3, S8=1"),
    (2, 3): ("{8: 12310, 9: 43970}", "S5=1, S6=x1*x4^-1 + x3*x4^-1, S7=1, S8=1"),
}


def single_substitutions():
    """(row, side, position, old, new): each side token occurrence in the
    bridging patterns and another of S5-S8 to put there, 24 in all."""
    for name, _, *sides in _BRIDGING_PATTERNS:
        for side, (_, tokens) in enumerate(sides):
            for position, old in enumerate(tokens):
                for new in ("S5", "S6", "S7", "S8"):
                    if new != old:
                        yield name, side, position, old, new


def side_token_substitutions():
    """(p, q, row, side, position, new): the single substitutions where the
    old or the new token is the one that binds to an arc variable on C(p,q)."""
    bound = {(3, 2): "S7", (2, 3): "S6"}
    for (p, q), arc_token in bound.items():
        for name, side, position, old, new in single_substitutions():
            if arc_token in (old, new):
                yield p, q, name, side, position, new


def substituted(name, side, position, new):
    """The bridging patterns with one side token replaced."""
    patterns = []
    for token, slot, *sides in _BRIDGING_PATTERNS:
        if token == name:
            keys, tokens = sides[side]
            sides[side] = (keys, tokens[:position] + (new,) + tokens[position + 1:])
        patterns.append((token, slot, *sides))
    return patterns


class TestSideTokens:
    @pytest.fixture(scope="class")
    def reports(self):
        return {(p, q): report_winding_induction(p, q, 3).to_json() for p, q in SIDE_TOKEN_ANNULI}

    @pytest.mark.parametrize("p,q", sorted(SIDE_TOKEN_ANNULI))
    def test_induction_is_pinned(self, p, q):
        counts, bindings = SIDE_TOKEN_ANNULI[p, q]
        report = report_winding_induction(p, q, 3)
        assert report.witness["residual_term_counts"] == counts
        assert report.witness["side_bindings"] == bindings

    @pytest.mark.parametrize("p,q,name,side,position,new", list(side_token_substitutions()))
    def test_a_substituted_side_token_changes_the_report(
        self, monkeypatch, reports, p, q, name, side, position, new
    ):
        monkeypatch.setattr(verify, "_BRIDGING_PATTERNS", substituted(name, side, position, new))
        try:
            got = report_winding_induction(p, q, 3).to_json()
        except ClusterLabError:
            return
        assert got != reports[p, q]

    @pytest.mark.parametrize("name,side,position,old,new", list(single_substitutions()))
    def test_a_substituted_side_token_breaks_the_formal_chains(
        self, monkeypatch, name, side, position, old, new
    ):
        # the formal chains read the bridging table when they run, so every
        # substitution must break or change case3-n2, -n3 and -n4 together.
        # All but three break them with an inexact division.  S5 is z5, which
        # no other relation reads, so S5 -> S6, S7 or S8 in the z2' row is a
        # specialization of the free chain: every identity still holds and
        # only the witnesses move (case3-n4's lone term count stays 390
        # under S5 -> S7 and S5 -> S8)
        golden = [report_bridging_chain_formal(n).to_json() for n in (2, 3, 4)]
        monkeypatch.setattr(verify, "_BRIDGING_PATTERNS", substituted(name, side, position, new))
        try:
            got = [report_bridging_chain_formal(n).to_json() for n in (2, 3, 4)]
        except ClusterLabError:
            return
        assert (name, old) == ("z2'", "S5") and got != golden


class TestPreconditions:
    @pytest.mark.parametrize("name,params", [
        ("quiver-recovery", {"p": 1, "q": 2}),
        ("case2-geometric", {"p": 3}),
        ("induction", {"K": 2}),
        ("case2-geometric", {"p": 3, "q": 3}),
        ("case2-geometric", {"p": 1, "q": 3}),
    ])
    def test_bad_parameters_raise_invalid_parameter(self, name, params):
        with pytest.raises(InvalidParameter):
            run_report(name, **params)

    @pytest.mark.parametrize("name", ["case2-formal", "unistructurality", "all"])
    @pytest.mark.parametrize("rng_seed", [0, 5])
    def test_rng_seed_is_taken_only_by_cover_flip(self, name, rng_seed):
        # like every other parameter, an rng seed a report does not read is
        # rejected, 0 included, instead of silently ignored
        with pytest.raises(InvalidParameter, match="rng_seed"):
            run_report(name, rng_seed=rng_seed)


class TestRecoveryAndUniqueness:
    @pytest.mark.parametrize("p,q,depth", [(1, 1, 3), (2, 1, 4), (3, 2, 3)])
    def test_quiver_recovery(self, p, q, depth):
        report = run_report("quiver-recovery", p=p, q=q, depth=depth)[0]
        assert report.passed
        assert report.witness["orientation"] in ("same", "opposite")

    def test_unistructurality_smallest(self):
        report = report_unistructurality(1, 1, 5)
        assert report.passed
        assert report.witness["compatible_subsets"] == "11"
        assert report.witness["clusters"] == "11"

    def test_unistructurality_substitutes_each_variable_once(self, monkeypatch):
        seen = []

        def recording(variable, images):
            seen.append((variable, tuple(images)))
            return substitute(variable, images)

        monkeypatch.setattr(verify, "substitute", recording)
        assert report_unistructurality(3, 1, 4).passed
        assert seen and len(seen) == len(set(seen))

    def test_unistructurality_two_one(self):
        report = report_unistructurality(2, 1, 4)
        assert report.passed
        assert int(report.witness["witnessed_by_flip_path"]) > 0

    @pytest.mark.parametrize("p,q,depth", [(1, 1, 5), (2, 1, 4), (3, 1, 4), (2, 2, 4)])
    def test_compatible_cliques_match_brute_force(self, p, q, depth):
        # oracle: every full-size subset of the sorted pool, filtered by
        # pairwise crossings; the cliques must be the same subsets in the
        # same order
        ann = MarkedAnnulus(p, q)
        arcs = sorted({arc for node in flip_bfs(ann, depth).values() for arc in node.state.tri.arcs})
        crossing = {pair: crossing_number(*pair, ann) for pair in itertools.combinations(arcs, 2)}
        oracle = [
            combo for combo in itertools.combinations(arcs, p + q)
            if not any(crossing[pair] for pair in itertools.combinations(combo, 2))
        ]
        assert oracle
        assert list(_compatible_cliques(ann, arcs, p + q)) == oracle

    @pytest.mark.parametrize("p,q,depth", [(2, 1, 4), (3, 1, 4), (3, 2, 3)])
    def test_the_walk_matches_the_descent_from_the_fan(self, p, q, depth, monkeypatch):
        # each clique outside the ball is certified by a flip from another
        # certified clique, so its arcs are reached along many flip paths;
        # every one must give each arc the variable the fan's descent gives it
        ann = MarkedAnnulus(p, q)
        certified = []

        def recording(state, idx):
            flipped, result = flip_state(state, idx)
            certified.append(flipped)
            return flipped, result

        monkeypatch.setattr(verify, "flip_state", recording)
        report = report_unistructurality(p, q, depth)
        assert len(certified) == int(report.witness["witnessed_by_flip_path"]) > 0
        assert len({state.tri.arc_set for state in certified}) == len(certified)
        for state in certified:
            assert state.assignment == annulus._descend(ann, state.tri.arc_set).assignment

    def test_a_certifying_flip_with_a_wrong_variable_is_a_counterexample(self, monkeypatch):
        # the walk checks the variable each certifying flip gives its new
        # arc against the one the ball gives that arc
        def negating(state, idx):
            flipped, result = flip_state(state, idx)
            cluster = list(flipped.seed.cluster)
            cluster[idx] = -cluster[idx]
            return TriSeed(flipped.tri, Seed(flipped.seed.quiver, cluster), flipped.memo), result

        monkeypatch.setattr(verify, "flip_state", negating)
        with pytest.raises(CounterexampleFound, match="misses the cluster of its neighbour"):
            report_unistructurality(2, 1, 4)

    def test_two_ball_arcs_with_one_variable_are_a_counterexample(self, monkeypatch):
        # the last node of the ball gives its first arc the variable of a
        # fan arc it lacks, so two arcs of the pool share that variable
        true_flip_bfs = verify.flip_bfs

        def merging(ann, depth):
            nodes = true_flip_bfs(ann, depth)
            fan, *_, last = nodes.values()
            state = last.state
            taken = next(var for arc, var in fan.state.assignment.items() if arc not in state.tri.arc_set)
            cluster = [taken, *state.seed.cluster[1:]]
            last.state = TriSeed(state.tri, Seed(state.seed.quiver, cluster), state.memo)
            return nodes

        monkeypatch.setattr(verify, "flip_bfs", merging)
        with pytest.raises(CounterexampleFound, match="share a variable"):
            report_unistructurality(2, 1, 4)

    def test_certification_flip_count(self, monkeypatch):
        # certifying the 12 subsets outside the ball of C(3,1) at depth 4
        # takes one flip each from a certified neighbour; descents from the
        # nearest ball node took 14 and descents from the fan 62
        calls = []

        def counting(state, target):
            calls.append(target)
            return flip_state(state, target)

        monkeypatch.setattr(annulus, "flip_state", counting)
        monkeypatch.setattr(verify, "flip_state", counting)
        flip_bfs(MarkedAnnulus(3, 1), 4)
        ball = len(calls)
        calls.clear()
        report = report_unistructurality(3, 1, 4)
        assert report.witness["witnessed_by_flip_path"] == "12"
        assert len(calls) - ball == 12

    def test_each_certification_flip_is_divided_once(self, monkeypatch):
        # the walk shares the ball's exchange memo, which stores each
        # division with its reverse, so the report divides each exchange
        # once and no flip back: 107 on C(4,3) at depth 4, where descents
        # from the nearest ball node made 111, a memo of forward exchanges
        # 179, one of whole flips 1,222 and no memo 1,421
        divisions = _recorded_divisions(monkeypatch)
        report_unistructurality(4, 3, 4)
        assert len(divisions) == len(set(divisions)) == 107

    def test_cliques_cross_each_pool_pair_once(self, monkeypatch):
        # the clique search crosses each pair of the 35 pool arcs once (595
        # calls, plus 21 checking the fan), and the walk certifies by flips,
        # not by crossings: 616 crossing_number calls on C(4,3) at depth 4,
        # where certification descents made 4,781
        calls = []

        def counting(a, b, ann):
            calls.append((a, b))
            return crossing_number(a, b, ann)

        monkeypatch.setattr(annulus, "crossing_number", counting)
        monkeypatch.setattr(verify, "crossing_number", counting)
        report = report_unistructurality(4, 3, 4)
        assert report.witness["witnessed_by_flip_path"] == "380"
        assert len(calls) == 616

    @pytest.mark.parametrize("p,q,witness", [
        (1, 1, (7, 8, 7, 0)),
        (1, 2, (16, 13, 18, 2)),
        (2, 1, (16, 13, 18, 2)),
        (1, 3, (33, 16, 35, 2)),
        (2, 2, (33, 16, 36, 3)),
        (3, 1, (33, 16, 35, 2)),
        (1, 4, (54, 20, 68, 14)),
        (2, 3, (54, 20, 72, 18)),
        (3, 2, (54, 20, 72, 18)),
        (4, 1, (54, 20, 68, 14)),
        (1, 5, (82, 24, 146, 64)),
        (2, 4, (82, 24, 153, 71)),
        (3, 3, (82, 24, 152, 70)),
        (4, 2, (82, 24, 153, 71)),
        (5, 1, (82, 24, 146, 64)),
    ])
    def test_unistructurality_covers_every_small_annulus(self, p, q, witness):
        # the unistructurality column of the coverage table: every C(p,q)
        # with p + q <= 6 passes at depth 3, the walk reaching every clique;
        # witnesses measured with certification descents from the ball
        report = report_unistructurality(p, q, 3)
        fields = ("clusters", "variables", "compatible_subsets", "witnessed_by_flip_path")
        assert tuple(int(report.witness[key]) for key in fields) == witness

    @pytest.mark.parametrize("p,q,depth,witness", [
        (3, 1, 4, (53, 22, 65, 12)),
        (3, 2, 5, (176, 37, 276, 100)),
        (4, 2, 4, (192, 30, 289, 97)),
        (4, 3, 4, (310, 35, 690, 380)),
        (4, 4, 4, (473, 40, 1627, 1154)),
        (5, 4, 4, (691, 45, 4031, 3340)),
        (5, 5, 4, (975, 50, 10290, 9315)),
    ])
    def test_unistructurality_scaling_points(self, p, q, depth, witness):
        # measured with the brute-force subset filter and descents from the fan
        report = report_unistructurality(p, q, depth)
        fields = ("clusters", "variables", "compatible_subsets", "witnessed_by_flip_path")
        assert tuple(int(report.witness[key]) for key in fields) == witness


def _span_in_periods(tri: Triangulation) -> int:
    """The widest arc's span in deck periods: its farthest endpoint, rounded up."""
    periods = (tri.annulus.p, tri.annulus.q)
    return max(-(-abs(x) // periods[b]) for arc in tri.arcs for b, x in arc.chord)


class TestCoverFlipOnVisitedTriangulations:
    # the reports never consult the strip; it checks flip() from outside,
    # on every triangulation the searches flip from or reach
    @pytest.fixture(scope="class")
    def visited(self):
        seen = {}

        def recording(state, idx):
            new_state, result = flip_state(state, idx)
            seen.update(dict.fromkeys((state.tri, new_state.tri)))
            return new_state, result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "flip_state", recording)
            run_report("case2-geometric")
            run_report("induction")
            run_report("induction", p=3, q=2, K=3)
        return list(seen)

    def test_every_visited_slot_flips_as_in_the_strip(self, visited):
        assert len(visited) == 68  # 328 (triangulation, slot) pairs
        for tri in visited:
            window = max(3, 1 + _span_in_periods(tri))
            for index in range(len(tri.arcs)):
                assert verify_cover_flip(tri, index, window), (tri, index)

    def test_the_searches_start_and_end_are_visited(self, visited):
        # the induction setups' start and end triangulations, whose first
        # slot the reports once checked themselves, are among the checks
        for p, q in ((2, 2), (3, 2)):
            setup, _, end, *_ = _find_bridging_setup(MarkedAnnulus(p, q))
            assert setup.tri in visited and end.tri in visited


class TestCoverFlipReport:
    def test_small_sample(self):
        report = run_report("cover-flip", rng_seed=3)[0]
        assert report.passed

    def test_walks_flip_triangulations_without_seeds(self, monkeypatch):
        # the report flips triangulations only; the seed mutations flip_state
        # would do alongside are never read, so they must not run
        checked = []

        def recording(tri, index, window):
            checked.append((tri, index, window))
            return True

        def no_flip_state(*args):
            raise AssertionError("report_cover_flip called flip_state")

        monkeypatch.setattr(verify, "verify_cover_flip", recording)
        monkeypatch.setattr(verify, "flip_state", no_flip_state)
        monkeypatch.setattr(verify, "COVER_FLIP_SAMPLES", 6)
        report = verify.report_cover_flip(rng_seed=5)
        assert report.context == {"cases": [[2, 1], [2, 2], [3, 2]], "samples": 6, "window": 3}

        # the same draws through flip_state visit the same triangulations
        rng = random.Random(5)
        expected = []
        for p, q in ((2, 1), (2, 2), (3, 2)):
            for _ in range(6):
                state = initial_state(MarkedAnnulus(p, q))
                for _ in range(rng.randrange(4)):
                    state, _ = flip_state(state, rng.randrange(p + q))
                expected.append((state.tri, rng.randrange(p + q), 3))
        assert checked == expected

    def test_walks_flip_each_step_once(self, monkeypatch):
        # a walk step repeated within one report reuses its first flip
        flipped = []

        def recording(tri, index):
            flipped.append((tri, index))
            return flip(tri, index)

        monkeypatch.setattr(verify, "flip", recording)
        assert verify.report_cover_flip(rng_seed=0).passed
        assert flipped and len(flipped) == len(set(flipped))

    def test_unknown_report_name(self):
        # InvalidParameter is a ValueError, and names every valid report
        with pytest.raises(InvalidParameter, match="unknown report 'no-such-report'") as caught:
            run_report("no-such-report")
        assert isinstance(caught.value, ValueError)
        assert all(name in str(caught.value) for name in REPORT_NAMES + ("all",))


# sha256 of each report's JSON at its defaults, encoded as `clusterlab verify`
# prints it; a refactor must leave every report byte-identical
GOLDEN_SHA256 = {
    "lemma31": "56beea965bc4771c640fff627b6f1b498623f96343ec4531b6fd04193110ba73",
    "case1": "0764c86cf58eb0b89e19afc7784bc6a2bda5a23863f0105154bb0a901a12a0b8",
    "case2-formal": "e8fb41f4f567d0cd8f497b5a548ea71f406df7c90c96cd9d95ebe4df5b4ce069",
    "case2-geometric": "a0baa2d6b760cbd79dd1d8d45ef95da029a98a3526321066f291bbff02e10001",
    "case3-n2": "789397474dcf06cc4334e17371c0011bf9d0654fa6afd5927578f65957ab4d6c",
    "case3-n3": "ae906891e14fa0fc0a3f76815a2863794ff1bc5ec1b5d286bcff87da76725920",
    "case3-n4": "49ea42624b9b34cd6aba1590e4584e45a9b30cee6e205f3b11605647f51f019b",
    "induction": "85059126c8f9045162e7148b2d250f739d18dcce31922829d95c22fae573f815",
    "quiver-recovery": "2436ccd34510e5aa9a48ce206dbb2b193496b86122854fc13958bc0692ec2bb6",
    "unistructurality": "ebbc8b06703e8ad7738a7585f5b6586b5d9e3dfd4796ea54101ec88aa752d68b",
    "cover-flip": "03df2d6e1d9555d9b6623d991fe75a294000f68700fb864fe39cf6aaf54079dd",
}


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_json_is_golden(name):
    payload = json.dumps([r.to_json() for r in run_report(name)], indent=2, sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_SHA256[name]
