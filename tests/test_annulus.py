import bisect
import itertools
import random

import pytest

from clusterlab import annulus as annulus_mod
from clusterlab import engine as engine_mod
from clusterlab import laurent
from clusterlab.annulus import (
    MarkedAnnulus,
    TriSeed,
    _Strip,
    _anchored,
    _crossing_shifts,
    _descend,
    arc_check,
    arc_from_json,
    arc_to_json,
    candidate_arcs,
    classify_arc,
    crossing_number,
    deck_chord,
    deck_endpoint,
    flip,
    flip_bfs,
    flip_levels,
    flip_state,
    initial_state,
    initial_triangulation,
    make_arc,
    quiver_of,
    self_crossing,
    triangles,
    triangulation,
    triangulation_from_json,
    triangulation_to_json,
    variable_of_arc,
    verify_cover_flip,
)
from clusterlab.engine import Seed, denominator_vector, exchange_terms, initial_seed, mutate_seed
from clusterlab.errors import (
    ClusterLabError,
    FlipSearchExceeded,
    InvalidArc,
    InvalidParameter,
    InvalidTriangulation,
    LimitExceeded,
    MalformedTriangulation,
)
from clusterlab.laurent import LaurentPoly, coordinates, poly_prod
from clusterlab.quiver import Quiver, canonical_form, classify_tilde_A, tilde_A_canonical
from clusterlab.verify import _find_bridging_setup


@pytest.fixture
def ann11():
    return MarkedAnnulus(1, 1)


@pytest.fixture
def ann21():
    return MarkedAnnulus(2, 1)


@pytest.fixture
def ann32():
    return MarkedAnnulus(3, 2)


class TestArcValidity:
    def test_boundary_segment(self, ann32):
        ok, reason = arc_check(ann32, (0, 0), (0, 1))
        assert not ok and reason == "boundary segment"

    def test_contractible(self, ann32):
        ok, reason = arc_check(ann32, (0, 2), (0, 2))
        assert not ok and "contractible" in reason

    def test_overlong_peripheral_self_crosses(self, ann32):
        ok, reason = arc_check(ann32, (0, 0), (0, 5))
        assert not ok and "deck translates" in reason

    def test_full_loop_is_valid(self, ann32):
        ok, _ = arc_check(ann32, (0, 0), (0, 3))
        assert ok

    def test_bridging_any_winding(self, ann32):
        for winding in range(-3, 4):
            ok, _ = arc_check(ann32, (0, 0), (1, winding))
            assert ok

    def test_make_arc_rejects_invalid(self, ann32):
        with pytest.raises(InvalidArc):
            make_arc(ann32, (0, 0), (0, 1))

    def test_canonicalization(self, ann32):
        # translates collapse to one representative, anchored in the window
        a = make_arc(ann32, (0, 3), (1, 2))
        b = make_arc(ann32, (0, 0), (1, 0))
        assert a == b
        assert 0 <= a.e1[1] < 3

    def test_anchored_is_one_normal_form_per_deck_orbit(self, ann32):
        # every translate and every ordering of a point set has the same
        # normal form: sorted, its least point in the window
        points = [(1, 4), (0, -2), (0, 7)]
        form = _anchored(ann32, points)
        assert form == ((0, 1), (0, 10), (1, 6))
        for k in range(-3, 4):
            for order in itertools.permutations(points):
                assert _anchored(ann32, [deck_endpoint(v, k, ann32) for v in order]) == form

    def test_period_of_a_third_boundary_is_an_invalid_parameter(self, ann32):
        with pytest.raises(InvalidParameter, match="must be 0 or 1"):
            ann32.period(2)


class TestCrossingNumbers:
    def test_self_crossing_zero(self, ann11):
        arc = make_arc(ann11, (0, 0), (1, 3))
        assert crossing_number(arc, arc, ann11) == 0

    def test_bridging_pair(self, ann11):
        a = make_arc(ann11, (0, 0), (1, 0))
        b = make_arc(ann11, (0, 0), (1, 2))
        assert crossing_number(a, b, ann11) == 1

    def test_peripheral_pair(self, ann32):
        a = make_arc(ann32, (0, 0), (0, 2))
        b = make_arc(ann32, (0, 1), (0, 3))
        assert crossing_number(a, b, ann32) == 1

    def test_symmetry_and_deck_invariance(self, ann32):
        rng = random.Random(13)
        pool = candidate_arcs(ann32, winding=2)
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            value = crossing_number(a, b, ann32)
            assert value == crossing_number(b, a, ann32)
            shifted_a = make_arc(ann32, *deck_chord(a.chord, 3, ann32))
            shifted_b = make_arc(ann32, *deck_chord(b.chord, 3, ann32))
            assert value == crossing_number(shifted_a, shifted_b, ann32)

    def test_opposite_boundary_peripherals_never_cross(self):
        ann = MarkedAnnulus(3, 3)
        outer = [a for a in candidate_arcs(ann) if classify_arc(a) == ("peripheral", 0)]
        inner = [a for a in candidate_arcs(ann) if classify_arc(a) == ("peripheral", 1)]
        assert outer and inner
        for a in outer:
            for b in inner:
                assert crossing_number(a, b, ann) == 0

    def test_winding_difference_counts(self, ann11):
        base = make_arc(ann11, (0, 0), (1, 0))
        for w in range(2, 6):
            far = make_arc(ann11, (0, 0), (1, w))
            assert crossing_number(base, far, ann11) == w - 1


def _interleave(c1, c2):
    """Strict interleaving of endpoints in the boundary circle's order
    (line 0 left to right, then line 1 right to left); chords sharing an
    endpoint never cross."""
    def at(point):
        return (0, point[1]) if point[0] == 0 else (1, -point[1])

    if set(c1) & set(c2):
        return False
    lo, hi = sorted(map(at, c1))
    return (lo < at(c2[0]) < hi) != (lo < at(c2[1]) < hi)


def _scan_translates(c1, c2, ann, skip_zero=False):
    """The deck-translate scan the closed form replaced, kept as the
    oracle: only translates aligning some same-line endpoint pair can
    interleave, so it tries that shift range with a margin of two."""
    shifts = []
    for ea in c1:
        for eb in c2:
            if ea[0] == eb[0]:
                delta, period = ea[1] - eb[1], ann.period(ea[0])
                shifts += [delta // period, -((-delta) // period)]
    if not shifts:
        return []
    translates = (deck_chord(c2, k, ann) for k in range(min(shifts) - 2, max(shifts) + 3)
                  if not (skip_zero and k == 0))
    return [t for t in translates if _interleave(c1, t)]


SMALL_ANNULI = [(p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6]


class TestCrossingShiftsAgainstScan:
    @pytest.mark.parametrize("p,q", SMALL_ANNULI)
    def test_translates_of_every_candidate_pair(self, p, q):
        ann = MarkedAnnulus(p, q)
        pool = candidate_arcs(ann, 3)
        for a, b in itertools.product(pool, repeat=2):
            shifts = _crossing_shifts(a.chord, b.chord, ann)
            assert len(shifts) <= 2
            got = [deck_chord(b.chord, k, ann) for r in shifts for k in r]
            assert got == _scan_translates(a.chord, b.chord, ann)
            assert crossing_number(a, b, ann) == len(got)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 1)])
    def test_self_crossing_and_arc_check_on_raw_pairs(self, p, q):
        # every endpoint pair in a box: boundary segments, loops, wound
        # peripheral pairs and bridging pairs of any winding
        ann = MarkedAnnulus(p, q)
        box = [(b, x) for b in (0, 1) for x in range(-9, 10)]
        accepted = 0
        for e1, e2 in itertools.product(box, repeat=2):
            want = len(_scan_translates((e1, e2), (e1, e2), ann, skip_zero=True))
            assert self_crossing((e1, e2), ann) == want
            gap = abs(e1[1] - e2[1]) if e1[0] == e2[0] else None
            ok = gap not in (0, 1) and want == 0
            assert arc_check(ann, e1, e2)[0] == ok
            if ok:
                make_arc(ann, e1, e2)
                accepted += 1
            else:
                with pytest.raises(InvalidArc):
                    make_arc(ann, e1, e2)
        assert 0 < accepted < len(box) ** 2


class TestClassifyArc:
    def test_bridging(self, ann11):
        assert classify_arc(make_arc(ann11, (0, 0), (1, 0))) == ("bridging", None)

    def test_peripheral_outer(self, ann32):
        assert classify_arc(make_arc(ann32, (0, 0), (0, 2))) == ("peripheral", 0)

    def test_flip_of_inner_fan_arc_is_inner_peripheral(self, ann32):
        tri = initial_triangulation(ann32)
        result = flip(tri, 3)
        assert classify_arc(result.new_arc) == ("peripheral", 1)


class TestInitialTriangulation:
    def test_smallest_annulus(self, ann11):
        tri = initial_triangulation(ann11)
        assert set(tri.arcs) == {
            make_arc(ann11, (0, 0), (1, 0)),
            make_arc(ann11, (0, 1), (1, 0)),
        }

    def test_counts(self):
        for p in range(1, 5):
            for q in range(1, 5):
                tri = initial_triangulation(MarkedAnnulus(p, q))
                assert len(tri.arcs) == p + q

    def test_gives_double_arrow(self, ann11):
        fan_quiver = quiver_of(initial_triangulation(ann11))
        assert canonical_form(fan_quiver) == canonical_form(tilde_A_canonical(1, 1))

    def test_pairwise_compatible(self, ann32):
        tri = initial_triangulation(ann32)
        for a, b in itertools.combinations(tri.arcs, 2):
            assert crossing_number(a, b, ann32) == 0


class TestTriangles:
    def test_counts_match_rank(self):
        for p, q in ((1, 1), (2, 1), (3, 2)):
            ann = MarkedAnnulus(p, q)
            assert len(triangles(initial_triangulation(ann))) == p + q

    def test_smallest_annulus_structure(self, ann11):
        tri = initial_triangulation(ann11)
        for triangle in triangles(tri):
            arcs = [s for s in triangle.sides if s is not None]
            assert sorted(arcs) == sorted(tri.arcs)
            assert sum(1 for s in triangle.sides if s is None) == 1

    def test_every_arc_on_two_triangles(self, ann32):
        tri = initial_triangulation(ann32)
        counts = {arc: 0 for arc in tri.arcs}
        for triangle in triangles(tri):
            for side in triangle.sides:
                if side is not None:
                    counts[side] += 1
        assert all(count == 2 for count in counts.values())

    def test_maximality(self, ann21):
        tri = initial_triangulation(ann21)
        for candidate in candidate_arcs(ann21, winding=2):
            if candidate in tri.arc_set:
                continue
            assert any(crossing_number(candidate, a, ann21) > 0 for a in tri.arcs)

    def test_rejects_undersized_collections(self, ann21):
        with pytest.raises(InvalidTriangulation):
            triangulation(ann21, [make_arc(ann21, (0, 0), (1, 0))])

    def test_rejects_crossing_pair(self, ann11):
        with pytest.raises(InvalidTriangulation):
            triangulation(
                ann11,
                [make_arc(ann11, (0, 0), (1, 0)), make_arc(ann11, (0, 0), (1, 2))],
            )


class TestQuiverExtraction:
    def test_classification(self):
        for p, q in ((2, 1), (3, 2)):
            label = classify_tilde_A(quiver_of(initial_triangulation(MarkedAnnulus(p, q))))
            assert (label.p, label.q) == (p, q)

    def test_flip_commutes_with_mutation(self, ann32):
        tri = initial_triangulation(ann32)
        quiver = quiver_of(tri)
        for i in range(len(tri.arcs)):
            assert quiver_of(flip(tri, i).triangulation) == quiver.mutate(i)

    def test_commutation_from_flipped_start(self, ann21):
        tri = flip(initial_triangulation(ann21), 1).triangulation
        quiver = quiver_of(tri)
        for i in range(len(tri.arcs)):
            assert quiver_of(flip(tri, i).triangulation) == quiver.mutate(i)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 5), (6, 1)])
    def test_commutation_along_seeded_walks(self, p, q):
        rng = random.Random(1000 * p + q)
        tri = initial_triangulation(MarkedAnnulus(p, q))
        for _ in range(15):
            _assert_flips_commute_with_mutation(tri)
            tri = flip(tri, rng.randrange(p + q)).triangulation

    def test_commutation_on_the_wound_induction_triangulation(self):
        ann = MarkedAnnulus(2, 2)
        _, labeling, state, _, _, _ = _find_bridging_setup(ann)
        tri = state.tri
        for k in range(2, 7):
            for slot in (labeling[3], labeling[0]) if k < 6 else (labeling[3],):
                _assert_flips_commute_with_mutation(tri)
                tri = flip(tri, slot).triangulation
        _assert_flips_commute_with_mutation(tri)


def _assert_flips_commute_with_mutation(tri):
    quiver = quiver_of(tri)
    for i in range(len(tri.arcs)):
        assert quiver_of(flip(tri, i).triangulation) == quiver.mutate(i)


def _rotation_key(v, u):
    """The oracle for the counterclockwise order of the edges at v: the
    position of the far endpoint u along the boundary circle, started just
    after v, case by case."""
    vb, vx = v
    ub, ux = u
    if vb == 0:
        if ub == 0:
            return (0, ux - vx) if ux > vx else (2, ux)
        return (1, -ux)
    if ub == 1:
        return (0, vx - ux) if ux < vx else (2, -ux)
    return (1, ux)


class TestFlip:
    def test_rotations_are_the_oracle_order_up_to_a_cyclic_shift(self, monkeypatch):
        # the face walk sorts neighbours in boundary-circle order; turning
        # takes the cyclic predecessor, so a cyclic shift of the oracle's
        # order walks the same faces
        balls = [flip_bfs(MarkedAnnulus(p, q), 2) for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]]
        real = annulus_mod._rotation
        recorded = []

        def recording(ends, ann, v):
            rotation = real(ends, ann, v)
            recorded.append((v, [w for w, _ in rotation]))
            return rotation

        monkeypatch.setattr(annulus_mod, "_rotation", recording)
        for ball in balls:
            for node in ball.values():
                for idx in range(len(node.state.tri.arcs)):
                    flip(node.state.tri, idx)
        assert recorded
        for v, got in recorded:
            want = sorted(got, key=lambda u: _rotation_key(v, u))
            cut = got.index(want[0])
            assert got[cut:] + got[:cut] == want

    def test_involution(self, ann32):
        tri = initial_triangulation(ann32)
        for i in range(len(tri.arcs)):
            once = flip(tri, i)
            back = flip(once.triangulation, i)
            assert back.triangulation.arcs == tri.arcs
            assert back.new_arc == tri.arcs[i]

    def test_worked_example_shape(self, ann32):
        # flipping the inner fan arc gives the quad with two inner boundary
        # sides and the two extreme fan arcs as the opposite pair
        tri = initial_triangulation(ann32)
        result = flip(tri, 3)
        boundary = sum(1 for pair in result.pairs for s in pair if s is None)
        assert boundary == 2
        interior = {s for pair in result.pairs for s in pair if s is not None}
        assert interior == {tri.arcs[0], tri.arcs[4]}

    def test_smallest_annulus_stays_double_arrow(self, ann11):
        tri = initial_triangulation(ann11)
        for i in range(2):
            flipped = flip(tri, i).triangulation
            assert canonical_form(quiver_of(flipped)) == canonical_form(tilde_A_canonical(1, 1))

    def test_randomized_involution(self):
        rng = random.Random(23)
        states = {
            (p, q): initial_triangulation(MarkedAnnulus(p, q))
            for p, q in ((1, 1), (2, 1), (3, 2))
        }
        for _ in range(200):
            p, q = rng.choice(list(states))
            tri = states[(p, q)]
            i = rng.randrange(p + q)
            once = flip(tri, i)
            assert flip(once.triangulation, i).triangulation.arcs == tri.arcs
            if rng.random() < 0.5:
                states[(p, q)] = once.triangulation  # drift to new triangulations


def _side(ann, a, b):
    # the arc along the strip edge a-b, None for a boundary segment
    if a[0] == b[0] and abs(a[1] - b[1]) == 1:
        return None
    return make_arc(ann, a, b)


def _point(strip, i):
    # the endpoint of vertex number i: line 0 left to right, then line 1
    # right to left
    line0 = strip.hi[0] - strip.lo[0] + 1
    return (0, strip.lo[0] + i) if i < line0 else (1, strip.hi[1] - (i - line0))


def _strip_reading(tri):
    """Every flip of tri, and its quiver, read off one strip drawing
    independently of the local face walk.

    Both apexes of each arc's canonical lift u -> v are
    _Strip._triangle_apex on a strip padded past every vertex of its
    quadrilateral, decoded from the strip's vertex numbers.  The face left
    of each of the two darts contributes the arrow from the arc to the
    next side; each corner of every triangle orbit is one such (dart,
    face) pair, so no orbit deduplication is needed.
    """
    ann = tri.annulus
    reach = max(abs(x) for arc in tri.arcs for _, x in arc.chord) + 1
    # a vertex joined to u or v sits within reach * (1 + 2 max(p, q)) of 0,
    # and its rotation needs the translates of every arc up to reach beyond
    pad = reach * (2 * max(ann.p, ann.q) + 2) + 1
    ks = range(-pad, pad + 1)
    strip = _Strip([a.chord for a in tri.arcs], ks, ann)
    index = {arc: i for i, arc in enumerate(tri.arcs)}
    b = [[0] * len(tri.arcs) for _ in tri.arcs]
    flips = []
    for idx, gamma in enumerate(tri.arcs):
        u, v = gamma.chord
        i, j = strip.index(u), strip.index(v)
        apex1, apex2 = strip._triangle_apex(i, j), strip._triangle_apex(j, i)
        assert None not in (apex1, apex2)
        apex1, apex2 = _point(strip, apex1), _point(strip, apex2)
        for after in (_side(ann, v, apex1), _side(ann, u, apex2)):
            if after is not None and after != gamma:
                b[idx][index[after]] += 1
                b[index[after]][idx] -= 1
        new_arc = make_arc(ann, apex1, apex2)
        arcs = list(tri.arcs)
        arcs[idx] = new_arc
        pairs = (
            (_side(ann, v, apex1), _side(ann, u, apex2)),
            (_side(ann, apex1, u), _side(ann, apex2, v)),
        )
        flips.append((tuple(arcs), new_arc, pairs))
    return flips, Quiver(b)


def _assert_flips_match_strip(tri):
    flips, quiver = _strip_reading(tri)
    assert quiver_of(tri) == quiver
    for idx, (arcs, new_arc, pairs) in enumerate(flips):
        result = flip(tri, idx)
        assert result.triangulation.arcs == arcs
        assert result.new_arc == new_arc
        assert result.removed == tri.arcs[idx]
        # the same two pairs, and within each the order the rule fixes
        assert result.pairs == pairs


class TestLocalFlipAgainstStrip:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 5), (6, 1)])
    def test_seeded_walks(self, p, q):
        rng = random.Random(1000 * p + q)
        tri = initial_triangulation(MarkedAnnulus(p, q))
        for _ in range(25):
            _assert_flips_match_strip(tri)
            tri = flip(tri, rng.randrange(p + q)).triangulation

    def test_wound_arcs_of_the_induction(self):
        # the slots the winding induction alternates on C(2,2), up to K=6,
        # where the fourth-slot arc crosses the bridging arc 12 times
        ann = MarkedAnnulus(2, 2)
        setup, labeling, state, _, _, _ = _find_bridging_setup(ann)
        slot1, slot4 = labeling[0], labeling[3]
        tri = state.tri
        for k in range(2, 7):
            _assert_flips_match_strip(tri)
            tri = flip(tri, slot4).triangulation
            if k < 6:
                _assert_flips_match_strip(tri)
                tri = flip(tri, slot1).triangulation
        _assert_flips_match_strip(tri)
        assert crossing_number(tri.arcs[slot4], setup.tri.arcs[labeling[0]], ann) == 12

    def test_flip_builds_no_strip_and_cover_flip_builds_one(self, monkeypatch):
        # nor do triangles and quiver_of, which walk faces as flip does
        built = []
        original = _Strip.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(annulus_mod._Strip, "__init__", counting)
        triangles.cache_clear()
        quiver_of.cache_clear()
        tri = initial_triangulation(MarkedAnnulus(3, 2))
        for i in range(5):
            tri = flip(tri, i).triangulation
            assert len(triangles(tri)) == 5
            quiver_of(tri)
        assert built == []
        assert verify_cover_flip(tri, 2, 3)
        assert len(built) == 1


def side_products(state, pairs):
    """The product of each side pair's variables in state, a boundary side
    counting as 1: the two terms of a flip's exchange relation, read off
    the quadrilateral instead of the quiver."""
    variables = state.assignment
    return tuple(
        poly_prod([variables[side] for side in pair if side is not None], state.seed.rank)
        for pair in pairs
    )


class TestPtolemy:
    # the exchange relation is the sum of the flip quadrilateral's two side products
    def test_worked_example_values(self, ann32):
        x = coordinates(5)
        state = initial_state(ann32)
        products = side_products(state, flip_state(state, 3)[1].pairs)
        assert products[0] + products[1] == x[0] + x[4]

    def test_all_boundary_quad_on_smallest_annulus(self, ann11):
        x = coordinates(2)
        state = initial_state(ann11)
        products = side_products(state, flip_state(state, 0)[1].pairs)
        assert products[0] + products[1] == x[1] * x[1] + 1

    def test_matches_exchange_everywhere(self):
        for p, q in ((1, 1), (2, 1), (3, 2)):
            ann = MarkedAnnulus(p, q)
            tri = initial_triangulation(ann)
            for _ in range(3):
                state = TriSeed(tri, initial_seed(quiver_of(tri)))
                for i in range(p + q):
                    products = side_products(state, flip(tri, i).pairs)
                    mutated = mutate_seed(state.seed, i)
                    assert state.seed.cluster[i] * mutated.cluster[i] == products[0] + products[1]
                tri = flip(tri, (p + q) // 2).triangulation


class TestVariableOfArc:
    def test_initial_arcs_are_coordinates(self, ann32):
        tri = initial_triangulation(ann32)
        for i, arc in enumerate(tri.arcs):
            assert variable_of_arc(ann32, arc) == coordinates(5)[i]

    def test_winding_arc_convention(self, ann11):
        # one flip away from the fan; this package's fan ordering puts the
        # x2-denominator variable here
        x1, x2 = coordinates(2)
        value = variable_of_arc(ann11, make_arc(ann11, (0, 0), (1, 1)))
        assert value == LaurentPoly(2, {(2, -1): 1, (0, -1): 1})

    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 2)])
    def test_agrees_with_descend(self, p, q):
        # one greedy descent serves both: a single wanted arc, or a whole
        # triangulation, must give the same variable for every arc
        ann = MarkedAnnulus(p, q)
        nodes = flip_bfs(ann, 3)
        sample = sorted(nodes, key=lambda key: tuple(sorted(key)))[::3]
        for key in sample:
            tri = nodes[key].state.tri
            reached = _descend(ann, tri.arc_set)
            for arc in tri.arcs:
                assert variable_of_arc(ann, arc) == reached.variable(arc)

    def test_a_descent_flip_can_keep_the_crossing_total(self, monkeypatch):
        # the greedy descent need not lower the total crossing against want
        # at every flip: on C(2,2) the first flip keeps it at 3
        ann = MarkedAnnulus(2, 2)
        want = make_arc(ann, (0, 0), (1, 2))
        totals = []

        def recording(state, idx):
            totals.append(sum(crossing_number(a, want, ann) for a in state.tri.arcs))
            return flip_state(state, idx)

        monkeypatch.setattr(annulus_mod, "flip_state", recording)
        reached = _descend(ann, frozenset({want}))
        totals.append(sum(crossing_number(a, want, ann) for a in reached.tri.arcs))
        assert totals == [3, 3, 2, 1, 0]

    def test_a_descent_that_never_arrives_hits_its_cap(self, monkeypatch, ann21):
        # a flip that changes nothing leaves the arc missing forever
        monkeypatch.setattr(annulus_mod, "flip_state", lambda state, idx: (state, None))
        with pytest.raises(FlipSearchExceeded, match="within"):
            variable_of_arc(ann21, make_arc(ann21, (0, 0), (1, 2)))

    def test_denominator_matches_crossings(self, ann21):
        # denominator entries are positive exactly at the crossed initial arcs
        tri = initial_triangulation(ann21)
        for arc in candidate_arcs(ann21, winding=2):
            value = variable_of_arc(ann21, arc)
            denominator = denominator_vector(value)
            for i, initial in enumerate(tri.arcs):
                crossed = crossing_number(arc, initial, ann21) > 0
                assert (denominator[i] > 0) == crossed


class TestLockstep:
    def test_flip_bfs_correspondence_is_single_valued(self, ann21):
        # every arc of the ball has one variable, and distinct arcs distinct ones
        nodes = flip_bfs(ann21, 3)
        pairs = {(arc, var) for node in nodes.values() for arc, var in node.state.assignment.items()}
        assert len({arc for arc, _ in pairs}) == len({var for _, var in pairs}) == len(pairs)

    def test_flip_levels_rejects_a_second_variable_for_a_known_arc(self, monkeypatch):
        # a flip past the fan that hands an arc already in the ball another
        # variable; at depth 2 the states it makes are never flipped again
        fan = initial_triangulation(MarkedAnnulus(2, 1))

        def tampered(state, idx):
            new_state, result = flip_state(state, idx)
            if state.tri == fan:
                return new_state, result
            cluster = list(new_state.seed.cluster)
            cluster[idx] = cluster[idx] + cluster[idx]
            return TriSeed(new_state.tri, Seed(new_state.seed.quiver, tuple(cluster))), result

        monkeypatch.setattr(annulus_mod, "flip_state", tampered)
        with pytest.raises(MalformedTriangulation, match="received two distinct variables"):
            flip_bfs(MarkedAnnulus(2, 1), 2)

    def test_flip_state_exchange_in_product_form(self):
        # the two states of a flip satisfy old * new == the sum of its two
        # side products
        rng = random.Random(41)
        for p, q in ((2, 2), (3, 1), (3, 2)):
            state = initial_state(MarkedAnnulus(p, q))
            for _ in range(30):
                idx = rng.randrange(p + q)
                new_state, result = flip_state(state, idx)
                products = side_products(state, result.pairs)
                assert state.seed.cluster[idx] * new_state.seed.cluster[idx] == products[0] + products[1]
                state = new_state

    def test_side_products_are_the_exchange_terms(self):
        # the slow oracle multiplies each pair's side variables, boundary
        # sides counting as 1; the mutation multiplies the quiver row's
        # variables.  On the fan's quiver the first pair holds the
        # arrows-out term at every flip, on its opposite the second does
        rng = random.Random(19)
        for p, q in [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5]:
            fan = initial_state(MarkedAnnulus(p, q))
            opposite = TriSeed(fan.tri, Seed(fan.seed.quiver.opposite(), fan.seed.cluster))
            for state, order in ((fan, 1), (opposite, -1)):
                for _ in range(12):
                    idx = rng.randrange(p + q)
                    new_state, result = flip_state(state, idx)
                    products = side_products(state, result.pairs)
                    assert products == exchange_terms(state.seed, idx)[::order]
                    assert state.seed.cluster[idx] * new_state.seed.cluster[idx] == products[0] + products[1]
                    state = new_state

    @pytest.mark.parametrize("p,q", [(3, 2), (1, 3)])
    def test_a_quiver_out_of_step_raises_before_dividing(self, monkeypatch, p, q):
        # the quiver mutated at a slot adjacent to the flipped one: its row
        # no longer matches the flip quadrilateral, and nothing is divided
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        original = laurent.try_div_exact
        monkeypatch.setattr(laurent, "try_div_exact", counting)
        state = initial_state(MarkedAnnulus(p, q))
        checked = 0
        for idx, row in enumerate(state.seed.quiver.b):
            for other in (j for j, m in enumerate(row) if m):
                quiver = state.seed.quiver.mutate(other)
                wrong = TriSeed(state.tri, Seed(quiver, state.seed.cluster))
                with pytest.raises(MalformedTriangulation):
                    flip_state(wrong, idx)
                checked += 1
        assert checked and not calls

    def test_the_flip_memo_is_shared_and_invisible(self):
        # a flipped state equals, hashes and prints as the same pair built
        # afresh; it shares its root's one memo, which maps each exchange
        # (leaving variable, neighbours' variables with multiplicity) to
        # its quotient alone: no triangulation, seed or state, and nothing
        # for a flip that raised
        root = initial_state(MarkedAnnulus(3, 2))
        state, _ = flip_state(root, 0)
        state, _ = flip_state(state, 2)
        plain = TriSeed(state.tri, state.seed)
        assert state == plain and hash(state) == hash(plain) and repr(state) == repr(plain)
        assert state.memo is root.memo and plain.memo == {} and len(root.memo) == 4
        for (leaving, neighbours), quotient in root.memo.items():
            assert type(quotient) is LaurentPoly and type(leaving) is LaurentPoly
            assert all(type(x) is LaurentPoly and type(m) is int and m for x, m in neighbours)
        x = coordinates(5)
        first = (x[0], frozenset((v, m) for v, m in zip(x, root.seed.quiver.b[0]) if m))
        assert root.memo[first] == state.seed.cluster[0]
        # each division also stores its reverse, which gives the leaving variable back
        back = (state.seed.cluster[0], frozenset((v, -m) for v, m in first[1]))
        assert root.memo[back] == x[0]
        # a memo that holds the exchange gives its quotient back undivided
        planted = x[0] + x[1]
        hit, _ = flip_state(TriSeed(root.tri, root.seed, {first: planted}), 0)
        assert hit.seed.cluster[0] is planted and hit.seed.quiver == root.seed.quiver.mutate(0)
        with pytest.raises(InvalidParameter):
            flip_state(root, 5)
        wrong = TriSeed(root.tri, Seed(root.seed.quiver.mutate(1), root.seed.cluster))
        with pytest.raises(MalformedTriangulation):
            flip_state(wrong, 0)
        assert len(root.memo) == 4 and wrong.memo == {}

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
    def test_a_flip_and_its_flip_back_divide_once(self, monkeypatch, p, q):
        # the reverse exchange is stored with the division, so flipping an
        # arc back gives the old variable undivided
        calls = []

        def counting(seed, k):
            calls.append(k)
            return exchange_terms(seed, k)

        monkeypatch.setattr(engine_mod, "exchange_terms", counting)
        root = initial_state(MarkedAnnulus(p, q))
        for idx in range(p + q):
            calls.clear()
            there, _ = flip_state(root, idx)
            back, _ = flip_state(there, idx)
            assert back == root and calls == [idx]

    def test_descend_agrees_with_bfs(self, ann21):
        # a descent from the fan to a triangulation of the ball reaches its cluster
        nodes = flip_bfs(ann21, 3)
        sample = sorted(nodes, key=lambda key: tuple(sorted(key)))[::5]
        for key in sample:
            node = nodes[key]
            reached = _descend(ann21, key)
            assert reached.tri.arc_set == key
            assert set(reached.seed.cluster) == set(node.state.seed.cluster)


class TestFlipLevels:
    def test_full_ball_is_unchanged(self):
        # the one full-ball caller (unistructurality) reads flip_bfs: the
        # ball of C(4,1) to depth 6 keeps its size and depth histogram
        nodes = flip_bfs(MarkedAnnulus(4, 1), 6)
        histogram = [0] * 7
        for node in nodes.values():
            histogram[node.depth] += 1
        assert len(nodes) == 252
        assert histogram == [1, 5, 15, 33, 58, 70, 70]
        levels = list(flip_levels(MarkedAnnulus(4, 1), 6))
        assert [len(level) for level in levels] == histogram
        assert all(node.depth == d for d, level in enumerate(levels) for node in level)
        assert [node.state.tri.arc_set for level in levels for node in level] == list(nodes)

    def test_levels_are_built_on_demand(self, monkeypatch):
        # reading levels 0 and 1 flips the fan's arcs and nothing else
        calls = []

        def recording(state, target):
            calls.append(target)
            return flip_state(state, target)

        monkeypatch.setattr(annulus_mod, "flip_state", recording)
        levels = flip_levels(MarkedAnnulus(4, 1), 6)
        assert len(next(levels)) == 1 and not calls
        assert len(next(levels)) == 5
        assert calls == [0, 1, 2, 3, 4]

    def test_node_limit(self, monkeypatch):
        monkeypatch.setattr(annulus_mod, "FLIP_NODE_LIMIT", 100)
        with pytest.raises(LimitExceeded):
            flip_bfs(MarkedAnnulus(4, 1), 6)
        monkeypatch.setattr(annulus_mod, "FLIP_NODE_LIMIT", 252)
        assert len(flip_bfs(MarkedAnnulus(4, 1), 6)) == 252

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_invalid_bounds_raise(self, depth):
        # rejected as the engine's exchange_graph rejects them, instead of
        # a negative depth giving the one-node ball
        with pytest.raises(InvalidParameter):
            next(flip_levels(MarkedAnnulus(2, 1), depth))
        with pytest.raises(InvalidParameter):
            flip_bfs(MarkedAnnulus(2, 1), depth)


class TestArcIndexRange:
    # an index outside 0..p+q-1 is invalid input: -1 used to flip the last
    # arc and p + q to die with an IndexError
    @pytest.mark.parametrize("index", [-1, -3, 3, 7])
    def test_flip_rejects_index_outside_the_arcs(self, ann21, index):
        tri = initial_triangulation(ann21)
        with pytest.raises(InvalidParameter):
            flip(tri, index)
        with pytest.raises(InvalidParameter):
            flip_state(initial_state(ann21), index)
        with pytest.raises(InvalidParameter):
            verify_cover_flip(tri, index, 3)

    @pytest.mark.parametrize("window", [1, 0, -2])
    def test_cover_flip_rejects_a_window_below_two(self, ann21, window):
        with pytest.raises(InvalidParameter):
            verify_cover_flip(initial_triangulation(ann21), 0, window)

    def test_every_index_in_range_flips(self, ann21):
        tri = initial_triangulation(ann21)
        assert [flip(tri, i).removed for i in range(3)] == list(tri.arcs)


class TestLiftedTriangulations:
    def test_cover_flip_on_fan(self, ann32):
        tri = initial_triangulation(ann32)
        assert verify_cover_flip(tri, 4, 4)
        assert verify_cover_flip(tri, 3, 4)

    def test_cover_flip_randomized(self):
        rng = random.Random(41)
        ann = MarkedAnnulus(2, 2)
        state = initial_state(ann)
        for _ in range(20):
            if rng.random() < 0.6:
                state, _ = flip_state(state, rng.randrange(4))
            assert verify_cover_flip(state.tri, rng.randrange(4), 3)


def _rotations(strip):
    """Each vertex's counterclockwise rotation, decoded to endpoints: its
    sorted neighbour numbers read cyclically from just after it."""
    out = {}
    for v, nbrs in enumerate(strip.neighbors):
        cut = bisect.bisect(nbrs, v)
        out[_point(strip, v)] = tuple(_point(strip, u) for u in nbrs[cut:] + nbrs[:cut])
    return out


def _rotations_by_key(strip):
    """The construction the vertex numbering replaced, kept as the oracle:
    endpoint edges (the decoded chords plus the unit boundary segments),
    each vertex's neighbours sorted by _rotation_key."""
    edges = {(_point(strip, i), _point(strip, j)) for i, j in strip.chords}
    for b in (0, 1):
        edges.update(((b, x), (b, x + 1)) for x in range(strip.lo[b], strip.hi[b]))
    neighbors = {}
    for u, v in edges:
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    return {
        v: tuple(sorted(nbrs, key=lambda u, v=v: _rotation_key(v, u)))
        for v, nbrs in neighbors.items()
    }


class TestInPlaceStrip:
    @staticmethod
    def _flipped_strips(p, q):
        """(strip, chord, trusted) before every chord flip of the strips
        drawn for one seeded triangulation of C(p,q), one strip per arc."""
        ann = MarkedAnnulus(p, q)
        rng = random.Random(7 * p + q)
        tri = initial_triangulation(ann)
        for _ in range(6):
            tri = flip(tri, rng.randrange(p + q)).triangulation
        ks = range(-8, 12)
        for idx in range(p + q):
            strip = _Strip([a.chord for a in tri.arcs], ks, ann)
            trusted = set().union(*strip.numbers([-4 * ann.p, -4 * ann.q], [8 * ann.p, 8 * ann.q]))
            for chord in strip.lifts(tri.arcs[idx].chord, ks):
                yield strip, chord, trusted

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_matches_fresh_strip_after_every_chord_flip(self, p, q):
        flipped = 0
        for strip, chord, trusted in self._flipped_strips(p, q):
            before = _rotations(strip)
            if strip.flip(chord, trusted):
                flipped += 1
                chords = [(_point(strip, i), _point(strip, j)) for i, j in strip.chords]
                fresh = _Strip(chords, range(1), MarkedAnnulus(p, q))
                assert _rotations(strip) == _rotations(fresh)
            else:
                assert _rotations(strip) == before
        assert flipped > 0

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_numbering_matches_rotation_key_order(self, p, q):
        # before and after every chord flip, the cyclic int rotations decode
        # to the neighbours sorted by _rotation_key
        for strip, chord, trusted in self._flipped_strips(p, q):
            assert _rotations(strip) == _rotations_by_key(strip)
            strip.flip(chord, trusted)
            assert _rotations(strip) == _rotations_by_key(strip)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_every_vertex_round_trips_on_its_own_line(self, p, q):
        strip, _, _ = next(self._flipped_strips(p, q))
        line0 = strip.hi[0] - strip.lo[0] + 1
        assert len(strip.neighbors) == line0 + strip.hi[1] - strip.lo[1] + 1
        for i in range(len(strip.neighbors)):
            b, _ = _point(strip, i)
            assert b == (0 if i < line0 else 1)
            assert strip.index(_point(strip, i)) == i
        for b in (0, 1):
            for x in range(strip.lo[b], strip.hi[b] + 1):
                assert _point(strip, strip.index((b, x))) == (b, x)

    def test_numbers_are_clipped_to_the_strip(self):
        # a range reaching past one line's end takes no number of the other
        strip, _, _ = next(self._flipped_strips(2, 1))
        reach = strip.numbers([strip.lo[0] - 50, strip.lo[1] - 50],
                              [strip.hi[0] + 50, strip.hi[1] + 50])
        assert sorted(itertools.chain(*reach)) == list(range(len(strip.neighbors)))
        assert all(_point(strip, i)[0] == b for b in (0, 1) for i in reach[b])
        beyond = strip.numbers([strip.hi[0] + 1, strip.hi[1] + 1], [strip.hi[0] + 50, 10**6])
        assert [list(r) for r in beyond] == [[], []]
        # a range inside the strip takes exactly its own positions' numbers
        part = strip.numbers([strip.lo[0] + 1, strip.lo[1] + 2], [strip.hi[0] - 3, strip.hi[1]])
        assert [sorted(_point(strip, i)[1] for i in r) for r in part] == [
            list(range(strip.lo[0] + 1, strip.hi[0] - 2)), list(range(strip.lo[1] + 2, strip.hi[1] + 1))]


class TestCoverFlipOracle:
    @staticmethod
    def _judge(tri, index, window):
        """The oracle's verdict, or None when it refuses the window: one
        narrower than the lifts of wound arcs holds no full fundamental
        domain, and that is refused, never judged."""
        try:
            return verify_cover_flip(tri, index, window)
        except ValueError as error:
            assert "window too small" in str(error)
            return None

    def test_accepts_every_flip_and_rejects_a_flip_of_another_arc(self, monkeypatch):
        # on C(p,q) with p + q <= 5 and windows 2-4: the oracle accepts
        # flip(tri, i), and a strip flipped at i fails against flip(tri, j)
        rng = random.Random(18)
        real_flip = annulus_mod.flip
        judged = refused = caught = 0
        for p, q in [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5]:
            for _ in range(3):
                tri = initial_triangulation(MarkedAnnulus(p, q))
                for _ in range(rng.randrange(4)):
                    tri = flip(tri, rng.randrange(p + q)).triangulation
                for window, index in itertools.product((2, 3, 4), range(p + q)):
                    verdict = self._judge(tri, index, window)
                    assert verdict in (True, None)
                    other = (index + 1 + rng.randrange(p + q - 1)) % (p + q)
                    with monkeypatch.context() as patch:
                        patch.setattr(annulus_mod, "flip", lambda t, i: real_flip(t, other))
                        wrong = self._judge(tri, index, window)
                    assert wrong in (False, None)
                    judged += verdict is True
                    refused += verdict is None
                    caught += wrong is False
        # every judged flip is accepted; of the 360 wrong ones, 358 are
        # caught and the other 2 refused for the window, none accepted
        assert (judged, refused, caught) == (356, 4, 358)

    def test_a_narrow_window_is_an_invalid_parameter(self, ann11):
        # these arcs wind too far for a window of two periods to hold a
        # full fundamental domain of the flipped triangulation
        arcs = [make_arc(ann11, (0, 0), (1, -2)), make_arc(ann11, (0, 0), (1, -1))]
        with pytest.raises(InvalidParameter, match="window too small") as caught:
            verify_cover_flip(triangulation(ann11, arcs), 1, 2)
        assert isinstance(caught.value, ClusterLabError)

    def test_an_arc_spanning_three_periods_needs_window_four(self):
        # a C(2,2) triangulation that the induction's setup search visits
        ann = MarkedAnnulus(2, 2)
        chords = [((0, 1), (1, -5)), ((0, 1), (1, -3)), ((0, 0), (1, -5)), ((1, 1), (1, 3))]
        tri = triangulation(ann, [make_arc(ann, *chord) for chord in chords])
        for index in (1, 3):
            with pytest.raises(InvalidParameter, match="window too small"):
                verify_cover_flip(tri, index, 3)
            assert verify_cover_flip(tri, index, 4)


class TestSerialization:
    def test_arc_roundtrip(self, ann32):
        arc = make_arc(ann32, (0, 1), (1, -2))
        assert arc_from_json(ann32, arc_to_json(arc)) == arc

    def test_triangulation_roundtrip(self, ann32):
        tri = initial_triangulation(ann32)
        assert triangulation_from_json(triangulation_to_json(tri)) == tri
