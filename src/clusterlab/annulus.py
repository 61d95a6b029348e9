r"""The marked annulus: arcs, crossings, triangulations, flips, and lifts.

Everything is computed in the universal cover, an infinite horizontal
strip.  Marked points on the outer boundary live at integer positions on
line 0, points on the inner boundary at integer positions on line 1, and
the deck translation shifts line-0 positions by p and line-1 positions by
q simultaneously.  An arc of the annulus is stored as one lift, a chord
between two strip boundary points, normalized by translating its anchor
endpoint into the fundamental window.  Winding is then simply a large
position difference; no extra winding field exists.

Chords between boundary points of the strip behave like chords of a disk
whose boundary circle runs left to right along line 0 and right to left
along line 1.  Two chords cross (in minimal position) exactly when their
endpoints interleave in that cyclic order, so a crossing number counts
the interleaving deck translates, which form at most two intervals of
shifts in closed form, and a triangulation drawn in the strip is a
genuine planar triangulation whose faces can be walked combinatorially.

    line 1:   ... -2 -1  0  1  2 ...     (inner boundary, period q)
              ----o--o--o--o--o----
                   \  |  |  /            chords = arc lifts
              ----o--o--o--o--o----
    line 0:   ... -2 -1  0  1  2 ...     (outer boundary, period p)
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence

from .engine import Seed, initial_seed, mutate_seed
from .errors import (
    ConstructionFailed,
    FlipSearchExceeded,
    InvalidAnnulus,
    InvalidArc,
    InvalidParameter,
    InvalidTriangulation,
    LimitExceeded,
    MalformedTriangulation,
)
from .laurent import LaurentPoly
from .quiver import Quiver, _is_int

FLIP_NODE_LIMIT = 100_000  # most triangulations a flip ball may hold

Endpoint = tuple[int, int]  # (boundary, position)
Chord = tuple[Endpoint, Endpoint]


@dataclass(frozen=True)
class MarkedAnnulus:
    """Annulus with p marked points on the outer boundary and q on the inner."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise InvalidAnnulus(
                f"C({self.p},{self.q}): need at least one marked point on each boundary"
            )

    def period(self, boundary: int) -> int:
        if boundary == 0:
            return self.p
        if boundary == 1:
            return self.q
        raise InvalidParameter(f"boundary {boundary} must be 0 or 1")


@dataclass(frozen=True, order=True)
class Arc:
    """Canonical lift of an arc: endpoints ordered, anchor in the fundamental window."""

    e1: Endpoint
    e2: Endpoint

    @property
    def boundaries(self) -> tuple[int, int]:
        return (self.e1[0], self.e2[0])

    @property
    def chord(self) -> Chord:
        return (self.e1, self.e2)


def classify_arc(arc: Arc) -> tuple[str, Optional[int]]:
    """("peripheral", boundary) or ("bridging", None), by endpoint boundaries."""
    b1, b2 = arc.boundaries
    if b1 == b2:
        return ("peripheral", b1)
    return ("bridging", None)


def deck_endpoint(point: Endpoint, k: int, annulus: MarkedAnnulus) -> Endpoint:
    b, x = point
    return (b, x + k * annulus.period(b))


def deck_chord(chord: Chord, k: int, annulus: MarkedAnnulus) -> Chord:
    return (deck_endpoint(chord[0], k, annulus), deck_endpoint(chord[1], k, annulus))


def _anchored(annulus: MarkedAnnulus, points: Iterable[Endpoint]) -> tuple[Endpoint, ...]:
    """The window normal form of a point set: sorted, its least point
    deck-shifted into the fundamental window (a deck shift keeps order)."""
    points = sorted(points)
    shift = -(points[0][1] // annulus.period(points[0][0]))
    return tuple(deck_endpoint(point, shift, annulus) for point in points)


def _cut_key(point: Endpoint):
    # linear order along the strip boundary circle, cut at far left of line 0:
    # line 0 left to right, then line 1 right to left
    b, x = point
    return (0, x) if b == 0 else (1, -x)


def _crossing_shifts(c1: Chord, c2: Chord, annulus: MarkedAnnulus) -> list[range]:
    """The deck shifts k whose translate of c2 crosses c1, as at most two
    sorted ranges.  c1 splits the boundary circle into two open sides (a
    bridging chord cuts each line at its endpoint; a peripheral one cuts
    its line into its open span and the rest, the other line outside), and
    a translate crosses c1 when its endpoints lie on opposite sides.  w + kP
    lies past t exactly when k >= (t - w) // P + 1, and before t exactly
    when k <= -((w - t) // P) - 1; an endpoint on c1 lies on neither, so
    shared endpoints never cross and k = 0 never counts against c1 itself."""
    (b1, x1), (b2, x2) = c1
    periods = (annulus.p, annulus.q)

    def past(end: Endpoint, t: int) -> int:
        return (t - end[1]) // periods[end[0]] + 1

    def before(end: Endpoint, t: int) -> int:
        return -((end[1] - t) // periods[end[0]]) - 1

    u, v = c2
    if b1 != b2:
        cut = {b1: x1, b2: x2}
        cu, cv = cut[u[0]], cut[v[0]]  # one side is past both cuts
        spans = [(past(u, cu), before(v, cv)), (past(v, cv), before(u, cu))]
    else:
        s, t = sorted((x1, x2))
        spans = []
        for inner, outer in ((u, v), (v, u)):
            if inner[0] == b1:
                lo, hi = past(inner, s), before(inner, t)
                if outer[0] != b1:
                    spans.append((lo, hi))
                else:  # outer lies before s or past t
                    spans += [(lo, min(hi, before(outer, s))), (max(lo, past(outer, t)), hi)]
    return [range(lo, hi + 1) for lo, hi in sorted(spans) if lo <= hi]


def self_crossing(chord: Chord, annulus: MarkedAnnulus) -> int:
    """Crossings of a chord with its own nonzero deck translates."""
    return sum(map(len, _crossing_shifts(chord, chord, annulus)))


def arc_check(annulus: MarkedAnnulus, e1: Endpoint, e2: Endpoint) -> tuple[bool, str]:
    """Validity of a raw endpoint pair, with the failing clause on rejection."""
    for b, _ in (e1, e2):
        if b not in (0, 1):
            return False, "endpoint boundary must be 0 or 1"
    if e1[0] == e2[0]:
        gap = abs(e1[1] - e2[1])
        if gap == 0:
            return False, "contractible loop at a marked point"
        if gap == 1:
            return False, "boundary segment"
    if self_crossing((e1, e2), annulus) > 0:
        return False, "crosses its own deck translates"
    return True, ""


def make_arc(annulus: MarkedAnnulus, e1: Endpoint, e2: Endpoint) -> Arc:
    """Canonicalize a raw endpoint pair into an Arc, validating it."""
    ok, reason = arc_check(annulus, e1, e2)
    if not ok:
        raise InvalidArc(f"({e1}, {e2}): {reason}")
    return Arc(*_anchored(annulus, (e1, e2)))


def crossing_number(a: Arc, b: Arc, annulus: MarkedAnnulus) -> int:
    """Minimal intersection count of two arcs, summed over deck translates."""
    return sum(map(len, _crossing_shifts(a.chord, b.chord, annulus)))


def _project_chord(annulus: MarkedAnnulus, chord: Chord) -> Optional[Arc]:
    """Arc class of a strip chord; None when it is a boundary segment."""
    (b1, x1), (b2, x2) = chord
    if b1 == b2 and abs(x1 - x2) == 1:
        return None
    return make_arc(annulus, chord[0], chord[1])


def quadrilateral_sides(
    annulus: MarkedAnnulus, gamma_i: Arc, gamma_j: Arc
) -> list[Optional[Arc]]:
    """Projected sides, in boundary order, of the quadrilateral whose
    diagonals are the two given arcs crossing exactly once (None for a
    boundary segment)."""
    ci = gamma_i.chord
    shifts = _crossing_shifts(ci, gamma_j.chord, annulus)
    if sum(map(len, shifts)) != 1:
        raise ConstructionFailed("arcs do not cross exactly once")
    corners = sorted(set(ci) | set(deck_chord(gamma_j.chord, shifts[0].start, annulus)), key=_cut_key)
    if len(corners) != 4:
        raise ConstructionFailed("quadrilateral corners are not distinct")
    return [
        _project_chord(annulus, (corners[i], corners[(i + 1) % 4]))
        for i in range(4)
    ]


def arc_to_json(arc: Arc) -> dict:
    return {
        "e1": {"b": arc.e1[0], "pos": arc.e1[1]},
        "e2": {"b": arc.e2[0], "pos": arc.e2[1]},
    }


def arc_from_json(annulus: MarkedAnnulus, data: Mapping) -> Arc:
    """The arc of {"e1": {"b", "pos"}, "e2": {"b", "pos"}}; anything else,
    a non-int position included, is an InvalidArc, never rounded."""
    try:
        ends = [(data[e]["b"], data[e]["pos"]) for e in ("e1", "e2")]
    except (KeyError, TypeError) as error:
        raise InvalidArc(
            f'{data!r}: an arc is {{"e1": {{"b", "pos"}}, "e2": {{"b", "pos"}}}}'
        ) from error
    if not all(_is_int(x) for end in ends for x in end):
        raise InvalidArc(f"{data!r}: endpoint boundary and position must be ints")
    return make_arc(annulus, *ends)


# ---------------------------------------------------------------------------
# triangulations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangulation:
    """Maximal compatible arc collection, in a stable positional order.

    Flips replace an arc in place, so positions track identity across
    mutation and quiver extraction keeps one point per position.
    """

    annulus: MarkedAnnulus
    arcs: tuple[Arc, ...]

    @property
    def arc_set(self) -> frozenset[Arc]:
        return frozenset(self.arcs)

    def index_of(self, arc: Arc) -> int:
        return self.arcs.index(arc)


def triangulation(annulus: MarkedAnnulus, arcs: Sequence[Arc]) -> Triangulation:
    tri = Triangulation(annulus, tuple(arcs))
    n = annulus.p + annulus.q
    if len(set(tri.arcs)) != len(tri.arcs):
        raise InvalidTriangulation("repeated arc")
    if len(tri.arcs) != n:
        raise InvalidTriangulation(f"expected {n} interior arcs, got {len(tri.arcs)}")
    for i, a in enumerate(tri.arcs):
        for b in tri.arcs[i + 1:]:
            if crossing_number(a, b, annulus):
                raise InvalidTriangulation(f"arcs {a} and {b} cross")
    return tri


def initial_triangulation(annulus: MarkedAnnulus) -> Triangulation:
    """The fan triangulation: bridging arcs (0@i, 1@0) for i = 0..p sweeping
    the outer boundary, closed by the fan (0@p, 1@j) for j = 1..q-1 on the
    inner one.  Exactly p + q arcs, pairwise compatible."""
    p, q = annulus.p, annulus.q
    arcs = [make_arc(annulus, (0, i), (1, 0)) for i in range(p)]
    arcs.extend(make_arc(annulus, (0, p), (1, j)) for j in range(1, q))
    arcs.append(make_arc(annulus, (0, p), (1, 0)))
    return triangulation(annulus, arcs)


def triangulation_to_json(tri: Triangulation) -> dict:
    return {
        "p": tri.annulus.p,
        "q": tri.annulus.q,
        "arcs": [arc_to_json(a) for a in tri.arcs],
    }


def triangulation_from_json(data: Mapping) -> Triangulation:
    if not (isinstance(data, Mapping) and isinstance(data.get("arcs"), list)):
        raise InvalidParameter('a triangulation is an object with "p", "q" and a list "arcs"')
    if not (_is_int(data.get("p")) and _is_int(data.get("q"))):
        raise InvalidAnnulus(f"C({data.get('p')!r},{data.get('q')!r}): p and q must be ints")
    ann = MarkedAnnulus(data["p"], data["q"])
    return triangulation(ann, [arc_from_json(ann, a) for a in data["arcs"]])


# ---------------------------------------------------------------------------
# face walks, triangles and flips
# ---------------------------------------------------------------------------


Side = Optional[Arc]  # None stands for a boundary segment


def _rotation(ends: Mapping, annulus: MarkedAnnulus, v: Endpoint) -> list[tuple[Endpoint, Side]]:
    """The counterclockwise rotation at a vertex of the lifted triangulation:
    its neighbours in boundary-circle order (_cut_key), read cyclically as in
    _Strip, each with the side along its edge (None for a boundary segment).

    Besides its two boundary neighbours, v meets one translate of an arc
    for every endpoint of that arc in v's deck orbit; ends lists those
    endpoints by (line, position mod period) as (position, far end, arc).
    """
    b, x = v
    period = annulus.period(b)
    out: list[tuple[Endpoint, Side]] = [((b, x - 1), None), ((b, x + 1), None)]
    for here, there, arc in ends.get((b, x % period), ()):
        out.append((deck_endpoint(there, (x - here) // period, annulus), arc))
    out.sort(key=lambda item: _cut_key(item[0]))
    return out


def _face_walk(tri: Triangulation):
    """The face walk of the lifted triangulation, from vertex rotations alone.

    Returns face(a, b), which walks the triangle to the left of the dart
    a -> b (interior kept on the left) and gives its apex with the sides
    b-apex and apex-a.  Rotations are computed once per vertex the walk
    reaches, so a face costs the same however far its arcs wind.
    """
    ann = tri.annulus
    ends: dict[Endpoint, list[tuple[int, Endpoint, Arc]]] = {}
    for arc in tri.arcs:
        for (b, x), there in (arc.chord, arc.chord[::-1]):
            ends.setdefault((b, x % ann.period(b)), []).append((x, there, arc))
    rotations: dict[Endpoint, list[tuple[Endpoint, Side]]] = {}

    def turn(a: Endpoint, b: Endpoint) -> tuple[Endpoint, Side]:
        # the edge after a -> b on the face to its left, with its side
        if b not in rotations:
            rotations[b] = _rotation(ends, ann, b)
        rot = rotations[b]
        for i, (w, _) in enumerate(rot):
            if w == a:
                return rot[i - 1]
        raise MalformedTriangulation(f"{a} is not a neighbour of {b}")

    def face(a: Endpoint, b: Endpoint) -> tuple[Endpoint, Side, Side]:
        apex, side_b = turn(a, b)
        back, side_a = turn(b, apex)
        if back != a or turn(apex, a)[0] != b:
            raise MalformedTriangulation(
                f"the face left of {a} -> {b} does not close after three sides"
            )
        return apex, side_b, side_a

    return face


@dataclass(frozen=True)
class Triangle:
    """One triangle of the annulus, as a counterclockwise dart cycle.

    sides[i] is the arc along the side from vertices[i] to
    vertices[(i+1) % 3] (None for a boundary segment).
    """

    vertices: tuple[Endpoint, Endpoint, Endpoint]
    sides: tuple[Side, Side, Side]


@functools.lru_cache(maxsize=8192)
def triangles(tri: Triangulation) -> tuple[Triangle, ...]:
    """One representative triangle per deck orbit; always p + q of them.

    Every triangle has an interior arc among its sides, so some translate
    of it lies on one side of that arc's canonical lift; the faces on both
    sides of every canonical lift therefore meet every orbit.
    """
    ann = tri.annulus
    face = _face_walk(tri)
    reps: dict[tuple, Triangle] = {}
    for arc in tri.arcs:
        u, v = arc.chord
        for a, b in ((u, v), (v, u)):
            apex, side_b, side_a = face(a, b)
            key = _anchored(ann, (a, b, apex))
            if key not in reps:
                reps[key] = Triangle((a, b, apex), (arc, side_b, side_a))
    expected = ann.p + ann.q
    if len(reps) != expected:
        raise MalformedTriangulation(
            f"found {len(reps)} triangle orbits, expected {expected}"
        )
    return tuple(reps[key] for key in sorted(reps))


@functools.lru_cache(maxsize=8192)
def quiver_of(tri: Triangulation) -> Quiver:
    """Quiver on the interior arcs: one arrow per triangle corner whose two
    sides are distinct interior arcs, oriented with the face traversal.
    Opposite contributions from doubly glued corners cancel in the
    skew-symmetric matrix; parallel ones accumulate."""
    index = {arc: i for i, arc in enumerate(tri.arcs)}
    n = len(tri.arcs)
    b = [[0] * n for _ in range(n)]
    for triangle in triangles(tri):
        for s in range(3):
            first = triangle.sides[s]
            second = triangle.sides[(s + 1) % 3]
            if first is None or second is None or first == second:
                continue
            b[index[first]][index[second]] += 1
            b[index[second]][index[first]] -= 1
    return Quiver(b)


@dataclass(frozen=True)
class FlipResult:
    """Outcome of one flip: the new triangulation, the new diagonal, and the
    quadrilateral sides grouped into the two opposite pairs that multiply
    together in the exchange identity."""

    triangulation: Triangulation
    removed: Arc
    new_arc: Arc
    pairs: tuple[tuple[Side, Side], tuple[Side, Side]]


def flip(tri: Triangulation, idx: int) -> FlipResult:
    """Replace the arc at a slot by the opposite diagonal of its quadrilateral.

    The two faces on the canonical lift u -> v of the arc come from the
    local face walk.  The first face holds the dart u -> v and has apex
    a1, the second holds v -> u and has apex a2; pairs is
    ((v-a1, u-a2), (a1-u, a2-v)).
    """
    if not 0 <= idx < len(tri.arcs):
        raise InvalidParameter(f"arc index {idx} is outside 0..{len(tri.arcs) - 1}")
    face = _face_walk(tri)
    u, v = tri.arcs[idx].chord
    apex1, v_apex1, apex1_u = face(u, v)
    apex2, u_apex2, apex2_v = face(v, u)
    ann = tri.annulus
    new_arc = make_arc(ann, apex1, apex2)
    arcs = list(tri.arcs)
    arcs[idx] = new_arc
    return FlipResult(
        Triangulation(ann, tuple(arcs)),
        removed=tri.arcs[idx],
        new_arc=new_arc,
        pairs=((v_apex1, u_apex2), (apex1_u, apex2_v)),
    )


def _out_pair(tri: Triangulation, row: Sequence[int], pairs) -> None:
    """Check that a flip's two side pairs hold its two exchange terms.

    The arcs of the positive entries of the flipped arc's quiver row, with
    multiplicity, must be one pair's sides and those of its negative
    entries the other pair's, boundary sides dropped; anything else means
    the quiver and the triangulation lost alignment.
    """
    out, into = (
        sorted(arc for arc, m in zip(tri.arcs, row) for _ in range(sign * m)) for sign in (1, -1)
    )
    sides = [sorted(side for side in pair if side is not None) for pair in pairs]
    if sides != [out, into] and sides != [into, out]:
        raise MalformedTriangulation("the quiver disagrees with the flip quadrilateral")


# ---------------------------------------------------------------------------
# triangulations and seeds in lockstep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriSeed:
    """A triangulation with its cluster attached positionally: the variable
    of arcs[i] is cluster[i], always in the frame of the initial seed.  The
    exchange memo that flip_state hands to ``mutate_seed``, shared from the
    root on, is not compared or shown."""

    tri: Triangulation
    seed: Seed
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def assignment(self) -> dict[Arc, LaurentPoly]:
        return dict(zip(self.tri.arcs, self.seed.cluster))

    def variable(self, arc: Arc) -> LaurentPoly:
        return self.seed.cluster[self.tri.index_of(arc)]


def initial_state(annulus: MarkedAnnulus) -> TriSeed:
    tri = initial_triangulation(annulus)
    return TriSeed(tri, initial_seed(quiver_of(tri)))


def flip_state(state: TriSeed, idx: int) -> tuple[TriSeed, FlipResult]:
    """Flip the arc at a slot and mutate the seed in that direction.

    Before the mutation divides, the quiver row of the arc is matched to
    the flip quadrilateral (``_out_pair``, MalformedTriangulation on a
    mismatch).  The mutation looks its exchange up in the memo the
    returned state shares from the root (``mutate_seed``), so each
    exchange, its reverse included, is divided once per root.  A flip
    that raised stores nothing.
    """
    result = flip(state.tri, idx)
    _out_pair(state.tri, state.seed.quiver.b[idx], result.pairs)
    seed = mutate_seed(state.seed, idx, state.memo)
    return TriSeed(result.triangulation, seed, state.memo), result


def _descend(annulus: MarkedAnnulus, want: frozenset[Arc]) -> TriSeed:
    """Lockstep state reached by greedy flips from the fan until the
    triangulation holds every arc of want.

    Each step flips the arc outside want with the largest total crossing
    against want; ties go to the smallest arc.  While an arc of want is
    missing, some arc outside want crosses it (p + q + 1 pairwise
    compatible arcs cannot exist).  A flip may keep the total (3, 3, 2, 1,
    0 on C(2,2) with want {(0,0)-(1,2)}), though no measured descent ever
    raised it; the cap bounds those plateaus (FlipSearchExceeded).
    """
    state = initial_state(annulus)

    @functools.cache  # each arc's total crossing against want, once per call
    def total(arc: Arc) -> int:
        return sum(crossing_number(arc, w, annulus) for w in want)

    # the arcs of want cross none of want, so only the others add to the cap
    crossings = sum(total(a) for a in state.tri.arcs if a not in want)
    cap = 4 * crossings + 8 * (annulus.p + annulus.q) + 16
    steps = 0
    while not want <= state.tri.arc_set:
        steps += 1
        if steps > cap:
            raise FlipSearchExceeded(f"no flip path to {sorted(want)} within {cap} steps")
        totals = {i: total(a) for i, a in enumerate(state.tri.arcs) if a not in want}
        top = max(totals.values(), default=0)
        if top == 0:
            raise MalformedTriangulation(
                "no arc outside the wanted set crosses it, yet it is incomplete"
            )
        pick = min((i for i, t in totals.items() if t == top), key=lambda i: state.tri.arcs[i])
        state, _ = flip_state(state, pick)
    return state


def variable_of_arc(annulus: MarkedAnnulus, arc: Arc) -> LaurentPoly:
    """Cluster variable of an arc, rooted at the fan triangulation and
    reached by greedy flips (_descend)."""
    return _descend(annulus, frozenset((arc,))).variable(arc)


@dataclass
class FlipNode:
    state: TriSeed
    depth: int


def flip_levels(annulus: MarkedAnnulus, depth: int) -> Iterator[list[FlipNode]]:
    """The flip ball around the fan, one level at a time.

    Yields, for each flip distance 0..depth in turn, the triangulations
    first reached at that distance with their clusters, in the order the
    breadth-first search reaches them.  A level is built only when the
    consumer asks for it, so a search that stops early never flips the
    nodes of the last level it read.  Every flip made checks that the
    arc-to-variable correspondence stays single valued, and the ball may
    hold at most FLIP_NODE_LIMIT triangulations (LimitExceeded).
    """
    if depth < 0:
        raise InvalidParameter(f"depth {depth} must be nonnegative")
    root = initial_state(annulus)
    seen = {root.tri.arc_set}
    variables: dict[Arc, LaurentPoly] = root.assignment
    level = [FlipNode(root, 0)]
    for distance in range(1, depth + 1):
        yield level
        next_level = []
        for node in level:
            for idx in range(len(node.state.tri.arcs)):
                new_state, result = flip_state(node.state, idx)
                new_var = new_state.seed.cluster[idx]
                if variables.setdefault(result.new_arc, new_var) != new_var:
                    raise MalformedTriangulation(
                        f"arc {result.new_arc} received two distinct variables"
                    )
                new_key = new_state.tri.arc_set
                if new_key not in seen:
                    if len(seen) >= FLIP_NODE_LIMIT:
                        raise LimitExceeded(f"flip graph exceeded {FLIP_NODE_LIMIT} nodes")
                    seen.add(new_key)
                    next_level.append(FlipNode(new_state, distance))
        level = next_level
    yield level


def flip_bfs(annulus: MarkedAnnulus, depth: int) -> dict[frozenset[Arc], FlipNode]:
    """All triangulations within the given flip distance of the fan, with
    their clusters, keyed by arc set in the order flip_levels reaches
    them: the whole ball, for callers that need every node."""
    return {
        node.state.tri.arc_set: node
        for level in flip_levels(annulus, depth)
        for node in level
    }


def candidate_arcs(annulus: MarkedAnnulus, winding: int = 2) -> list[Arc]:
    """Every peripheral arc plus all bridging arcs within the winding bound,
    canonical and sorted.  Handy as a finite search pool."""
    out = set()
    for b in (0, 1):
        period = annulus.period(b)
        for start in range(period):
            for span in range(2, period + 1):
                ok, _ = arc_check(annulus, (b, start), (b, start + span))
                if ok:
                    out.add(make_arc(annulus, (b, start), (b, start + span)))
    reach = winding * annulus.q + annulus.q
    for start in range(annulus.p):
        for inner in range(-reach, reach + 1):
            out.add(make_arc(annulus, (0, start), (1, inner)))
    return sorted(out)


# ---------------------------------------------------------------------------
# the lifted strip: the cover-flip oracle
# ---------------------------------------------------------------------------


class _Strip:
    """The deck translates k in ks (consecutive shifts) of a chord family,
    drawn as a polygon: its vertices are every integer boundary position
    spanned by the translates, numbered along the boundary circle (line 0
    left to right, then line 1 right to left, as _cut_key orders them), and
    the translates are its diagonals, stored as vertex pairs (i, j) with
    i < j.  A deck shift adds p to a line-0 number and -q to a line-1 one,
    so the translates of an endpoint are an arithmetic progression of
    numbers.  The counterclockwise rotation at a vertex is its sorted
    neighbour list read cyclically from just after it; faces are traced
    from it, interior kept on the left."""

    def __init__(self, chords: Sequence[Chord], ks: range, annulus: MarkedAnnulus):
        xs = [[x for c in chords for b, x in c if b == line] for line in (0, 1)]
        if not all(xs):
            raise MalformedTriangulation("chord family must touch both boundaries")
        self.steps = (annulus.p, -annulus.q)
        self.lo = [min(x) + ks[0] * annulus.period(b) for b, x in enumerate(xs)]
        self.hi = [max(x) + ks[-1] * annulus.period(b) for b, x in enumerate(xs)]
        line0 = self.hi[0] - self.lo[0] + 1
        self._base = (-self.lo[0], line0 + self.hi[1])
        size = line0 + self.hi[1] - self.lo[1] + 1
        # a vertex is joined to both neighbours along the circle, except
        # across the gaps between the lines' ends
        self.neighbors = [[i - 1, i + 1] for i in range(size)]
        for i, j in ((0, -1), (line0 - 1, line0), (line0, line0 - 1), (size - 1, size)):
            self.neighbors[i].remove(j)
        self.chords = set().union(*(self.lifts(chord, ks) for chord in chords))
        for i, j in self.chords:
            self.neighbors[i].append(j)
            self.neighbors[j].append(i)
        for nbrs in self.neighbors:
            nbrs.sort()

    def index(self, v: Endpoint) -> int:
        """The number of a vertex inside the strip's extent."""
        b, x = v
        return self._base[0] + x if b == 0 else self._base[1] - x

    def progression(self, end: Endpoint, ks: range) -> range:
        """The numbers of the translates k in ks of one endpoint."""
        step = self.steps[end[0]]
        first = self.index(end) + ks[0] * step
        return range(first, first + len(ks) * step, step)

    def lifts(self, chord: Chord, ks: range) -> Iterator[tuple[int, int]]:
        """The translates k in ks of a chord, as vertex pairs (i, j) with
        i < j: its endpoints in boundary order, which deck shifts keep."""
        return zip(*(self.progression(end, ks) for end in sorted(chord, key=_cut_key)))

    def numbers(self, lo: Sequence[int], hi: Sequence[int]) -> tuple[range, range]:
        """The numbers of the positions lo[b]..hi[b] on each line b, clipped
        to the strip, where no position can take the other line's number."""
        (lo0, lo1), (hi0, hi1) = (map(max, lo, self.lo), map(min, hi, self.hi))
        return (range(self._base[0] + lo0, self._base[0] + hi0 + 1),
                range(self._base[1] - hi1, self._base[1] - lo1 + 1))

    def _turn(self, u: int, v: int) -> int:
        # the vertex after u -> v on the face to its left: the cyclic
        # predecessor of u in the rotation at v
        nbrs = self.neighbors[v]
        return nbrs[bisect.bisect_left(nbrs, u) - 1]

    def _triangle_apex(self, u: int, v: int) -> Optional[int]:
        """Apex of the face left of u -> v, or None when it is no triangle."""
        apex = self._turn(u, v)
        if self._turn(v, apex) != u or self._turn(apex, u) != v:
            return None
        return apex

    def flip(self, chord: tuple[int, int], trusted: Container[int]) -> bool:
        """Flip one chord in place, True when done; False, touching nothing,
        when its quadrilateral is not two triangles with every vertex
        trusted (possible only near the ragged ends of the strip)."""
        u, v = chord
        apexes = (self._triangle_apex(u, v), self._triangle_apex(v, u))
        if None in apexes or not all(w in trusted for w in (u, v) + apexes):
            return False
        if apexes[0] == apexes[1]:
            raise MalformedTriangulation("flip quadrilateral lost its apexes")
        a, b = sorted(apexes)
        for x, y in ((u, v), (v, u)):
            self.neighbors[x].remove(y)
        for x, y in ((a, b), (b, a)):
            bisect.insort(self.neighbors[x], y)
        self.chords.remove(chord)
        self.chords.add((a, b))
        return True


def verify_cover_flip(tri: Triangulation, index: int, window: int) -> bool:
    """Flip every lift of one arc in one windowed strip, updated in place,
    and compare the interior of the result with the lift of the flipped
    triangulation.  The strip side is an oracle for flip(), independent of
    its local rotations.

    The strip is padded on both sides so that every flip whose
    quadrilateral can influence the comparison region is performed on a
    complete neighborhood; flips skipped at the ragged pad ends cannot
    reach the interior.

    The window must exceed the widest arc's span in deck periods, or the
    oracle may raise InvalidParameter: a C(2,2) triangulation holding
    (0,1)-(1,-5), three periods wide, raises at window 3 on two slots.
    """
    if window < 2:
        raise InvalidParameter(f"window {window} must cover at least two deck periods")
    flipped = flip(tri, index).triangulation  # rejects an index outside the arcs
    ann = tri.annulus
    periods = (ann.p, ann.q)
    span = max(1, *(-(-abs(x) // periods[b]) for arc in tri.arcs for b, x in arc.chord))
    pad = 2 * span + 4
    ks = range(-pad, window + pad)
    strip = _Strip([arc.chord for arc in tri.arcs], ks, ann)

    # the lifts reach span periods past ks on each line; a vertex is
    # trusted when it lies span + 2 periods inside that reach
    trusted = set().union(*strip.numbers(
        [(2 - pad) * period for period in periods],
        [(window + pad - 2) * period for period in periods],
    ))
    flips = [strip.flip(c, trusted) for c in strip.lifts(tri.arcs[index].chord, ks)]
    if not any(flips):
        raise InvalidParameter("window too small to flip any full fundamental domain")

    inside = strip.numbers([0, 0], [window * period for period in periods])
    interior = set().union(*inside)
    got_interior = {c for c in strip.chords if c[0] in interior and c[1] in interior}
    # numbers past the strip's ends alias the other line's, so each
    # endpoint is kept to its own line (an arc lists line 0 first)
    want_interior = {
        (i, j) for arc in flipped.arcs for i, j in strip.lifts(arc.chord, ks)
        if i in inside[arc.e1[0]] and j in inside[arc.e2[0]]
    }
    if len(want_interior) < len(tri.arcs):
        raise InvalidParameter("window too small to compare a full fundamental domain")
    return got_interior == want_interior
