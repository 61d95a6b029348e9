"""Mechanical checks of the identity chains behind arc incompatibility,
exchange-quiver recovery, and the cluster-structure uniqueness experiment.

Two layers cooperate, driven by the same relation tables.  The formal
layer evaluates each table over free Laurent indeterminates and verifies
the displayed identity chains exactly: every claimed equality must leave
a literally zero difference polynomial.  The geometric layer works on a
concrete annulus, finds configurations by bounded search, runs flips and
seed mutations in lockstep, and checks relation shapes, crossing counts,
and residual positivity in the cluster algebra.  Its search matches the
relation tables on the flips' quadrilateral sides, deriving each
labeling from the rows as it goes; the exchange relations themselves
come from the lockstep flips, so the search does no algebra of its own.

Reports are plain data so the command line can serialize them; any
outcome that would falsify a theorem is raised as a hard error rather
than returned.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import engine, laurent
from .annulus import (
    Arc,
    MarkedAnnulus,
    Side,
    Triangulation,
    TriSeed,
    _descend,
    _out_pair,
    candidate_arcs,
    classify_arc,
    crossing_number,
    flip,
    flip_bfs,
    flip_levels,
    flip_state,
    initial_triangulation,
    quadrilateral_sides,
    verify_cover_flip,
)
from .engine import (
    denominator_vector,
    exchange_graph,
    initial_seed,
    variables_up_to_depth,
)
from .errors import (
    ConstructionFailed,
    CounterexampleFound,
    CrossingMismatch,
    HypothesisNotSatisfied,
    IdentityFailed,
    InvalidParameter,
    SearchExhausted,
    ShapeMismatch,
    SideConditionViolated,
)
from .laurent import (
    LaurentPoly,
    SupportLattice,
    coordinates,
    div_exact,
    format_poly,
    poly_prod,
    substitute,
)
from .quiver import Quiver, tilde_A_canonical


@dataclass
class IdentityReport:
    """Outcome of one verification: what was checked and what was seen."""

    name: str
    # every failed check raises, so a report that exists has passed
    passed: bool = field(default=True, init=False)
    witness: dict[str, str] = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
            "context": self.context,
            "notes": self.notes,
        }


SigmaSum = Sequence[Sequence[LaurentPoly]]  # sum of products of cluster variables


def _sigma_value(sigma: SigmaSum, arity: int) -> LaurentPoly:
    return sum((poly_prod(product, arity) for product in sigma), LaurentPoly.zero(arity))


def check_dichotomy(
    x1: LaurentPoly,
    x2: LaurentPoly,
    sigmas: Sequence[SigmaSum],
    cluster: Sequence[LaurentPoly],
    variant: str,
) -> IdentityReport:
    """Membership dichotomy from a positive product identity.

    Variant "a" takes one sum with hypothesis x1*x2 == Sigma1; variant "b"
    takes three with hypothesis x1*x2*Sigma1 == Sigma1*Sigma2 + Sigma3.
    Each sum is given syntactically as products of cluster variables, all
    coefficients positive.  The sums must not consist of the single term
    x1*x2 (the identity would be vacuous).  When the hypothesis holds, at
    least one of x1, x2 must lie outside the reference cluster; both
    present would contradict the algebraic independence of the cluster and
    is raised as a counterexample.
    """
    arity = x1.arity
    expected = {"a": 1, "b": 3}.get(variant)
    if expected is None:
        raise InvalidParameter("variant must be 'a' or 'b'")
    if len(sigmas) != expected:
        raise InvalidParameter(f"variant {variant!r} needs {expected} sums")
    target = x1 * x2
    for sigma in sigmas:
        if len(sigma) == 1 and poly_prod(sigma[0], arity) == target:
            raise SideConditionViolated(
                "the sum consists of the single term x1*x2"
            )
    values = [_sigma_value(s, arity) for s in sigmas]
    if variant == "a":
        holds = target == values[0]
    else:
        holds = target * values[0] == values[0] * values[1] + values[2]
    if not holds:
        raise HypothesisNotSatisfied("the product identity does not hold")
    in1 = any(x1 == member for member in cluster)
    in2 = any(x2 == member for member in cluster)
    if in1 and in2:
        raise CounterexampleFound(
            "both factors lie in the reference cluster despite the identity"
        )
    return IdentityReport(
        name="dichotomy",
        witness={
            "x1": format_poly(x1),
            "x2": format_poly(x2),
            "x1_in_cluster": str(in1),
            "x2_in_cluster": str(in2),
        },
        context={"variant": variant, "cluster_size": len(cluster)},
    )


# ---------------------------------------------------------------------------
# formal chains
# ---------------------------------------------------------------------------

_Z10 = laurent.default_names(10, "z")
_Z8 = laurent.default_names(8, "z")


def _gens(n: int, ones: Iterable[int] = ()) -> list[LaurentPoly]:
    """1-based generator list; listed indices are specialized to 1."""
    ones = set(ones)
    return [None] + [LaurentPoly.one(n) if i in ones else LaurentPoly.variable(i - 1, n)
                     for i in range(1, n + 1)]


# A chain is a table of exchange relations, one per flip.  A relation is
# (token, slot, side one, side two): flipping the slot stores the new
# variable under token, with old * new == side one + side two as its
# exchange relation.  A side is (value keys, side tokens), both tuples,
# standing for the product of the named values and side tokens;
# ("z4",), ("S8",) is z4 * S8 and (), ("S8", "S10") is S8 * S10.  zi is
# the variable the labeling puts at slot i - 1.  The formal chains read
# each side token Si as the free indeterminate zi; the geometric searches
# bind the side tokens to quadrilateral sides on a concrete annulus, a
# boundary segment (value 1) or an arc (its variable).

_PERIPHERAL_PATTERNS = [
    ("z1'", 0, (("z2", "z5"), ()), (("z4",), ("S8",))),
    ("z2'", 1, (("z1'", "z3"), ()), ((), ("S8", "S10"))),
    ("z3'", 2, (("z2'",), ("S9",)), (("z4",), ("S8",))),
    ("z4'", 3, (("z1'", "z3'"), ()), (("z2'", "z5"), ())),
    ("z5'", 4, (("z3'",), ("S7",)), (("z4'",), ("S6",))),
]

_BRIDGING_PATTERNS = [
    ("z1'", 0, (("z2", "z3"), ()), (("z4",), ("S6",))),
    ("z2'", 1, (("z1'",), ("S5",)), (("z3",), ("S6",))),
    ("z3'", 2, (("z1'", "z1'"), ()), (("z2'", "z4"), ())),
    ("z4'", 3, (("z1'",), ("S8",)), (("z3'",), ("S7",))),
    ("z1''", 0, (("z2'",), ("S7",)), (("z3'", "z4'"), ())),
    ("z3''", 2, (("z1''",), ("S8",)), (("z4'",), ("S7",))),
]


def _evaluate_chain(z: Sequence[LaurentPoly], patterns) -> dict[str, LaurentPoly]:
    """Run a chain table over the 1-based generator list z.

    Each relation's sides are multiplied out with Si read as zi, and their
    sum is divided exactly by the value the flipped slot holds: z(slot+1)
    until the slot is first flipped, its last new value after that.
    Returns every value by name, z1, ..., zn included; an inexact quotient
    raises ExactDivisionFailed.
    """
    arity = len(z) - 1
    values = {f"z{i}": z[i] for i in range(1, arity + 1)}
    held = list(values)  # the name of the value each slot holds
    for token, slot, *sides in patterns:
        first, second = (
            poly_prod([*(values[key] for key in keys), *(z[int(t[1:])] for t in tokens)], arity)
            for keys, tokens in sides
        )
        values[token] = div_exact(first + second, values[held[slot]])
        held[slot] = token
    return values


def _peripheral_chain(ones: Iterable[int] = ()) -> dict:
    """The five-relation chain for two peripheral arcs crossing twice,
    expanded over ten indeterminates (optionally specializing side
    variables to 1).  Returns every intermediate value, and sigma3 as its
    products: sigma2 is its last four, sigma1 its last."""
    z = _gens(10, ones)
    values = _evaluate_chain(z, _PERIPHERAL_PATTERNS)
    z1p, z2p, z3p, z4p, z5p = (values[token] for token, *_ in _PERIPHERAL_PATTERNS)
    sigma3_products = [[z1p, z[4], z[7], z[8]], [z1p, z[3], z4p, z[6]], [z3p, z[7], z[8], z[10]],
                       [z4p, z[6], z[8], z[10]], [z2p, z[4], z5p, z[8]]]
    sigma1, sigma2, sigma3 = (_sigma_value(sigma3_products[start:], 10) for start in (4, 1, 0))
    product = z[1] * z1p * z2p * z5p
    lines = {
        "regroup pairs": (z[2] * z2p) * (z[5] * z5p) + sigma1,
        "substitute pair relations": (z1p * z[3] + z[8] * z[10]) * (z3p * z[7] + z4p * z[6]) + sigma1,
        "isolate third relation": (z[3] * z3p) * z1p * z[7] + sigma2,
        "substitute third relation": (z2p * z[9] + z[4] * z[8]) * z1p * z[7] + sigma2,
        "final form": (z1p * z2p) * z[7] * z[9] + sigma3,
    }
    return {
        "z": z,
        "primed": (z1p, z2p, z3p, z4p, z5p),
        "sigmas": (sigma1, sigma2, sigma3),
        "sigma3 products": sigma3_products,
        "product": product,
        "lines": lines,
    }


def report_peripheral_chain_formal() -> IdentityReport:
    """Exact verification of the chain for two peripheral arcs crossing
    twice, over ten free indeterminates and under the boundary
    specialization z8 = z10 = 1.

    The residuals are fixed by the derivation itself.  The unprimed
    variants of the first two residuals (z5 for z5', z4 for z4') do not
    close the chain; their nonzero differences are recorded as notes so
    the deviation is visible rather than silently absorbed.
    """
    report = IdentityReport(name="case2-formal")
    chains = {"free": _peripheral_chain(), "z8=z10=1": _peripheral_chain((8, 10))}
    for tag, data in chains.items():
        product = data["product"]
        for label, value in data["lines"].items():
            difference = product - value
            if not difference.is_zero():
                raise IdentityFailed(
                    f"[{tag}] step '{label}' differs by {format_poly(difference, _Z10)}"
                )
        report.witness[f"{tag}: sigma1"] = format_poly(data["sigmas"][0], _Z10)
        report.witness[f"{tag}: sigma3 terms"] = str(len(data["sigmas"][2].terms))
    data = chains["free"]
    z = data["z"]
    z1p, z2p, z3p, z4p, z5p = data["primed"]
    unprimed_s1 = z2p * z[4] * z[5] * z[8]
    diff1 = data["sigmas"][0] - unprimed_s1
    if not diff1.is_zero():
        report.notes.append(
            "unprimed first residual z2'*z4*z5*z8 misses the chain by a "
            f"{len(diff1.terms)}-term difference"
        )
    head = z1p * z[3] * z4p * z[6]
    unprimed_head = z1p * z[3] * z[4] * z[6]
    diff2 = head - unprimed_head
    if not diff2.is_zero():
        report.notes.append(
            "unprimed second-residual term z1'*z3*z4*z6 misses the chain by a "
            f"{len(diff2.terms)}-term difference"
        )
    report.context = {"indeterminates": 10, "lines": 5}
    return report


def report_bridging_chain_formal(n: int) -> IdentityReport:
    """Exact verification of the chains for two bridging arcs crossing
    n = 2, 3 or 4 times, with the residuals exactly as displayed."""
    if n not in (2, 3, 4):
        raise InvalidParameter("n must be 2, 3 or 4")
    z = _gens(8)
    # the formal chain runs one relation past the geometric setup: the
    # first step of the induction's recurrence
    patterns = _BRIDGING_PATTERNS + [("z4''", 3, (("z1''", "z1''"), ()), (("z2'", "z3''"), ()))]
    v = _evaluate_chain(z, patterns)
    report = IdentityReport(name=f"case3-n{n}", context={"n": n})

    def require(label: str, lhs: LaurentPoly, rhs: LaurentPoly):
        difference = lhs - rhs
        if not difference.is_zero():
            raise IdentityFailed(
                f"'{label}' differs by {format_poly(difference, _Z8)}"
            )

    if n == 2:
        sigma1 = z[2] * z[3] * v["z4'"]
        sigma2 = v["z3'"] * z[6] * z[7] + sigma1
        require("two-crossing product", z[1] * v["z1'"] * v["z4'"], v["z1'"] * z[6] * z[8] + sigma2)
        report.witness["sigma1"] = format_poly(sigma1, _Z8)
        report.witness["sigma2 terms"] = str(len(sigma2.terms))
        return report
    sigma4 = v["z1''"] * v["z3'"] * z[4] * z[6]
    sigma5 = v["z1''"] * z[2] * v["z2'"] * z[4] + sigma4
    sigma6 = v["z1'"] * z[2] * v["z2'"] * z[7] + sigma5
    if n == 3:
        require(
            "three-crossing product",
            z[1] * v["z1'"] * v["z3'"] * v["z1''"],
            (v["z1'"] * v["z3'"]) * z[2] * v["z4'"] + sigma6,
        )
        report.witness["sigma4"] = format_poly(sigma4, _Z8)
        report.witness["sigma6 terms"] = str(len(sigma6.terms))
    else:
        sigma7 = v["z1'"] * z[2] * v["z2'"] * v["z3'"] * v["z3''"] + v["z4''"] * sigma6
        require(
            "four-crossing product",
            z[1] * v["z1'"] * v["z3'"] * v["z1''"] * v["z4''"],
            v["z1'"] * v["z3'"] * v["z1''"] * v["z1''"] * z[2] + sigma7,
        )
        report.witness["sigma7 terms"] = str(len(sigma7.terms))
    return report


# ---------------------------------------------------------------------------
# crossing-pair quadrilateral (one crossing)
# ---------------------------------------------------------------------------


def find_crossing_quadrilateral(ann: MarkedAnnulus):
    """First peripheral/bridging pair crossing once whose peripheral
    diagonal and quadrilateral sides are pairwise compatible, as
    (peripheral, bridging, sides), a boundary side None.  Compatible arcs
    always extend to a triangulation, which then holds the quadrilateral.
    """
    pool = candidate_arcs(ann, winding=2)
    peripherals = [a for a in pool if classify_arc(a)[0] == "peripheral"]
    bridgings = [a for a in pool if classify_arc(a)[0] == "bridging"]
    for gamma_i in peripherals:
        for gamma_j in bridgings:
            if crossing_number(gamma_i, gamma_j, ann) != 1:
                continue
            try:
                sides = quadrilateral_sides(ann, gamma_i, gamma_j)
            except ConstructionFailed:
                continue
            base = {gamma_i} | {s for s in sides if s is not None}
            if any(
                crossing_number(a, b, ann)
                for a, b in itertools.combinations(sorted(base), 2)
            ):
                continue
            return gamma_i, gamma_j, sides
    raise ConstructionFailed("no once-crossing peripheral/bridging pair found")


def report_crossing_quadrilateral(p: int, q: int) -> IdentityReport:
    """One peripheral and one bridging arc crossing once: their
    quadrilateral exchange has the two-times-two product shape, matches
    the algebraic mutation exactly, and forces one diagonal out of any
    cluster containing the other.  The context counts the quadrilateral's
    boundary sides and says whether the peripheral diagonal is a loop."""
    ann = MarkedAnnulus(p, q)
    gamma_i, gamma_j, sides = find_crossing_quadrilateral(ann)
    # a triangulation holding the diagonal and every interior side holds the quadrilateral
    state = _descend(ann, frozenset({gamma_i} | {s for s in sides if s is not None}))
    slot = state.tri.index_of(gamma_i)
    new_state, result = flip_state(state, slot)
    if result.new_arc != gamma_j:
        raise ConstructionFailed(
            "the flip of the peripheral diagonal did not produce the bridging arc"
        )
    x1 = state.seed.cluster[slot]
    x2 = new_state.seed.cluster[slot]
    sigma: list[list[LaurentPoly]] = [
        [state.assignment[s] for s in pair if s is not None] for pair in result.pairs
    ]
    products = [poly_prod(pair, x1.arity) for pair in sigma]
    # flip_state divides the exchange exactly and _out_pair ties each term
    # to its pair of sides, so x1 * x2 == p1 + p2; check_dichotomy checks it
    # as its hypothesis all the same
    check_dichotomy(x1, x2, [sigma], state.seed.cluster, "a")
    check_dichotomy(x1, x2, [sigma], new_state.seed.cluster, "a")
    boundary_sides = sum(1 for pair in result.pairs for s in pair if s is None)
    loop = abs(gamma_i.e1[1] - gamma_i.e2[1]) == ann.period(gamma_i.e1[0])
    return IdentityReport(
        name="case1",
        witness={
            "peripheral": str(gamma_i),
            "bridging": str(gamma_j),
            "exchange": f"{format_poly(x1 * x2)} = "
            + " + ".join(format_poly(t) for t in products),
        },
        context={"p": p, "q": q, "boundary_sides": boundary_sides, "loop": loop},
    )


# ---------------------------------------------------------------------------
# pattern-driven relation matching for the geometric chains
# ---------------------------------------------------------------------------


def _match_side(row_side, pair, keys: dict[str, Arc], tokens: dict[str, Side], start_arcs):
    """The extensions of (keys, tokens) under which a row side's entries,
    keys then tokens, are a flip pair's two sides in either order (one
    extension when both orders agree).  A bound entry must equal its
    side; a fresh token binds only as the last entry, and a fresh key only
    to an arc of start_arcs no key holds yet (an unused start slot)."""
    names, side_tokens = row_side
    last = len(names) + len(side_tokens) - 1
    out = []
    for sides in dict.fromkeys((pair, pair[::-1])):
        k, t = dict(keys), dict(tokens)
        for position, (entry, side) in enumerate(zip(names + side_tokens, sides, strict=True)):
            bound = k if position < len(names) else t
            if entry in bound:
                fits = bound[entry] == side
            elif bound is t:
                fits = position == last
            else:
                fits = side in start_arcs and side not in k.values()
            if not fits:
                break
            bound[entry] = side
        else:
            out.append((k, t))
    return out


def _run_rows(state: TriSeed, start_tri: Triangulation, rows, keys, tokens, flipped=()):
    """Every way, depth first, that the rows match the flips from state; a
    row flips the start slot of z(slot + 1), trying pairs (p1, p2) before
    (p2, p1).  Yields (end state, keys, tokens, the (arc, variable) each
    row flipped in)."""
    if not rows:
        yield state, keys, tokens, flipped
        return
    (token, slot, side_one, side_two), rest = rows[0], rows[1:]
    idx = start_tri.index_of(keys[f"z{slot + 1}"])
    next_state, result = flip_state(state, idx)
    new = flipped + ((result.new_arc, next_state.seed.cluster[idx]),)
    for first, second in (result.pairs, result.pairs[::-1]):
        for k1, t1 in _match_side(side_one, first, keys, tokens, start_tri.arcs):
            for k2, t2 in _match_side(side_two, second, k1, t1, start_tri.arcs):
                k2[token] = result.new_arc
                yield from _run_rows(next_state, start_tri, rest, k2, t2, new)


def _labeled_matches(ann: MarkedAnnulus, depth: int, kind: str, patterns):
    """Every labeled triangulation within the given flip distance of the
    fan whose flip sequence realizes the patterns, as (start state,
    labeling, end state, values, bindings, flip distance).

    Triangulations come nearest first, ties broken by sorted arc set; the
    flip ball grows one level at a time (flip_levels) as the caller
    consumes matches, so depth is an upper bound.  A labeling is a tuple
    of 1 + (largest row slot) distinct slots whose first holds an arc of
    the given kind; zi is the variable at labeling[i - 1], and a row of
    slot s flips labeling[s].  Rows match on the flips' sides, a key
    naming an arc and a token a side, None for a boundary segment
    (``_match_side``).  A fresh zi names the arc at a start slot, so the
    labeling is read off the rows, not enumerated: in both tables every
    slot a row flips is named by an earlier row.  Per start node and first
    arc, matches come in depth-first order.  No relation is re-checked in
    Laurent algebra: a matched row's old * new == (product of side one) +
    (product of side two) holds by construction, as ``flip_state`` divides
    its exchange relation exactly and ``_out_pair`` ties each term to its
    pair of sides.  Arcs become variables at the end, a boundary side 1.
    All states share the fan's memo, so each distinct exchange is divided
    once.
    """
    width = 1 + max(slot for _, slot, *_ in patterns)
    names = [f"z{i + 1}" for i in range(width)] + [token for token, *_ in patterns]
    one = LaurentPoly.one(ann.p + ann.q)
    for level in flip_levels(ann, depth):
        for node in sorted(level, key=lambda node: tuple(sorted(node.state.tri.arcs))):
            start = node.state
            for arc in start.tri.arcs:
                if classify_arc(arc)[0] != kind:
                    continue
                for end, keys, tokens, flipped in _run_rows(start, start.tri, patterns, {"z1": arc}, {}):
                    labeling = tuple(start.tri.index_of(keys[f"z{i + 1}"]) for i in range(width))
                    variable = start.assignment | dict(flipped)
                    values = {name: variable[keys[name]] for name in names}
                    bindings = {t: one if side is None else variable[side] for t, side in tokens.items()}
                    yield start, labeling, end, values, bindings, node.depth


def _format_bindings(bindings: dict[str, LaurentPoly]) -> str:
    """The side-token bindings of a geometric search, sorted, as text."""
    return ", ".join(f"{k}={format_poly(v)}" for k, v in sorted(bindings.items()))


def max_peripheral_crossing(ann: MarkedAnnulus) -> int:
    """Largest pairwise crossing number over all peripheral arcs."""
    peripherals = [a for a in candidate_arcs(ann) if classify_arc(a)[0] == "peripheral"]
    return max((crossing_number(a, b, ann) for a, b in itertools.combinations(peripherals, 2)), default=0)


def report_peripheral_chain_geometric(p: int, q: int, depth: int) -> IdentityReport:
    """Find, on a concrete annulus, a peripheral arc admitting the
    five-flip sequence whose exchange relations realize the formal chain,
    ending at a peripheral arc crossing it exactly twice.

    Side tokens bind to quadrilateral sides: boundary segments (1) or
    arcs (their variables).  The found values are substituted back into
    the formal chain as an agreement check between the layers.
    """
    if max(p, q) < 4:
        raise InvalidParameter(
            "need at least four marked points on the outer or the inner boundary"
        )
    ann = MarkedAnnulus(p, q)
    ceiling = max_peripheral_crossing(ann)
    if ceiling > 2:
        raise CounterexampleFound(
            f"peripheral arcs crossing {ceiling} times exist on C({p},{q})"
        )

    matches = _labeled_matches(ann, depth, "peripheral", _PERIPHERAL_PATTERNS)
    for st, labeling, end_state, values, bindings, d in matches:
        gamma_i = st.tri.arcs[labeling[0]]
        gamma_j = end_state.tri.arcs[labeling[4]]
        if classify_arc(gamma_j)[0] != "peripheral":
            continue
        if crossing_number(gamma_i, gamma_j, ann) != 2:
            continue
        images = [values[f"z{i}"] for i in range(1, 6)]
        images += [
            bindings.get(f"S{i}", LaurentPoly.one(images[0].arity))
            for i in (6, 7, 8, 9, 10)
        ]
        formal = _evaluate_chain(_gens(10), _PERIPHERAL_PATTERNS)
        for name, *_ in _PERIPHERAL_PATTERNS:
            if substitute(formal[name], images) != values[name]:
                raise IdentityFailed(f"formal and geometric values of {name} disagree")
        return IdentityReport(
            name="case2-geometric",
            witness={
                "peripheral_start": str(gamma_i),
                "peripheral_end": str(gamma_j),
                "crossing": str(crossing_number(gamma_i, gamma_j, ann)),
                "side_bindings": _format_bindings(bindings),
            },
            context={
                "p": p,
                "q": q,
                "depth": depth,
                "found_at_flip_distance": d,
                "max_peripheral_crossing": ceiling,
            },
        )
    raise SearchExhausted(
        f"no five-flip chain found on C({p},{q}) within flip distance {depth}"
    )


# ---------------------------------------------------------------------------
# bridging winding induction
# ---------------------------------------------------------------------------


def _find_bridging_setup(ann: MarkedAnnulus):
    """The first labeled triangulation within flip distance 5 of the fan
    whose setup flips realize the bridging patterns."""
    for match in _labeled_matches(ann, 5, "bridging", _BRIDGING_PATTERNS):
        return match
    raise SearchExhausted(f"no winding-induction setup found on C({ann.p},{ann.q})")


def _opposite_pair(pairs: tuple[tuple[Side, Side], ...], arc: Arc) -> tuple[Side, Side]:
    """The sides of the quadrilateral pair opposite the pair that is one
    arc twice, from a flip's side pairs; that arc must be the given slot
    arc."""
    for j, (first, second) in enumerate(pairs):
        if first is not None and first == second:
            if first != arc:
                raise ShapeMismatch(f"squared side is {first}, not the slot arc {arc}")
            return pairs[1 - j]
    raise ShapeMismatch("no quadrilateral pair is one arc twice")


def _band(x0: LaurentPoly, x1: LaurentPoly, cross_term: LaurentPoly) -> LaurentPoly:
    """The band L = (x2 + x0) / x1 of the winding recurrence, where x2 is
    the quotient of the first winding relation x2 * x0 == x1**2 + c."""
    return div_exact(div_exact(x1 * x1 + cross_term, x0) + x0, x1)


def _winding_flip(tri: Triangulation, quiver: Quiver, cluster, slot: int, other: int,
                  cross_term: LaurentPoly, band: LaurentPoly, label: str):
    """One winding flip, x_{n+1} = L * x_n - x_{n-1}; returns the flipped
    triangulation, quiver and cluster.

    Shape: the other slot's arc twice against a pair whose product is c
    (ShapeMismatch).  Quiver alignment: the slot's row matches the flip
    quadrilateral (``annulus._out_pair``, the check ``flip_state`` makes);
    the cluster is algebraically independent, so the quiver's exchange sum
    is x_n**2 + c (MalformedTriangulation otherwise).  Exchange: the
    recurrence conserves I_n = x_{n+1} * x_{n-1} - x_n**2, since
    I_n = x_n * (L * x_{n-1} - x_n) - x_{n-1}**2 = I_{n-1}.  So once
    ``_winding_walk`` has checked I_1 == c, x_{n+1} * x_{n-1} == x_n**2 + c
    holds at every flip, and x_{n+1} is the exchanged variable, as the
    Laurent ring has no zero divisors.
    """
    result = flip(tri, slot)
    opposite = _opposite_pair(result.pairs, tri.arcs[other])
    sides = [cluster[tri.index_of(side)] for side in opposite if side is not None]
    if poly_prod(sides, cross_term.arity) != cross_term:
        raise ShapeMismatch(f"{label} is not the recurrence")
    _out_pair(tri, quiver.b[slot], result.pairs)
    cluster = list(cluster)
    cluster[slot] = band * cluster[other] - cluster[slot]
    return result.triangulation, quiver.mutate(slot), cluster


def _winding_walk(state: TriSeed, slot1: int, slot4: int, cross_term, band, K: int):
    """The winding flips from the end of the setup, the fourth slot at
    k = 2..K and the first at k = 3..K in turn: z1_k, z4_k and their arcs,
    keyed by k.  The exchange relation of the first flip is checked
    exactly (IdentityFailed); it gives every later one (``_winding_flip``)."""
    tri, quiver, cluster = state.tri, state.seed.quiver, state.seed.cluster
    x0 = cluster[slot4]
    z1_vals = {2: cluster[slot1]}
    z4_vals: dict[int, LaurentPoly] = {}
    z1_arcs = {2: tri.arcs[slot1]}
    z4_arcs: dict[int, Arc] = {}
    for k in range(2, K + 1):
        tri, quiver, cluster = _winding_flip(
            tri, quiver, cluster, slot4, slot1, cross_term, band,
            f"widening relation at k={k}",
        )
        z4_vals[k], z4_arcs[k] = cluster[slot4], tri.arcs[slot4]
        if k == 2 and z4_vals[2] * x0 != z1_vals[2] * z1_vals[2] + cross_term:
            raise IdentityFailed(
                "widening relation at k=2: the band recurrence misses the exchange relation"
            )
        if k < K:
            tri, quiver, cluster = _winding_flip(
                tri, quiver, cluster, slot1, slot4, cross_term, band,
                f"return relation at k={k + 1}",
            )
            z1_vals[k + 1], z1_arcs[k + 1] = cluster[slot1], tri.arcs[slot1]
    return z1_vals, z4_vals, z1_arcs, z4_arcs


def report_winding_induction(p: int, q: int, K: int) -> IdentityReport:
    """Run the alternating flip recurrence for a bridging arc against
    increasingly winding partners.

    The setup is the nearest labeled triangulation whose flips realize
    the bridging table (``_find_bridging_setup``): its rows are matched on
    the flips' quadrilateral sides, and the labeling is read off them
    (``_labeled_matches``).  Past the setup the flips alternate between
    the first and the fourth slot, and their variables x_0 = z4_1,
    x_1 = z1_2, x_2 = z4_2, ... satisfy x_{n+1} * x_{n-1} == x_n**2 + c
    for the fixed cross term c.  Two consecutive relations show that
    L = (x_{n+1} + x_{n-1}) / x_n, the band around the core, does not
    depend on n, so x_{n+1} = L * x_n - x_{n-1}.  ``_band`` takes L from the first winding
    relation; past it, no flip divides (``_winding_flip``).

    Checks, on a concrete annulus: (i) every exchange relation past the
    setup matches the two-term recurrence with the fixed cross term: each
    flip's shape and quiver row give the exchange sum x_n**2 + c, and the
    recurrence conserves I_n = x_{n+1} * x_{n-1} - x_n**2 (I_n = I_{n-1}),
    so checking I_1 == c once proves the relation at every flip, (ii)
    the new arcs cross the original bridging arc exactly 2k-1 and 2k
    times, (iii) the two general product identities hold with residuals
    whose expansions over the initial cluster are strictly positive,
    proven from their factors (``_residual_term_counts``).
    """
    if K < 3:
        raise InvalidParameter("K must be at least 3")
    ann = MarkedAnnulus(p, q)
    setup, labeling, state, values, bindings, found_at = _find_bridging_setup(ann)
    gamma_i = setup.tri.arcs[labeling[0]]
    cross_term = values["z2'"] * values["z3''"]
    slot1, slot4 = labeling[0], labeling[3]
    band = _band(state.seed.cluster[slot4], state.seed.cluster[slot1], cross_term)
    z1_vals, z4_vals, z1_arcs, z4_arcs = _winding_walk(state, slot1, slot4, cross_term, band, K)

    for k in range(2, K + 1):
        got1 = crossing_number(z1_arcs[k], gamma_i, ann)
        if got1 != 2 * k - 1:
            raise CrossingMismatch(f"first-slot arc at k={k} crosses {got1}, want {2 * k - 1}")
        got4 = crossing_number(z4_arcs[k], gamma_i, ann)
        if got4 != 2 * k:
            raise CrossingMismatch(f"fourth-slot arc at k={k} crosses {got4}, want {2 * k}")

    return IdentityReport(
        name="induction",
        witness={
            "bridging_arc": str(gamma_i),
            "cross_term": format_poly(cross_term),
            "residual_term_counts": str(_residual_term_counts(values, z1_vals, z4_vals)),
            "side_bindings": _format_bindings(bindings),
        },
        context={"p": p, "q": q, "K": K, "setup_flip_distance": found_at},
    )


def _residual_term_counts(
    values: dict[str, LaurentPoly],
    z1_vals: dict[int, LaurentPoly],
    z4_vals: dict[int, LaurentPoly],
) -> dict[int, int]:
    """Prove each residual of the induction positive and count its terms.

    For 3 <= m <= K the residuals at indices 2m+2 and 2m+3 are lhs - main
    with the common factors pulled out: ``prefix * (z1*z1_m - z2*z4_{m-1})``
    and ``prefix * z1_m * (z1*z4_m - z2*z1_m)``, where the prefix is
    ``z1' * z3' * prod(z1_k * z4_k for 2 <= k < m)``.  A product of nonzero
    Laurent polynomials with positive coefficients is nonzero with positive
    coefficients, and none of its terms cancels, so its support is the sum
    of its factors' supports.  So every factor is checked positive and
    each residual's term count is read off a support bitset over one
    lattice of the chain; no residual is multiplied out.  A factor that is
    zero or has a coefficient that is not positive raises IdentityFailed,
    since the proof then fails.
    """
    def positive(name: str, factor: LaurentPoly, tag: int) -> LaurentPoly:
        if factor.is_zero() or not factor.has_positive_coefficients():
            raise IdentityFailed(f"factor {name} of the residual at index {tag} is not positive")
        return factor

    z1v, z2v = values["z1"], values["z2"]
    start = [positive("z1'", values["z1'"], 8), positive("z3'", values["z3'"], 8)]
    prefix, steps, products = start, [], []
    for m in range(3, max(z4_vals) + 1):
        one, two = 2 * m + 2, 2 * m + 3
        grown = [
            positive(f"z1_{m - 1}", z1_vals[m - 1], one),
            positive(f"z4_{m - 1}", z4_vals[m - 1], one),
        ]
        small_one = z1v * z1_vals[m] - z2v * z4_vals[m - 1]
        small_two = z1v * z4_vals[m] - z2v * z1_vals[m]
        own_one = [positive(f"z1*z1_{m} - z2*z4_{m - 1}", small_one, one)]
        own_two = [
            positive(f"z1_{m}", z1_vals[m], two),
            positive(f"z1*z4_{m} - z2*z1_{m}", small_two, two),
        ]
        prefix = prefix + grown
        products += [prefix + own_one, prefix + own_two]
        steps.append((one, two, grown, own_one, own_two))

    # the prefix's support is carried from m to m + 1 as one bitset
    lattice = SupportLattice(products)
    bits = functools.reduce(lattice.plus, start, 1)
    counts = {}
    for one, two, grown, own_one, own_two in steps:
        bits = functools.reduce(lattice.plus, grown, bits)
        counts[one] = functools.reduce(lattice.plus, own_one, bits).bit_count()
        counts[two] = functools.reduce(lattice.plus, own_two, bits).bit_count()
    return counts


# ---------------------------------------------------------------------------
# quiver recovery and structure uniqueness
# ---------------------------------------------------------------------------


def report_quiver_recovery(p: int, q: int, depth: int) -> IdentityReport:
    """Enumerate variables around the acyclic seed, check that each
    coordinate has a unique unit-denominator partner, and read the quiver
    back off the partners; the result must be the seed's quiver or its
    opposite.  The partners lie at depth 1, so depth must be at least 1."""
    if depth < 1:
        raise InvalidParameter(f"depth {depth} holds no exchange partner; it must be at least 1")
    quiver = tilde_A_canonical(p, q)
    if not quiver.is_acyclic():
        raise ConstructionFailed("reference quiver must be acyclic")
    seed = initial_seed(quiver)
    pool = variables_up_to_depth(seed, depth)
    n = quiver.n
    denominators = Counter(map(denominator_vector, pool))
    partner_counts = [denominators[tuple(int(j == i) for j in range(n))] for i in range(n)]
    inferred = engine.infer_exchange_quiver(list(seed.cluster), pool)
    matches = "same" if inferred == quiver else (
        "opposite" if inferred == quiver.opposite() else "neither"
    )
    if matches == "neither":
        raise CounterexampleFound(
            "inferred quiver is neither the reference nor its opposite"
        )
    return IdentityReport(
        name="quiver-recovery",
        witness={
            "partner_counts": str(partner_counts),
            "orientation": matches,
        },
        context={"p": p, "q": q, "depth": depth, "pool_size": len(pool)},
    )


def _nearest(items: Iterable[tuple]) -> dict:
    """Smallest depth per key over (key, depth) pairs."""
    out: dict = {}
    for key, d in items:
        out[key] = min(d, out.get(key, d))
    return out


def _require_within(source: dict, target, reach: int, message: str) -> None:
    """Every key of source at depth at most reach must be in target."""
    for key, d in source.items():
        if d <= reach and key not in target:
            raise CounterexampleFound(message)


def _compatible_cliques(ann: MarkedAnnulus, arcs: Sequence[Arc], size: int) -> Iterator[tuple[Arc, ...]]:
    """The pairwise-compatible size-subsets of the sorted arcs, in the order
    of itertools.combinations: cliques grown only by later arcs compatible
    with every arc already chosen."""
    later = [0] * len(arcs)  # bit j of later[i]: j > i and arcs[j] does not cross arcs[i]
    for i, j in itertools.combinations(range(len(arcs)), 2):
        if not crossing_number(arcs[i], arcs[j], ann):
            later[i] |= 1 << j

    def grow(chosen: tuple[Arc, ...], allowed: int) -> Iterator[tuple[Arc, ...]]:
        if len(chosen) == size:
            yield chosen
        while 0 < size - len(chosen) <= allowed.bit_count():
            i = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            yield from grow(chosen + (arcs[i],), allowed & later[i])

    return grow((), (1 << len(arcs)) - 1)


def report_unistructurality(p: int, q: int, depth: int) -> IdentityReport:
    """Desk-scale shadow of structure uniqueness.

    (i) Re-root the enumeration at several non-root seeds and check that
    cluster sets agree wherever both enumerations are guaranteed to reach.
    Cluster sets determine the exchange edges (adjacency is symmetric
    difference of size two), so agreement of clusters is agreement of
    graphs.  The variable pools then agree too: a variable at depth at
    most the reach lies in a cluster at depth at most the reach, which the
    two cluster checks place on the other side.

    (ii) Adversarially, every pairwise-compatible full-size subset of the
    enumerated variable pool, found as a clique of compatible arcs, must be
    an actual cluster.  Such a clique is a triangulation, and one minus an
    arc has exactly two completions, so a breadth-first walk from the ball
    certifies each clique outside it by one flip from a certified
    neighbour, which must land on it and give its new arc the pool's
    variable (flip_levels has checked the ball's).  A clique the walk
    misses raises SearchExhausted.
    """
    ann = MarkedAnnulus(p, q)
    rank = p + q
    nodes = flip_bfs(ann, depth)
    varmap = {arc: var for node in nodes.values() for arc, var in node.state.assignment.items()}
    if len(set(varmap.values())) != len(varmap):
        raise CounterexampleFound("distinct arcs of the ball share a variable")
    cluster_depth = _nearest(
        (frozenset(node.state.seed.cluster), node.depth) for node in nodes.values()
    )

    # (ii) compatible subsets, as int masks over the pool arcs
    bit = {arc: 1 << i for i, arc in enumerate(varmap)}
    pending: set[int] = set()  # the cliques not yet certified
    pairs: dict[int, int] = {}  # a clique minus one arc -> the sum of its completions
    compatible_subsets = 0
    for combo in _compatible_cliques(ann, sorted(varmap), rank):
        compatible_subsets += 1
        mask = sum(map(bit.__getitem__, combo))
        pending.add(mask)
        for arc in combo:
            pairs[mask ^ bit[arc]] = pairs.get(mask ^ bit[arc], 0) + mask
    queue = deque((sum(map(bit.__getitem__, key)), node.state) for key, node in nodes.items())
    pending.difference_update(mask for mask, _ in queue)
    witnessed_by_path = 0
    while queue:
        mask, state = queue.popleft()
        for idx, arc in enumerate(state.tri.arcs):
            rest = mask ^ bit[arc]
            other = pairs[rest] - mask  # the other completion, or 0
            if other not in pending:
                continue
            pending.remove(other)
            flipped, result = flip_state(state, idx)
            witnessed_by_path += 1
            if bit.get(result.new_arc) != other - rest or flipped.seed.cluster[idx] != varmap[result.new_arc]:
                raise CounterexampleFound("a flip from a certified clique misses the cluster of its neighbour")
            queue.append((other, flipped))
    if compatible_subsets != len(nodes) + witnessed_by_path:
        raise SearchExhausted("the flips from the ball miss a pairwise-compatible subset")

    # (i) re-rooted enumerations
    picks = sorted(
        (node for node in nodes.values() if 1 <= node.depth <= 2),
        key=lambda node: tuple(sorted(node.state.tri.arcs)),
    )[:3]
    for pick in picks:
        images = list(pick.state.seed.cluster)
        fresh = exchange_graph(initial_seed(pick.state.seed.quiver), depth)
        image_of = {v: substitute(v, images) for v in fresh.variables}
        if any(image is None for image in image_of.values()):
            raise CounterexampleFound("a re-rooted variable is not Laurent in the root frame")
        translated = _nearest(
            (frozenset(image_of[v] for v in node.cluster), d) for node, d in zip(fresh.seeds, fresh.depths)
        )
        reach = depth - pick.depth
        _require_within(translated, cluster_depth, reach,
                        "re-rooted enumeration found a cluster the root missed")
        _require_within(cluster_depth, translated, reach,
                        "root enumeration found a cluster the re-rooted one missed")

    return IdentityReport(
        name="unistructurality",
        witness={
            "clusters": str(len(cluster_depth)),
            "variables": str(len(varmap)),
            "compatible_subsets": str(compatible_subsets),
            "witnessed_by_flip_path": str(witnessed_by_path),
        },
        context={"p": p, "q": q, "depth": depth, "rerooted_presentations": len(picks)},
    )


# the annuli, samples per annulus and strip window of the cover-flip report
COVER_FLIP_CASES = ((2, 1), (2, 2), (3, 2))
COVER_FLIP_SAMPLES = 20
COVER_FLIP_WINDOW = 3


def report_cover_flip(rng_seed: int = 0) -> IdentityReport:
    """Randomized check that flipping all lifts of an arc in the windowed
    cover matches the lift of the flipped triangulation on the interior:
    COVER_FLIP_SAMPLES random walks of up to three flips from the fan of
    each annulus in COVER_FLIP_CASES."""
    rng = random.Random(rng_seed)
    checked = 0
    done: set[tuple] = set()  # a repeated (triangulation, index) sample is checked once
    walked: dict[tuple, Triangulation] = {}  # each walk step's flip, made once
    for p, q in COVER_FLIP_CASES:
        ann = MarkedAnnulus(p, q)
        fan = initial_triangulation(ann)
        for _ in range(COVER_FLIP_SAMPLES):
            tri = fan
            for _ in range(rng.randrange(4)):
                step = (tri, rng.randrange(p + q))
                if step not in walked:
                    walked[step] = flip(*step).triangulation
                tri = walked[step]
            index = rng.randrange(p + q)
            if (tri, index) not in done:
                done.add((tri, index))
                if not verify_cover_flip(tri, index, COVER_FLIP_WINDOW):
                    raise CounterexampleFound(
                        f"cover flip mismatch on C({p},{q}) at index {index}"
                    )
            checked += 1
    return IdentityReport(
        name="cover-flip",
        witness={"checked": str(checked)},
        context={"cases": list(map(list, COVER_FLIP_CASES)), "samples": COVER_FLIP_SAMPLES,
                 "window": COVER_FLIP_WINDOW},
    )


def report_dichotomy_instances() -> IdentityReport:
    """Bundle of dichotomy checks: the rank-2 double-arrow instance, the
    variant-b instance assembled from the formal peripheral chain, and a
    geometric instance from the quadrilateral construction."""
    x1, x2 = coordinates(2)
    first = engine.mutate_seed(initial_seed(tilde_A_canonical(1, 1)), 0)
    x1p = first.cluster[0]
    check_dichotomy(x1, x1p, [[[x2, x2], []]], [x1p, x2], "a")

    data = _peripheral_chain()
    z = data["z"]
    z1p, z2p, *_, z5p = data["primed"]
    sigmas = [[[z1p, z2p]], [[z[7], z[9]]], data["sigma3 products"]]
    check_dichotomy(z[1], z5p, sigmas, z[1:], "b")

    report_crossing_quadrilateral(2, 1)
    return IdentityReport(
        name="lemma31",
        witness={"instances": "rank-2, formal chain (variant b), quadrilateral"},
        context={},
    )


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

# each report's function and the parameters it takes, at their defaults,
# in the order "all" runs them
_REPORTS = {
    "lemma31": (report_dichotomy_instances, {}),
    "case1": (report_crossing_quadrilateral, {"p": 2, "q": 1}),
    "case2-formal": (report_peripheral_chain_formal, {}),
    "case2-geometric": (report_peripheral_chain_geometric, {"p": 4, "q": 1, "depth": 6}),
    "case3-n2": (functools.partial(report_bridging_chain_formal, 2), {}),
    "case3-n3": (functools.partial(report_bridging_chain_formal, 3), {}),
    "case3-n4": (functools.partial(report_bridging_chain_formal, 4), {}),
    "induction": (report_winding_induction, {"p": 2, "q": 2, "K": 5}),
    "quiver-recovery": (report_quiver_recovery, {"p": 2, "q": 1, "depth": 4}),
    "unistructurality": (report_unistructurality, {"p": 2, "q": 1, "depth": 4}),
    "cover-flip": (report_cover_flip, {"rng_seed": 0}),
}
REPORT_NAMES = tuple(_REPORTS)


def run_report(
    name: str,
    p: Optional[int] = None,
    q: Optional[int] = None,
    depth: Optional[int] = None,
    K: Optional[int] = None,
    rng_seed: Optional[int] = None,
) -> list[IdentityReport]:
    """Run one named report (or all of them) with documented defaults.

    Only a parameter left as None takes its default.  An explicit value, 0
    included, is used as given, so an invalid annulus size raises
    InvalidAnnulus instead of silently running the default annulus.  A
    parameter the report does not take raises InvalidParameter; "all"
    runs every report at its defaults and takes none.
    """
    if name != "all" and name not in _REPORTS:
        raise InvalidParameter(f"unknown report {name!r}; choose from {', '.join(REPORT_NAMES)}, all")
    given = {key: value for key, value in
             (("p", p), ("q", q), ("depth", depth), ("K", K), ("rng_seed", rng_seed))
             if value is not None}
    report, defaults = _REPORTS.get(name, (None, {}))
    unused = [key for key in given if key not in defaults]
    if unused:
        raise InvalidParameter(f"report {name!r} does not take {', '.join(unused)}")
    params = {**defaults, **given}
    if "p" in params:
        MarkedAnnulus(params["p"], params["q"])  # an invalid annulus raises before any work
    if name == "all":
        return [item for each in REPORT_NAMES for item in run_report(each)]
    return [report(**params)]
