"""Seeds, the exchange relation, and bounded exchange-graph enumeration.

Every cluster variable is carried as a Laurent polynomial in the root
seed's variables, so equality questions across presentations reduce to
normal-form equality in one global coordinate frame.  All enumeration is
depth- and node-bounded; the algebras here are infinite type and nothing
ever tries to close them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import laurent
from .errors import (
    AmbiguousPartner,
    CounterexampleFound,
    ExactDivisionFailed,
    InconsistentExchangePattern,
    InvalidParameter,
    LimitExceeded,
    NoPartnerFound,
    NotTwoMonomials,
)
from .laurent import LaurentPoly, coordinates, poly_from_json, poly_prod, poly_to_json
from .quiver import Quiver, quiver_from_json, quiver_to_json

DEFAULT_NODE_LIMIT = 100_000


@dataclass(frozen=True)
class Seed:
    """A quiver together with an ordered cluster, one variable per point."""

    quiver: Quiver
    cluster: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.cluster) != self.quiver.n:
            raise InvalidParameter(
                f"cluster has {len(self.cluster)} variables for a quiver on {self.quiver.n} points"
            )
        if len(set(self.cluster)) != len(self.cluster):
            raise InvalidParameter("cluster members must be pairwise distinct")

    @property
    def rank(self) -> int:
        return self.quiver.n


def initial_seed(quiver: Quiver) -> Seed:
    """Seed whose cluster is the coordinate variables x_1, ..., x_n."""
    return Seed(quiver, coordinates(quiver.n))


def exchange_terms(seed: Seed, k: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The two terms of the exchange sum at direction k: the product over
    arrows out of k and the product over arrows into k, empty products
    equal to 1."""
    if not 0 <= k < seed.rank:
        raise InvalidParameter(f"direction {k} out of range")
    row = seed.quiver.b[k]
    arity = seed.cluster[0].arity
    plus = poly_prod((seed.cluster[j] ** m for j, m in enumerate(row) if m > 0), arity)
    minus = poly_prod((seed.cluster[j] ** -m for j, m in enumerate(row) if m < 0), arity)
    return plus, minus


def mutate_seed(seed: Seed, k: int, memo: Optional[dict] = None) -> Seed:
    """Replace x_k by the exchange quotient and mutate the quiver.

    The quotient is an exact Laurent division; inexactness would contradict
    the Laurent property and raises ExactDivisionFailed.  It depends on x_k
    and on k's neighbours' variables with their multiplicities b_kj alone,
    so it is looked up in memo under (x_k, frozenset((x_j, b_kj))) before
    dividing.  A division stores its quotient x_k' there, and, as mutation
    is an involution, x_k under the reverse exchange (x_k', frozenset((x_j,
    -b_kj))).  Without a memo a fresh one is used: the result is the same.
    """
    if not 0 <= k < seed.rank:
        raise InvalidParameter(f"direction {k} out of range")
    memo = {} if memo is None else memo
    cluster = seed.cluster
    neighbours = frozenset((x, m) for x, m in zip(cluster, seed.quiver.b[k]) if m)
    new_var = memo.get((cluster[k], neighbours))
    if new_var is None:
        plus, minus = exchange_terms(seed, k)
        new_var = laurent.try_div_exact(plus + minus, cluster[k])
        if new_var is None:
            raise ExactDivisionFailed(
                f"exchange sum at direction {k} is not divisible by the leaving variable"
            )
        memo[cluster[k], neighbours] = new_var
        memo[new_var, frozenset((x, -m) for x, m in neighbours)] = cluster[k]
    return Seed(seed.quiver.mutate(k), cluster[:k] + (new_var,) + cluster[k + 1:])


def canonical_seed(seed: Seed) -> Seed:
    """Sort the cluster by the deterministic polynomial order and permute the
    quiver along.  Node identity in the exchange graph is then plain equality."""
    order = sorted(range(seed.rank), key=lambda i: seed.cluster[i].sort_key())
    return Seed(seed.quiver.permuted(order), tuple(seed.cluster[i] for i in order))


@dataclass
class ExchangeGraph:
    """Depth-bounded exchange graph with nodes numbered in enumeration
    order, node 0 the root.  Node i is ``seeds[i]``, in ``canonical_seed``
    form, at ``depths[i]``; ``links[i]`` sends each direction k mutated at
    node i to the neighbour's number."""

    depth: int
    seeds: list[Seed]
    depths: list[int]
    links: list[dict[int, int]]

    @property
    def variables(self) -> list[LaurentPoly]:
        """Every variable once, in the order nodes first hold them."""
        return list(dict.fromkeys(v for seed in self.seeds for v in seed.cluster))

    def node_count(self) -> int:
        return len(self.seeds)

    def _sorted_numbers(self) -> tuple[list[int], list[int]]:
        """Node numbers in sorted cluster order, and each node's place in it."""
        order = sorted(range(len(self.seeds)), key=lambda a: [v.sort_key() for v in self.seeds[a].cluster])
        return order, sorted(range(len(order)), key=order.__getitem__)  # the inverse of order

    def to_json(self) -> dict:
        """JSON form of the graph, nodes in sorted cluster order.

        Each distinct variable is serialised once and its dict is shared by
        every node holding it, so treat the result as read-only.
        """
        order, place = self._sorted_numbers()
        as_json = {v: poly_to_json(v) for v in self.variables}
        return {
            "root": place[0],
            "depth": self.depth,
            "nodes": [
                {
                    "cluster": [as_json[v] for v in self.seeds[a].cluster],
                    "quiver": quiver_to_json(self.seeds[a].quiver),
                    "depth": self.depths[a],
                }
                for a in order
            ],
            "edges": sorted(
                [place[a], k, place[b]]
                for a, links in enumerate(self.links)
                for k, b in links.items()
                if place[a] <= place[b]
            ),
        }

    def to_dot(self) -> str:
        """Nodes in sorted cluster order, labelled by denominator vectors;
        each edge once, where enumeration first recorded it."""
        order, place = self._sorted_numbers()
        labels = {v: "(" + " ".join(map(str, denominator_vector(v))) + ")" for v in self.variables}
        lines = ["graph exchange {"]
        lines.extend(f'  n{r} [label="{",".join(labels[v] for v in self.seeds[a].cluster)}"];'
                     for r, a in enumerate(order))
        lines.extend(f"  n{min(place[a], place[b])} -- n{max(place[a], place[b])};"
                     for a, links in enumerate(self.links) for b in links.values() if a < b)
        lines.append("}")
        return "\n".join(lines)


def exchange_graph(seed: Seed, depth: int, node_limit: int = DEFAULT_NODE_LIMIT) -> ExchangeGraph:
    """Breadth-first enumeration of seeds to the given depth.

    Every node is a seed in ``canonical_seed`` form and is identified by
    its cluster.  Two seeds with equal clusters must carry the same quiver;
    a conflict would make cluster-level deduplication unsound and raises
    CounterexampleFound.  Directions whose edge is already known (the edge
    back to the parent, at least) are not mutated again: mutation is an
    involution, so the edge is already recorded from the other end.

    Every edge is one ``mutate_seed`` call, and all share one memo, so each
    exchange is divided once, its reverse included; an edge whose exchange
    was seen before reuses the quotient and still mutates and checks its
    own quiver.
    """
    if depth < 0:
        raise InvalidParameter(f"depth {depth} must be nonnegative")
    if node_limit < 1:
        raise InvalidParameter(f"node limit {node_limit} must be positive")
    seeds, depths, links = [canonical_seed(seed)], [0], [{}]
    numbers = {seeds[0].cluster: 0}  # cluster -> node number
    memo: dict = {}
    for a, parent in enumerate(seeds):  # seeds grows as it is walked: breadth first
        if depths[a] >= depth:
            break
        known = links[a]
        for k in range(parent.rank):
            if k in known:
                continue
            mutated = mutate_seed(parent, k, memo)
            child = canonical_seed(mutated)
            b = numbers.setdefault(child.cluster, len(seeds))
            if b == len(seeds):
                if b >= node_limit:
                    raise LimitExceeded(f"exchange graph exceeded {node_limit} nodes")
                seeds.append(child)
                depths.append(depths[a] + 1)
                links.append({})
            elif seeds[b].quiver != child.quiver:
                raise CounterexampleFound(
                    "two seeds share a cluster but disagree on the quiver; "
                    "cluster-keyed deduplication would be unsound"
                )
            known[k] = b
            links[b][child.cluster.index(mutated.cluster[k])] = a
    return ExchangeGraph(depth, seeds, depths, links)


def variables_up_to_depth(seed: Seed, depth: int) -> set[LaurentPoly]:
    return set(exchange_graph(seed, depth).variables)


def denominator_vector(variable: LaurentPoly) -> tuple[int, ...]:
    """Reduced-form denominator exponents with respect to the ambient frame."""
    if variable.is_zero():
        raise InvalidParameter("zero polynomial has no denominator vector")
    _, denom = variable.reduced_form()
    return denom


def jacobian_determinant(variables: Sequence[LaurentPoly]) -> LaurentPoly:
    """Determinant of the matrix of formal partials, expanded exactly.

    Minor expansion along the first remaining row, memoized on column
    subsets, which keeps the work at O(2^n) polynomial products.
    """
    n = len(variables)
    if n == 0:
        raise InvalidParameter("need at least one variable")
    arity = variables[0].arity
    if any(v.arity != arity for v in variables):
        raise InvalidParameter("variables must share one arity")
    if n != arity:
        raise InvalidParameter("need exactly one variable per ambient coordinate")
    rows = [[variables[i].derivative(j) for j in range(n)] for i in range(n)]

    @functools.cache
    def minor(cols: frozenset[int]) -> LaurentPoly:
        if not cols:
            return LaurentPoly.one(arity)
        value = LaurentPoly.zero(arity)
        for position, j in enumerate(sorted(cols)):
            term = rows[n - len(cols)][j] * minor(cols - {j})
            value = value + (term if position % 2 == 0 else -term)
        return value

    return minor(frozenset(range(n)))


def is_algebraically_independent(variables: Sequence[LaurentPoly]) -> bool:
    """Jacobian criterion over characteristic zero: independent iff the
    determinant is a nonzero Laurent polynomial."""
    return not jacobian_determinant(variables).is_zero()


def _split_two_monomials(product: LaurentPoly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    terms = sorted(product.terms.items())
    if len(terms) != 2 or any(c != 1 for _, c in terms) or any(
        e < 0 for exps, _ in terms for e in exps
    ):
        raise NotTwoMonomials(
            f"expected a sum of two unit monomials, got {laurent.format_poly(product)}"
        )
    return terms[0][0], terms[1][0]


def infer_exchange_quiver(reference: Sequence[LaurentPoly], pool: Iterable[LaurentPoly]) -> Quiver:
    """Recover the exchange quiver of a cluster from its exchange partners.

    Times x_i, the pool's one variable with denominator vector e_i is two
    monomials; row i is the first minus the second in lexicographic order.
    Skew-symmetry (s_j*r_j[i] == -s_i*r_i[j]) fixes one sign per row breadth
    first from the first row of each connected component, so each component
    comes back as itself or its opposite.
    The reference cluster must be the coordinate frame of the pool.
    """
    n = len(reference)
    if list(reference) != list(coordinates(n)):
        raise InvalidParameter("reference cluster must be the coordinate variables")
    buckets: dict[tuple[int, ...], list[LaurentPoly]] = {}
    for v in pool:
        buckets.setdefault(denominator_vector(v), []).append(v)
    rows = []
    for i in range(n):
        found = buckets.get(tuple(int(j == i) for j in range(n)), [])
        if len(found) != 1:
            kind = AmbiguousPartner if found else NoPartnerFound
            raise kind(f"{len(found)} pool variables have denominator vector e_{i + 1}")
        pairs = [(0, 0) if j == i else pair
                 for j, pair in enumerate(zip(*_split_two_monomials(found[0] * reference[i])))]
        if any(a and b for a, b in pairs):
            raise InconsistentExchangePattern(
                f"both exchange monomials at position {i + 1} share a variable (a 2-cycle)")
        rows.append([a - b for a, b in pairs])
    signs = [0] * n  # sign 0: row not reached yet
    for start in (i for i in range(n) if not signs[i]):
        signs[start], reached = 1, [start]
        for i in reached:  # reached grows as it is walked: breadth first
            for j in (j for j in range(n) if rows[i][j] or rows[j][i]):
                fits = [s for s in (1, -1) if s * rows[j][i] == -signs[i] * rows[i][j]]
                if not fits or signs[j] not in (0, fits[0]):
                    raise InconsistentExchangePattern(
                        f"positions {i + 1} and {j + 1} admit no consistent orientation")
                if not signs[j]:
                    signs[j] = fits[0]
                    reached.append(j)
    return Quiver([[s * r for r in row] for s, row in zip(signs, rows)])


def check_automorphism_candidate(seed: Seed, images: Sequence[LaurentPoly], depth: int) -> Optional[bool]:
    """Bounded test of the two cluster-automorphism conditions.

    The map sends seed variable i to images[i] and extends to arbitrary
    variables as a substitution.  Checked to the given depth: the image of
    the cluster must be an enumerated cluster, and the map must commute
    with mutation wherever both sides stay inside the enumerated radius.
    False is conclusive: an image that is not Laurent, or a failed
    commutation.  None means undecided: the image of the cluster is no
    cluster within the radius, which may lie beyond it.  True means no
    violation was found to this depth.
    """
    if len(images) != seed.rank:
        raise InvalidParameter("need one image per cluster variable")
    if list(seed.cluster) != list(coordinates(seed.rank)):
        raise InvalidParameter("candidate checking is rooted at a coordinate seed")
    graph = exchange_graph(seed, depth)
    numbers = {frozenset(node.cluster): a for a, node in enumerate(graph.seeds)}
    image = functools.cache(lambda v: laurent.substitute(v, images))

    def image_node(a: int) -> Optional[int]:
        """Number of the node whose cluster is node a's image, -1 when no
        node's is; None when an image is not Laurent."""
        mapped = [image(v) for v in graph.seeds[a].cluster]
        return None if any(v is None for v in mapped) else numbers.get(frozenset(mapped), -1)

    start = image_node(0)
    if start is None:
        return False
    if start < 0:
        return None
    for a, node in enumerate(graph.seeds):
        if graph.depths[a] >= depth:
            break  # nodes come in breadth-first order
        target = image_node(a)
        if target is None:
            return False
        if target < 0:
            continue  # image cluster out of radius; undecided here
        target_seed = graph.seeds[target]
        for k, old in enumerate(node.cluster):  # an interior node has all rank links
            new = next(v for v in graph.seeds[graph.links[a][k]].cluster if v not in node.cluster)
            expected = image(new)
            if expected is None:
                return False
            place = target_seed.cluster.index(image(old))
            if expected != mutate_seed(target_seed, place).cluster[place]:
                return False
    return True


def seed_to_json(seed: Seed) -> dict:
    return {
        "quiver": quiver_to_json(seed.quiver),
        "cluster": [poly_to_json(v) for v in seed.cluster],
    }


def seed_from_json(data: Mapping) -> Seed:
    if not (isinstance(data, Mapping) and "quiver" in data and isinstance(data.get("cluster"), list)):
        raise InvalidParameter('a seed is an object with "quiver" and a list "cluster"')
    quiver = quiver_from_json(data["quiver"])
    cluster = tuple(poly_from_json(v) for v in data["cluster"])
    if len({v.arity for v in cluster}) > 1:
        raise InvalidParameter("cluster variables must share one arity")
    if any(v.is_zero() for v in cluster):
        raise InvalidParameter("a cluster variable is zero")
    return Seed(quiver, cluster)
