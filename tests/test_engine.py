import hashlib
import itertools
import json
import random

import pytest

from clusterlab import engine
from clusterlab.annulus import MarkedAnnulus, initial_state, make_arc, variable_of_arc
from clusterlab.engine import (
    Seed,
    canonical_seed,
    check_automorphism_candidate,
    denominator_vector,
    exchange_graph,
    exchange_terms,
    infer_exchange_quiver,
    initial_seed,
    is_algebraically_independent,
    jacobian_determinant,
    mutate_seed,
    seed_from_json,
    seed_to_json,
    variables_up_to_depth,
)
from clusterlab.errors import (
    AmbiguousPartner,
    InconsistentExchangePattern,
    InvalidParameter,
    LimitExceeded,
    NoPartnerFound,
    NotTwoMonomials,
)
from clusterlab.laurent import LaurentPoly, coordinates, substitute
from clusterlab.quiver import Quiver, tilde_A_canonical
from clusterlab.verify import check_dichotomy


def exchange_key(seed, k):
    """What the exchange quotient at k depends on: x_k, and the variables at
    k's neighbours with their multiplicities."""
    row = seed.quiver.b[k]
    return seed.cluster[k], frozenset((seed.cluster[j], m) for j, m in enumerate(row) if m)


@pytest.fixture
def kronecker():
    return initial_seed(tilde_A_canonical(1, 1))


# hand-expanded values for the double-arrow quiver:
#   x1' = (x2^2 + 1) / x1
#   x2' after that = (x1^2 + (x2^2 + 1)^2) / (x1^2 x2)
X1_PRIME = LaurentPoly(2, {(-1, 2): 1, (-1, 0): 1})
X2_PRIME = LaurentPoly(2, {(0, -1): 1, (-2, 3): 1, (-2, 1): 2, (-2, -1): 1})


class TestSeedBasics:
    def test_initial_cluster_is_coordinates(self, kronecker):
        assert kronecker.cluster == coordinates(2)

    def test_initial_jacobian_is_unit(self, kronecker):
        assert jacobian_determinant(kronecker.cluster) == LaurentPoly.one(2)

    def test_quiver_preserved(self, kronecker):
        assert kronecker.quiver == tilde_A_canonical(1, 1)

    def test_distinctness_enforced(self):
        x1, _ = coordinates(2)
        with pytest.raises(ValueError):
            Seed(tilde_A_canonical(1, 1), (x1, x1))

    @pytest.mark.parametrize("cluster", [coordinates(3), coordinates(1), coordinates(2)[:1] * 2])
    def test_bad_cluster_is_invalid_parameter(self, cluster):
        with pytest.raises(InvalidParameter):
            Seed(tilde_A_canonical(1, 1), cluster)


class TestMutateSeed:
    def test_first_exchange(self, kronecker):
        assert mutate_seed(kronecker, 0).cluster[0] == X1_PRIME

    def test_second_exchange(self, kronecker):
        twice = mutate_seed(mutate_seed(kronecker, 0), 1)
        assert twice.cluster[1] == X2_PRIME

    def test_involution(self, kronecker):
        rng = random.Random(2)
        seeds = [initial_seed(tilde_A_canonical(p, q)) for p, q in ((1, 1), (2, 1), (3, 2))]
        for _ in range(200):
            seed = rng.choice(seeds)
            for _ in range(rng.randrange(4)):
                seed = mutate_seed(seed, rng.randrange(seed.rank))
            k = rng.randrange(seed.rank)
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_the_memo_changes_no_result(self):
        # one memo along random walks: every mutation equals the one made
        # without a memo, and each exchange is divided at most once
        rng = random.Random(3)
        for p, q in ((1, 1), (2, 1), (3, 2)):
            seed, memo, divided = initial_seed(tilde_A_canonical(p, q)), {}, []
            for _ in range(40):
                k = rng.randrange(seed.rank)
                before = len(memo)
                mutated = mutate_seed(seed, k, memo)
                if len(memo) > before:
                    divided.append(exchange_key(seed, k))
                assert mutated == mutate_seed(seed, k)
                seed = mutated
            assert len(divided) == len(set(divided)) == len(memo) // 2

    def test_a_mutation_and_its_reverse_divide_once(self, monkeypatch, kronecker):
        calls = []

        def counting(seed, k):
            calls.append(exchange_key(seed, k))
            return exchange_terms(seed, k)

        monkeypatch.setattr(engine, "exchange_terms", counting)
        memo = {}
        there = mutate_seed(kronecker, 0, memo)
        assert mutate_seed(there, 0, memo) == kronecker
        assert calls == [exchange_key(kronecker, 0)]
        assert memo == {exchange_key(kronecker, 0): X1_PRIME, exchange_key(there, 0): kronecker.cluster[0]}
        # without a shared memo each direction divides
        mutate_seed(mutate_seed(kronecker, 0), 0)
        assert len(calls) == 3

    def test_neighbor_clusters_share_all_but_one(self, kronecker):
        mutated = mutate_seed(kronecker, 0)
        shared = set(kronecker.cluster) & set(mutated.cluster)
        assert len(shared) == kronecker.rank - 1


class TestExchangeSum:
    @pytest.mark.parametrize("k", [-1, 2])
    def test_out_of_range_direction(self, kronecker, k):
        with pytest.raises(InvalidParameter):
            exchange_terms(kronecker, k)
        with pytest.raises(InvalidParameter):
            mutate_seed(kronecker, k)
        with pytest.raises(InvalidParameter):
            mutate_seed(kronecker, k, {})


class TestExchangeGraph:
    @pytest.mark.parametrize("p,q,depth", [(1, 1, 4), (2, 1, 3), (2, 2, 3), (3, 2, 2)])
    def test_each_edge_is_mutated_once(self, monkeypatch, p, q, depth):
        # each edge is one mutation, and each distinct exchange (x_k with
        # its neighbours and their multiplicities) is divided once per
        # graph; an edge whose exchange, or its reverse, was seen before
        # reuses that quotient
        calls, mutations = [], []

        def counting(seed, k):
            calls.append(exchange_key(seed, k))
            return exchange_terms(seed, k)

        def mutating(seed, k, memo):
            mutations.append(k)
            return mutate_seed(seed, k, memo)

        monkeypatch.setattr(engine, "exchange_terms", counting)
        monkeypatch.setattr(engine, "mutate_seed", mutating)
        graph = exchange_graph(initial_seed(tilde_A_canonical(p, q)), depth)
        edges = sum(map(len, graph.links)) // 2
        assert len(mutations) == edges
        assert len(calls) == len(set(calls)) <= edges
        if (p, q, depth) == (2, 2, 3):
            assert len(calls) < edges
        interior = set()
        # every edge, including those recorded only from their other end or
        # built from a reused quotient, is the one mutation gives
        for a, links in enumerate(graph.links):
            if graph.depths[a] < depth:
                seed = graph.seeds[a]
                for k in range(seed.rank):
                    interior.add(exchange_key(seed, k))
                    assert graph.seeds[links[k]] == canonical_seed(mutate_seed(seed, k))
        assert interior.issuperset(calls)

    @pytest.mark.parametrize("depth,node_limit", [(-1, 10), (2, 0), (2, -5)])
    def test_bad_bounds_are_invalid_parameters(self, kronecker, depth, node_limit):
        with pytest.raises(InvalidParameter):
            exchange_graph(kronecker, depth, node_limit)

    # sha256 of `exchange_graph(...).to_json()` encoded as the CLI prints it,
    # recorded before exchanges were memoised and variables serialised once
    @pytest.mark.parametrize("quiver,depth,digest", [
        (tilde_A_canonical(3, 2), 4,
         "1b582541075b48d78e529856b8e788bd0708618afe199cfdb448f5c0314c8767"),
        (tilde_A_canonical(2, 2).mutate(1).mutate(3), 5,
         "71bc75f3c9584703933cf39a2cd6fbdbd75418ab7081ae91a8ca2701d74b896f"),
    ])
    def test_graph_json_is_golden(self, quiver, depth, digest):
        payload = json.dumps(exchange_graph(initial_seed(quiver), depth).to_json(), indent=2, sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    # sha256 of `exchange_graph(...).to_dot()`, recorded before node
    # numbering replaced cluster-keyed lookups; edges come in enumeration order
    @pytest.mark.parametrize("quiver,depth,digest", [
        (tilde_A_canonical(3, 2), 4,
         "95580bbe49a29d67851f139bc37daf5c521ad04e0e174bb540c12a92af7c6efb"),
        (tilde_A_canonical(2, 2).mutate(1).mutate(3), 5,
         "3835c2b2f49ae3bbc52b12536cd09a7588eb832b304f7e4d99cfb55fd603f9cd"),
    ])
    def test_graph_dot_is_golden(self, quiver, depth, digest):
        dot = exchange_graph(initial_seed(quiver), depth).to_dot()
        assert hashlib.sha256(dot.encode()).hexdigest() == digest

    def test_depth_zero(self, kronecker):
        graph = exchange_graph(kronecker, 0)
        assert graph.node_count() == 1 and sum(map(len, graph.links)) // 2 == 0

    def test_depth_two_is_a_path_of_five(self, kronecker):
        graph = exchange_graph(kronecker, 2)
        assert graph.node_count() == 5
        assert sum(map(len, graph.links)) // 2 == 4
        degrees = sorted(map(len, graph.links))
        assert degrees == [1, 1, 2, 2, 2]

    def test_interior_nodes_have_full_degree(self):
        seed = initial_seed(tilde_A_canonical(2, 1))
        graph = exchange_graph(seed, 3)
        for links, depth in zip(graph.links, graph.depths):
            if depth < 2:
                assert len(links) == 3

    def test_adjacent_clusters_differ_in_one(self, kronecker):
        graph = exchange_graph(kronecker, 3)
        for a, links in enumerate(graph.links):
            for b in links.values():
                assert len(set(graph.seeds[a].cluster) - set(graph.seeds[b].cluster)) == 1

    def test_node_limit(self, kronecker):
        with pytest.raises(LimitExceeded):
            exchange_graph(kronecker, 5, node_limit=3)

    def test_canonicalization_soundness(self, kronecker):
        # same cluster reached as a set through permuted presentations
        swapped = Seed(
            kronecker.quiver.permuted([1, 0]),
            (kronecker.cluster[1], kronecker.cluster[0]),
        )
        a = exchange_graph(kronecker, 1)
        b = exchange_graph(swapped, 1)
        assert {seed.cluster for seed in a.seeds} == {seed.cluster for seed in b.seeds}

    @pytest.mark.parametrize("quiver,depth", [
        (tilde_A_canonical(1, 1), 4),
        (tilde_A_canonical(2, 1), 4),
        (tilde_A_canonical(3, 2), 3),
        (tilde_A_canonical(2, 2).mutate(1).mutate(3), 3),
    ])
    def test_numbered_graph_invariants(self, quiver, depth):
        root = initial_seed(quiver)
        graph = exchange_graph(root, depth)
        clusters = [seed.cluster for seed in graph.seeds]
        assert len(set(clusters)) == graph.node_count()
        assert graph.seeds[0] == canonical_seed(root) and graph.depths[0] == 0
        assert graph.variables[:quiver.n] == list(clusters[0])
        for a, seed in enumerate(graph.seeds):
            # each node its own normal form: variables in sort-key order
            assert seed == canonical_seed(seed) and seed.rank == quiver.n
            if graph.depths[a] < depth:
                assert sorted(graph.links[a]) == list(range(quiver.n))
            for k, b in graph.links[a].items():
                (old,) = set(seed.cluster) - set(clusters[b])
                (new,) = set(clusters[b]) - set(seed.cluster)
                assert seed.cluster.index(old) == k
                assert graph.links[b][clusters[b].index(new)] == a
                assert abs(graph.depths[a] - graph.depths[b]) <= 1

    def test_repeated_variable_is_invalid_parameter(self):
        # an A2 edge and an isolated point, with the root cluster chosen so
        # that x1' = 1/x1 at the A2 point and the isolated point's
        # exchange 2/(2 x1) is the same variable: the second time the A2
        # exchange comes up, its reused quotient is already in the cluster
        x1, x2, _ = coordinates(3)
        one = LaurentPoly.one(3)
        root = Seed(Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), (x1 * (x2 + one), x2, x1 + x1))
        with pytest.raises(InvalidParameter, match="pairwise distinct"):
            exchange_graph(root, 2)


class TestVariables:
    def test_depth_zero_count(self):
        seed = initial_seed(tilde_A_canonical(3, 2))
        assert variables_up_to_depth(seed, 0) == set(coordinates(5))

    def test_kronecker_depth_one(self, kronecker):
        x1, x2 = coordinates(2)
        other = LaurentPoly(2, {(2, -1): 1, (0, -1): 1})
        assert variables_up_to_depth(kronecker, 1) == {x1, x2, X1_PRIME, other}

    def test_monotone_in_depth(self, kronecker):
        for depth in range(3):
            smaller = variables_up_to_depth(kronecker, depth)
            larger = variables_up_to_depth(kronecker, depth + 1)
            assert smaller <= larger


class TestDenominators:
    def test_initial_variables_trivial(self):
        for v in coordinates(3):
            assert denominator_vector(v) == (0, 0, 0)

    def test_first_exchange(self):
        assert denominator_vector(X1_PRIME) == (1, 0)

    def test_second_exchange(self):
        assert denominator_vector(X2_PRIME) == (2, 1)


class TestIndependence:
    def test_coordinates(self):
        assert is_algebraically_independent(list(coordinates(4)))

    def test_functional_dependence(self):
        x1, _ = coordinates(2)
        assert not is_algebraically_independent([x1, x1 * x1])

    def test_all_enumerated_clusters(self, kronecker):
        graph = exchange_graph(kronecker, 4)
        for seed in graph.seeds:
            assert is_algebraically_independent(list(seed.cluster))


class TestPositivity:
    # every enumerated variable has positive numerator coefficients
    def test_kronecker_depth_four(self, kronecker):
        pool = variables_up_to_depth(kronecker, 4)
        assert len(pool) >= 10
        assert all(v.has_positive_coefficients() for v in pool)

    def test_two_one_depth_four(self):
        pool = variables_up_to_depth(initial_seed(tilde_A_canonical(2, 1)), 4)
        assert all(v.has_positive_coefficients() for v in pool)

    def test_initial(self, kronecker):
        assert all(v.has_positive_coefficients() for v in variables_up_to_depth(kronecker, 0))


def seeded_presentation(p, q, rng_seed, steps=6):
    """The quiver a seeded walk of mutations reaches from Ã(p,q)."""
    rng = random.Random(rng_seed)
    quiver = tilde_A_canonical(p, q)
    for _ in range(steps):
        quiver = quiver.mutate(rng.randrange(quiver.n))
    return quiver


# acyclic seeded presentations of Ã(p,q), p + q <= 6, two distinct ones per
# class where the walk finds them, with the exact quiver their depth-2
# pools gave before the rows were read off the monomial differences
RECOVERED_PRESENTATIONS = [
    (1, 1, 0, [(1, 0), (1, 0)]),
    (2, 1, 7, [(0, 2), (1, 0), (1, 2)]),
    (2, 1, 12, [(1, 0), (1, 2), (2, 0)]),
    (2, 2, 0, [(1, 0), (2, 1), (2, 3), (3, 0)]),
    (2, 2, 3, [(0, 3), (1, 0), (1, 2), (2, 3)]),
    (3, 1, 2, [(0, 3), (1, 2), (1, 3), (2, 0)]),
    (3, 1, 11, [(1, 0), (2, 1), (3, 0), (3, 2)]),
    (3, 2, 2, [(0, 4), (1, 2), (1, 3), (2, 0), (3, 4)]),
    (3, 2, 5, [(1, 0), (1, 2), (3, 2), (3, 4), (4, 0)]),
    (3, 3, 9, [(1, 0), (2, 1), (2, 3), (3, 4), (5, 0), (5, 4)]),
    (3, 3, 10, [(1, 0), (2, 1), (3, 2), (3, 4), (4, 5), (5, 0)]),
    (4, 1, 2, [(0, 4), (1, 2), (1, 3), (2, 0), (4, 3)]),
    (4, 1, 10, [(0, 4), (1, 2), (1, 4), (2, 3), (3, 0)]),
    (4, 2, 5, [(0, 5), (1, 0), (2, 1), (3, 2), (3, 4), (4, 5)]),
    (4, 2, 6, [(1, 0), (2, 1), (2, 3), (3, 4), (4, 5), (5, 0)]),
    (5, 1, 10, [(1, 0), (2, 1), (3, 2), (4, 3), (5, 0), (5, 4)]),
    (5, 1, 14, [(0, 5), (1, 0), (1, 2), (3, 2), (4, 3), (5, 4)]),
]


class TestInferQuiver:
    @pytest.mark.parametrize("p,q,rng_seed,arrows", RECOVERED_PRESENTATIONS)
    def test_seeded_presentation(self, p, q, rng_seed, arrows):
        presentation = seeded_presentation(p, q, rng_seed)
        assert presentation.is_acyclic()
        seed = initial_seed(presentation)
        inferred = infer_exchange_quiver(list(seed.cluster), variables_up_to_depth(seed, 2))
        assert inferred == Quiver.from_arrows(p + q, arrows)
        assert inferred in (presentation, presentation.opposite())

    def test_disconnected_quiver_recovers_each_component(self):
        # 0 -> 1 and 2 -> 3: each component comes back as itself or its
        # opposite, independently of the other
        seed = initial_seed(Quiver.from_arrows(4, [(0, 1), (2, 3)]))
        inferred = infer_exchange_quiver(list(seed.cluster), variables_up_to_depth(seed, 1))
        assert inferred in [
            Quiver.from_arrows(4, [first, second])
            for first in ((0, 1), (1, 0)) for second in ((2, 3), (3, 2))
        ]

    def test_rows_of_unequal_size_are_inconsistent(self):
        # x1*p1 = x2 + 1 and x2*p2 = x1^2 + 1: one arrow seen from x1, two
        # from x2, so no sign makes the rows skew-symmetric
        x1, x2 = coordinates(2)
        pool = {(x2 + 1) * x1 ** -1, (x1 * x1 + 1) * x2 ** -1}
        with pytest.raises(InconsistentExchangePattern):
            infer_exchange_quiver([x1, x2], pool)

    def test_monomials_sharing_a_variable_are_inconsistent(self):
        # x1*p1 = x2^2 + x2 and x2*p2 = x1^2 + x1: the signs fit, but each
        # row's two monomials both hold the other variable, a 2-cycle
        x1, x2 = coordinates(2)
        pool = {(x2 * x2 + x2) * x1 ** -1, (x1 * x1 + x1) * x2 ** -1}
        with pytest.raises(InconsistentExchangePattern):
            infer_exchange_quiver([x1, x2], pool)

    def test_kronecker(self, kronecker):
        pool = variables_up_to_depth(kronecker, 2)
        inferred = infer_exchange_quiver(list(kronecker.cluster), pool)
        kron = tilde_A_canonical(1, 1)
        assert inferred in (kron, kron.opposite())

    def test_two_one(self):
        seed = initial_seed(tilde_A_canonical(2, 1))
        pool = variables_up_to_depth(seed, 3)
        inferred = infer_exchange_quiver(list(seed.cluster), pool)
        assert inferred in (seed.quiver, seed.quiver.opposite())

    def test_rerun_from_another_presentation(self):
        # an acyclic quiver from elsewhere in the same mutation class gives a
        # presentation whose own enumeration recovers it, up to opposite
        other = tilde_A_canonical(2, 1).mutate(2)
        assert other.is_acyclic()
        seed = initial_seed(other)
        pool = variables_up_to_depth(seed, 3)
        inferred = infer_exchange_quiver(list(seed.cluster), pool)
        assert inferred in (other, other.opposite())

    def test_no_partner(self, kronecker):
        with pytest.raises(NoPartnerFound):
            infer_exchange_quiver(list(kronecker.cluster), set(coordinates(2)))

    def test_ambiguous_partner_detected(self, kronecker):
        x1, x2 = coordinates(2)
        fake = LaurentPoly(2, {(-1, 1): 1, (-1, 0): 1})  # also has denominator e_1
        pool = variables_up_to_depth(kronecker, 2) | {fake}
        with pytest.raises(AmbiguousPartner):
            infer_exchange_quiver(list(kronecker.cluster), pool)

    def test_partner_with_three_terms_rejected(self, kronecker):
        x1, x2 = coordinates(2)
        fake = LaurentPoly(2, {(-1, 2): 1, (-1, 1): 1, (-1, 0): 1})
        other = LaurentPoly(2, {(2, -1): 1, (0, -1): 1})
        with pytest.raises(NotTwoMonomials):
            infer_exchange_quiver([x1, x2], {fake, other})

    def test_denominator_uniqueness_at_depth(self):
        # over an acyclic seed, exactly one enumerated variable carries each
        # unit denominator vector
        for p, q, depth in ((1, 1, 3), (2, 1, 4), (3, 2, 3)):
            seed = initial_seed(tilde_A_canonical(p, q))
            pool = variables_up_to_depth(seed, depth)
            n = p + q
            for i in range(n):
                unit = tuple(1 if j == i else 0 for j in range(n))
                matches = [v for v in pool if denominator_vector(v) == unit]
                assert len(matches) == 1


class TestAutomorphismCandidates:
    def test_identity(self, kronecker):
        assert check_automorphism_candidate(kronecker, list(coordinates(2)), 3)

    def test_swap_on_double_arrow(self, kronecker):
        x1, x2 = coordinates(2)
        assert check_automorphism_candidate(kronecker, [x2, x1], 3)

    def test_non_cluster_image_rejected(self, kronecker):
        # {x1, x1'} is no enumerated cluster: undecided, not a conclusive False
        x1, _ = coordinates(2)
        assert check_automorphism_candidate(kronecker, [x1, X1_PRIME], 3) is None

    @pytest.mark.parametrize("p,q,undecided,decided", [(2, 2, (3,), 4), (3, 2, (3, 4), 5)])
    def test_image_beyond_the_radius_is_undecided(self, p, q, undecided, decided):
        # the Dehn twist, shifting each fan arc's inner end by q, is a
        # cluster automorphism whose image cluster lies beyond small radii
        ann = MarkedAnnulus(p, q)
        fan = initial_state(ann)
        images = [variable_of_arc(ann, make_arc(ann, a.e1, (1, a.e2[1] + q))) for a in fan.tri.arcs]
        for depth in undecided:
            assert check_automorphism_candidate(fan.seed, images, depth) is None
        assert check_automorphism_candidate(fan.seed, images, decided) is True

    @pytest.mark.parametrize("p,q,depth,passing,total", [
        (1, 1, 4, 10, 10), (2, 1, 4, 10, 60), (2, 2, 3, 4, 120),
    ])
    def test_census(self, monkeypatch, p, q, depth, passing, total):
        # every bijection from the initial cluster onto a cluster within half
        # the radius; a checked edge (an interior node whose image cluster is
        # enumerated, and one direction of it) costs one exchange division,
        # on the image side, besides those the exchange graph makes
        seed = initial_seed(tilde_A_canonical(p, q))
        graph = exchange_graph(seed, depth)
        clusters = {frozenset(node.cluster) for node in graph.seeds}
        interior = [node.cluster for node, d in zip(graph.seeds, graph.depths) if d < depth]
        candidates = [
            list(images)
            for node, d in zip(graph.seeds, graph.depths) if d <= depth // 2
            for images in itertools.permutations(node.cluster)
        ]
        assert len(candidates) == total
        calls, inside = {"graph": 0, "check": 0}, []

        def counting(seed, k):
            calls["graph" if inside else "check"] += 1
            return exchange_terms(seed, k)

        def graph_counting(*args):
            inside.append(True)
            try:
                return exchange_graph(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(engine, "exchange_terms", counting)
        monkeypatch.setattr(engine, "exchange_graph", graph_counting)
        passed = 0
        for images in candidates:
            calls["check"] = 0
            checked = seed.rank * sum(
                frozenset(substitute(v, images) for v in cluster) in clusters for cluster in interior
            )
            if check_automorphism_candidate(seed, images, depth):
                passed += 1
                assert calls["check"] == checked
            else:
                assert calls["check"] <= checked
        assert passed == passing


_X = coordinates(2)
_KRONECKER = Seed(Quiver([[0, 2], [-2, 0]]), _X)


@pytest.mark.parametrize("call,message", [
    (lambda: check_dichotomy(_X[0], _X[1], [[[_X[0]]]], _X, "c"), "variant must be"),
    (lambda: check_dichotomy(_X[0], _X[1], [[[_X[0]]]] * 2, _X, "a"), "needs 1 sums"),
    (lambda: denominator_vector(LaurentPoly.zero(2)), "zero polynomial"),
    (lambda: jacobian_determinant([]), "at least one variable"),
    (lambda: jacobian_determinant([_X[0], coordinates(3)[1]]), "share one arity"),
    (lambda: jacobian_determinant(coordinates(3)[:2]), "one variable per ambient coordinate"),
    (lambda: infer_exchange_quiver(_X[::-1], [_X[0]]), "coordinate variables"),
    (lambda: check_automorphism_candidate(_KRONECKER, _X[:1], 1), "one image per"),
    (lambda: check_automorphism_candidate(Seed(_KRONECKER.quiver, _X[::-1]), _X, 1), "coordinate seed"),
])
def test_bad_arguments_raise_invalid_parameter(call, message):
    # a typed rejection, still a ValueError for callers that catch that
    with pytest.raises(InvalidParameter, match=message):
        call()


class TestSerialization:
    def test_roundtrip(self, kronecker):
        mutated = mutate_seed(kronecker, 0)
        assert seed_from_json(seed_to_json(mutated)) == mutated
