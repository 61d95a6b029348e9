import itertools
import random

import pytest

from clusterlab import quiver as quiver_module
from clusterlab.errors import InvalidParameter, InvalidQuiver, LimitExceeded
from clusterlab.quiver import (
    Quiver,
    canonical_form,
    canonical_permutation,
    classify_tilde_A,
    mutation_class,
    quiver_from_json,
    quiver_to_json,
    tilde_A_canonical,
)


@pytest.fixture(autouse=True)
def cold_class_cache():
    """Each test closes the classes it classifies against itself, instead of
    finding them closed by an earlier test."""
    quiver_module._class_cache.clear()


def arrow_step_mutation(n, arrows, k):
    """Reference mutation executed literally on the arrow multiset: reverse
    arrows at k, add one composite per path through k, then cancel 2-cycles
    one by one.  Independent of the matrix rule it checks."""
    incoming = [(s, t) for (s, t) in arrows if t == k]
    outgoing = [(s, t) for (s, t) in arrows if s == k]
    new = [((t, s) if s == k or t == k else (s, t)) for (s, t) in arrows]
    new.extend((s, t2) for (s, _) in incoming for (_, t2) in outgoing)
    cancelled = True
    while cancelled:
        cancelled = False
        for pair in list(new):
            back = (pair[1], pair[0])
            if back in new:
                new.remove(pair)
                new.remove(back)
                cancelled = True
                break
    return Quiver.from_arrows(n, new)


def random_quiver(rng, n, max_arrows=6):
    while True:
        arrows = []
        for _ in range(rng.randrange(1, max_arrows + 1)):
            s, t = rng.sample(range(n), 2)
            arrows.append((s, t))
        try:
            return Quiver.from_arrows(n, arrows)
        except ValueError:
            continue  # drew a 2-cycle; redraw


def dense_mutation(b, k):
    """The matrix mutation rule entry by entry: the oracle for the sparse
    update of ``Quiver.mutate``."""
    n = len(b)
    return tuple(
        tuple(
            -b[i][j]
            if i == k or j == k
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in range(n)
        )
        for i in range(n)
    )


def random_skew_matrix(rng, n):
    """A skew-symmetric matrix with entries -3..3, zeros about half the time."""
    b = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            m = rng.choice((-3, -2, -1, 1, 2, 3))
            b[i][j], b[j][i] = m, -m
    return b


class TestMutation:
    def test_sparse_update_matches_dense_rule(self):
        rng = random.Random(20)
        quivers = [tilde_A_canonical(1, 1), Quiver([[0, 3], [-3, 0]])]
        quivers += [Quiver(random_skew_matrix(rng, rng.randrange(1, 10))) for _ in range(300)]
        for quiver in quivers:
            for k in range(quiver.n):
                mutated = quiver.mutate(k)
                assert mutated.b == dense_mutation(quiver.b, k)
                assert mutated.mutate(k) == quiver
                assert Quiver(mutated.b) == mutated  # still a valid int matrix

    def test_path_mutated_at_middle(self):
        path = Quiver.from_arrows(3, [(0, 1), (1, 2)])
        mutated = path.mutate(1)
        assert sorted(mutated.arrows()) == [(0, 2), (1, 0), (2, 1)]

    def test_double_arrow_reverses(self):
        kron = tilde_A_canonical(1, 1)
        assert kron.mutate(0) == kron.opposite()

    def test_matrix_rule_matches_arrow_steps(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(2, 6)
            quiver = random_quiver(rng, n)
            k = rng.randrange(n)
            assert quiver.mutate(k) == arrow_step_mutation(n, quiver.arrows(), k)

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(200):
            quiver = random_quiver(rng, rng.randrange(2, 6))
            k = rng.randrange(quiver.n)
            assert quiver.mutate(k).mutate(k) == quiver

    def test_invariants_preserved(self):
        rng = random.Random(6)
        for _ in range(100):
            quiver = random_quiver(rng, 4)
            mutated = quiver.mutate(rng.randrange(4))
            Quiver(mutated.b)  # constructor revalidates loop-freedom and skew symmetry

    def test_opposite_commutes_with_mutation(self):
        rng = random.Random(7)
        for _ in range(100):
            quiver = random_quiver(rng, 4)
            k = rng.randrange(4)
            assert quiver.opposite().mutate(k) == quiver.mutate(k).opposite()

    def test_index_range(self):
        with pytest.raises(ValueError):
            tilde_A_canonical(1, 1).mutate(2)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_out_of_range_point_is_invalid_parameter(self, k):
        with pytest.raises(InvalidParameter):
            tilde_A_canonical(1, 1).mutate(k)


class TestOpposite:
    def test_single_arrow(self):
        assert Quiver.from_arrows(2, [(0, 1)]).opposite() == Quiver.from_arrows(2, [(1, 0)])

    def test_involution(self):
        quiver = tilde_A_canonical(3, 2)
        assert quiver.opposite().opposite() == quiver

    def test_double_arrow(self):
        kron = tilde_A_canonical(1, 1)
        assert kron.opposite().b == ((0, -2), (2, 0))


class TestIsomorphism:
    # two quivers are isomorphic exactly when their canonical forms are equal
    def test_self(self):
        quiver = tilde_A_canonical(2, 1)
        assert canonical_form(canonical_form(quiver)) == canonical_form(quiver)

    def test_relabeling(self):
        a = Quiver.from_arrows(2, [(0, 1)])
        b = Quiver.from_arrows(2, [(1, 0)])
        assert canonical_form(a) == canonical_form(b)

    def test_multiplicity_distinguishes(self):
        single = Quiver.from_arrows(2, [(0, 1)])
        double = tilde_A_canonical(1, 1)
        assert canonical_form(single) != canonical_form(double)

    def test_witness_carries_structure(self):
        rng = random.Random(3)
        for _ in range(50):
            quiver = random_quiver(rng, 5)
            perm = list(range(5))
            rng.shuffle(perm)
            shuffled = quiver.permuted(perm)
            assert canonical_form(quiver) == canonical_form(shuffled)
            assert shuffled.permuted(canonical_permutation(shuffled)) == canonical_form(quiver)

    def test_canonical_form_is_permutation_invariant(self):
        rng = random.Random(4)
        for _ in range(50):
            quiver = random_quiver(rng, 5)
            perm = list(range(5))
            rng.shuffle(perm)
            assert canonical_form(quiver) == canonical_form(quiver.permuted(perm))


def oracle_minimum(quiver):
    """Smallest relabeled matrix over all n! point orders: the slow
    canonical form, independent of the refinement search."""
    b = quiver.b
    return min(
        tuple(tuple(b[i][j] for j in perm) for i in perm)
        for perm in itertools.permutations(range(quiver.n))
    )


def random_multiplicity_quiver(rng, n):
    """Each pair of points joined with probability ``density`` by 1 or 2
    arrows; sparse draws are often disconnected."""
    density = rng.choice((0.2, 0.5, 0.9))
    b = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            m = rng.choice((-2, -1, 1, 2))
            b[i][j], b[j][i] = m, -m
    return Quiver(b)


def symmetric_quivers():
    """Quivers with many automorphisms, where refinement alone leaves large cells."""
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    return [
        Quiver.from_arrows(6, []),
        Quiver.from_arrows(6, [(0, 1), (2, 3), (4, 5)]),
        Quiver.from_arrows(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        Quiver.from_arrows(6, hexagon),
        Quiver.from_arrows(6, hexagon + hexagon[::2]),
        Quiver.from_arrows(5, [(i, (i + d) % 5) for i in range(5) for d in (1, 2)]),
        Quiver.from_arrows(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        Quiver.from_arrows(4, [(0, 1), (0, 1), (2, 3), (2, 3)]),
        tilde_A_canonical(3, 3),
        # two arrows in and two out at every point, yet not every point
        # alike: refinement leaves one cell, and different points of it
        # lead to different leaf matrices, so the smallest must be kept
        Quiver.from_arrows(6, [(0, 3), (0, 5), (1, 0), (1, 5), (2, 1), (2, 4),
                               (3, 1), (3, 2), (4, 0), (4, 3), (5, 2), (5, 4)]),
    ]


def relabeled(rng, quiver):
    perm = list(range(quiver.n))
    rng.shuffle(perm)
    return quiver.permuted(perm)


def assert_canonical_matches_oracle(pool):
    """Canonical forms are equal exactly when the oracle's minima are."""
    forms = {}
    for quiver in pool:
        forms.setdefault(oracle_minimum(quiver), set()).add(canonical_form(quiver))
    assert all(len(found) == 1 for found in forms.values())
    assert len(set().union(*forms.values())) == len(forms)


class TestCanonicalFormAgainstOracle:
    def test_every_quiver_of_the_rank_six_classes(self):
        rng = random.Random(21)
        pool = []
        for p, q in ((3, 3), (4, 2), (5, 1)):
            for quiver in mutation_class(tilde_A_canonical(p, q), 1000):
                pool.extend((quiver, relabeled(rng, quiver)))
        assert len(pool) == 2 * (22 + 36 + 42)
        assert_canonical_matches_oracle(pool)

    def test_seeded_random_quivers(self):
        rng = random.Random(22)
        pool = []
        for _ in range(150):
            quiver = random_multiplicity_quiver(rng, rng.randrange(1, 7))
            pool.extend((quiver, relabeled(rng, quiver), relabeled(rng, quiver)))
        assert any(not any(quiver.b[0]) for quiver in pool)  # an isolated point
        assert_canonical_matches_oracle(pool)

    def test_quivers_with_many_automorphisms(self):
        rng = random.Random(23)
        pool = []
        for quiver in symmetric_quivers():
            pool.extend([quiver] + [relabeled(rng, quiver) for _ in range(4)])
            # one arrow reversed breaks the symmetry, and must change the form
            if quiver.arrows():
                s, t = quiver.arrows()[0]
                b = [list(row) for row in quiver.b]
                b[s][t], b[t][s] = b[t][s], b[s][t]
                pool.append(Quiver(b))
        assert_canonical_matches_oracle(pool)

    def test_isomorphism_witness_on_symmetric_quivers(self):
        rng = random.Random(24)
        for quiver in symmetric_quivers():
            for _ in range(4):
                other = relabeled(rng, quiver)
                witness = canonical_permutation(other)
                assert sorted(witness) == list(range(quiver.n))
                assert other.permuted(witness) == canonical_form(quiver)

    def test_empty_quiver(self):
        assert canonical_permutation(Quiver(())) == ()
        assert canonical_form(Quiver.from_arrows(1, [])) == Quiver(((0,),))


# class sizes of Ã(p, q), ranks 3 to 7, as the L-block branch-and-bound counted them
CLASS_SIZES = {
    (2, 1): 2, (2, 2): 4, (3, 1): 5, (3, 2): 12, (4, 1): 14,
    (3, 3): 22, (4, 2): 36, (5, 1): 42, (4, 3): 100, (5, 2): 108, (6, 1): 132,
}


@pytest.mark.parametrize("p,q", sorted(CLASS_SIZES))
def test_mutation_class_sizes(p, q):
    assert len(mutation_class(tilde_A_canonical(p, q), 1000)) == CLASS_SIZES[(p, q)]


class TestInvalidInput:
    @pytest.mark.parametrize("data", [
        {"n": 2, "arrows": [[0, 1], [1, 0]]},
        {"n": 3, "arrows": [[0, 1], [1, 2], [0, 1], [1, 0]]},
        {"n": 2, "arrows": [[0, -1]]},
        {"n": 2, "arrows": [[-2, 1]]},
        {"n": 2, "arrows": [[0, 2]]},
        {"n": 2, "arrows": [[1, 1]]},
        {"n": -1, "arrows": []},
        # arrow entries that are not pairs of ints
        {"n": 2, "arrows": [[0.5, 1]]},
        {"n": 2, "arrows": [[0]]},
        {"n": 2, "arrows": [[0, 1, 1]]},
        {"n": 2, "arrows": [[True, 0]]},
        {"n": 2, "arrows": [[0, "1"]]},
        {"n": 2, "arrows": [1]},
        {"n": 2, "arrows": 1},
        # a number of points that is not an int
        {"n": 2.5, "arrows": []},
        {"n": "2", "arrows": []},
        {"n": True, "arrows": []},
        # not a quiver object at all
        [[0, 1]],
        {"n": 2},
        {"arrows": []},
    ])
    def test_json_is_rejected_not_reinterpreted(self, data):
        with pytest.raises(InvalidQuiver):
            quiver_from_json(data)

    @pytest.mark.parametrize("n,arrows", [
        (2, [(0.5, 1)]),
        (2, [(0,)]),
        (2, [(True, 1)]),
        (2.0, [(0, 1)]),
    ])
    def test_from_arrows_rejects_non_int_input(self, n, arrows):
        with pytest.raises(InvalidQuiver):
            Quiver.from_arrows(n, arrows)

    @pytest.mark.parametrize("quiver,perm,expected", [
        (Quiver(()), [], ()),
        (Quiver([[0]]), [0], ((0,),)),
        (tilde_A_canonical(1, 1), [0, 1], ((0, 2), (-2, 0))),
        (tilde_A_canonical(1, 1), [1, 0], ((0, -2), (2, 0))),
        (tilde_A_canonical(2, 1), [2, 0, 1], ((0, -1, -1), (1, 0, 1), (1, -1, 0))),
    ])
    def test_permuted_small(self, quiver, perm, expected):
        relabeled = quiver.permuted(perm)
        assert relabeled.b == expected
        assert relabeled.n == len(perm)
        assert all(type(row) is tuple for row in relabeled.b)

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 3]])
    def test_permuted_needs_a_permutation(self, perm):
        with pytest.raises(InvalidParameter):
            tilde_A_canonical(2, 1).permuted(perm)

    def test_parallel_arrows_add_up(self):
        assert Quiver.from_arrows(2, [(0, 1), (0, 1)]) == tilde_A_canonical(1, 1)

    @pytest.mark.parametrize("b", [
        [[0, 1]],
        [[1, 0], [0, 0]],
        [[0, 1], [1, 0]],
        [[0, 1, 0], [-1, 0, 2], [0, -1, 0]],
    ])
    def test_matrix_must_be_square_loop_free_and_skew(self, b):
        with pytest.raises(InvalidQuiver):
            Quiver(b)

    @pytest.mark.parametrize("b", [
        [[0, 0.5], [-0.5, 0]],
        [[0, 1.0], [-1.0, 0]],
        [[0, True], [-1, 0]],
        [[False, 0], [0, 0]],
        [[0, "1"], ["-1", 0]],
        [[0.0]],
    ])
    def test_matrix_entries_must_be_ints(self, b):
        # rejected, never truncated or coerced
        with pytest.raises(InvalidQuiver):
            Quiver(b)


class TestCanonicalQuivers:
    def test_rank_two_is_double_arrow(self):
        assert tilde_A_canonical(1, 1).b == ((0, 2), (-2, 0))

    def test_two_one_splits_cycle(self):
        quiver = tilde_A_canonical(2, 1)
        assert sorted(quiver.arrows()) == [(0, 1), (0, 2), (1, 2)]
        assert quiver.is_acyclic()

    def test_acyclic_exactly_when_some_order_has_every_arrow_forward(self):
        rng = random.Random(12)
        quivers = [tilde_A_canonical(3, 2), tilde_A_canonical(3, 2).mutate(1), Quiver(())]
        quivers += [random_multiplicity_quiver(rng, rng.randrange(1, 6)) for _ in range(200)]
        for quiver in quivers:
            forward = any(
                all(quiver.b[perm[i]][perm[j]] >= 0 for i, j in itertools.combinations(range(quiver.n), 2))
                for perm in itertools.permutations(range(quiver.n))
            )
            assert quiver.is_acyclic() == forward

    def test_matches_annulus_oracle(self):
        # the annulus fan triangulation is the independent source of truth
        from clusterlab.annulus import MarkedAnnulus, initial_triangulation, quiver_of

        for p, q in ((1, 1), (2, 1), (2, 2), (3, 2)):
            oracle = quiver_of(initial_triangulation(MarkedAnnulus(p, q)))
            label = classify_tilde_A(oracle)
            assert (label.p, label.q) == (p, q)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tilde_A_canonical(1, 2)
        with pytest.raises(ValueError):
            tilde_A_canonical(1, 0)


def two_sided_closure(quiver, node_limit):
    """The mutation class closed by canonicalizing every neighbour from
    both ends of its edge: the oracle for the edge-once closure."""
    start = canonical_form(quiver)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for k in range(current.n):
                neighbor = canonical_form(current.mutate(k))
                if neighbor not in seen:
                    seen.add(neighbor)
                    assert len(seen) <= node_limit
                    nxt.append(neighbor)
        frontier = nxt
    return seen


def a_line(n):
    return Quiver.from_arrows(n, [(i, i + 1) for i in range(n - 1)])


E6 = Quiver.from_arrows(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
D6_AFFINE = Quiver.from_arrows(7, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
ORACLE_CASES = [
    pytest.param(tilde_A_canonical(p, n - p), id=f"tilde_A({p},{n - p})")
    for n in range(2, 9)
    for p in range((n + 1) // 2, n)
] + [
    pytest.param(E6, id="E6"),
    pytest.param(D6_AFFINE, id="D6-affine"),
    *(pytest.param(a_line(n), id=f"A{n}") for n in (2, 5, 8)),
]


class TestMutationClass:
    @pytest.mark.parametrize("quiver", ORACLE_CASES)
    def test_edge_once_closure_matches_two_sided_oracle(self, quiver):
        assert mutation_class(quiver, 1000) == two_sided_closure(quiver, 1000)

    def test_each_edge_is_canonicalized_once(self, monkeypatch):
        # the two-sided closure made 701 calls here: the start, and each of
        # the class's 100 quivers times 7 directions
        calls = []

        def counting(quiver):
            calls.append(quiver)
            return canonical_permutation(quiver)

        monkeypatch.setattr(quiver_module, "canonical_permutation", counting)
        assert len(mutation_class(tilde_A_canonical(4, 3), 1000)) == 100
        assert len(calls) == 351

    @pytest.mark.parametrize("node_limit", [0, -3])
    def test_nonpositive_limit_is_invalid_parameter(self, node_limit):
        with pytest.raises(InvalidParameter):
            mutation_class(tilde_A_canonical(2, 1), node_limit)

    def test_double_arrow_class_is_singleton(self):
        kron = tilde_A_canonical(1, 1)
        assert mutation_class(kron, 10) == {canonical_form(kron)}

    def test_a2_class_is_singleton(self):
        a2 = Quiver.from_arrows(2, [(0, 1)])
        assert mutation_class(a2, 10) == {canonical_form(a2)}

    def test_reflexive(self):
        quiver = tilde_A_canonical(2, 1)
        assert canonical_form(quiver) in mutation_class(quiver, 1000)

    def test_limit_enforced(self):
        with pytest.raises(LimitExceeded):
            mutation_class(tilde_A_canonical(3, 2), 2)


class TestClassify:
    def test_double_arrow(self):
        label = classify_tilde_A(tilde_A_canonical(1, 1))
        assert (label.p, label.q) == (1, 1)

    def test_mutation_preserves_type(self):
        quiver = tilde_A_canonical(3, 2)
        assert classify_tilde_A(quiver.mutate(4)) == classify_tilde_A(quiver)

    def test_a2_is_other(self):
        assert not classify_tilde_A(Quiver.from_arrows(2, [(0, 1)])).is_tilde_a

    def test_a3_path_is_other(self):
        path = Quiver.from_arrows(3, [(0, 1), (1, 2)])
        assert not classify_tilde_A(path).is_tilde_a

    def test_mutation_invariance_sample(self):
        rng = random.Random(9)
        quiver = tilde_A_canonical(2, 2)
        expected = classify_tilde_A(quiver)
        for _ in range(12):
            quiver = quiver.mutate(rng.randrange(quiver.n))
            assert classify_tilde_A(quiver) == expected

    def test_json_shape(self):
        assert classify_tilde_A(tilde_A_canonical(2, 1)).to_json() == {
            "type": "TildeA",
            "p": 2,
            "q": 1,
        }
        assert classify_tilde_A(Quiver.from_arrows(2, [(0, 1)])).to_json() == {
            "type": "Other"
        }


class TestSerialization:
    def test_roundtrip(self):
        quiver = tilde_A_canonical(3, 2)
        assert quiver_from_json(quiver_to_json(quiver)) == quiver

    def test_multiplicity_kept(self):
        kron = tilde_A_canonical(1, 1)
        assert quiver_to_json(kron)["arrows"] == [[0, 1], [0, 1]]


class TestDerivedQuivers:
    """Mutation, relabeling and negation skip the constructor's checks, so
    every result must equal the quiver the checked constructor builds."""

    @staticmethod
    def assert_checked(quiver):
        assert type(quiver.b) is tuple and all(type(row) is tuple for row in quiver.b)
        assert all(type(x) is int for row in quiver.b for x in row)
        rebuilt = Quiver(quiver.b)
        assert quiver == rebuilt and quiver.n == rebuilt.n and hash(quiver) == hash(rebuilt)

    @pytest.mark.parametrize("p,q", [(3, 3), (4, 2), (5, 1)])
    def test_every_quiver_of_a_class(self, p, q):
        rng = random.Random(p * 10 + q)
        for quiver in mutation_class(tilde_A_canonical(p, q), 1000):
            perm = list(range(quiver.n))
            rng.shuffle(perm)
            derived = [quiver.opposite(), quiver.permuted(perm), canonical_form(quiver)]
            derived.extend(quiver.mutate(k) for k in range(quiver.n))
            for result in derived:
                self.assert_checked(result)

    def test_seeded_walks(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(2, 7)
            quiver = random_quiver(rng, n)
            for _ in range(12):
                quiver = quiver.mutate(rng.randrange(n))
                self.assert_checked(quiver)
                perm = list(range(n))
                rng.shuffle(perm)
                quiver = quiver.permuted(perm)
                self.assert_checked(quiver)
                self.assert_checked(quiver.opposite())
