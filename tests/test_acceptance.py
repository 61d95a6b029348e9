"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check here is exact; there are no numeric tolerances anywhere, only
polynomial identities, set equalities, and integer counts.
"""

import itertools
import random
import time
from contextlib import contextmanager

from clusterlab import verify
from clusterlab.annulus import (
    MarkedAnnulus,
    classify_arc,
    crossing_number,
    flip,
    flip_bfs,
    flip_state,
    initial_state,
    initial_triangulation,
    quiver_of,
)
from clusterlab.engine import initial_seed, mutate_seed
from clusterlab.laurent import coordinates
from clusterlab.quiver import tilde_A_canonical


@contextmanager
def criterion(label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL  {label} ({time.time() - start:.1f}s)")
        raise
    print(f"PASS  {label} ({time.time() - start:.1f}s)")


def test_worked_example_exchange():
    with criterion("worked example: rank-5 annulus exchange x4*x4' = x1 + x5"):
        ann = MarkedAnnulus(3, 2)
        state = initial_state(ann)
        x = coordinates(5)
        new_state, result = flip_state(state, 3)  # direction 4 in 1-based naming
        old_var, new_var = state.seed.cluster[3], new_state.seed.cluster[3]
        assert old_var == x[3]
        assert old_var * new_var == x[0] + x[4]
        assert classify_arc(result.new_arc) == ("peripheral", 1)
        # quiver side of the same example: mutation matches the flip
        assert new_state.seed.quiver == quiver_of(new_state.tri)


def test_formal_identity_chains():
    with criterion("formal chains: five-relation and two-to-four-crossing, zero difference"):
        five = verify.report_peripheral_chain_formal()
        assert five.passed
        # the two unprimed residual variants are the only deviations; they are
        # surfaced as notes, never silently absorbed
        assert len(five.notes) == 2
        for n in (2, 3, 4):
            assert verify.report_bridging_chain_formal(n).passed


def test_bridging_winding_induction():
    with criterion("winding induction on C(2,2), K=5: recurrences and crossings 2k-1 / 2k"):
        report = verify.report_winding_induction(2, 2, 5)
        assert report.passed


def test_laurent_phenomenon_and_positivity():
    with criterion("Laurent and positivity: 500 random mutation walks of length <= 10"):
        rng = random.Random(20260810)
        seeds = [
            initial_seed(tilde_A_canonical(p, q)) for p, q in ((1, 1), (2, 1), (3, 2))
        ]
        for walk in range(500):
            seed = seeds[walk % 3]
            for _ in range(rng.randrange(11)):
                # mutate_seed raises ExactDivisionFailed on any Laurent violation
                seed = mutate_seed(seed, rng.randrange(seed.rank))
                for variable in seed.cluster:
                    assert variable.has_positive_coefficients()


def _triangulations_within(ann, radius):
    root = initial_triangulation(ann)
    seen = {root.arc_set: root}
    queue = [root]
    for _ in range(radius):
        next_queue = []
        for tri in queue:
            for i in range(len(tri.arcs)):
                flipped = flip(tri, i).triangulation
                if flipped.arc_set not in seen:
                    seen[flipped.arc_set] = flipped
                    next_queue.append(flipped)
        queue = next_queue
    return list(seen.values())


def test_flip_mutation_commutation():
    with criterion("flip/mutation commutation within 4 flips on C(1,1), C(2,1), C(3,2)"):
        for p, q in ((1, 1), (2, 1), (3, 2)):
            ann = MarkedAnnulus(p, q)
            for tri in _triangulations_within(ann, 4):
                quiver = quiver_of(tri)
                for i in range(p + q):
                    assert quiver_of(flip(tri, i).triangulation) == quiver.mutate(i)


def test_cover_flip_commutation():
    with criterion("cover commutation: 20 random flips per annulus on C(2,1), C(2,2), C(3,2)"):
        report = verify.report_cover_flip(rng_seed=1)
        assert report.context == {"cases": [[2, 1], [2, 2], [3, 2]], "samples": 20, "window": 3}
        assert report.passed and report.witness["checked"] == "60"


def test_denominator_uniqueness_and_quiver_recovery():
    with criterion("quiver recovery at depth >= 3 for (1,1), (2,1), (3,2)"):
        for p, q, depth in ((1, 1, 3), (2, 1, 4), (3, 2, 3)):
            report = verify.report_quiver_recovery(p, q, depth)
            assert report.passed


def test_unistructurality_experiment():
    with criterion("structure uniqueness: (1,1) depth 5 and (2,1) depth 4"):
        assert verify.report_unistructurality(1, 1, 5).passed
        assert verify.report_unistructurality(2, 1, 4).passed


def test_compatibility_oracle_equivalence():
    with criterion("compatibility oracle: crossing 0 iff a common enumerated cluster, C(2,1)"):
        ann = MarkedAnnulus(2, 1)
        pool = {
            arc: var for node in flip_bfs(ann, 4).values() for arc, var in node.state.assignment.items()
        }
        # clusters containing both arcs of a deep compatible pair can sit just
        # beyond the pool radius; enumerating witnesses two levels deeper
        # closes the equivalence exactly
        witness_clusters = {
            frozenset(node.state.seed.cluster) for node in flip_bfs(ann, 6).values()
        }
        arcs = sorted(pool)
        for a, b in itertools.combinations(arcs, 2):
            compatible = crossing_number(a, b, ann) == 0
            together = any(
                pool[a] in cluster and pool[b] in cluster for cluster in witness_clusters
            )
            assert compatible == together, (a, b)


def test_involutivity_suites():
    with criterion("involutivity: 200 randomized double applications for seed, quiver, flip"):
        rng = random.Random(77)

        seeds = [initial_seed(tilde_A_canonical(p, q)) for p, q in ((1, 1), (2, 1), (3, 2))]
        for _ in range(200):
            seed = seeds[rng.randrange(3)]
            for _ in range(rng.randrange(3)):
                seed = mutate_seed(seed, rng.randrange(seed.rank))
            k = rng.randrange(seed.rank)
            assert mutate_seed(mutate_seed(seed, k), k) == seed

        from clusterlab.quiver import Quiver

        def random_quiver(n):
            while True:
                arrows = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, 7))]
                try:
                    return Quiver.from_arrows(n, arrows)
                except ValueError:
                    continue  # drew a 2-cycle; redraw

        for _ in range(200):
            quiver = random_quiver(rng.randrange(2, 6))
            k = rng.randrange(quiver.n)
            assert quiver.mutate(k).mutate(k) == quiver

        triangulations = {
            (p, q): initial_triangulation(MarkedAnnulus(p, q))
            for p, q in ((1, 1), (2, 1), (3, 2))
        }
        for _ in range(200):
            p, q = rng.choice(list(triangulations))
            tri = triangulations[(p, q)]
            i = rng.randrange(p + q)
            once = flip(tri, i)
            back = flip(once.triangulation, i)
            assert back.triangulation.arcs == tri.arcs
            if rng.random() < 0.5:
                triangulations[(p, q)] = once.triangulation
