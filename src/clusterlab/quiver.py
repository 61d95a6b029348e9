"""Quivers without loops or 2-cycles: mutation, canonical forms, affine type-A recognition.

A quiver on n points is stored as the signed skew-symmetric matrix b,
where b[i][j] > 0 means b[i][j] arrows from i to j.  Skew symmetry makes
"no 2-cycles" structural and turns mutation into a two-line matrix update.
Arrow lists are derived views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidParameter, InvalidQuiver, LimitExceeded

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CLASS_LIMIT = 50_000


class Quiver:
    """Immutable loop-free, 2-cycle-free multidigraph on points 0..n-1."""

    __slots__ = ("n", "b", "_hash")

    def __init__(self, b: Sequence[Sequence[int]]):
        rows = tuple(map(tuple, b))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InvalidQuiver("matrix must be square")
        bad = [entry for row in rows for entry in row if not _is_int(entry)]
        if bad:
            raise InvalidQuiver(f"matrix entry {bad[0]!r} is not an int")
        for i, row in enumerate(rows):
            if row[i] != 0:
                raise InvalidQuiver(f"loop at point {i}")
        if rows != tuple(tuple(map(neg, column)) for column in zip(*rows)):
            raise InvalidQuiver("matrix must be skew-symmetric")
        _fill(self, rows)

    @classmethod
    def _trusted(cls, rows: Matrix) -> "Quiver":
        """A quiver on ``rows`` without the checks of ``__init__``.

        Only for tuples of int tuples derived from a valid quiver by a map
        that keeps a matrix skew-symmetric (mutation, relabeling, negation).
        """
        quiver = object.__new__(cls)
        _fill(quiver, rows)
        return quiver

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]]) -> "Quiver":
        """Quiver with one arrow per listed pair, repeated pairs adding up.

        Points outside 0..n-1, loops and 2-cycles raise InvalidQuiver; they
        are never wrapped around or cancelled.  So does anything but an int
        for n or a pair of ints for an arrow (bool is not an int here).
        """
        if not _is_int(n):
            raise InvalidQuiver(f"number of points {n!r} is not an int")
        if n < 0:
            raise InvalidQuiver(f"negative number of points {n}")
        b = [[0] * n for _ in range(n)]
        for arrow in arrows:
            if not (isinstance(arrow, (tuple, list)) and len(arrow) == 2 and all(map(_is_int, arrow))):
                raise InvalidQuiver(f"arrow {arrow!r} is not a pair of ints")
            s, t = arrow
            if not (0 <= s < n and 0 <= t < n):
                raise InvalidQuiver(f"arrow {s}->{t} has a point outside 0..{n - 1}")
            if s == t:
                raise InvalidQuiver(f"loop at point {s}")
            if b[s][t] < 0:
                raise InvalidQuiver(f"arrows {s}->{t} and {t}->{s} form a 2-cycle")
            b[s][t] += 1
            b[t][s] -= 1
        return cls(b)

    def arrows(self) -> list[tuple[int, int]]:
        """Arrow list with repetition for multiplicities."""
        return [(i, j) for i, row in enumerate(self.b) for j, m in enumerate(row) if m > 0 for _ in range(m)]

    def mutate(self, k: int) -> "Quiver":
        """Mutation at point k.

        Matrix form of the three arrow steps: reverse all arrows at k, add a
        composite arrow for every path through k, cancel the 2-cycles this
        creates.  That is b'_ij = -b_ij when i or j is k, and otherwise
        b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2, which is b_ij plus
        b_ik |b_kj| when b_ik and b_kj have the same sign and b_ij else.
        So only the rows of k and of its neighbours change, and in a
        neighbour's row only entry k and the entries at k's neighbours.
        """
        if not 0 <= k < self.n:
            raise InvalidParameter(f"point {k} out of range")
        b = self.b
        row_k = b[k]
        around = [(j, m) for j, m in enumerate(row_k) if m]
        rows = list(b)
        rows[k] = tuple(map(neg, row_k))
        for i, m_ki in around:
            b_ik = -m_ki
            row = list(b[i])
            row[k] = m_ki
            for j, b_kj in around:
                if (b_ik > 0) == (b_kj > 0):
                    row[j] += b_ik * abs(b_kj)
            rows[i] = tuple(row)
        return Quiver._trusted(tuple(rows))

    def opposite(self) -> "Quiver":
        return Quiver._trusted(tuple(tuple(map(neg, row)) for row in self.b))

    def permuted(self, perm: Sequence[int]) -> "Quiver":
        """Relabel points: new point i is old point perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidParameter(f"{tuple(perm)} is not a permutation of 0..{self.n - 1}")
        return Quiver._trusted(_relabeled(self.b, perm))

    def is_acyclic(self) -> bool:
        """Whether removing points with no arrow in, round after round, empties the quiver."""
        left = set(range(self.n))
        while left:
            sources = {v for v in left if all(self.b[u][v] <= 0 for u in left)}
            if not sources:
                return False
            left -= sources
        return True

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.b == other.b

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.b)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={self.arrows()})"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _relabeled(b: Matrix, perm: Sequence[int]) -> Matrix:
    """The matrix (b[perm[i]][perm[j]])_ij, perm a permutation of 0..n-1."""
    if len(perm) < 2:
        return b  # the only permutation of at most one point is the identity
    pick = itemgetter(*perm)  # returns a tuple only for two or more indices
    return tuple(map(pick, pick(b)))


def _fill(quiver: Quiver, rows: Matrix) -> None:
    object.__setattr__(quiver, "n", len(rows))
    object.__setattr__(quiver, "b", rows)
    object.__setattr__(quiver, "_hash", None)


def _refine(nbrs: list[list[tuple[int, int]]], colour: list[int]) -> list[int]:
    """Coarsest stable refinement of an ordered colouring.

    A point's new colour is its old colour together with the sorted
    multiset of (b[v][w], colour of w) over its neighbours w; colours are
    the ranks of these signatures in sorted order, so they never depend on
    the labels, and a refined cell stays where its parent cell was.  A
    discrete colouring is stable and is returned as it is.
    """
    cells = len(set(colour))
    while cells < len(colour):
        sigs = [
            (colour[v], tuple(sorted((m, colour[w]) for m, w in row)))
            for v, row in enumerate(nbrs)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        if len(rank) == cells:
            break
        colour = [rank[sig] for sig in sigs]
        cells = len(rank)
    return colour


def _orbits(n: int, generators: list[list[int]]) -> list[int]:
    """A representative of each point's orbit under the generated group."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for gen in generators:
        for x, y in enumerate(gen):
            root[find(x)] = find(y)
    return [find(x) for x in range(n)]


def canonical_permutation(quiver: Quiver) -> tuple[int, ...]:
    """Permutation whose relabeling gives the quiver's canonical matrix.

    Individualisation-refinement (McKay and Piperno, Practical graph
    isomorphism II, 2014): colours start equal and are refined to a stable
    partition (after one round they are the degree signatures).  While the
    partition is not discrete, each point of its first smallest
    non-singleton cell is in turn given a colour of its own and the
    partition is refined again.  Every step is label-invariant, so the
    discrete leaves of this search tree are an isomorphism invariant, and
    of their relabelings the one with the smallest matrix is canonical.

    Two leaves with equal matrices give an automorphism.  A child whose
    point an automorphism fixing the current individualised points maps
    to an explored sibling has the same leaf matrices as that sibling's
    subtree, so it is skipped; without this a quiver with no arrows would
    visit all n! leaves.
    """
    n = quiver.n
    b = quiver.b
    nbrs = [[(m, w) for w, m in enumerate(row) if m] for row in b]
    best: Optional[tuple[Matrix, list[int]]] = None
    automorphisms: list[list[int]] = []

    def search(colour: list[int], path: list[int]) -> None:
        nonlocal best
        colour = _refine(nbrs, colour)
        sizes = Counter(colour)
        if len(sizes) == n:
            perm = sorted(range(n), key=colour.__getitem__)
            matrix = _relabeled(b, perm)
            if best is None or matrix < best[0]:
                best = (matrix, perm)
            elif matrix == best[0]:
                gamma = [0] * n
                for x, y in zip(best[1], perm):
                    gamma[x] = y
                automorphisms.append(gamma)
            return
        target = min((size, c) for c, size in sizes.items() if size > 1)[1]
        explored: list[int] = []
        for v in range(n):
            if colour[v] != target:
                continue
            stabiliser = [g for g in automorphisms if all(g[u] == u for u in path)]
            if stabiliser:
                orbit = _orbits(n, stabiliser)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            explored.append(v)
            individualised = [2 * c + (c == target and u != v) for u, c in enumerate(colour)]
            search(individualised, path + [v])

    search([0] * n, [])
    assert best is not None
    return tuple(best[1])


def canonical_form(quiver: Quiver) -> Quiver:
    return quiver.permuted(canonical_permutation(quiver))


def tilde_A_canonical(p: int, q: int) -> Quiver:
    """The acyclic cycle quiver with p arrows one way around and q the other.

    Two directed paths of lengths p and q run from point 0 to point p.  For
    p == q == 1 this degenerates to the double arrow on two points.  The
    presentation is validated against the annulus triangulation oracle in
    the test suite rather than trusted on its own.
    """
    if q < 1 or p < q:
        raise InvalidParameter("need p >= q >= 1")
    n = p + q
    arrows = [(i, i + 1) for i in range(p)]
    arrows.extend(((i + 1) % n, i) for i in range(p, n))
    return Quiver.from_arrows(n, arrows)


def mutation_class(quiver: Quiver, node_limit: int) -> set[Quiver]:
    """Closure of the quiver under mutation, up to isomorphism.

    Returns canonical representatives.  Raises LimitExceeded when the class
    does not close within node_limit nodes, which signals either a limit
    that is too small or an input outside the finite-mutation world.
    Each edge is canonicalized from one end: when Q mutated at k has the
    canonical form N under perm, N mutated at perm.index(k) is a
    relabeling of Q, so that direction of N is marked done.
    """
    if node_limit <= 0:
        raise InvalidParameter(f"node limit {node_limit} must be positive")
    start = canonical_form(quiver)
    done: dict[Quiver, set[int]] = {start: set()}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for k in range(current.n):
                if k in done[current]:
                    continue
                mutated = current.mutate(k)
                perm = canonical_permutation(mutated)
                neighbor = Quiver._trusted(_relabeled(mutated.b, perm))
                back = done.get(neighbor)
                if back is None:
                    if len(done) >= node_limit:
                        raise LimitExceeded(
                            f"mutation class exceeded {node_limit} quivers"
                        )
                    back = done[neighbor] = set()
                    nxt.append(neighbor)
                back.add(perm.index(k))
        frontier = nxt
    return set(done)


@dataclass(frozen=True)
class TypeLabel:
    """Recognition result: affine type A with parameters p and q, or
    anything else when both are None."""

    p: Optional[int] = None
    q: Optional[int] = None

    @property
    def is_tilde_a(self) -> bool:
        return self.p is not None

    def to_json(self) -> dict:
        if self.is_tilde_a:
            return {"type": "TildeA", "p": self.p, "q": self.q}
        return {"type": "Other"}


_class_cache: dict[tuple[int, int], frozenset[Quiver]] = {}


def _tilde_class(p: int, q: int) -> frozenset[Quiver]:
    got = _class_cache.get((p, q))
    if got is None:
        got = frozenset(mutation_class(tilde_A_canonical(p, q), DEFAULT_CLASS_LIMIT))
        _class_cache[(p, q)] = got
    return got


def classify_tilde_A(quiver: Quiver) -> TypeLabel:
    """Decide whether the quiver lies in some canonical affine type-A class.

    Only the candidate classes for splits p + q == n are enumerated (they
    are finite), never the input's own class, so the call terminates on any
    input.
    """
    n = quiver.n
    key = canonical_form(quiver)
    for p in range((n + 1) // 2, n):
        q = n - p
        if q < 1:
            continue
        if key in _tilde_class(p, q):
            return TypeLabel(p, q)
    return TypeLabel()


def quiver_to_json(quiver: Quiver) -> dict:
    return {"n": quiver.n, "arrows": [list(a) for a in quiver.arrows()]}


def quiver_from_json(data: Mapping) -> Quiver:
    if not (isinstance(data, Mapping) and "n" in data and isinstance(data.get("arrows"), list)):
        raise InvalidQuiver('a quiver is an object with "n" and a list "arrows"')
    return Quiver.from_arrows(data["n"], data["arrows"])

