"""Quivers without loops or 2-cycles: mutation, isomorphism, affine type-A recognition.

A quiver on n points is stored as the signed skew-symmetric matrix b,
where b[i][j] > 0 means b[i][j] arrows from i to j.  Skew symmetry makes
"no 2-cycles" structural and turns mutation into a two-line matrix update.
Arrow lists are derived views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidParameter, LimitExceeded

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_CLASS_LIMIT = 50_000


class Quiver:
    """Immutable loop-free, 2-cycle-free multidigraph on points 0..n-1."""

    __slots__ = ("n", "b", "_hash")

    def __init__(self, b: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in b)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 0:
                raise ValueError(f"loop at point {i}")
            for j in range(n):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("matrix must be skew-symmetric")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]]) -> "Quiver":
        b = [[0] * n for _ in range(n)]
        for s, t in arrows:
            if s == t:
                raise ValueError(f"loop at point {s}")
            b[s][t] += 1
            b[t][s] -= 1
        return cls(b)

    def arrows(self) -> list[tuple[int, int]]:
        """Arrow list with repetition for multiplicities."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                if self.b[i][j] > 0:
                    out.extend([(i, j)] * self.b[i][j])
        return out

    def mutate(self, k: int) -> "Quiver":
        """Mutation at point k.

        Matrix form of the three arrow steps: reverse all arrows at k, add a
        composite arrow for every path through k, cancel the 2-cycles this
        creates.
        """
        if not 0 <= k < self.n:
            raise ValueError(f"point {k} out of range")
        b = self.b
        new = [
            [
                -b[i][j]
                if i == k or j == k
                else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                for j in range(self.n)
            ]
            for i in range(self.n)
        ]
        return Quiver(new)

    def opposite(self) -> "Quiver":
        return Quiver(tuple(tuple(-x for x in row) for row in self.b))

    def permuted(self, perm: Sequence[int]) -> "Quiver":
        """Relabel points: new point i is old point perm[i]."""
        return Quiver(
            tuple(tuple(self.b[perm[i]][perm[j]] for j in range(self.n)) for i in range(self.n))
        )

    def is_acyclic(self) -> bool:
        state = [0] * self.n  # 0 unseen, 1 active, 2 done

        def visit(v: int) -> bool:
            state[v] = 1
            for w in range(self.n):
                if self.b[v][w] > 0:
                    if state[w] == 1 or (state[w] == 0 and not visit(w)):
                        return False
            state[v] = 2
            return True

        return all(state[v] or visit(v) for v in range(self.n))

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


def mutate(quiver: Quiver, k: int) -> Quiver:
    return quiver.mutate(k)


def opposite(quiver: Quiver) -> Quiver:
    return quiver.opposite()


def _vertex_signature(quiver: Quiver, v: int) -> tuple:
    row = quiver.b[v]
    outs = sorted(x for x in row if x > 0)
    ins = sorted(-x for x in row if x < 0)
    return (tuple(outs), tuple(ins))


def canonical_permutation(quiver: Quiver) -> tuple[int, ...]:
    """Permutation whose relabeling minimizes the matrix, compared in L-blocks.

    Branch and bound: points are placed one at a time and the partial
    signature (the L-shaped block of matrix entries each new point adds) is
    compared against the best complete signature found so far.  Points are
    small here (n around 12 at most), and degree signatures prune hard.
    """
    n = quiver.n
    if n == 0:
        return ()
    sigs = [_vertex_signature(quiver, v) for v in range(n)]
    order = sorted(range(n), key=lambda v: sigs[v])

    best_sig: Optional[list[tuple[int, ...]]] = None
    best_perm: Optional[list[int]] = None

    def extend(perm: list[int], partial: list[tuple[int, ...]]):
        nonlocal best_sig, best_perm
        depth = len(perm)
        if depth == n:
            if best_sig is None or partial < best_sig:
                best_sig = list(partial)
                best_perm = list(perm)
            return
        for v in order:
            if v in perm:
                continue
            block = tuple(
                itertools.chain(
                    (quiver.b[perm[i]][v] for i in range(depth)),
                    (quiver.b[v][perm[i]] for i in range(depth)),
                )
            )
            partial.append(block)
            if best_sig is None or partial <= best_sig[: len(partial)]:
                perm.append(v)
                extend(perm, partial)
                perm.pop()
            partial.pop()

    extend([], [])
    assert best_perm is not None
    return tuple(best_perm)


def canonical_form(quiver: Quiver) -> Quiver:
    return quiver.permuted(canonical_permutation(quiver))


def isomorphism(a: Quiver, b: Quiver) -> Optional[tuple[int, ...]]:
    """A permutation sigma with a.permuted(...) == b arrangement, or None.

    The returned sigma satisfies a.b[sigma[i]][sigma[j]] == b.b[i][j].
    """
    if a.n != b.n:
        return None
    pa = canonical_permutation(a)
    pb = canonical_permutation(b)
    if a.permuted(pa) != b.permuted(pb):
        return None
    inverse_pb = [0] * b.n
    for i, v in enumerate(pb):
        inverse_pb[v] = i
    witness = tuple(pa[inverse_pb[i]] for i in range(a.n))
    return witness


def are_isomorphic(a: Quiver, b: Quiver) -> bool:
    return isomorphism(a, b) is not None


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
    """
    if node_limit <= 0:
        raise ValueError("node_limit must be positive")
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
                    if len(seen) > node_limit:
                        raise LimitExceeded(
                            f"mutation class exceeded {node_limit} quivers"
                        )
                    nxt.append(neighbor)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class TypeLabel:
    """Recognition result: affine type-A with parameters, or anything else."""

    kind: str  # "tilde_a" | "other"
    p: Optional[int] = None
    q: Optional[int] = None

    @classmethod
    def tilde_a(cls, p: int, q: int) -> "TypeLabel":
        return cls("tilde_a", p, q)

    @classmethod
    def other(cls) -> "TypeLabel":
        return cls("other")

    @property
    def is_tilde_a(self) -> bool:
        return self.kind == "tilde_a"

    def to_json(self) -> dict:
        if self.is_tilde_a:
            return {"type": "TildeA", "p": self.p, "q": self.q}
        return {"type": "Other"}


_class_cache: dict[tuple[int, int], frozenset[Quiver]] = {}


def _tilde_class(p: int, q: int, node_limit: int) -> frozenset[Quiver]:
    got = _class_cache.get((p, q))
    if got is None:
        got = frozenset(mutation_class(tilde_A_canonical(p, q), node_limit))
        _class_cache[(p, q)] = got
    return got


def classify_tilde_A(quiver: Quiver, node_limit: int = DEFAULT_CLASS_LIMIT) -> TypeLabel:
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
        if key in _tilde_class(p, q, node_limit):
            return TypeLabel.tilde_a(p, q)
    return TypeLabel.other()


def quiver_to_json(quiver: Quiver) -> dict:
    return {"n": quiver.n, "arrows": [list(a) for a in quiver.arrows()]}


def quiver_from_json(data: Mapping) -> Quiver:
    return Quiver.from_arrows(int(data["n"]), [tuple(a) for a in data["arrows"]])


def quiver_to_dot(quiver: Quiver, name: str = "quiver") -> str:
    lines = [f"digraph {name} {{"]
    for v in range(quiver.n):
        lines.append(f"  {v};")
    for s, t in quiver.arrows():
        lines.append(f"  {s} -> {t};")
    lines.append("}")
    return "\n".join(lines)
