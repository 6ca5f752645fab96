"""Core types for zero-sum embedding work: residues, pattern graphs, colored
cliques.

There is one pattern type, :class:`SimpleGraph`; :class:`Forest` is its
acyclic subtype, which only :func:`build_forest` creates. Everything here is
immutable after construction and safe to share across threads. Vertex labels
are always 0-based contiguous integers; pattern graphs strip isolated
vertices at construction and remember how many were dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class ZeroSumError(Exception):
    """Base class for all library errors."""


class CyclicInput(ZeroSumError):
    """Edge list contains a cycle (loops count as 1-cycles)."""


class DuplicateEdge(ZeroSumError):
    pass


class IndexOutOfRange(ZeroSumError):
    pass


class PreconditionFailed(ZeroSumError):
    """An operation's structural requirements do not hold for this input.

    Every "this case does not apply" rejection of the four constructive
    cases derives from it, so it is the one type the dispatcher catches."""


class NotBushy(PreconditionFailed):
    """Forest has fewer than 2(p-1) leaves."""


class InsufficientTriples(PreconditionFailed):
    """Greedy selection could not reach p-1 disjoint degree-2 triples."""


class DivisibilityViolation(ZeroSumError):
    """Modulus does not divide the pattern's edge count."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (moduli here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def require_prime(p: int, context: str) -> None:
    if not is_prime(p):
        raise PreconditionFailed(f"{context}: modulus {p} is not prime")


@dataclass(frozen=True)
class Residue:
    """A reduced element of Z_m: a color, an edge sum or a sumset element.

    The constructive machinery only ever uses prime moduli and checks that at
    its entry points; the type itself allows any modulus >= 2.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} not reduced mod {self.modulus}")


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """A simple graph with no isolated vertices: the pattern type.

    Construct via :func:`build_graph` (cycles allowed) or :func:`build_forest`
    (the acyclic subtype :class:`Forest`); both validate and strip isolated
    vertices. ``original_labels[i]`` is the pre-strip label of vertex ``i``.
    Graphs compare and hash by (type, ``n``, ``edges``), so a forest never
    equals a general graph with the same edges.
    """

    __slots__ = ("n", "edges", "stripped", "original_labels", "_adj", "_deg")

    def __init__(self, n: int, edges: frozenset, stripped: int,
                 original_labels: tuple):
        self.n = n
        self.edges = edges
        self.stripped = stripped
        self.original_labels = original_labels
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)
        self._deg = tuple(len(nb) for nb in self._adj)

    def degree(self, v: int) -> int:
        return self._deg[v]

    @property
    def degrees(self) -> tuple:
        return self._deg

    def neighbors(self, v: int) -> tuple:
        return self._adj[v]

    def leaves(self) -> list[int]:
        return [v for v in range(self.n) if self._deg[v] == 1]

    def degree2_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self._deg[v] == 2]

    def degree_count(self, d: int) -> int:
        """Number of vertices of degree exactly d."""
        return sum(1 for x in self._deg if x == d)

    def components(self) -> list[list[int]]:
        """Vertex lists of connected components, ordered by lowest vertex."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = [s]
            while queue:
                u = queue.pop()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            out.append(sorted(comp))
        return out

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((type(self), self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={self.edge_count})"


class Forest(SimpleGraph):
    """A simple acyclic graph with no isolated vertices; built only by
    :func:`build_forest`, which checks acyclicity first."""

    __slots__ = ()


def _check_simple_edges(n: int, edges: Iterable[tuple[int, int]]
                        ) -> set[tuple[int, int]]:
    """Validate endpoints, loops and duplicates; return normalized pairs."""
    if n < 0:
        raise IndexOutOfRange(f"vertex count {n} is negative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
        if u == v:
            raise CyclicInput(f"loop at vertex {u}")
        e = _normalize_edge(u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {e} given twice")
        seen.add(e)
    return seen


def _strip_isolated(cls: type, n: int, edgeset: set[tuple[int, int]]):
    """Drop degree-0 vertices, relabel the rest contiguously, and build a
    ``cls`` instance from what is left."""
    touched = sorted({w for e in edgeset for w in e})
    relabel = {old: new for new, old in enumerate(touched)}
    new_edges = frozenset(
        _normalize_edge(relabel[u], relabel[v]) for u, v in edgeset)
    return cls(n=len(touched), edges=new_edges, stripped=n - len(touched),
               original_labels=tuple(touched))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    """Validate a simple edge list (cycles allowed) and return the graph with
    isolated vertices stripped and the remainder relabeled contiguously.

    Raises:
        IndexOutOfRange: an endpoint is outside [0, n).
        CyclicInput: a loop is present.
        DuplicateEdge: the same unordered pair appears twice.
    """
    return _strip_isolated(SimpleGraph, n, _check_simple_edges(n, edges))


def build_forest(n: int, edges: Iterable[tuple[int, int]]) -> Forest:
    """Like :func:`build_graph`, but the edge list must also be acyclic and
    the result is a :class:`Forest`.

    Raises:
        IndexOutOfRange: an endpoint is outside [0, n).
        CyclicInput: a loop or cycle is present.
        DuplicateEdge: the same unordered pair appears twice.
    """
    seen = _check_simple_edges(n, edges)

    # union-find acyclicity check
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sorted(seen):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CyclicInput(f"edge ({u},{v}) closes a cycle")
        parent[ru] = rv

    return _strip_isolated(Forest, n, seen)


# the largest modulus whose colors all fit the int16 matrix
_MAX_MODULUS = 2 ** 15


def check_modulus(modulus: int) -> None:
    """Reject a coloring modulus that :class:`ColoredClique` cannot hold."""
    if not 2 <= modulus <= _MAX_MODULUS:
        raise ValueError(
            f"modulus must be in [2, {_MAX_MODULUS}], got {modulus}")


class ColoredClique:
    """A complete graph K_N with a total edge coloring by residues mod m.

    Stored as its own read-only C-ordered copy of a symmetric int16 matrix
    whose entries, the unused diagonal included, lie in [0, modulus); the
    constructor rejects any other matrix, so readers may take either
    orientation of an edge. The modulus may be composite; operations that
    require a prime check it themselves.
    """

    __slots__ = ("order", "modulus", "matrix")

    def __init__(self, order: int, modulus: int, matrix: np.ndarray):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        check_modulus(modulus)
        raw = np.asarray(matrix)
        if raw.shape != (order, order):
            raise ValueError("color matrix shape mismatch")
        if not np.array_equal(raw, raw.T):
            raise ValueError("color matrix must be symmetric")
        if raw.min() < 0 or raw.max() >= modulus:
            raise ValueError(f"colors must lie in [0,{modulus})")
        m = np.array(raw, dtype=np.int16, order="C")
        m.flags.writeable = False
        self.order = order
        self.modulus = modulus
        self.matrix = m

    def value(self, u: int, v: int) -> int:
        if u == v:
            raise IndexOutOfRange(f"no edge from {u} to itself")
        return int(self.matrix[u, v])

    def induced(self, vertices: Sequence[int]
                ) -> tuple["ColoredClique", tuple[int, ...]]:
        """Sub-clique on the given vertices plus the original-label list.

        Local vertex i of the result is ``labels[i]`` in this clique.
        """
        labels = tuple(sorted(set(vertices)))
        if not labels:
            raise ValueError("induced sub-clique needs at least one vertex")
        if labels[0] < 0 or labels[-1] >= self.order:
            raise IndexOutOfRange("sub-clique vertex out of range")
        idx = np.array(labels)
        sub = self.matrix[idx][:, idx]  # faster than np.ix_ on small blocks
        return ColoredClique(len(labels), self.modulus, sub), labels

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredClique)
                and self.order == other.order
                and self.modulus == other.modulus
                and np.array_equal(self.matrix, other.matrix))

    def __repr__(self) -> str:
        return f"ColoredClique(order={self.order}, modulus={self.modulus})"


@dataclass(frozen=True)
class Embedding:
    """An injective placement of a pattern's vertices into a host clique.

    ``mapping[i]`` is the host vertex for pattern vertex ``i``. Construction
    validates completeness and range; injectivity and the zero-sum property
    are recomputed by the verifiers, never cached.
    """

    pattern: SimpleGraph
    host: ColoredClique
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.pattern.n:
            raise ValueError(
                f"mapping covers {len(self.mapping)} of {self.pattern.n} vertices")
        for h in self.mapping:
            if not 0 <= h < self.host.order:
                raise IndexOutOfRange(f"host vertex {h} out of range")

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)


def edge_sum(emb: Embedding) -> Residue:
    """Sum of host colors over the images of the pattern's edges, recomputed
    from scratch on every call."""
    mat = emb.host.matrix
    mp = emb.mapping
    total = 0
    for u, v in emb.pattern.edges:
        total += int(mat[mp[u], mp[v]])
    return Residue(total % emb.host.modulus, emb.host.modulus)


def is_bushy(f: Forest, p: int) -> bool:
    """True when the forest has at least 2(p-1) leaves."""
    return f.degree_count(1) >= 2 * (p - 1)


@dataclass(frozen=True)
class LeafFamilies:
    """p-1 selected leaves grouped under their parents.

    ``selected[i]`` holds ``counts[i]`` leaves whose unique neighbor is
    ``parents[i]``; counts are >= 1 and sum to p-1, and no parent is itself a
    selected leaf.
    """

    parents: tuple[int, ...]
    counts: tuple[int, ...]
    selected: tuple[tuple[int, ...], ...]


def select_leaf_families(f: Forest, p: int) -> LeafFamilies:
    """Greedy lowest-index selection of p-1 leaves grouped by parent.

    Parents are visited in ascending order and each contributes its leaves in
    ascending order until the total reaches p-1 (the last count is truncated).
    In a 2-vertex component the lower endpoint is the designated leaf and the
    higher one its parent, so only one of the two is selectable.

    Raises:
        NotBushy: fewer than 2(p-1) leaves.
    """
    if not is_bushy(f, p):
        raise NotBushy(f"{f.degree_count(1)} leaves < {2 * (p - 1)}")
    children: dict[int, list[int]] = {}
    for leaf in f.leaves():
        parent = f.neighbors(leaf)[0]
        if f.degree(parent) == 1 and parent < leaf:
            continue  # 2-vertex component seen from its higher endpoint
        children.setdefault(parent, []).append(leaf)

    need = p - 1
    parents, counts, selected = [], [], []
    for parent in sorted(children):
        if need == 0:
            break
        take = children[parent][:need]
        parents.append(parent)
        counts.append(len(take))
        selected.append(tuple(take))
        need -= len(take)
    if need > 0:  # cannot happen for a bushy forest
        raise NotBushy(f"only {p - 1 - need} selectable leaves")
    return LeafFamilies(tuple(parents), tuple(counts), tuple(selected))


def select_degree2_triples(f: Forest, p: int
                           ) -> tuple[tuple[int, tuple[int, int]], ...]:
    """Greedy lowest-index scan for p-1 vertex-disjoint degree-2 triples.

    Each triple (vertex, (lo, hi)) has a vertex of degree exactly 2 with
    neighbors lo < hi, and all 3(p-1) vertices are pairwise distinct (which
    also forces the centers to be pairwise non-adjacent with disjoint
    neighbor sets).

    Raises:
        InsufficientTriples: the greedy cannot reach p-1 triples, so the
            switchable case does not apply.
    """
    used: set[int] = set()
    out: list[tuple[int, tuple[int, int]]] = []
    for t in f.degree2_vertices():
        if len(out) == p - 1:
            break
        a, b = f.neighbors(t)
        if t in used or a in used or b in used:
            continue
        out.append((t, (a, b)))
        used.update((t, a, b))
    if len(out) < p - 1:
        raise InsufficientTriples(
            f"found {len(out)} disjoint degree-2 triples, need {p - 1}")
    return tuple(out)
