"""Coloring-side structure detection.

The constructive cases are driven entirely by properties of the host
coloring: which vertices see many colors (colorful/vibrant), whether many
disjoint four-cycles can have their sum toggled (switchers), and how vertices
cluster by their overwhelmingly most frequent color (dominant partition).
Colorfulness and dominance are both questions about one N x m table of
color degrees, built by one O(N^2 + N m) count over the matrix. Everything
here is read-only analysis of a ColoredClique; scans are vectorized but
must return exactly what the lexicographic sequential scan would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (ColoredClique, Forest, PreconditionFailed, Residue,
                   is_bushy)


class NoDominantColor(PreconditionFailed):
    """Some vertex has no unique heavily-represented color, so the
    non-vibrant case does not apply."""

    def __init__(self, vertex: int, message: str):
        super().__init__(message)
        self.vertex = vertex


@dataclass(frozen=True)
class ColorfulWitness:
    """A vertex together with a color it sees often but not too often:
    b <= degree_in_color <= order - b - 1 for the b it was computed with."""

    vertex: int
    color: Residue
    degree_in_color: int


@dataclass(frozen=True)
class SwitcherQuad:
    """Four vertices traversed cyclically, labeled so that
    chi(d4 d1) + chi(d1 d2) != chi(d2 d3) + chi(d3 d4)."""

    vertices: tuple[int, int, int, int]


@dataclass(frozen=True)
class DominantPartition:
    """Vertex classes by unique dominant color on a sub-clique.

    A vertex belongs to G_r when at least order - (3p-4) of its incident
    edges have color r. largest is the color of a maximum class, lowest
    color winning ties.
    """

    classes: Mapping[Residue, tuple[int, ...]]
    largest: Residue


def _color_degrees(k: ColoredClique) -> np.ndarray:
    """(N, m) table whose entry [v, c] counts the edges at v with color c.

    One bincount per pass over a band of rows, cell (v, w) counted at
    v·m + its color, O(N^2 + N m) in all; each vertex's own diagonal
    entry, whatever its value, is no edge and is taken off again. Beside
    the table, one band's int64 positions (at most 2^17 of them, 1 MiB,
    unless one row is longer) and its counts are live at a time.
    """
    n, m = k.order, k.modulus
    deg = np.empty((n, m), dtype=np.int64)
    band = max(1, (1 << 17) // n)
    for v0 in range(0, n, band):
        rows = k.matrix[v0:v0 + band]
        cells = np.arange(len(rows))[:, None] * m + rows
        deg[v0:v0 + band] = np.bincount(
            cells.ravel(), minlength=len(rows) * m).reshape(-1, m)
    deg[np.arange(n), np.diagonal(k.matrix)] -= 1
    return deg


def vibrant_vertices(k: ColoredClique, p: int) -> list[ColorfulWitness]:
    """Witnesses for every (3p-5)-colorful vertex, ascending.

    Vertex v is b-colorful when some color's degree at v lies in
    [b, order - b - 1]; its witness names the lowest such color. The
    degrees come from one O(N^2 + N m) count over the matrix, the table
    that :func:`dominant_partition` reads too. The coloring is vibrant for
    p exactly when the list has >= p-1 entries.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    b = 3 * p - 5
    deg = _color_degrees(k)
    hit = (deg >= b) & (deg <= k.order - b - 1)
    vs = np.flatnonzero(hit.any(axis=1))
    cs = hit[vs].argmax(axis=1)
    return [ColorfulWitness(vertex=v, color=Residue(c, k.modulus),
                            degree_in_color=d)
            for v, c, d in zip(vs.tolist(), cs.tolist(),
                               deg[vs, cs].tolist())]


def _quad_check(k: ColoredClique, quad: Sequence[int]
                ) -> Optional[SwitcherQuad]:
    d1, d2, d3, d4 = quad
    p = k.modulus
    m = k.matrix
    e1 = int(m[d1, d2])
    e2 = int(m[d2, d3])
    e3 = int(m[d3, d4])
    e4 = int(m[d4, d1])
    if (e1 + e2) % p != (e3 + e4) % p:
        # rotate so the unequal pairing sits in canonical position
        return SwitcherQuad((d2, d3, d4, d1))
    if (e2 + e3) % p != (e4 + e1) % p:
        return SwitcherQuad((d1, d2, d3, d4))
    return None


# the three cycle structures of a sorted 4-subset {a,b,c,d}
_CYCLE_ORDERS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))


def _subset_switcher(k: ColoredClique, subset: Sequence[int]
                     ) -> Optional[SwitcherQuad]:
    for order in _CYCLE_ORDERS:
        got = _quad_check(k, tuple(subset[i] for i in order))
        if got is not None:
            return got
    return None


def _first_switcher(k: ColoredClique, free: Sequence[int]
                    ) -> Optional[SwitcherQuad]:
    """The switcher in the lexicographically first 4-subset of the
    ascending vertex list free that contains one, or None."""
    n = len(free)
    sub = k.matrix[np.ix_(free, free)].astype(np.int64)
    ci, di = np.triu_indices(n, 1)
    cd_all = sub[ci, di]
    if n < 4 or (cd_all == cd_all[0]).all():
        return None  # a one-colored clique has no switcher for any p
    for a in range(n - 3):
        for b in range(a + 1, n - 2):
            # pairs (c, d) with b < c < d form a suffix of the triu order
            off = (b + 1) * (n - 1) - b * (b + 1) // 2
            c, d = ci[off:], di[off:]
            ab, ac, ad = sub[a, b], sub[a, c], sub[a, d]
            bc, bd, cd = sub[b, c], sub[b, d], cd_all[off:]
            hit = np.zeros(len(c), dtype=bool)
            # the cycles a-b-c-d, a-b-d-c and a-c-b-d of _CYCLE_ORDERS as
            # consecutive edges e1..e4, each with both pairings
            for e1, e2, e3, e4 in ((ab, bc, cd, ad), (ab, bd, cd, ac),
                                   (ac, bc, bd, ad)):
                hit |= (e1 + e2 - e3 - e4) % k.modulus != 0
                hit |= (e2 + e3 - e4 - e1) % k.modulus != 0
            if hit.any():
                j = int(np.argmax(hit))
                return _subset_switcher(
                    k, (free[a], free[b], free[c[j]], free[d[j]]))
    return None


def maximal_disjoint_switchers(k: ColoredClique, limit: int
                               ) -> list[SwitcherQuad]:
    """Greedy vertex-disjoint switcher collection, capped at limit.

    Each pick is the lexicographically first 4-subset of the still-free
    vertices that contains a switcher under one of its three cycle
    structures; these are, in order, the 4-subsets disjoint from the
    earlier picks, so the packing equals a lexicographic scan over all
    4-subsets. When the result is shorter than limit it is maximal: the
    vertices not used by it induce a switcher-free sub-clique.

    Memory is O(N^2) and the scan stops after limit picks. A one-colored
    remainder ends it at once, so a full scan runs only on a remainder
    that is switcher-free but not one-colored; the paper rules that out
    at odd p once at least 5 vertices remain, so in practice only p = 2
    cut colorings pay for it.
    """
    out: list[SwitcherQuad] = []
    free = list(range(k.order))
    while len(out) < limit and (quad := _first_switcher(k, free)) is not None:
        out.append(quad)
        free = [v for v in free if v not in quad.vertices]
    return out


@dataclass(frozen=True)
class Classification:
    """Bushiness, the (3p-5)-colorful witnesses (ascending) and the switcher
    packing capped at p-1; vibrant and switchable mean each reaches p-1."""

    p: int
    bushy: bool
    witnesses: tuple[ColorfulWitness, ...]
    switchers: tuple[SwitcherQuad, ...]

    @property
    def vibrant(self) -> bool:
        return len(self.witnesses) >= self.p - 1

    @property
    def switchable(self) -> bool:
        return len(self.switchers) == self.p - 1


def classify(f: Forest, k: ColoredClique, p: int) -> Classification:
    """The classification the four cases share, computed once."""
    return Classification(
        p=p, bushy=is_bushy(f, p), witnesses=tuple(vibrant_vertices(k, p)),
        switchers=tuple(maximal_disjoint_switchers(k, p - 1)))


def dominant_partition(k_prime: ColoredClique, p: int) -> DominantPartition:
    """Partition vertices by their unique dominant color.

    A color r is dominant at v when at least order - (3p-4) of v's incident
    edges are colored r. Exactly one color must qualify at every vertex.
    The degrees come from one O(N^2 + N m) count over the matrix, the
    table that :func:`vibrant_vertices` reads too; classes are listed in
    order of their first vertex.

    Raises:
        NoDominantColor: some vertex has zero or several qualifying colors;
            the first such vertex is named.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    threshold = k_prime.order - (3 * p - 4)
    qualifies = _color_degrees(k_prime) >= threshold
    counts = qualifies.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        v = int(bad[0])
        raise NoDominantColor(
            v, f"vertex {v} has {int(counts[v])} colors at "
               f"count >= {threshold}")
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(qualifies.argmax(axis=1).tolist()):
        classes.setdefault(c, []).append(v)
    largest = min(classes, key=lambda c: (-len(classes[c]), c))
    return DominantPartition(
        classes={Residue(c, k_prime.modulus): tuple(vs)
                 for c, vs in classes.items()},
        largest=Residue(largest, k_prime.modulus))
