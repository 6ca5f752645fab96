"""Coloring-side structure detection.

The constructive cases are driven entirely by properties of the host
coloring: which vertices see many colors (colorful/vibrant), whether many
disjoint four-cycles can have their sum toggled (switchers), and how vertices
cluster by their overwhelmingly most frequent color (dominant partition).
Everything here is read-only analysis of a ColoredClique; scans are
vectorized but must return exactly what the lexicographic sequential scan
would.
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


def _color_counts(k: ColoredClique, v: int) -> np.ndarray:
    row = np.delete(k.matrix[v], v)
    return np.bincount(row, minlength=k.modulus)


def colorful_witness(k: ColoredClique, v: int, b: int
                     ) -> Optional[ColorfulWitness]:
    """Witness for the lowest color with b <= count <= order-b-1 at v."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if not 0 <= v < k.order:
        raise ValueError(f"vertex {v} not in K_{k.order}")
    counts = _color_counts(k, v)
    hi = k.order - b - 1
    for c, cnt in enumerate(counts):
        if b <= cnt <= hi:
            return ColorfulWitness(vertex=v, color=Residue(c, k.modulus),
                                   degree_in_color=int(cnt))
    return None


def vibrant_vertices(k: ColoredClique, p: int) -> list[ColorfulWitness]:
    """Witnesses for every (3p-5)-colorful vertex, ascending.

    The coloring is vibrant for p exactly when the list has >= p-1 entries.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    b = 3 * p - 5
    out = []
    for v in range(k.order):
        w = colorful_witness(k, v, b)
        if w is not None:
            out.append(w)
    return out


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


def is_switcher(k: ColoredClique, quad: Sequence[int]
                ) -> Optional[SwitcherQuad]:
    """Test one cyclic order of four vertices; both consecutive pairings.

    The returned quad is rotated so its own labeling satisfies the canonical
    inequality chi(d4 d1) + chi(d1 d2) != chi(d2 d3) + chi(d3 d4).
    """
    if len(quad) != 4 or len(set(quad)) != 4:
        raise ValueError(f"need 4 distinct vertices, got {tuple(quad)}")
    for v in quad:
        if not 0 <= v < k.order:
            raise ValueError(f"vertex {v} not in K_{k.order}")
    return _quad_check(k, quad)


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

    Raises:
        NoDominantColor: some vertex has zero or several qualifying colors.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    threshold = k_prime.order - (3 * p - 4)
    classes: dict[Residue, list[int]] = {}
    for v in range(k_prime.order):
        counts = _color_counts(k_prime, v)
        qualifying = [c for c in range(k_prime.modulus)
                      if counts[c] >= threshold]
        if len(qualifying) != 1:
            raise NoDominantColor(
                v, f"vertex {v} has {len(qualifying)} colors at "
                   f"count >= {threshold}")
        classes.setdefault(Residue(qualifying[0], k_prime.modulus),
                           []).append(v)
    largest = min(classes, key=lambda r: (-len(classes[r]), r.value))
    return DominantPartition(
        classes={r: tuple(vs) for r, vs in classes.items()},
        largest=largest)
