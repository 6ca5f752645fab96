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
from functools import partial
from typing import Iterator, Mapping, Optional, Sequence

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
    return _colorful_witnesses(k, p, _color_degrees(k))


def _colorful_witnesses(k: ColoredClique, p: int, deg: np.ndarray
                        ) -> list[ColorfulWitness]:
    """:func:`vibrant_vertices` read from the color-degree table deg."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    b = 3 * p - 5
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


def _two_colored_matching(ab, ac, ad, bc, bd, cd):
    """Whether one of the three perfect matchings of the 4-set {a, b, c, d}
    has two colors, elementwise over arrays of edge colors.

    At odd modulus this is exactly "the 4-set holds a switcher": a cycle
    e1 e2 e3 e4 is no switcher when e1 + e2 = e3 + e4 and e2 + e3 = e4 + e1,
    and subtracting the two gives 2(e1 - e3) = 0, so e1 = e3 and then
    e2 = e4, since 2 is invertible. The three cycles of the 4-set so ask
    for ab = cd, bc = ad and ac = bd. Colors lie in [0, m), so no residue
    arithmetic is needed."""
    return (ab != cd) | (ac != bd) | (ad != bc)


def _unbalanced_pairing(m: int, ab, ac, ad, bc, bd, cd):
    """Whether one of the three cycles of the 4-set {a, b, c, d} has
    unequal pairing sums mod m, elementwise over arrays of edge colors:
    the switcher test of :func:`_subset_switcher` at any modulus."""
    ab, ac, ad, bc, bd, cd = (x.astype(np.int32)
                              for x in (ab, ac, ad, bc, bd, cd))
    hit = np.zeros(ab.shape, dtype=bool)
    # the cycles a-b-c-d, a-b-d-c and a-c-b-d of _CYCLE_ORDERS as
    # consecutive edges e1..e4, each with both pairings
    for e1, e2, e3, e4 in ((ab, bc, cd, ad), (ab, bd, cd, ac),
                           (ac, bc, bd, ad)):
        hit |= (e1 + e2 - e3 - e4) % m != 0
        hit |= (e2 + e3 - e4 - e1) % m != 0
    return hit


# A pass of the packing walk tests at most this many (c, d) pairs, the
# 2^13-word budget of the oracle's passes
_PASS_PAIRS = 1 << 13


def _row_runs(n: int, a: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows (b, c) of the index quadruples a < b < c < d < n, row
    (b, c) holding the n - 1 - c pairs (c, d), as two arrays in
    lexicographic order and in runs of whole rows: each run holds at most
    _PASS_PAIRS pairs, or one row if that row alone holds more, and ends
    inside a b only when the rest of that b does not fit. A run may so
    span several b."""
    b, c = a + 1, a + 2
    while b < n - 2:
        segments = []  # (b, first c, rows) of this run
        room = _PASS_PAIRS
        while b < n - 2 and room > 0:
            # rows (b, c), ..., (b, n - 2) hold left, left - 1, ..., 1 pairs
            left = n - 1 - c
            rows = left
            if left * (left + 1) // 2 > room:
                upto = np.cumsum(np.arange(left, 0, -1))
                rows = int(np.searchsorted(upto, room, "right"))
                if rows == 0 and segments:
                    break
                rows = max(rows, 1)
            segments.append((b, c, rows))
            room -= rows * left - rows * (rows - 1) // 2
            c += rows
            if c < n - 1:
                break  # the run ends inside this b
            b, c = b + 1, b + 2
        yield (np.repeat([s[0] for s in segments], [s[2] for s in segments]),
               np.concatenate([np.arange(c0, c0 + rows)
                               for _, c0, rows in segments]))


def _first_switcher(k: ColoredClique, free: np.ndarray
                    ) -> Optional[SwitcherQuad]:
    """The switcher in the lexicographically first 4-subset of the
    ascending vertex array free that contains one, or None.

    Walks a in order, reads row a once and tests the pairs (c, d) of the
    rows (b, c) of free indices in the runs of :func:`_row_runs`,
    returning at the first run that holds a hit. Colors are read from the
    flat matrix, at u * order + v for the edge uv."""
    n, order = len(free), k.order
    flat = k.matrix.reshape(-1)
    if k.modulus % 2:
        test = _two_colored_matching
    else:
        test = partial(_unbalanced_pairing, k.modulus)
    for a in range(n - 3):
        row_a = flat[free[a] * order + free]
        for b, c in _row_runs(n, a):
            lens = n - 1 - c
            ends = np.cumsum(lens)
            d = np.arange(ends[-1]) + np.repeat(n - ends, lens)  # c < d < n
            vd = free[d]
            at_b, at_c = free[b] * order, free[c] * order
            hit = test(np.repeat(row_a[b], lens), np.repeat(row_a[c], lens),
                       row_a[d], np.repeat(flat[at_b + free[c]], lens),
                       flat[np.repeat(at_b, lens) + vd],
                       flat[np.repeat(at_c, lens) + vd])
            if hit.any():
                j = int(hit.argmax())
                r = int(np.searchsorted(ends, j, "right"))
                return _subset_switcher(k, (int(free[a]), int(free[b[r]]),
                                            int(free[c[r]]), int(vd[j])))
    return None


# the six cells (i, j), i < j, of a 4 x 4 block: the edges of a 4-set
_QUAD_EDGES = np.triu_indices(4, 1)


def maximal_disjoint_switchers(k: ColoredClique, limit: int
                               ) -> list[SwitcherQuad]:
    """Greedy vertex-disjoint switcher collection, capped at limit.

    Each pick is the lexicographically first 4-subset of the still-free
    vertices that contains a switcher under one of its three cycle
    structures; these are, in order, the 4-subsets disjoint from the
    earlier picks, so the packing equals a lexicographic scan over all
    4-subsets. When the result is shorter than limit it is maximal: the
    vertices not used by it induce a switcher-free sub-clique.

    A pick walks the free pairs (a, b) in order and tests the later pairs
    (c, d) in passes of at most 2^13 pairs, returning at the first pass
    with a hit, so its time is proportional to the number of 4-subsets
    before its hit, rounded up to a pass. At odd modulus a 4-set holds a
    switcher exactly when one of its perfect matchings is two-colored
    (:func:`_two_colored_matching`); at even modulus the pairing sums are
    compared mod m (:func:`_unbalanced_pairing`), because there the cut
    colorings tell the two tests apart.

    The packing keeps per-color edge counts over the free vertices, seeded
    from the color-degree table and reduced by each pick's edges, and
    stops at once when one color holds every free edge. So a full walk
    runs only on a remainder that is switcher-free but not one-colored;
    the paper rules that out at odd p once at least 5 vertices remain, so
    in practice only p = 2 cut colorings pay for it. Memory is O(N m) for
    the color-degree table (built in bands of about 2^17 cells) and
    O(2^13) for a pass.
    """
    return _packing(k, limit, _color_degrees(k))


def _packing(k: ColoredClique, limit: int, deg: np.ndarray
             ) -> list[SwitcherQuad]:
    """:func:`maximal_disjoint_switchers` with its edge counts seeded from
    the color-degree table deg."""
    out: list[SwitcherQuad] = []
    free = np.arange(k.order)
    counts = deg.sum(axis=0) // 2  # each edge is counted at both ends
    while len(out) < limit:
        n = len(free)
        if n < 4 or counts.max() == n * (n - 1) // 2:
            break  # a one-colored clique has no switcher for any p
        quad = _first_switcher(k, free)
        if quad is None:
            break
        out.append(quad)
        if len(out) == limit:
            break
        q = np.array(quad.vertices)
        keep = np.ones(n, dtype=bool)
        keep[np.searchsorted(free, q)] = False
        free = free[keep]
        rows = k.matrix[q]
        counts -= np.bincount(
            np.concatenate((rows[:, free].ravel(), rows[:, q][_QUAD_EDGES])),
            minlength=k.modulus)
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
    """The classification the four cases share, computed once; one
    color-degree table serves the witnesses and the packing."""
    deg = _color_degrees(k)
    return Classification(
        p=p, bushy=is_bushy(f, p),
        witnesses=tuple(_colorful_witnesses(k, p, deg)),
        switchers=tuple(_packing(k, p - 1, deg)))


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
