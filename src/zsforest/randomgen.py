"""Seeded, portable random colorings and forests.

Colorings use the scheme named ``splitmix64-mod``: a splitmix64 stream seeded
with the given value, one output per edge in lexicographic order ((0,1),
(0,2), ..., (1,2), ...), reduced by the modulus. The scheme name travels in
reports so results replicate across implementations. Forest generation
(Pruefer decoding) and the near-one-colored hosts of
:func:`near_one_colored` ride the same stream, but only the coloring scheme
is part of the external contract.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .core import (ColoredClique, Forest, build_forest, check_modulus,
                   is_bushy)

SCHEME = "splitmix64-mod"

_MASK = (1 << 64) - 1
_BUSHY_ATTEMPTS = 1000


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream: 64-bit outputs from a 64-bit state."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def random_coloring(order: int, modulus: int, seed: int) -> ColoredClique:
    """Z_modulus coloring of K_order under the splitmix64-mod scheme."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    check_modulus(modulus)  # before drawing C(order, 2) colors
    stream = splitmix64(seed)
    mat = np.zeros((order, order), dtype=np.int16)
    for u, v in combinations(range(order), 2):
        c = next(stream) % modulus
        mat[u, v] = c
        mat[v, u] = c
    return ColoredClique(order, modulus, mat)


def near_one_colored(order: int, p: int, seed: int) -> ColoredClique:
    """One base color plus recolored stars of at most three edges at up to
    p - 2 centers, the stars pairwise vertex-disjoint.

    Every switcher must then contain a center, so no switcher packing reaches
    p - 1 and the non-switchable and non-vibrant engines carry the load.
    """
    stream = splitmix64(seed)
    base = next(stream) % p
    mat = np.full((order, order), base, dtype=np.int16)
    np.fill_diagonal(mat, 0)
    centers = 1 + next(stream) % (p - 2) if p > 3 else 1
    free = list(range(order))
    for _ in range(centers):
        c = free.pop(next(stream) % len(free))
        for _ in range(1 + next(stream) % 3):
            u = free.pop(next(stream) % len(free))
            mat[c, u] = mat[u, c] = (base + 1 + next(stream) % (p - 1)) % p
    return ColoredClique(order, p, mat)


def _decode_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((leaf, x))
                degree[leaf] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def _tree_edges(n: int, stream: Iterator[int]) -> list[tuple[int, int]]:
    if n < 2:
        raise ValueError("tree needs at least 2 vertices")
    if n == 2:
        return [(0, 1)]
    seq = [next(stream) % n for _ in range(n - 2)]
    return _decode_pruefer(seq, n)


def random_tree(n: int, seed: int) -> Forest:
    """Uniform random labeled tree on n vertices (Pruefer decoding)."""
    return build_forest(n, _tree_edges(n, splitmix64(seed)))


def random_forest(n: int, components: int, seed: int) -> Forest:
    """Random forest on exactly n vertices with the given component count.

    Components get at least 2 vertices each; leftover vertices are spread by
    the stream, then each component is an independent Pruefer tree.
    """
    if components < 1:
        raise ValueError("need at least one component")
    if n < 2 * components:
        raise ValueError(
            f"{components} components need >= {2 * components} vertices")
    stream = splitmix64(seed)
    sizes = [2] * components
    for _ in range(n - 2 * components):
        sizes[next(stream) % components] += 1
    edges = []
    base = 0
    for size in sizes:
        edges.extend((base + u, base + v)
                     for u, v in _tree_edges(size, stream))
        base += size
    return build_forest(n, edges)


def random_bushy_tree(n: int, p: int, seed: int) -> Forest:
    """Random tree with at least 2(p-1) leaves, by seeded rejection."""
    stream = splitmix64(seed)
    for _ in range(_BUSHY_ATTEMPTS):
        f = build_forest(n, _tree_edges(n, stream))
        if is_bushy(f, p):
            return f
    raise ValueError(
        f"no bushy tree on {n} vertices for p={p} in {_BUSHY_ATTEMPTS} draws")
