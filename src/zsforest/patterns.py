"""Standard test patterns: paths, stars, spiders, matchings, cycles."""

from __future__ import annotations

from .core import Forest, SimpleGraph, build_forest, build_graph


def path(n: int) -> Forest:
    """P_n on vertices 0..n-1."""
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    return build_forest(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Forest:
    """K_{1,leaves} with center 0."""
    if leaves < 1:
        raise ValueError("star needs at least 1 leaf")
    return build_forest(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def spider(*leg_lengths: int) -> Forest:
    """Legs of the given lengths glued at center 0."""
    if len(leg_lengths) < 1 or any(l < 1 for l in leg_lengths):
        raise ValueError("spider needs legs of length >= 1")
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_forest(nxt, edges)


def matching(j: int) -> Forest:
    """j disjoint edges."""
    if j < 1:
        raise ValueError("matching needs at least 1 edge")
    return build_forest(2 * j, [(2 * i, 2 * i + 1) for i in range(j)])


def forest_of_paths(lengths: list[int]) -> Forest:
    """Disjoint paths; lengths are vertex counts, each >= 2."""
    edges = []
    base = 0
    for n in lengths:
        if n < 2:
            raise ValueError("each path needs at least 2 vertices")
        edges.extend((base + i, base + i + 1) for i in range(n - 1))
        base += n
    return build_forest(base, edges)


def cycle(n: int) -> SimpleGraph:
    """C_n (not a forest; for the exhaustive oracle only)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])

