"""Lower-bound constructions.

A clique colored so that every vertex has exactly p-1 incident edges of
color 1 (the rest 0) contains no zero-sum star K_{1,n-1} when n >= p: any
center uses all but p-2 of its edges, so the sum lands in [1, p-1] and never
hits zero. The color-1 graph is the circulant on vertices 0..N-1 in which u
and v are adjacent when u - v is one of +-1, ..., +-(p-1)/2 mod N.
"""

from __future__ import annotations

import numpy as np

from .core import ColoredClique, PreconditionFailed, require_prime


def star_lower_bound_coloring(n: int, p: int) -> ColoredClique:
    """Z_p coloring of K_{n+p-2} with no zero-sum copy of the star K_{1,n-1}.

    Every vertex gets exactly p-1 incident edges of color 1 (the circulant
    of the module docstring) and color 0 elsewhere.

    Raises:
        PreconditionFailed: p not an odd prime, or n < p.
    """
    require_prime(p, "star_lower_bound_coloring")
    if p < 3:
        raise PreconditionFailed(
            "the star construction needs an odd prime (p=2 has exact "
            "formulas instead)")
    if n < p:
        raise PreconditionFailed(
            f"star order n={n} must be at least p={p} for the pigeonhole "
            f"argument")
    N = n + p - 2
    m = np.zeros((N, N), dtype=np.int16)
    u = np.arange(N)
    # N >= 2p - 2, so the p - 1 offsets are distinct mod N
    for step in range(1, (p - 1) // 2 + 1):
        v = (u + step) % N
        m[u, v] = m[v, u] = 1
    return ColoredClique(N, p, m)
