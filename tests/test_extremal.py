"""Lower-bound construction tests: the circulant inside the star colorings,
and the exhaustive oracle confirming those colorings copy-free."""

import numpy as np
import pytest

from zsforest import PreconditionFailed, brute_zero_sum
from zsforest.extremal import star_lower_bound_coloring
from zsforest.patterns import star


def ones_edges(k) -> list[tuple[int, int]]:
    return [(u, v) for u in range(k.order) for v in range(u + 1, k.order)
            if k.value(u, v) == 1]


def test_circulant_cycle():
    # p = 3, n = 4: the color-1 graph of K_5 is the 5-cycle
    k = star_lower_bound_coloring(4, 3)
    assert ones_edges(k) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_circulant_regularity_sweep():
    # the color-1 graph is exactly the circulant with offsets
    # +-1..+-(p-1)/2, so every vertex has p - 1 edges of color 1
    for p in (3, 5, 7, 11, 13):
        for n in range(p, p + 40):
            k = star_lower_bound_coloring(n, p)
            N = n + p - 2
            offsets = {s % N for s in range(-(p - 1) // 2, (p + 1) // 2)
                       if s}
            want = [(u, v) for u in range(N) for v in range(u + 1, N)
                    if (v - u) % N in offsets]
            assert ones_edges(k) == want
            assert list((k.matrix == 1).sum(axis=1)) == [p - 1] * N


def test_star_coloring_shape_and_regularity():
    for p, n in ((3, 4), (3, 7), (5, 6)):
        k = star_lower_bound_coloring(n, p)
        assert k.order == n + p - 2
        assert k.modulus == p
        ones = (k.matrix == 1).sum(axis=1)
        assert list(ones) == [p - 1] * k.order
        others = set(np.unique(k.matrix)) - {0, 1}
        assert not others


def test_star_coloring_admits_no_zero_sum_star():
    for p, n in ((3, 4), (3, 7), (5, 6)):
        k = star_lower_bound_coloring(n, p)
        assert brute_zero_sum(star(n - 1), k) is None


def test_star_coloring_preconditions():
    with pytest.raises(PreconditionFailed):
        star_lower_bound_coloring(4, 2)
    with pytest.raises(PreconditionFailed):
        star_lower_bound_coloring(2, 3)
    with pytest.raises(PreconditionFailed):
        star_lower_bound_coloring(6, 4)


def test_bigger_star_still_beats_smaller_cliques():
    # adding vertices below the construction order keeps the copy absent;
    # the star cannot even fit until order n
    k = star_lower_bound_coloring(4, 3)
    f = star(3)
    sub, _ = k.induced(range(4))
    assert brute_zero_sum(f, sub) is None
