"""Classification tests: colorful witnesses and dominant partitions, both
read from one color-degree table and checked against a per-vertex Counter
recount on random, near-one-colored, planted-dominant and nonzero-diagonal
hosts, with the table's working set bounded at guarantee scale; the
four-vertex switcher check with its canonical rotation, and the matching
test that replaces it at odd moduli, checked on K_4; and greedy disjoint
packings with their maximality certificate, checked against the whole-block
walk they replace and with their working set bounded at guarantee scale."""

import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

from zsforest import ColoredClique, Residue, classify
from zsforest.classify import (ColorfulWitness, NoDominantColor, SwitcherQuad,
                               _quad_check, _subset_switcher,
                               _two_colored_matching, _unbalanced_pairing,
                               dominant_partition, maximal_disjoint_switchers,
                               vibrant_vertices)
from zsforest.randomgen import near_one_colored, random_coloring, splitmix64
from zsforest.selftest import _planted_dominant


def mono(order, modulus, color=0):
    m = np.full((order, order), color, dtype=np.int16)
    np.fill_diagonal(m, 0)
    return ColoredClique(order, modulus, m)


def pair_clique(order, p, colors):
    """K_order with colors[(u, v)] on each pair; unlisted entries are 0."""
    m = np.zeros((order, order), dtype=np.int16)
    for (u, v), c in colors.items():
        m[u, v] = m[v, u] = c
    return ColoredClique(order, p, m)


def quad_clique(colors, p):
    """K_4 whose cycle 0-1-2-3-0 has the given consecutive edge colors;
    both diagonals get color 0."""
    e1, e2, e3, e4 = colors
    return pair_clique(4, p, {
        (0, 1): e1, (1, 2): e2, (2, 3): e3, (3, 0): e4,
        (0, 2): 0, (1, 3): 0})


def canonical_inequality_holds(k, quad):
    d1, d2, d3, d4 = quad.vertices
    p = k.modulus
    left = (k.value(d4, d1) + k.value(d1, d2)) % p
    right = (k.value(d2, d3) + k.value(d3, d4)) % p
    return left != right


# ---------------------------------------------------------------------------
# colorful vertices and vibrancy
# ---------------------------------------------------------------------------

def test_colorful_witness_monochromatic_absent():
    # the zero diagonal is no edge: counted, it would give color 0 degree
    # 1 = b at every vertex of this color-1 clique
    assert vibrant_vertices(mono(10, 2, color=1), 2) == []


def test_colorful_witness_boundary():
    # p = 3 on K_10: a witness needs b = 4 <= degree <= 10 - 4 - 1 = 5 at
    # vertex 0; every other vertex sees color 2 at least eight times
    def star_at_0(colors):
        m = np.full((10, 10), 2, dtype=np.int16)
        np.fill_diagonal(m, 0)
        for u, c in enumerate(colors, start=1):
            m[0, u] = m[u, 0] = c
        return ColoredClique(10, 3, m)

    # four 1s sit on the lower end; five 2s also qualify, but 1 is lower
    k = star_at_0([1] * 4 + [2] * 5)
    assert vibrant_vertices(k, 3) == [ColorfulWitness(0, Residue(1, 3), 4)]
    # three 1s fall short; five 2s sit on the upper end
    k = star_at_0([1] * 3 + [0] + [2] * 5)
    assert vibrant_vertices(k, 3) == [ColorfulWitness(0, Residue(2, 3), 5)]
    # three 1s fall short and six 2s overshoot
    assert vibrant_vertices(star_at_0([1] * 3 + [2] * 6), 3) == []


def test_colorful_witness_small_clique_absent():
    # at p = 3 a witness needs 4 <= degree <= N - 5, impossible below K_9
    for seed in range(20):
        assert vibrant_vertices(random_coloring(8, 3, seed), 3) == []


def test_vibrant_vertices_monochromatic_empty():
    for p in (2, 3, 5):
        assert vibrant_vertices(mono(12, p), p) == []


def test_vibrant_vertices_single_off_color_edge():
    m = np.zeros((4, 4), dtype=np.int16)
    m[0, 1] = m[1, 0] = 1
    k = ColoredClique(4, 2, m)
    ws = vibrant_vertices(k, 2)
    assert [w.vertex for w in ws] == [0, 1]
    assert len(ws) >= 1  # vibrant for p=2


def recount_witnesses(k, p):
    """vibrant_vertices by a per-vertex Counter over the off-diagonal row."""
    b = 3 * p - 5
    out = []
    for v in range(k.order):
        hist = Counter(int(k.matrix[v, u]) for u in range(k.order) if u != v)
        for c in range(k.modulus):
            if b <= hist[c] <= k.order - b - 1:
                out.append(ColorfulWitness(v, Residue(c, k.modulus), hist[c]))
                break
    return out


def recount_partition(k, p):
    """dominant_partition by a per-vertex Counter: the classes in order of
    their first vertex and the largest, or the first vertex without a
    unique dominant color and the message naming it."""
    threshold = k.order - (3 * p - 4)
    classes = {}
    for v in range(k.order):
        hist = Counter(int(k.matrix[v, u]) for u in range(k.order) if u != v)
        good = [c for c in range(k.modulus) if hist[c] >= threshold]
        if len(good) != 1:
            return v, (f"vertex {v} has {len(good)} colors at count >= "
                       f"{threshold}")
        classes.setdefault(Residue(good[0], k.modulus), []).append(v)
    largest = min(classes, key=lambda r: (-len(classes[r]), r.value))
    return [(r, tuple(vs)) for r, vs in classes.items()], largest


def test_vibrant_vertices_against_histogram_recount():
    k = random_coloring(22, 3, seed=2024)
    got = vibrant_vertices(k, 3)
    assert got == recount_witnesses(k, 3)
    assert len(got) >= 2  # this seed is vibrant for p=3


def table_host(kind, p, order, seed):
    """A seeded K_order over Z_p of the named kind."""
    if kind == "random":
        return random_coloring(order, p, seed)
    if kind == "near_mono":
        return near_one_colored(order, p, seed)
    if kind == "planted":
        return _planted_dominant(p, order, splitmix64(seed))
    # the same hosts with every diagonal entry, which is no edge, nonzero
    base = table_host(("random", "planted")[seed % 2], p, order, seed)
    m = base.matrix.copy()
    np.fill_diagonal(m, 1 + (np.arange(order) + seed) % (p - 1))
    return ColoredClique(order, p, m)


@pytest.mark.parametrize("kind", ["random", "near_mono", "planted",
                                  "diagonal"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_color_degree_table_against_counter_recount(p, kind):
    for seed in range(12):
        # for p >= 3 the orders start below 2b + 1, where no vertex can be
        # colorful, and all p pass twice the dominance tolerance 3p - 4
        order = max(6, 2 * (3 * p - 5) - 1) + seed * (p + 1) // 2
        k = table_host(kind, p, order, 700 * p + seed)
        got = vibrant_vertices(k, p)
        assert got == recount_witnesses(k, p)
        for w in got:  # Python ints, so reprs and hashes stay the same
            assert type(w.vertex) is int is type(w.degree_in_color)
        try:
            part = dominant_partition(k, p)
        except NoDominantColor as err:
            assert (err.vertex, str(err)) == recount_partition(k, p)
        else:
            assert (list(part.classes.items()), part.largest) == \
                recount_partition(k, p)


def test_color_degree_table_working_set_is_bounded():
    # K_1517 over Z_23, guarantee scale at p = 23: besides the 1517 x 23
    # table only one N x N boolean mask (2.2 MiB) is live at a time
    k = near_one_colored(1517, 23, seed=1)
    tracemalloc.start()
    try:
        vibrant_vertices(k, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# switchers
# ---------------------------------------------------------------------------

def test_switcher_first_pairing_rotates():
    k = quad_clique((1, 0, 0, 0), 3)
    got = _quad_check(k, (0, 1, 2, 3))
    assert got == SwitcherQuad((1, 2, 3, 0))
    assert canonical_inequality_holds(k, got)


def test_switcher_monochromatic_absent():
    assert _quad_check(mono(4, 3), (0, 1, 2, 3)) is None
    assert _quad_check(mono(6, 2), (5, 1, 4, 2)) is None


def test_switcher_second_pairing_kept_as_given():
    # first pairing balances (1+2 = 0+0 mod 3), second does not (2+0 != 0+1)
    k = quad_clique((1, 2, 0, 0), 3)
    got = _quad_check(k, (0, 1, 2, 3))
    assert got == SwitcherQuad((0, 1, 2, 3))
    assert canonical_inequality_holds(k, got)


def test_every_returned_quad_satisfies_canonical_inequality():
    for i in range(200):
        k = random_coloring(6, 2 + i % 4, seed=i)
        for quad in combinations(range(6), 4):
            got = _quad_check(k, quad)
            if got is not None:
                assert canonical_inequality_holds(k, got)
                assert set(got.vertices) == set(quad)


def test_disjoint_switchers_monochromatic_empty():
    assert maximal_disjoint_switchers(mono(8, 3), 2) == []


def test_disjoint_switchers_two_separated_flips():
    m = np.zeros((8, 8), dtype=np.int16)
    m[0, 1] = m[1, 0] = 1
    m[4, 5] = m[5, 4] = 1
    k = ColoredClique(8, 3, m)
    got = maximal_disjoint_switchers(k, 2)
    assert len(got) == 2
    assert set(got[0].vertices) == {0, 1, 2, 3}
    assert set(got[1].vertices) == {4, 5, 6, 7}
    for quad in got:
        assert canonical_inequality_holds(k, quad)


def test_disjoint_switchers_exhaustion_below_limit():
    k = quad_clique((1, 0, 0, 0), 3)
    got = maximal_disjoint_switchers(k, 2)
    assert len(got) == 1
    assert maximal_disjoint_switchers(k, 0) == []


def reference_greedy(k, limit):
    """One pass over all 4-subsets in lexicographic order, skipping those
    that meet a vertex already used."""
    used = set()
    out = []
    for sub in combinations(range(k.order), 4):
        if len(out) == limit:
            break
        if used & set(sub):
            continue
        quad = _subset_switcher(k, sub)
        if quad is not None:
            out.append(quad)
            used |= set(sub)
    return out


def cut_coloring(order, p, side):
    """Color 1 across the bipartition given by side, 0 inside it."""
    m = np.zeros((order, order), dtype=np.int16)
    for u, v in combinations(range(order), 2):
        if side[u] != side[v]:
            m[u, v] = m[v, u] = 1
    return ColoredClique(order, p, m)


def test_lazy_packing_matches_reference_greedy():
    for i in range(84):
        p = (2, 3, 5)[i % 3]
        order = 4 + i % 14
        k = random_coloring(order, p, seed=500 + i)
        for limit in (1, p - 1, order):
            assert (maximal_disjoint_switchers(k, limit)
                    == reference_greedy(k, limit))


def test_switcher_free_cut_colorings_pack_nothing():
    # switcher-free but two-colored at p = 2: the scan runs to the end
    for order in (9, 13):
        for step in (2, 3, 4, order):  # step = order cuts off vertex 0
            k = cut_coloring(order, 2, [v % step == 0 for v in range(order)])
            assert len(np.unique(k.matrix[np.triu_indices(order, 1)])) == 2
            assert reference_greedy(k, order) == []
            for limit in (1, order):
                assert maximal_disjoint_switchers(k, limit) == []


def test_one_colored_large_clique_packs_nothing():
    # K_125 over Z_7: the one-colored remainder ends the scan at once
    assert maximal_disjoint_switchers(mono(125, 7, color=4), 6) == []


def test_greedy_maximality_certificate():
    # when the greedy stalls below the limit, the unused remainder is
    # switcher-free; verified by an exhaustive scan
    stalled = 0
    for i in range(150):
        order = 8 + i % 5
        k = random_coloring(order, 2 + i % 2, seed=9_000 + i)
        got = maximal_disjoint_switchers(k, order)  # limit beyond reach
        used = {v for q in got for v in q.vertices}
        unused = [v for v in range(order) if v not in used]
        stalled += 1
        for sub in combinations(unused, 4):
            assert _subset_switcher(k, sub) is None
    assert stalled == 150


def test_greedy_respects_limit_and_disjointness():
    for i in range(100):
        k = random_coloring(12, 3, seed=40_000 + i)
        for limit in (1, 2, 3):
            got = maximal_disjoint_switchers(k, limit)
            assert len(got) <= limit
            seen = set()
            for q in got:
                assert not seen & set(q.vertices)
                seen |= set(q.vertices)


# ---------------------------------------------------------------------------
# the matching test at odd moduli
# ---------------------------------------------------------------------------

K4_EDGES = list(combinations(range(4), 2))  # ab, ac, ad, bc, bd, cd


def k4_switcher_verdicts(colorings, m):
    """_subset_switcher's verdict on K_4 for each row of six edge colors,
    given in the order of K4_EDGES."""
    out = []
    for row in colorings:
        mat = np.zeros((4, 4), dtype=np.int16)
        for (u, v), c in zip(K4_EDGES, row):
            mat[u, v] = mat[v, u] = c
        out.append(_subset_switcher(ColoredClique(4, m, mat), (0, 1, 2, 3))
                   is not None)
    return out


@pytest.mark.parametrize("m", [3, 5])
def test_matching_test_is_the_switcher_test_at_odd_moduli(m):
    colorings = np.array(list(product(range(m), repeat=6)), dtype=np.int16)
    got = _two_colored_matching(*colorings.T)
    assert got.tolist() == k4_switcher_verdicts(colorings, m)
    # switcher-free exactly when ab = cd, ac = bd and ad = bc
    assert np.count_nonzero(~got) == m ** 3


def test_matching_test_on_a_sample_at_modulus_9():
    # 2 is a unit mod 9 though 9 is no prime; sample i copies ab, ac, ad
    # onto cd, bd, bc as the bits of i % 8 say, so every eighth sample has
    # no two-colored matching
    stream = splitmix64(9)
    rows = []
    for i in range(20_000):
        ab, ac, ad, bc, bd, cd = (next(stream) % 9 for _ in range(6))
        cd = ab if i & 1 else cd
        bd = ac if i & 2 else bd
        bc = ad if i & 4 else bc
        rows.append((ab, ac, ad, bc, bd, cd))
    colorings = np.array(rows, dtype=np.int16)
    got = _two_colored_matching(*colorings.T)
    assert got.tolist() == k4_switcher_verdicts(colorings, 9)
    assert np.count_nonzero(~got) >= 2_500


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pairing_residue_test_is_the_switcher_test(m):
    colorings = np.array(list(product(range(m), repeat=6)), dtype=np.int16)
    assert (_unbalanced_pairing(m, *colorings.T).tolist()
            == k4_switcher_verdicts(colorings, m))


@pytest.mark.parametrize("m", [2, 4])
def test_cut_coloring_separates_the_tests_at_even_moduli(m):
    # the cut {a} | {b, c, d} in color m/2: every cycle crosses it twice,
    # so both pairing sums agree, yet the matching ab | cd is two-colored
    row = np.array([m // 2] * 3 + [0] * 3, dtype=np.int16)
    assert k4_switcher_verdicts([row], m) == [False]
    assert not _unbalanced_pairing(m, *row[:, None])[0]
    assert _two_colored_matching(*row)


# ---------------------------------------------------------------------------
# the packing walk against the whole-block walk it replaced
# ---------------------------------------------------------------------------

def reference_first_switcher(k, free):
    """The pick as first written: the free submatrix gathered whole, every
    later pair (c, d) of each (a, b) in one pass under the residue test of
    all three cycles and both pairings."""
    n = len(free)
    sub = k.matrix[np.ix_(free, free)].astype(np.int64)
    ci, di = np.triu_indices(n, 1)
    cd_all = sub[ci, di]
    if n < 4 or (cd_all == cd_all[0]).all():
        return None
    for a in range(n - 3):
        for b in range(a + 1, n - 2):
            off = (b + 1) * (n - 1) - b * (b + 1) // 2
            c, d = ci[off:], di[off:]
            ab, ac, ad = sub[a, b], sub[a, c], sub[a, d]
            bc, bd, cd = sub[b, c], sub[b, d], cd_all[off:]
            hit = np.zeros(len(c), dtype=bool)
            for e1, e2, e3, e4 in ((ab, bc, cd, ad), (ab, bd, cd, ac),
                                   (ac, bc, bd, ad)):
                hit |= (e1 + e2 - e3 - e4) % k.modulus != 0
                hit |= (e2 + e3 - e4 - e1) % k.modulus != 0
            if hit.any():
                j = int(np.argmax(hit))
                return _subset_switcher(
                    k, (free[a], free[b], free[c[j]], free[d[j]]))
    return None


def reference_packing(k, limit):
    out = []
    free = list(range(k.order))
    while len(out) < limit and (
            quad := reference_first_switcher(k, free)) is not None:
        out.append(quad)
        free = [v for v in free if v not in quad.vertices]
    return out


def assert_same_packing(k, limit):
    got = maximal_disjoint_switchers(k, limit)
    assert got == reference_packing(k, limit)
    for quad in got:  # Python ints, so reprs and hashes stay the same
        assert all(type(v) is int for v in quad.vertices)


@pytest.mark.parametrize("p, order, seeds", [(3, 17, 24), (5, 59, 8),
                                             (7, 125, 3), (13, 467, 1)])
def test_packing_matches_the_whole_block_walk(p, order, seeds):
    # guarantee-scale orders N = n + 9p - 12 with n = 3p^2 - 12p + 11;
    # below p = 13 also the packing that runs until no switcher is left
    for seed in range(seeds):
        for kind in ("random", "near_mono", "diagonal"):
            k = table_host(kind, p, order, 300 * p + seed)
            for limit in (p - 1, order) if p < 13 else (p - 1,):
                assert_same_packing(k, limit)


def test_packing_of_cut_colorings_matches_the_whole_block_walk():
    for order in (5, 9, 13, 22):
        for step in (2, 3, 5, order):
            k = cut_coloring(order, 2, [v % step == 0 for v in range(order)])
            for limit in (1, order):
                assert_same_packing(k, limit)
        for seed in range(6):
            assert_same_packing(random_coloring(order, 2, seed), order)


def sparse_recoloring(order, m, seed):
    """A one-colored K_order over Z_m with one to three edges recolored."""
    stream = splitmix64(seed)
    mat = np.full((order, order), next(stream) % m, dtype=np.int16)
    np.fill_diagonal(mat, 0)
    for _ in range(1 + next(stream) % 3):
        u = next(stream) % order
        v = (u + 1 + next(stream) % (order - 1)) % order
        mat[u, v] = mat[v, u] = next(stream) % m
    return ColoredClique(order, m, mat)


@pytest.mark.parametrize("m", [4, 9])
def test_packing_at_composite_moduli_matches_reference_greedy(m):
    for i in range(40):
        order = 4 + i % 9
        for k in (random_coloring(order, m, 800 + i),
                  sparse_recoloring(order, m, 800 + i)):
            for limit in (1, 3, order):
                assert (maximal_disjoint_switchers(k, limit)
                        == reference_greedy(k, limit))


def test_one_colored_remainder_ends_the_packing(monkeypatch):
    # the per-color edge counts must see the remainder turn one-colored, so
    # no walk runs after the last pick; the nonzero diagonals are no edges
    walks = []

    def counted(k, free, real=classify._first_switcher):
        walks.append(len(free))
        return real(k, free)

    monkeypatch.setattr(classify, "_first_switcher", counted)
    for p in (3, 5, 7):
        for seed in range(6):
            k = near_one_colored(8 * p, p, seed)
            mat = k.matrix.copy()
            np.fill_diagonal(mat, p - 1)
            for host in (k, ColoredClique(k.order, p, mat)):
                walks.clear()
                got = maximal_disjoint_switchers(host, host.order)
                assert got and len(walks) == len(got)


def test_packing_working_set_is_bounded():
    # near-one-colored K_1025 over Z_19, guarantee scale at p = 19: beside
    # the color-degree table and one of its bands, only one pass of at
    # most 2^13 pairs is live at a time; the whole-block walk peaked at
    # 44 MiB here
    k = near_one_colored(1025, 19, seed=1)
    tracemalloc.start()
    try:
        got = maximal_disjoint_switchers(k, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got
    assert peak < 4 * 2 ** 20


# ---------------------------------------------------------------------------
# dominant partitions
# ---------------------------------------------------------------------------

def test_dominant_partition_monochromatic():
    part = dominant_partition(mono(6, 2), 2)
    assert part.largest == Residue(0, 2)
    assert part.classes == {Residue(0, 2): tuple(range(6))}

    part = dominant_partition(mono(12, 3, color=2), 3)
    assert part.largest == Residue(2, 3)
    assert part.classes[Residue(2, 3)] == tuple(range(12))


def test_dominant_partition_five_one_split():
    # all edges color 0 except vertex 5 sees color 1 on four of its five
    m = np.zeros((6, 6), dtype=np.int16)
    for i in range(4):
        m[i, 5] = m[5, i] = 1
    k = ColoredClique(6, 2, m)
    part = dominant_partition(k, 2)
    assert part.classes[Residue(0, 2)] == (0, 1, 2, 3, 4)
    assert part.classes[Residue(1, 2)] == (5,)
    assert part.largest == Residue(0, 2)


def test_dominant_partition_tie_breaks_low():
    k = pair_clique(4, 2, {
        (0, 1): 0, (0, 2): 1, (0, 3): 0,
        (1, 2): 0, (1, 3): 1, (2, 3): 1})
    part = dominant_partition(k, 2)
    assert part.classes[Residue(0, 2)] == (0, 1)
    assert part.classes[Residue(1, 2)] == (2, 3)
    assert part.largest == Residue(0, 2)


def test_dominant_partition_balanced_vertex_fails():
    # K_4 at p = 3: the threshold 4 - 5 admits every color
    k = pair_clique(4, 3, {
        (0, 1): 0, (0, 2): 1, (0, 3): 2,
        (1, 2): 2, (1, 3): 1, (2, 3): 0})
    with pytest.raises(NoDominantColor) as err:
        dominant_partition(k, 3)
    assert err.value.vertex == 0
    assert str(err.value) == "vertex 0 has 3 colors at count >= -1"
    # K_6 at p = 2, threshold 4: vertices 0 and 1 keep four 0s, vertex 5
    # sees three 0s and two 1s, so it is the first with no dominant color
    k = pair_clique(6, 2, {(0, 5): 1, (1, 5): 1})
    with pytest.raises(NoDominantColor) as err:
        dominant_partition(k, 2)
    assert err.value.vertex == 5
    assert str(err.value) == "vertex 5 has 0 colors at count >= 4"


def build_dominant_instance(order, p, seed):
    """Random coloring guaranteed to admit a dominant partition.

    Class sizes: one big class plus smaller ones totalling at most 3p-5;
    cross edges take the color of the smaller side, so every vertex keeps
    its foreign degree under the tolerance.
    """
    stream = splitmix64(seed)
    slack = 3 * p - 4
    budget = slack - 1
    sizes = []
    while budget - sum(sizes) > 0 and len(sizes) < p - 1:
        if next(stream) % 3 == 0:
            break
        sizes.append(1 + next(stream) % max(1, budget - sum(sizes)))
    sizes.append(order - sum(sizes))
    sizes.sort()
    colors = sorted({next(stream) % p for _ in range(len(sizes))})
    while len(colors) < len(sizes):
        colors = sorted(set(colors) | {next(stream) % p})
    verts = list(range(order))
    for i in range(order - 1, 0, -1):  # seeded shuffle
        j = next(stream) % (i + 1)
        verts[i], verts[j] = verts[j], verts[i]
    assign = {}
    expect = {}
    pos = 0
    for size, color in zip(sizes, colors):
        members = verts[pos:pos + size]
        for v in members:
            assign[v] = (size, color)
        expect[color] = tuple(sorted(members))
        pos += size
    m = np.zeros((order, order), dtype=np.int16)
    for u in range(order):
        for v in range(u + 1, order):
            cu, cv = assign[u], assign[v]
            c = min(cu, cv)[1]  # smaller class wins; sizes are distinct keys
            m[u, v] = m[v, u] = c
    return ColoredClique(order, p, m), expect


def test_dominant_partition_recovers_planted_classes():
    for p in (2, 3, 5):
        slack = 3 * p - 4
        for i in range(200):
            order = 2 * slack + 2 + i % 10
            k, expect = build_dominant_instance(order, p, seed=31 * p + i)
            part = dominant_partition(k, p)
            got = {r.value: vs for r, vs in part.classes.items()}
            assert got == expect
            sizes = sorted(len(v) for v in part.classes.values())
            assert len(part.classes[part.largest]) == sizes[-1]


def test_dominant_partition_quadratic_counting():
    # planted instances satisfy the two counting consequences
    for p in (2, 3):
        slack = 3 * p - 4
        for i in range(300):
            order = 2 * slack + 2 + i % 12
            k, _ = build_dominant_instance(order, p, seed=777 * p + i)
            part = dominant_partition(k, p)
            sq = sum(len(v) ** 2 for v in part.classes.values())
            biggest = max(len(v) for v in part.classes.values())
            assert sq >= order * order - 2 * slack * order
            assert biggest >= order - 2 * slack
