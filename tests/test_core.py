"""Core-type tests: builders, residues, cliques, embeddings, and the two
greedy selectors with their frozen examples and seeded property loops."""

import numpy as np
import pytest

from zsforest import (ColoredClique, CyclicInput, DuplicateEdge, Embedding,
                      Forest, IndexOutOfRange, InsufficientTriples, NotBushy,
                      Residue, SimpleGraph, build_forest, build_graph,
                      edge_sum, is_bushy, is_prime, select_degree2_triples,
                      select_leaf_families)
from zsforest.patterns import forest_of_paths, matching, path, spider, star
from zsforest.randomgen import (near_one_colored, random_bushy_tree,
                                random_coloring, random_forest, random_tree,
                                splitmix64)


# ---------------------------------------------------------------------------
# builders and validation
# ---------------------------------------------------------------------------

def test_build_forest_rejects_bad_input():
    with pytest.raises(IndexOutOfRange):
        build_forest(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        build_forest(3, [(-1, 1)])
    with pytest.raises(CyclicInput):
        build_forest(3, [(1, 1)])
    with pytest.raises(CyclicInput):
        build_forest(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(DuplicateEdge):
        build_forest(3, [(0, 1), (1, 0)])


def test_isolated_vertices_stripped_with_label_map():
    f = build_forest(6, [(1, 4), (4, 5)])
    assert f.n == 3
    assert f.stripped == 3
    assert f.original_labels == (1, 4, 5)
    assert sorted(f.edges) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# one pattern type: SimpleGraph, with Forest as its acyclic subtype
# ---------------------------------------------------------------------------

C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_forest_is_the_acyclic_simple_graph():
    assert isinstance(path(4), SimpleGraph)
    c4 = build_graph(4, C4_EDGES)
    assert isinstance(c4, SimpleGraph) and not isinstance(c4, Forest)
    with pytest.raises(CyclicInput):
        build_forest(4, C4_EDGES)


@pytest.mark.parametrize("n, edges, components, degrees, neighbors", [
    # C_4
    (4, C4_EDGES, [[0, 1, 2, 3]], (2, 2, 2, 2), {0: (1, 3), 2: (1, 3)}),
    # K_4
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
     [[0, 1, 2, 3]], (3, 3, 3, 3), {0: (1, 2, 3), 2: (0, 1, 3)}),
    # two disjoint triangles, on interleaved labels
    (6, [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)],
     [[0, 2, 4], [1, 3, 5]], (2,) * 6, {0: (2, 4), 3: (1, 5)}),
])
def test_graph_structure_hand_computed(n, edges, components, degrees,
                                       neighbors):
    g = build_graph(n, edges)
    assert g.n == n and g.edge_count == len(edges)
    assert g.components() == components
    assert g.degrees == degrees
    for v, nb in neighbors.items():
        assert g.neighbors(v) == nb


def test_forest_never_equals_graph_with_same_edges():
    edges = [(0, 1), (1, 2), (1, 3)]
    f, g = build_forest(4, edges), build_graph(4, edges)
    assert f.sorted_edges() == g.sorted_edges()
    assert f != g and g != f
    assert len({f, g}) == 2
    for same in (build_forest(4, edges[::-1]), build_graph(4, edges[::-1])):
        original = f if isinstance(same, Forest) else g
        assert same == original and hash(same) == hash(original)
    c4, c4_again = build_graph(4, C4_EDGES), build_graph(4, C4_EDGES[::-1])
    assert c4 == c4_again and hash(c4) == hash(c4_again)


def test_forest_accessors():
    f = path(5)
    assert f.degrees == (1, 2, 2, 2, 1)
    assert f.leaves() == [0, 4]
    assert f.degree2_vertices() == [1, 2, 3]
    assert f.neighbors(2) == (1, 3)
    assert f.components() == [[0, 1, 2, 3, 4]]
    assert matching(3).components() == [[0, 1], [2, 3], [4, 5]]


def test_handshake_on_random_forests():
    for i in range(300):
        f = random_forest(4 + i % 30, 1 + i % 3, seed=i)
        assert sum(f.degrees) == 2 * f.edge_count


def test_residue_arithmetic():
    with pytest.raises(ValueError):
        Residue(5, 5)
    with pytest.raises(ValueError):
        Residue(0, 1)


def test_is_prime():
    assert [n for n in range(30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_clique_rejects_bad_matrices():
    m = np.zeros((3, 3), dtype=np.int16)
    m[0, 1] = 1  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        ColoredClique(3, 2, m)
    m[1, 0] = 1
    c = ColoredClique(3, 2, m)
    assert c.order == 3 and c.value(1, 0) == 1
    with pytest.raises(IndexOutOfRange):
        c.value(1, 1)
    for bad in (2, -1):  # a color >= modulus, a negative color
        for u, v in ((0, 2), (1, 1)):  # an edge, the unused diagonal
            m2 = m.copy()
            m2[u, v] = m2[v, u] = bad
            with pytest.raises(ValueError, match="colors must lie"):
                ColoredClique(3, 2, m2)
    with pytest.raises(ValueError, match="shape"):
        ColoredClique(4, 2, m)
    # a color that int16 cannot hold is range-checked before the cast, and
    # no modulus admits one
    big = np.zeros((3, 3), dtype=np.int64)
    big[0, 1] = big[1, 0] = 2 ** 15
    with pytest.raises(ValueError, match="colors must lie"):
        ColoredClique(3, 2, big)
    top = np.full((3, 3), 2 ** 15 - 1)
    np.fill_diagonal(top, 0)
    assert ColoredClique(3, 2 ** 15, top).value(0, 1) == 2 ** 15 - 1
    with pytest.raises(ValueError, match="modulus must be in"):
        ColoredClique(3, 2 ** 15 + 1, big)


def test_clique_colors_are_read_only():
    src = np.zeros((4, 4), dtype=np.int16)
    own = ColoredClique(4, 2, src)
    src[0, 1] = src[1, 0] = 1  # edits to the caller's array do not leak in
    assert own.value(0, 1) == 0
    for k in (own, random_coloring(6, 3, seed=5).induced([1, 2, 4])[0]):
        with pytest.raises(ValueError):
            k.matrix[0, 1] = 1


def test_induced_subclique_relabels():
    c = random_coloring(7, 5, seed=3)
    sub, labels = c.induced([5, 1, 3])
    assert labels == (1, 3, 5)
    for i, gi in enumerate(labels):
        for j, gj in enumerate(labels):
            if i != j:
                assert sub.value(i, j) == c.value(gi, gj)


def test_induced_matches_the_ix_gather():
    rng = np.random.default_rng(11)
    for host in (random_coloring(40, 7, seed=5), near_one_colored(40, 7, 5),
                 random_coloring(9, 3, seed=0)):
        for size in (1, 2, 3, 8, host.order):
            labels = sorted(rng.choice(host.order, size, replace=False))
            sub, got = host.induced(labels)
            idx = np.array(labels)
            assert got == tuple(labels)
            assert np.array_equal(sub.matrix, host.matrix[np.ix_(idx, idx)])


def test_embedding_validation():
    host = random_coloring(5, 3, seed=0)
    f = path(3)
    emb = Embedding(pattern=f, host=host, mapping=(4, 2, 0))
    assert emb.is_injective()
    assert not Embedding(f, host, (1, 1, 2)).is_injective()
    with pytest.raises(ValueError):
        Embedding(f, host, (0, 1))
    with pytest.raises(IndexOutOfRange):
        Embedding(f, host, (0, 1, 5))


def test_edge_sum_identity_into_monochromatic_clique():
    # sum over a one-color clique is color times edge count
    for p in (2, 3, 5, 7):
        for i in range(50):
            f = random_forest(4 + i % 12, 1 + i % 2, seed=97 * p + i)
            c = (i * 11) % p
            mat = np.full((f.n, f.n), c, dtype=np.int16)
            np.fill_diagonal(mat, 0)
            host = ColoredClique(f.n, p, mat)
            emb = Embedding(f, host, tuple(range(f.n)))
            assert edge_sum(emb).value == (c * f.edge_count) % p


# ---------------------------------------------------------------------------
# bushiness and leaf families
# ---------------------------------------------------------------------------

def test_is_bushy_examples():
    assert is_bushy(star(4), 3)          # 4 leaves >= 4
    assert not is_bushy(path(5), 3)      # 2 leaves < 4
    for i in range(20):
        f = random_forest(4 + i, 1 + i % 2, seed=i)
        assert is_bushy(f, 2)            # any forest with an edge, p=2


def test_leaf_families_frozen_examples():
    lf = select_leaf_families(star(4), 3)
    assert lf.parents == (0,)
    assert lf.counts == (2,)
    assert lf.selected == ((1, 2),)

    lf = select_leaf_families(matching(2), 2)
    assert lf.parents == (1,)
    assert lf.counts == (1,)
    assert lf.selected == ((0,),)

    two_claws = build_forest(
        8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    lf = select_leaf_families(two_claws, 3)
    assert lf.parents == (0,)
    assert lf.counts == (2,)
    assert lf.selected == ((1, 2),)


def test_leaf_families_requires_bushy():
    with pytest.raises(NotBushy):
        select_leaf_families(path(5), 3)


def _check_leaf_family_invariants(f, p, lf):
    assert sum(lf.counts) == p - 1
    assert all(c >= 1 for c in lf.counts)
    assert len(lf.parents) == len(lf.counts) == len(lf.selected)
    assert list(lf.parents) == sorted(set(lf.parents))
    chosen = [v for grp in lf.selected for v in grp]
    assert len(set(chosen)) == len(chosen)
    for parent, count, group in zip(lf.parents, lf.counts, lf.selected):
        assert len(group) == count
        assert parent not in chosen
        for leaf in group:
            assert f.degree(leaf) == 1
            assert f.neighbors(leaf) == (parent,)


def test_leaf_families_invariants_seeded():
    for p in (2, 3, 5, 7):
        for i in range(1000):
            n = 6 * p + i % 25
            f = random_bushy_tree(n, p, seed=1_000_000 * p + i)
            lf = select_leaf_families(f, p)
            _check_leaf_family_invariants(f, p, lf)
            assert select_leaf_families(f, p) == lf


def test_leaf_families_on_bushy_multicomponent_forests():
    hits = 0
    for p in (3, 5):
        for i in range(300):
            f = random_forest(8 * p, 1 + i % 4, seed=31 * p + i)
            if not is_bushy(f, p):
                continue
            hits += 1
            _check_leaf_family_invariants(f, p, select_leaf_families(f, p))
    assert hits > 100


# ---------------------------------------------------------------------------
# degree-2 census and triples
# ---------------------------------------------------------------------------

def test_degree_count_examples():
    assert path(10).degree_count(2) == 8
    assert star(4).degree_count(2) == 0


def test_degree2_triples_frozen_examples():
    assert select_degree2_triples(path(10), 3) == ((1, (0, 2)), (4, (3, 5)))
    assert select_degree2_triples(path(4), 2) == ((1, (0, 2)),)

    with pytest.raises(InsufficientTriples):
        select_degree2_triples(star(4), 3)


def _check_triple_invariants(f, p, t):
    assert len(t) == p - 1
    seen = set()
    for v, (lo, hi) in t:
        assert f.degree(v) == 2
        assert (lo, hi) == f.neighbors(v)
        assert lo < hi
        group = {v, lo, hi}
        assert not group & seen
        seen |= group


def test_degree2_triples_invariants_seeded():
    succeeded = 0
    for p in (2, 3, 5):
        for i in range(400):
            if i % 2:
                f = random_forest(10 * p, 1 + i % 3, seed=7_000 * p + i)
            else:
                lengths = [4 + (i + j) % 5 for j in range(1 + i % 3)]
                f = forest_of_paths(lengths)
            try:
                t = select_degree2_triples(f, p)
            except InsufficientTriples:
                continue
            succeeded += 1
            _check_triple_invariants(f, p, t)
    assert succeeded > 500


def test_spider_has_nonadjacent_triples():
    # legs of length 3: one interior degree-2 vertex per leg is selectable
    f = spider(3, 3, 3, 3)
    t = select_degree2_triples(f, 5)
    _check_triple_invariants(f, 5, t)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def test_splitmix64_reference_vector():
    s = splitmix64(0)
    assert [next(s) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_random_tree_is_tree_and_deterministic():
    for i in range(100):
        n = 2 + i % 20
        f = random_tree(n, seed=i)
        assert f.n == n
        assert f.edge_count == n - 1
        assert f == random_tree(n, seed=i)


def test_random_forest_component_count():
    for i in range(100):
        comps = 1 + i % 4
        f = random_forest(3 * comps + i % 5, comps, seed=i)
        assert len(f.components()) == comps


def test_random_coloring_deterministic_and_in_range():
    a = random_coloring(10, 7, seed=5)
    b = random_coloring(10, 7, seed=5)
    assert a == b
    assert a.matrix.min() >= 0 and a.matrix.max() < 7
    assert not np.array_equal(a.matrix, random_coloring(10, 7, seed=6).matrix)
