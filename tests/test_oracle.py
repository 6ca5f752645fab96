"""Exhaustive-engine tests: frozen small Ramsey values, cross-checks between
the backtracker and the block scan, checkpointing, budgets, closed forms."""

import numpy as np
import pytest

from zsforest import (BudgetExceeded, CheckpointMismatch, ColoredClique,
                      DivisibilityViolation, brute_zero_sum, build_forest,
                      build_graph, compute_ramsey, edge_sum, exact_z2,
                      exact_z3, unavoidable)
from zsforest.oracle import (_Enumeration, _subgraph_copies, read_checkpoint,
                             scan_colorings, write_checkpoint)


def path(n):
    return build_forest(n, [(i, i + 1) for i in range(n - 1)])


def star(m):
    return build_forest(m + 1, [(0, i) for i in range(1, m + 1)])


def matching(j):
    return build_forest(2 * j, [(2 * i, 2 * i + 1) for i in range(j)])


C4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


# ---------------------------------------------------------------------------
# frozen values from full enumeration
# ---------------------------------------------------------------------------

def test_ramsey_c4_z2():
    r = compute_ramsey(C4, 2, 8)
    assert r.value == 4
    assert r.limit is None
    # the value equals the pattern order, so the witness is the all-zero
    # clique one vertex below
    assert r.witness_coloring.order == 3
    assert not r.witness_coloring.matrix.any()


def test_ramsey_2k2_z2():
    r = compute_ramsey(matching(2), 2, 8)
    assert r.value == 5
    assert r.witness_coloring.order == 4
    # the witness really avoids zero-sum 2K2
    assert brute_zero_sum(matching(2), r.witness_coloring) is None


def test_ramsey_p4_z3():
    r = compute_ramsey(path(4), 3, 8)
    assert r.value == 5 == exact_z3(path(4))
    assert brute_zero_sum(path(4), r.witness_coloring) is None


def test_ramsey_claw_z3():
    r = compute_ramsey(star(3), 3, 8)
    assert r.value == 6 == exact_z3(star(3))
    assert r.witness_coloring.order == 5


def test_unavoidable_thresholds():
    assert not unavoidable(matching(2), 4, 2)
    assert unavoidable(matching(2), 5, 2)
    assert not unavoidable(path(4), 4, 3)
    assert unavoidable(path(4), 5, 3)


def test_unavoidable_vacuous_below_pattern_order():
    res = scan_colorings(matching(2), 3, 2)
    assert not res.unavoidable
    assert res.witness_counter == 0
    assert res.colorings_checked == 0
    assert not res.witness.matrix.any()


# ---------------------------------------------------------------------------
# enumeration mechanics
# ---------------------------------------------------------------------------

def test_counter_is_lexicographic_and_witness_is_lowest():
    # recompute the first avoidable coloring of K_4 / Z_2 for 2K2 by hand
    enum = _Enumeration(4, 2, False)
    first = None
    for c in range(enum.total):
        if brute_zero_sum(matching(2), enum.coloring_at(c)) is None:
            first = c
            break
    res = scan_colorings(matching(2), 4, 2)
    assert res.witness_counter == first
    assert res.colorings_checked == first + 1
    assert brute_zero_sum(matching(2), res.witness) is None


def test_colors_block_matches_digit_expansion():
    enum = _Enumeration(4, 3, False)
    block = enum.colors_block(0, enum.total)
    for c in (0, 1, 5, 100, 728):
        digits = []
        x = c
        for _ in range(6):
            digits.append(x % 3)
            x //= 3
        assert list(block[c]) == digits[::-1]


def test_symmetry_reduction_sound_and_smaller():
    # every (pattern, order, modulus) whose full space fits in 1e5 colorings
    patterns = [matching(2), path(3), path(4), star(3), C4]
    spaces = [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (4, 5)]
    for order, k in spaces:
        assert k ** (order * (order - 1) // 2) <= 10 ** 5
        for g in patterns:
            if g.n > order:
                continue
            full = scan_colorings(g, order, k)
            red = scan_colorings(g, order, k, reduce_symmetry=True)
            assert full.unavoidable == red.unavoidable, (g, order, k)
            assert red.enumerated_space < full.enumerated_space
            if not full.unavoidable:
                assert brute_zero_sum(g, red.witness) is None


def test_jobs_do_not_change_results():
    a = scan_colorings(path(4), 5, 3, jobs=1)
    b = scan_colorings(path(4), 5, 3, jobs=2)
    assert a.unavoidable == b.unavoidable
    assert a.witness_counter == b.witness_counter
    assert a.colorings_checked == b.colorings_checked
    c = scan_colorings(matching(2), 4, 2, jobs=3)
    d = scan_colorings(matching(2), 4, 2, jobs=1)
    assert c.witness_counter == d.witness_counter
    assert c.colorings_checked == d.colorings_checked


def test_scan_agrees_with_backtracker_everywhere():
    enum = _Enumeration(4, 3, False)
    copies = _subgraph_copies(path(4), 4)
    colors = enum.colors_block(0, enum.total)
    hit = np.zeros(enum.total, dtype=bool)
    for row in copies:
        hit |= (colors[:, row].sum(axis=1) % 3) == 0
    for c in range(enum.total):
        emb = brute_zero_sum(path(4), enum.coloring_at(c))
        assert (emb is not None) == bool(hit[c])
        if emb is not None:
            assert emb.is_injective()
            assert edge_sum(emb).value == 0


def test_subgraph_copy_counts():
    # distinct edge sets: 3 perfect matchings and 3 four-cycles in K_4,
    # 12 paths on 4 vertices
    assert len(_subgraph_copies(matching(2), 4)) == 3
    assert len(_subgraph_copies(C4, 4)) == 3
    assert len(_subgraph_copies(path(4), 4)) == 12
    assert len(_subgraph_copies(star(3), 4)) == 4


# ---------------------------------------------------------------------------
# budget, limits, checkpoints
# ---------------------------------------------------------------------------

def test_budget_refuses_oversized_spaces():
    with pytest.raises(BudgetExceeded):
        scan_colorings(matching(2), 5, 2, budget=1000)
    r = compute_ramsey(matching(2), 2, 8, budget=100)
    assert r.value is None
    assert r.limit == "budget"


def test_max_n_limit_keeps_last_witness():
    r = compute_ramsey(matching(2), 2, 4)
    assert r.value is None
    assert r.limit == "max_n"
    assert r.witness_coloring.order == 4
    assert brute_zero_sum(matching(2), r.witness_coloring) is None


def test_divisibility_checked_up_front():
    with pytest.raises(DivisibilityViolation):
        compute_ramsey(path(3), 3, 6)
    with pytest.raises(DivisibilityViolation):
        exact_z2(path(4))
    with pytest.raises(DivisibilityViolation):
        exact_z3(matching(2))


def test_checkpoint_roundtrip_and_resume(tmp_path):
    cp = str(tmp_path / "scan.ckpt")
    r1 = scan_colorings(path(4), 5, 3, checkpoint=cp)
    assert r1.unavoidable
    counter, fp = read_checkpoint(cp)
    assert counter == 3 ** 10
    # resume from a completed checkpoint: verdict stands, nothing rescanned
    r2 = scan_colorings(path(4), 5, 3, checkpoint=cp)
    assert r2.unavoidable
    assert r2.colorings_checked == 0


def test_checkpoint_partial_resume(tmp_path):
    cp = str(tmp_path / "scan.ckpt")
    fullspace = 3 ** 10
    # run once to learn the fingerprint, then rewind the file halfway
    scan_colorings(path(4), 5, 3, checkpoint=cp)
    _, fp = read_checkpoint(cp)
    write_checkpoint(cp, fullspace // 2, fp)
    r = scan_colorings(path(4), 5, 3, checkpoint=cp)
    assert r.unavoidable
    assert r.colorings_checked == fullspace - fullspace // 2


def test_checkpoint_fingerprint_mismatch(tmp_path):
    cp = str(tmp_path / "scan.ckpt")
    scan_colorings(path(4), 5, 3, checkpoint=cp)
    with pytest.raises(CheckpointMismatch):
        scan_colorings(star(3), 5, 3, checkpoint=cp)
    with pytest.raises(CheckpointMismatch):
        scan_colorings(path(4), 5, 3, reduce_symmetry=True, checkpoint=cp)


def test_checkpoint_malformed(tmp_path):
    cp = tmp_path / "scan.ckpt"
    cp.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointMismatch):
        scan_colorings(path(4), 5, 3, checkpoint=str(cp))


# ---------------------------------------------------------------------------
# backtracker details
# ---------------------------------------------------------------------------

def test_brute_returns_lexicographic_minimum():
    # all-zero K_5: the first P_4 placement (0,1,2,3) already sums to zero
    host = ColoredClique(5, 3, np.zeros((5, 5), dtype=np.int16))
    emb = brute_zero_sum(path(4), host)
    assert emb.mapping == (0, 1, 2, 3)


def test_brute_modulus_must_match_host():
    host = ColoredClique(4, 3, np.zeros((4, 4), dtype=np.int16))
    with pytest.raises(ValueError):
        brute_zero_sum(path(4), host, p=2)


def test_brute_pattern_larger_than_host():
    host = ColoredClique(3, 2, np.zeros((3, 3), dtype=np.int16))
    assert brute_zero_sum(matching(2), host) is None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_exact_z2_known_values():
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert exact_z2(k4) == 6              # complete, 4 = 0 mod 4
    assert exact_z2(matching(2)) == 5     # all degrees odd
    assert exact_z2(path(3)) == 3         # plain case
    assert exact_z2(path(5)) == 5


def test_exact_z2_two_cliques_rule():
    # K_4 with a pendant edge is none of the special shapes
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (4, 5), (3, 4)])
    assert exact_z2(g) == 6
    # K_3 + K_3: binomial(3,2) twice sums to 6, not divisible by 4
    g2 = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert exact_z2(g2) == 6
    # K_2 + K_5: 1 + 10 = 11 odd -> divisibility fails entirely
    # K_4 + K_4: 6 + 6 = 12, 12 % 4 != 0 -> plain; all degrees odd -> n+1
    k4k4 = build_graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                       + [(u + 4, v + 4) for u in range(4)
                          for v in range(u + 1, 4)])
    assert exact_z2(k4k4) == 9


def test_exact_z2_agrees_with_enumeration():
    # every graph on at most 4 vertices, no isolated vertices, even edges
    import itertools
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1, 2 ** 6):
        edges = [pairs[i] for i in range(6) if bits >> i & 1]
        if len(edges) % 2:
            continue
        touched = {w for e in edges for w in e}
        g = build_graph(4, edges)
        if g.n != len(touched):
            continue
        r = compute_ramsey(g, 2, 8)
        assert r.value == exact_z2(g), (edges, r.value, exact_z2(g))


def test_exact_z2_same_on_forest_and_graph():
    forests = [path(3), path(5), star(4), matching(2), matching(4),
               build_forest(7, [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6),
                                (4, 6)])]
    for f in forests:
        g = build_graph(f.n, f.sorted_edges())
        assert g != f
        assert exact_z2(g) == exact_z2(f), f.sorted_edges()


def test_oracle_rejects_bare_edge_lists():
    edges = [(0, 1), (1, 2)]
    host = ColoredClique(4, 2, np.zeros((4, 4), dtype=np.int16))
    with pytest.raises(TypeError):
        brute_zero_sum(edges, host)
    with pytest.raises(TypeError):
        scan_colorings(edges, 4, 2)
    with pytest.raises(TypeError):
        exact_z2(edges)


def test_exact_z3_known_values():
    assert exact_z3(path(4)) == 5
    assert exact_z3(star(3)) == 6
    assert exact_z3(matching(3)) == 8     # every degree is 1 mod 3
    spider = build_forest(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert exact_z3(spider) == 7          # plain case
    # double star: one degree 3, one degree 4, six leaves; exactly one degree
    # divisible by 3, the rest are 1 mod 3, and it is not a star
    dstar = build_forest(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6)])
    assert tuple(sorted(dstar.degrees)) == (1, 1, 1, 1, 1, 3, 4)
    assert exact_z3(dstar) == 8
    # P_3 + K_2: degrees 1,2,1,1,1 -> no multiples of 3 -> n+1
    g = build_forest(5, [(0, 1), (1, 2), (3, 4)])
    assert exact_z3(g) == 6


def test_exact_z3_agrees_with_enumeration():
    g = build_forest(5, [(0, 1), (1, 2), (3, 4)])
    r = compute_ramsey(g, 3, 8)
    assert r.value == exact_z3(g) == 6
