"""Constructive cases: hand-traced fixtures, certificate audits, dispatch
order, and seeded soundness sweeps cross-checked against the oracle."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from zsforest import (DivisibilityViolation, InsufficientTriples,
                      NoDominantColor, NotBushy, PreconditionFailed, Residue,
                      brute_zero_sum, dominant_partition, edge_sum,
                      find_zero_sum_copy, is_bushy,
                      maximal_disjoint_switchers, select_leaf_families,
                      star_lower_bound_coloring, verify_report,
                      vibrant_vertices)
from zsforest import embedder, selftest
from zsforest.classify import ColorfulWitness, SwitcherQuad
from zsforest.core import ColoredClique, Embedding
from zsforest.embedder import (CASE_BUSHY_NONVIBRANT, CASE_BUSHY_VIBRANT,
                               CASE_FALLBACK, CASE_NONBUSHY_NONSWITCHABLE,
                               CASE_NONBUSHY_SWITCHABLE, CaseReport,
                               GreedyStuck, MonochromaticityViolated,
                               MonoSubcliqueCert, NoZeroSumCopy,
                               SelectionExhausted, SwitcherCert,
                               embed_bushy_nonvibrant, embed_bushy_vibrant,
                               embed_nonbushy_nonswitchable,
                               embed_nonbushy_switchable, select_target_sets)
from zsforest.patterns import forest_of_paths, matching, path, spider, star
from zsforest.randomgen import (near_one_colored, random_coloring,
                                random_forest, random_tree)
from zsforest.selftest import _finder_vs_oracle_instances


def mono_clique(order, p, color=0):
    m = np.full((order, order), color, dtype=np.int64)
    np.fill_diagonal(m, 0)
    return ColoredClique(order, p, m)


def clique_with(order, p, recolored):
    m = np.zeros((order, order), dtype=np.int64)
    for (u, v), c in recolored.items():
        m[u, v] = m[v, u] = c
    return ColoredClique(order, p, m)


# --- hand-traced fixtures ---------------------------------------------------


def test_switcher_hand_example():
    """K_5 all zero except (0,1)=1: the lone switcher forces the path center
    onto the diagonal that cancels the fixed sum."""
    k = clique_with(5, 2, {(0, 1): 1})
    r = embed_nonbushy_switchable(path(4), k, 2)
    assert r.case_used == CASE_NONBUSHY_SWITCHABLE
    assert r.embedding.mapping == (2, 3, 0, 4)
    assert edge_sum(r.embedding).value == 0
    assert verify_report(r)
    # the quad is the canonical rotation of {0,1,2,3}
    assert r.auxiliary.quads[0].vertices == (1, 2, 3, 0)
    # the rejected diagonal placement (center on d1=1) sums to 1, not 0
    alt = (2, 1, 0, 4)
    s = sum(k.value(alt[u], alt[v]) for u, v in path(4).edges) % 2
    assert s == 1


def test_switcher_pins_and_free_hosts():
    # two poison edges give two disjoint switchers at p=3
    k = clique_with(16, 3, {(0, 1): 1, (8, 9): 1})
    quads = maximal_disjoint_switchers(k, 2)
    assert [q.vertices for q in quads] == [(1, 2, 3, 0), (5, 8, 9, 4)]
    r = embed_nonbushy_switchable(path(7), k, 3)
    # triples (1,(0,2)) and (4,(3,5)): ends pinned on d2/d4, lone rest
    # vertex 6 takes the lowest off-quad host
    assert r.embedding.mapping == (2, 3, 0, 8, 5, 4, 6)
    assert verify_report(r)


def test_switcher_preconditions():
    k = mono_clique(8, 3)
    with pytest.raises(PreconditionFailed):
        embed_nonbushy_switchable(path(7), k, 3)  # no switchers
    k2 = clique_with(16, 3, {(0, 1): 1, (8, 9): 1})
    with pytest.raises(PreconditionFailed):
        embed_nonbushy_switchable(star(6), k2, 3)  # star has no degree-2 triples
    with pytest.raises(PreconditionFailed):
        # host too small: needs n + p - 1 = 9
        embed_nonbushy_switchable(path(7), clique_with(8, 3, {(0, 1): 1}), 3)


def test_vibrant_hand_example():
    """Mono K_7 plus one recolored edge: vertices 5 and 6 become 1-colorful
    (witness color 0), and the single selected leaf resolves to the
    same-color target."""
    f = forest_of_paths([3, 2])
    assert sorted(f.leaves()) == [0, 2, 3, 4]
    k = clique_with(7, 2, {(5, 6): 1})
    r = embed_bushy_vibrant(f, k, 2)
    assert r.case_used == CASE_BUSHY_VIBRANT
    assert r.embedding.mapping == (0, 5, 1, 2, 3)
    assert verify_report(r)
    assert brute_zero_sum(f, k, 2) is not None


def test_vibrant_star_p3():
    # K_{1,6} on seeded K_9 colorings; first two workable seeds
    f = star(6)
    hits = 0
    for seed in range(40):
        k = random_coloring(9, 3, seed)
        try:
            r = embed_bushy_vibrant(f, k, 3)
        except (PreconditionFailed, SelectionExhausted):
            continue
        assert verify_report(r)
        assert edge_sum(r.embedding).value == 0
        assert brute_zero_sum(f, k, 3) is not None
        hits += 1
        if hits == 2:
            break
    assert hits == 2


def test_vibrant_preconditions():
    with pytest.raises(PreconditionFailed):
        embed_bushy_vibrant(path(5), mono_clique(9, 2), 2)  # no colorful vertex
    with pytest.raises(PreconditionFailed):
        embed_bushy_vibrant(path(7), random_coloring(22, 3, 1), 3)  # not bushy
    with pytest.raises(PreconditionFailed):
        # bushy and likely vibrant, but order 7 < n + p - 1 = 8
        embed_bushy_vibrant(star(6), random_coloring(7, 3, 0), 3)


def test_select_target_sets_minimal():
    k = clique_with(4, 2, {(0, 1): 1})
    fam = select_leaf_families(matching(2), 2)
    wits = vibrant_vertices(k, 2)
    t = select_target_sets(k, wits[:1], fam)
    u = t.parent_hosts[fam.parents[0]]
    assert u == wits[0].vertex
    assert len(t.same_color) == len(t.other_color) == 1
    (xs,), (ys,) = t.same_color, t.other_color
    assert len(xs) == len(ys) == 1
    assert k.value(u, xs[0]) == wits[0].color.value
    assert k.value(u, ys[0]) != wits[0].color.value


def test_select_target_sets_audit_k22():
    """Seeded vibrant colorings of K_22: constructed sets always satisfy the
    disjointness and color invariants."""
    audited = 0
    for seed in range(60):
        f = random_tree(12, seed)
        if not is_bushy(f, 3):
            continue
        k = random_coloring(22, 3, seed + 1000)
        wits = vibrant_vertices(k, 3)
        if len(wits) < 2:
            continue
        fam = select_leaf_families(f, 3)
        t = select_target_sets(k, wits[:2], fam)
        seen = set(t.parent_hosts.values())
        assert len(seen) == len(fam.parents)
        for i, parent in enumerate(fam.parents):
            u = t.parent_hosts[parent]
            x_color = wits[i].color.value
            assert wits[i].vertex == u
            for x in t.same_color[i]:
                assert k.value(u, x) == x_color and x not in seen | {u}
            for y in t.other_color[i]:
                assert k.value(u, y) != x_color and y not in seen | {u}
            group = set(t.same_color[i]) | set(t.other_color[i])
            assert len(group) == 2 * fam.counts[i]
            assert not group & seen
            seen |= group
        assert sum(fam.counts) == 2
        audited += 1
    assert audited >= 25


def test_select_target_sets_exhausted():
    fam = select_leaf_families(matching(2), 2)
    with pytest.raises(SelectionExhausted):
        select_target_sets(mono_clique(6, 2), [], fam)
    fake = ColorfulWitness(0, Residue(1, 2), 1)
    with pytest.raises(SelectionExhausted):
        select_target_sets(mono_clique(6, 2), [fake], fam)


# --- non-vibrant greedy ------------------------------------------------------


def poisoned_k8(poison_cycle):
    """K_8/Z_3 with dominant classes {0,1,2,3} (color 0) and {4..7} (color 2).

    Cross edges form a 2-regular color-0 bipartite graph so both sides keep
    exactly one qualifying color; the tie breaks toward color 0. With the
    full poison cycle the class is internally hostile to color 0 beyond the
    diagonals, which jams the greedy on P_4.
    """
    pairs = {}
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for e in cycle:
        pairs[e] = 1 if (poison_cycle or e == (0, 1)) else 0
    pairs[(0, 2)] = pairs[(1, 3)] = 0
    for i in range(4):
        for j in range(4, 8):
            pairs[(i, j)] = 0 if j - 4 in (i, (i + 1) % 4) else 2
    for u in range(4, 8):
        for v in range(u + 1, 8):
            pairs[(u, v)] = 2
    return clique_with(8, 3, pairs)


def test_nonvibrant_mono_host():
    f = spider(2, 2, 2)  # 6 edges
    for c in (0, 1, 2):
        k = mono_clique(f.n + 1, 3, c)
        r = embed_bushy_nonvibrant(f, k, 3)
        assert r.case_used == CASE_BUSHY_NONVIBRANT
        assert verify_report(r)
        assert r.auxiliary.color.value == c


def test_nonvibrant_poisoned_class_success():
    k = poisoned_k8(poison_cycle=False)
    part = dominant_partition(k, 3)
    assert part.largest.value == 0
    assert part.classes[part.largest] == (0, 1, 2, 3)
    r = embed_bushy_nonvibrant(path(4), k, 3)
    # greedy routes around the single poison edge (0,1)
    assert r.embedding.mapping == (0, 2, 1, 3)
    assert verify_report(r)


def test_nonvibrant_greedy_stuck():
    """Full poison cycle: after hosts 0 and 2 every remaining class vertex is
    off-color, so the greedy jams and the dispatcher must recover."""
    k = poisoned_k8(poison_cycle=True)
    with pytest.raises(GreedyStuck):
        embed_bushy_nonvibrant(path(4), k, 3)
    r = find_zero_sum_copy(path(4), k, 3)
    assert verify_report(r)


def test_nonvibrant_preconditions():
    k = poisoned_k8(poison_cycle=False)
    with pytest.raises(PreconditionFailed):
        embed_bushy_nonvibrant(star(6), k, 3)  # class holds 4 < 7 vertices
    vib = random_coloring(22, 3, 0)
    assert len(vibrant_vertices(vib, 3)) >= 2
    with pytest.raises(PreconditionFailed):
        embed_bushy_nonvibrant(path(4), vib, 3)  # host is vibrant
    with pytest.raises(PreconditionFailed):
        # K_4/Z_3 has no dominant partition (threshold underflows)
        embed_bushy_nonvibrant(path(4), mono_clique(4, 3), 3)


def test_nonvibrant_divisibility():
    # one-colored copy in color 1 of a 3-edge path cannot be zero-sum mod 2
    with pytest.raises(DivisibilityViolation):
        embed_bushy_nonvibrant(path(4), mono_clique(8, 2, 1), 2)
    # color 0 is zero-sum regardless of the edge count
    r = embed_bushy_nonvibrant(path(4), mono_clique(8, 2, 0), 2)
    assert verify_report(r)


# --- non-switchable remainder ------------------------------------------------


def test_nonswitchable_all_zero():
    r = embed_nonbushy_nonswitchable(path(5), mono_clique(6, 2), 2)
    assert r.case_used == CASE_NONBUSHY_NONSWITCHABLE
    assert r.auxiliary.removed_quads == ()
    assert r.embedding.mapping == (0, 1, 2, 3, 4)
    assert verify_report(r)


def test_nonswitchable_one_recolored_edge():
    """Mono K_12 with one recolored edge: the packing removes the quad
    around the poison edge and the remainder is one-colored."""
    k = clique_with(12, 3, {(0, 1): 1})
    r = embed_nonbushy_nonswitchable(path(7), k, 3)
    assert [q.vertices for q in r.auxiliary.removed_quads] == [(1, 2, 3, 0)]
    assert r.embedding.mapping == (4, 5, 6, 7, 8, 9, 10)
    assert r.auxiliary.color.value == 0
    assert verify_report(r)


def test_nonswitchable_preconditions():
    k = clique_with(16, 3, {(0, 1): 1, (8, 9): 1})
    with pytest.raises(PreconditionFailed):
        embed_nonbushy_nonswitchable(path(7), k, 3)  # two switchers: switchable
    with pytest.raises(PreconditionFailed):
        embed_nonbushy_nonswitchable(path(4), mono_clique(4, 2), 2)  # < 5 left
    with pytest.raises(PreconditionFailed):
        embed_nonbushy_nonswitchable(path(7), mono_clique(6, 3), 3)  # < n left


def test_nonswitchable_cut_coloring_mod2():
    """Vertex-cut colorings mod 2 carry no switcher (each 4-cycle crosses
    the cut an even number of times, so both pairing sums agree) yet use
    two colors. The mono scan must reject them instead of trusting the
    odd-p structure argument."""
    k = clique_with(6, 2, {(0, v): 1 for v in range(1, 6)})
    assert maximal_disjoint_switchers(k, 1) == []
    with pytest.raises(MonochromaticityViolated,
                       match="^switcher-free remainder carries 2 colors$"):
        embed_nonbushy_nonswitchable(path(5), k, 2)


def test_nonswitchable_find_imports_no_masked_arrays():
    # the first np.unique call of a process imports numpy.ma, which costs
    # a one-shot find 14-17 ms; the one-colored remainder test compares
    # against one color instead, so a fresh process never loads it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from zsforest import ColoredClique, find_zero_sum_copy\n"
        "from zsforest.patterns import path\n"
        "m = np.zeros((12, 12), dtype=np.int16)\n"
        "m[:2, 2:6] = 1\n"
        "m[2:6, :2] = 1\n"
        "r = find_zero_sum_copy(path(7), ColoredClique(12, 3, m), 3)\n"
        "print(r.case_used, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [CASE_NONBUSHY_NONSWITCHABLE, "False"]


# --- dispatch ----------------------------------------------------------------


def test_dispatch_divisibility():
    with pytest.raises(DivisibilityViolation):
        find_zero_sum_copy(path(4), mono_clique(6, 2), 2)


def test_dispatch_host_too_small():
    with pytest.raises(NoZeroSumCopy):
        find_zero_sum_copy(path(5), mono_clique(4, 2), 2)


def test_dispatch_extremal_star_has_no_copy():
    # the regular color-1 layer keeps every 3-star sum in {1, 2}
    k = star_lower_bound_coloring(3, 3)
    with pytest.raises(NoZeroSumCopy):
        find_zero_sum_copy(star(3), k, 3)
    with pytest.raises(NoZeroSumCopy):
        find_zero_sum_copy(star(3), k, 3, allow_fallback=False)
    assert brute_zero_sum(star(3), k, 3) is None


def test_dispatch_all_zero_host():
    r = find_zero_sum_copy(path(5), mono_clique(8, 2), 2)
    assert r.case_used in (CASE_BUSHY_NONVIBRANT, CASE_NONBUSHY_NONSWITCHABLE)
    assert verify_report(r)


def test_dispatch_fallback_marked():
    """K_4 host below every constructive threshold but containing a zero-sum
    star: only the exhaustive fallback can find it."""
    k = clique_with(4, 3, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 2})
    r = find_zero_sum_copy(star(3), k, 3)
    assert r.case_used == CASE_FALLBACK
    assert r.auxiliary is None
    assert verify_report(r)
    with pytest.raises(NoZeroSumCopy):
        find_zero_sum_copy(star(3), k, 3, allow_fallback=False)


def test_dispatch_flags_match_classification():
    for seed in (3, 11, 19):
        f = random_tree(9, seed)
        if f.edge_count % 2:
            continue
        k = random_coloring(12, 2, seed)
        r = find_zero_sum_copy(f, k, 2)
        assert r.bushy == is_bushy(f, 2)
        assert r.vibrant == (len(vibrant_vertices(k, 2)) >= 1)
        assert r.switchable == (len(maximal_disjoint_switchers(k, 1)) == 1)


def test_dispatch_guarantee_scale_no_fallback():
    # P_7, p=3, K_22: constructive success on every seed, no fallback
    f = path(7)
    for seed in range(100):
        k = random_coloring(22, 3, seed)
        r = find_zero_sum_copy(f, k, 3, allow_fallback=False)
        assert r.case_used != CASE_FALLBACK
        assert verify_report(r)


LARGE_PRIMES = [
    (7, 74, 125, 5, [20, 18, 18, 18]),
    (11, 242, 329, 2, [22] * 11),
    (13, 362, 467, 1, [33] * 10 + [32]),
]


@pytest.mark.parametrize("p, n, order, hosts, paths", LARGE_PRIMES)
def test_guarantee_scale_large_primes(p, n, order, hosts, paths):
    # n = 3p^2 - 12p + 11 and order = n + 9p - 12, on random and on
    # near-one-colored hosts
    forests = (random_forest(n, len(paths), seed=p), forest_of_paths(paths))
    cases = set()
    for seed in range(hosts):
        for k in (random_coloring(order, p, seed),
                  near_one_colored(order, p, seed)):
            for f in forests:
                assert f.n == n
                r = find_zero_sum_copy(f, k, p, allow_fallback=False)
                assert verify_report(r)
                cases.add(r.case_used)
    assert CASE_BUSHY_VIBRANT in cases and CASE_BUSHY_NONVIBRANT in cases
    if p in (7, 13):
        assert CASE_NONBUSHY_SWITCHABLE in cases


PUBLIC_ORDER = (embed_bushy_vibrant, embed_bushy_nonvibrant,
                embed_nonbushy_switchable, embed_nonbushy_nonswitchable)


def test_rejections_form_one_family():
    # the one type the dispatcher catches; an ill-posed question and a
    # final "no copy" are not rejections of a single case
    for rejection in (NotBushy, InsufficientTriples, NoDominantColor,
                      SelectionExhausted, GreedyStuck,
                      MonochromaticityViolated):
        assert issubclass(rejection, PreconditionFailed), rejection
    for outcome in (DivisibilityViolation, NoZeroSumCopy):
        assert not issubclass(outcome, PreconditionFailed), outcome


def _k59_instances():
    """P_26 and a random 26-vertex tree on random and near-one-colored
    K_59 over Z_5: guarantee scale at p = 5."""
    for seed in range(3):
        for k in (random_coloring(59, 5, seed),
                  near_one_colored(59, 5, seed)):
            yield random_tree(26, seed=1), k, 5
            yield path(26), k, 5


def test_dispatch_equals_first_public_engine():
    """The dispatcher's report is the first public engine's, in the
    documented order, that does not reject the instance."""
    instances = list(_finder_vs_oracle_instances(400)) + list(_k59_instances())
    cases = set()
    for f, k, p in instances:
        want = None
        for engine in PUBLIC_ORDER:
            try:
                want = engine(f, k, p)
                break
            except PreconditionFailed:
                continue
        if want is None:
            with pytest.raises(NoZeroSumCopy):
                find_zero_sum_copy(f, k, p, allow_fallback=False)
            continue
        got = find_zero_sum_copy(f, k, p, allow_fallback=False)
        assert (got.case_used, got.embedding.mapping, got.bushy, got.vibrant,
                got.switchable, got.auxiliary) == (
            want.case_used, want.embedding.mapping, want.bushy, want.vibrant,
            want.switchable, want.auxiliary)
        if p == 2:
            assert got.case_used not in (CASE_NONBUSHY_SWITCHABLE,
                                         CASE_NONBUSHY_NONSWITCHABLE)
        cases.add((p, got.case_used))
    assert cases == {(2, CASE_BUSHY_VIBRANT), (3, CASE_BUSHY_VIBRANT),
                     (3, CASE_NONBUSHY_SWITCHABLE), (5, CASE_BUSHY_VIBRANT),
                     (5, CASE_BUSHY_NONVIBRANT),
                     (5, CASE_NONBUSHY_SWITCHABLE)}


def test_classify_runs_once_per_find(monkeypatch):
    """The dispatcher classifies once and hands the result to every case it
    tries, the fallback included; a direct engine call classifies once for
    itself."""
    calls = []
    for name in ("classify", "_entry_checks"):
        def counted(*args, real=getattr(embedder, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(embedder, name, counted)
    # vertices 0 and 1 are colorful and every switcher meets one of them,
    # so the host is vibrant but not switchable
    vibrant_only = clique_with(12, 3, {(a, j): 1 for a in (0, 1)
                                       for j in range(2, 6)})
    fallback = list(_finder_vs_oracle_instances(4))[3]
    finds = ((random_tree(26, seed=1), random_coloring(59, 5, 0), 5,
              CASE_BUSHY_VIBRANT),
             (path(26), near_one_colored(59, 5, 0), 5,
              CASE_BUSHY_NONVIBRANT),
             # one classification per engine tried would be three here
             (path(26), random_coloring(59, 5, 0), 5,
              CASE_NONBUSHY_SWITCHABLE),
             (path(7), vibrant_only, 3, CASE_NONBUSHY_NONSWITCHABLE),
             fallback + (CASE_FALLBACK,))
    for f, k, p, case in finds:
        calls.clear()
        assert find_zero_sum_copy(f, k, p).case_used == case
        assert calls == ["_entry_checks", "classify"], case
    for engine, (f, k, p, _) in zip(PUBLIC_ORDER, finds):
        calls.clear()
        assert verify_report(engine(f, k, p))
        assert calls == ["_entry_checks", "classify"], engine.__name__
    calls.clear()
    with pytest.raises(PreconditionFailed):
        embed_bushy_vibrant(path(7), vibrant_only, 3)
    assert calls == ["_entry_checks", "classify"]


# sha256 of the outcomes below, recorded from the finder as it stood when
# the test was written; any change to a case, mapping, flag or verdict on
# this corpus changes it
FINDER_DIGEST = (
    "b7078fe2612c1bba71a63ac11741e643e843ec7b97d812fa88fa9b2122b88c28")


def _outcome(report):
    if report is None:
        return "NoZeroSumCopy"
    return (report.case_used, tuple(int(h) for h in report.embedding.mapping),
            report.bushy, report.vibrant, report.switchable,
            verify_report(report))


def _find_or_none(f, k, p, allow_fallback):
    try:
        return find_zero_sum_copy(f, k, p, allow_fallback=allow_fallback)
    except NoZeroSumCopy:
        return None


def test_recorded_finder_digest():
    """Case, mapping, flags and verdict on a fixed corpus that reaches
    every case, the fallback and NoZeroSumCopy: criterion 9's first 300
    draws with and without the fallback, the K_59/Z_5 finds, and criterion
    5's instances (ten per prime and case), each through its own engine.
    Certificates are left out, so their types may change."""
    outcomes = [_outcome(_find_or_none(f, k, p, fallback))
                for f, k, p in _finder_vs_oracle_instances(300)
                for fallback in (True, False)]
    outcomes += [_outcome(_find_or_none(f, k, p, False))
                 for f, k, p in _k59_instances()]
    engine_reports = []
    for tag, draw, engine, case in selftest._CASES:
        def record(f, k, p, engine=engine):
            engine_reports.append(engine(f, k, p))
            return engine_reports[-1]
        assert selftest._case_sweep(10, tag, draw, record, case)[2] == []
    outcomes += [_outcome(r) for r in engine_reports]
    cases = {o if o == "NoZeroSumCopy" else o[0] for o in outcomes}
    assert cases == {CASE_BUSHY_VIBRANT, CASE_BUSHY_NONVIBRANT,
                     CASE_NONBUSHY_SWITCHABLE, CASE_NONBUSHY_NONSWITCHABLE,
                     CASE_FALLBACK, "NoZeroSumCopy"}
    got = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert got == FINDER_DIGEST


# --- verification ------------------------------------------------------------


def corrupt(report, **changes):
    return dataclasses.replace(report, **changes)


def test_verify_rejects_corruptions():
    k = clique_with(16, 3, {(0, 1): 1, (8, 9): 1})
    r = embed_nonbushy_switchable(path(7), k, 3)
    assert verify_report(r)

    mp = list(r.embedding.mapping)
    mp[5], mp[6] = mp[6], mp[5]  # rest vertex swapped into a quad slot
    bad_emb = dataclasses.replace(r.embedding, mapping=tuple(mp))
    assert not verify_report(corrupt(r, embedding=bad_emb))

    dup = list(r.embedding.mapping)
    dup[6] = dup[0]
    bad_emb2 = dataclasses.replace(r.embedding, mapping=tuple(dup))
    assert not verify_report(corrupt(r, embedding=bad_emb2))

    assert not verify_report(corrupt(r, case_used="NoSuchCase"))
    assert not verify_report(corrupt(r, case_used=CASE_BUSHY_VIBRANT))
    assert not verify_report(corrupt(r, auxiliary=None))

    flipped = SwitcherCert(triples=r.auxiliary.triples,
                           quads=r.auxiliary.quads,
                           picks=tuple(1 - c for c in r.auxiliary.picks))
    assert not verify_report(corrupt(r, auxiliary=flipped))


def test_verify_rejects_recolored_target():
    f = forest_of_paths([3, 2])
    k = clique_with(7, 2, {(5, 6): 1})
    r = embed_bushy_vibrant(f, k, 2)
    assert verify_report(r)
    # recolor the anchor edge to the same-color target: invariant breaks
    u = r.auxiliary.targets.parent_hosts[r.auxiliary.families.parents[0]]
    x = r.auxiliary.targets.same_color[0][0]
    m = np.array(k.matrix)
    m[u, x] = m[x, u] = (m[u, x] + 1) % 2
    k_bad = ColoredClique(k.order, 2, m)
    bad_emb = dataclasses.replace(r.embedding, host=k_bad)
    assert not verify_report(corrupt(r, embedding=bad_emb))


def test_verify_rejects_forged_mono_cert():
    k = clique_with(12, 3, {(0, 1): 1})
    r = embed_nonbushy_nonswitchable(path(7), k, 3)
    forged = MonoSubcliqueCert(removed_quads=(),
                               remainder=tuple(range(12)),
                               color=Residue(0, 3))
    assert not verify_report(corrupt(r, auxiliary=forged))
    wrong_color = MonoSubcliqueCert(removed_quads=r.auxiliary.removed_quads,
                                    remainder=r.auxiliary.remainder,
                                    color=Residue(1, 3))
    assert not verify_report(corrupt(r, auxiliary=wrong_color))


def test_verify_rejects_broken_switcher_packing():
    # the report of test_verify_rejects_corruptions, on a host where
    # vertices 13, 14 and 15 meet no mapped edge and 14 and 15 have every
    # edge colored 1; the unused quad vertices are d1 of the first quad
    # (pick 1) and d3 of the second (pick 0)
    base = {(0, 1): 1, (8, 9): 1}
    r = embed_nonbushy_switchable(path(7), clique_with(16, 3, base), 3)
    assert [q.vertices for q in r.auxiliary.quads] == [(1, 2, 3, 0),
                                                       (5, 8, 9, 4)]
    assert r.auxiliary.picks == (1, 0)
    k = clique_with(16, 3, base | {(min(x, y), max(x, y)): 1
                                   for x in (14, 15) for y in range(16)
                                   if x != y})
    emb = dataclasses.replace(r.embedding, host=k)

    def forged(first, second):
        cert = dataclasses.replace(r.auxiliary, quads=(
            SwitcherQuad(first), SwitcherQuad(second)))
        return corrupt(r, embedding=emb, auxiliary=cert)

    assert verify_report(forged((14, 2, 3, 0), (5, 8, 15, 4)))
    # the two quads share vertex 14
    assert not verify_report(forged((14, 2, 3, 0), (5, 8, 14, 4)))
    # chi(0 13) + chi(13 2) = chi(2 3) + chi(3 0) = 0
    assert not verify_report(forged((13, 2, 3, 0), (5, 8, 15, 4)))


def test_verify_rejects_broken_mono_subclique_packing():
    # one-colored K_14 over Z_5 but for edges 01 and 45: the quads 0123
    # and 3456 (or 7456) each hold one of them on their cycle
    k = clique_with(14, 5, {(0, 1): 1, (4, 5): 1})

    def report(quads, remainder):
        cert = MonoSubcliqueCert(
            removed_quads=tuple(SwitcherQuad(q) for q in quads),
            remainder=remainder, color=Residue(0, 5))
        return CaseReport(bushy=False, vibrant=False, switchable=False,
                          case_used=CASE_NONBUSHY_NONSWITCHABLE,
                          embedding=Embedding(path(6), k, tuple(range(8, 14))),
                          auxiliary=cert)

    assert verify_report(report([(0, 1, 2, 3), (7, 4, 5, 6)],
                                tuple(range(8, 14))))
    # the two quads share vertex 3
    assert not verify_report(report([(0, 1, 2, 3), (3, 4, 5, 6)],
                                    tuple(range(7, 14))))
    # 01 is a diagonal of the cycle 0 2 1 3, whose four edges are all 0
    assert not verify_report(report([(0, 2, 1, 3), (7, 4, 5, 6)],
                                    tuple(range(8, 14))))


def test_verify_never_raises_on_garbage():
    k = mono_clique(6, 2)
    r = find_zero_sum_copy(path(5), k, 2)
    assert not verify_report(corrupt(r, auxiliary=object()))
    short = dataclasses.replace(r, case_used=CASE_NONBUSHY_SWITCHABLE)
    assert not verify_report(short)


def recolored(report, edges):
    """The report on a copy of its host with each listed edge moved to
    the next color."""
    k = report.embedding.host
    m = np.array(k.matrix)
    for u, v in edges:
        m[u, v] = m[v, u] = (m[u, v] + 1) % k.modulus
    host = ColoredClique(k.order, k.modulus, m)
    return corrupt(report, embedding=dataclasses.replace(report.embedding,
                                                         host=host))


def class_vertex_short_by(report, short):
    """Recolor edges from one unmapped class vertex to unmapped sub-clique
    vertices until its color degree in the sub-clique is threshold - short.
    Forest edges keep their colors."""
    k = report.embedding.host
    cert = report.auxiliary
    color = cert.color.value
    image = set(report.embedding.mapping)
    v = max(set(cert.class_vertices) - image)
    degree = sum(1 for u in cert.subclique
                 if u != v and k.value(u, v) == color)
    threshold = len(cert.subclique) - (3 * k.modulus - 4)
    spare = [u for u in cert.subclique if u != v and u not in image
             and k.value(u, v) == color]
    return recolored(report, [(v, u) for u in
                              spare[:degree - threshold + short]])


def remainder_edge_recolored(report):
    """Recolor one edge between two remainder vertices off the image."""
    image = set(report.embedding.mapping)
    free = [v for v in report.auxiliary.remainder if v not in image]
    return recolored(report, [(free[0], free[1])])


def near_one_colored_reports(order, p, seed, forests):
    """The dispatcher's report and the non-switchable engine's report for
    each forest on one near-one-colored host."""
    k = near_one_colored(order, p, seed)
    for f in forests:
        yield find_zero_sum_copy(f, k, p, allow_fallback=False)
        yield embed_nonbushy_nonswitchable(f, k, p)


def test_verify_rejects_short_class_vertex():
    [r, _] = near_one_colored_reports(59, 5, 0, [path(26)])
    assert r.case_used == CASE_BUSHY_NONVIBRANT
    assert verify_report(r)
    assert verify_report(class_vertex_short_by(r, 0))
    assert not verify_report(class_vertex_short_by(r, 1))


def test_verify_rejects_recolored_remainder_edge():
    [_, r] = near_one_colored_reports(59, 5, 0, [path(26)])
    assert r.case_used == CASE_NONBUSHY_NONSWITCHABLE
    assert verify_report(r)
    assert not verify_report(remainder_edge_recolored(r))


def test_verify_masks_the_diagonal_by_index():
    # every entry of K_14 over Z_3 holds color 1, the unused diagonal
    # included, so a count that let a vertex's own entry in would put
    # vertex 13 back at the threshold 14 - 5 = 9
    k = ColoredClique(14, 3, np.ones((14, 14), dtype=np.int64))
    r = embed_bushy_nonvibrant(path(7), k, 3)
    assert r.auxiliary.subclique == r.auxiliary.class_vertices == tuple(
        range(14))
    assert max(r.embedding.mapping) < 13
    assert verify_report(class_vertex_short_by(r, 0))
    assert not verify_report(class_vertex_short_by(r, 1))


def test_verify_rejects_vertices_outside_host():
    k = mono_clique(9, 3)
    r = embed_bushy_nonvibrant(path(7), k, 3)
    assert verify_report(r)
    sub, cls = r.auxiliary.subclique, r.auxiliary.class_vertices
    for field, forged in (("subclique", sub + (-1, -2, -3)),
                          ("subclique", sub + (sub[0],)),
                          ("subclique", sub + (9,)),
                          ("class_vertices", cls + (-1,)),
                          ("class_vertices", cls + (cls[0],))):
        cert = dataclasses.replace(r.auxiliary, **{field: forged})
        assert not verify_report(corrupt(r, auxiliary=cert)), (field, forged)

    [_, r] = near_one_colored_reports(59, 5, 0, [path(26)])
    assert verify_report(r)
    rem = r.auxiliary.remainder
    for forged in (rem + (-1,), rem[:-1] + (rem[0],),
                   rem[:-1] + (rem[-1] - 59,), rem + (59,)):
        cert = dataclasses.replace(r.auxiliary, remainder=forged)
        assert not verify_report(corrupt(r, auxiliary=cert)), forged

    # the unpicked d1 or d3 of a switcher, and an unpicked target of a
    # leaf, renamed to the same vertex counted from the far end
    k = random_coloring(59, 5, 0)
    r = find_zero_sum_copy(path(26), k, 5, allow_fallback=False)
    assert r.case_used == CASE_NONBUSHY_SWITCHABLE and verify_report(r)
    spare = 0 if r.auxiliary.picks[0] == 1 else 2
    for shift in (-59, 59):
        quads = list(r.auxiliary.quads)
        verts = list(quads[0].vertices)
        verts[spare] += shift
        quads[0] = SwitcherQuad(tuple(verts))
        cert = dataclasses.replace(r.auxiliary, quads=tuple(quads))
        assert not verify_report(corrupt(r, auxiliary=cert)), shift

    r = find_zero_sum_copy(random_tree(26, seed=1), k, 5,
                           allow_fallback=False)
    assert r.case_used == CASE_BUSHY_VIBRANT and verify_report(r)
    targets = r.auxiliary.targets
    side = "same_color" if r.auxiliary.picks[0] == 1 else "other_color"
    rows = [list(row) for row in getattr(targets, side)]
    rows[0][0] -= 59
    forged = dataclasses.replace(
        targets, **{side: tuple(tuple(row) for row in rows)})
    cert = dataclasses.replace(r.auxiliary, targets=forged)
    assert not verify_report(corrupt(r, auxiliary=cert))


def reference_monochromatic(r):
    """The class check of a BushyNonvibrant certificate as scalar loops,
    one k.value per vertex pair."""
    f = r.embedding.pattern
    k = r.embedding.host
    p = k.modulus
    cert = r.auxiliary
    mp = r.embedding.mapping
    cls = set(cert.class_vertices)
    if not cls <= set(cert.subclique):
        return False
    if any(h not in cls for h in mp):
        return False
    for u, v in f.edges:
        if k.value(mp[u], mp[v]) != cert.color.value:
            return False
    threshold = len(cert.subclique) - (3 * p - 4)
    for v in cert.class_vertices:
        cnt = sum(1 for u in cert.subclique
                  if u != v and k.value(u, v) == cert.color.value)
        if cnt < threshold:
            return False
    return True


def reference_mono_subclique(r):
    """The packing and remainder check of a NonbushyNonswitchable
    certificate as scalar loops, one k.value per vertex pair."""
    f = r.embedding.pattern
    k = r.embedding.host
    cert = r.auxiliary
    if len(cert.removed_quads) > k.modulus - 2:
        return False
    removed = set()
    for quad in cert.removed_quads:
        verts = set(quad.vertices)
        if (len(verts) != 4 or verts & removed
                or not embedder._canonical_switcher_holds(k, quad)):
            return False
        removed |= verts
    rem = set(cert.remainder)
    if rem & removed or rem | removed != set(range(k.order)):
        return False
    if len(rem) < 5 or len(rem) < f.n:
        return False
    rem_sorted = sorted(rem)
    for i, u in enumerate(rem_sorted):
        for v in rem_sorted[i + 1:]:
            if k.value(u, v) != cert.color.value:
                return False
    return all(h in rem for h in r.embedding.mapping)


REFERENCE_CHECKS = {CASE_BUSHY_NONVIBRANT: reference_monochromatic,
                    CASE_NONBUSHY_NONSWITCHABLE: reference_mono_subclique}


def reference_verify(r):
    try:
        return (embedder._verify_common(r)
                and REFERENCE_CHECKS[r.case_used](r))
    except Exception:
        return False


def test_one_colored_checks_match_reference_loops():
    """The array checks of the two one-colored certificates give the
    scalar loops' verdict on the K_59 finds, on the near-one-colored hosts
    of the p = 7, 11 and 13 finds, and on copies of each report mutated
    to sit at and one below the class threshold or to carry a recolored
    remainder edge."""
    reports = [find_zero_sum_copy(f, k, p, allow_fallback=False)
               for f, k, p in _k59_instances()]
    for seed in range(3):
        reports += near_one_colored_reports(59, 5, seed,
                                            [random_tree(26, seed=1),
                                             path(26)])
    for p, n, order, hosts, paths in LARGE_PRIMES:
        forests = (random_forest(n, len(paths), seed=p),
                   forest_of_paths(paths))
        for seed in range(hosts):
            reports += near_one_colored_reports(order, p, seed, forests)
    checked = Counter()
    for r in reports:
        if r.case_used == CASE_BUSHY_NONVIBRANT:
            variants = (r, class_vertex_short_by(r, 0),
                        class_vertex_short_by(r, 1))
        elif r.case_used == CASE_NONBUSHY_NONSWITCHABLE:
            variants = (r, remainder_edge_recolored(r))
        else:
            continue
        for variant in variants:
            assert verify_report(variant) == reference_verify(variant)
        checked[r.case_used, r.embedding.host.order] += 1
    assert set(checked) == {(case, order)
                            for case in REFERENCE_CHECKS
                            for order in (59, 125, 329, 467)}


# --- seeded sweeps -----------------------------------------------------------


SWEEP = {2: (9, 10, 140), 3: (13, 14, 120), 5: (21, 22, 95)}


def test_soundness_sweep():
    """Random trees and forests at host order n + p - 1: every produced
    report verifies; constructive misses surface only as NoZeroSumCopy.

    The success floors are loose at p=5 because host order n+4 sits far
    below the guarantee threshold and trees short on disjoint degree-2
    triples legitimately miss every case there.
    """
    for p, (n_tree, n_forest, floor) in SWEEP.items():
        produced = 0
        failed = 0
        for i in range(150):
            seed = p * 10_000 + i
            if i % 2 == 0:
                f = random_tree(n_tree, seed)
            else:
                f = random_forest(n_forest, 2, seed)
            assert f.edge_count % p == 0
            k = random_coloring(f.n + p - 1, p, seed + 1)
            try:
                r = find_zero_sum_copy(f, k, p, allow_fallback=False)
            except NoZeroSumCopy:
                failed += 1
                continue
            assert verify_report(r), (p, seed, r.case_used)
            assert r.case_used != CASE_FALLBACK
            produced += 1
        assert produced >= floor, (p, produced, failed)


def test_oracle_agreement_small():
    # constructive claim and exhaustive search agree on existence
    for p in (2, 3):
        checked = 0
        for i in range(120):
            seed = p * 777 + i
            n = 4 + i % 3
            f = random_tree(n, seed)
            if f.edge_count % p:
                continue
            k = random_coloring(n + i % 3, p, seed + 5)
            try:
                r = find_zero_sum_copy(f, k, p)
                assert verify_report(r)
                assert brute_zero_sum(f, k, p) is not None
            except NoZeroSumCopy:
                assert brute_zero_sum(f, k, p) is None
            checked += 1
        assert checked >= 30
