"""Exhaustive-engine tests: frozen small Ramsey values, cross-checks between
the backtracker and the block scan, checkpointing, budgets, closed forms."""

import hashlib
import math
import multiprocessing
import multiprocessing.pool
import os
import tracemalloc
from functools import cached_property
from itertools import (combinations, combinations_with_replacement, islice,
                       permutations)

import numpy as np
import pytest

from zsforest import (BudgetExceeded, CheckpointMismatch, ColoredClique,
                      DivisibilityViolation, brute_zero_sum, build_forest,
                      build_graph, compute_ramsey, edge_sum, exact_z2,
                      exact_z3)
from zsforest import oracle
from zsforest.oracle import (_Enumeration, _read_entries, _subgraph_copies,
                             _write_entries, scan_colorings)
from zsforest.patterns import matching, path, spider, star


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
    assert not scan_colorings(matching(2), 4, 2).unavoidable
    assert scan_colorings(matching(2), 5, 2).unavoidable
    assert not scan_colorings(path(4), 4, 3).unavoidable
    assert scan_colorings(path(4), 5, 3).unavoidable


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
    # a witness matrix holds each edge's digit at both of its cells
    for order, reduce_symmetry in ((1, False), (4, False), (6, True)):
        enum = _Enumeration(order, 3, reduce_symmetry)
        for c in (0, 5, enum.total - 1):
            want = np.zeros((order, order), dtype=np.int16)
            u, v = np.triu_indices(order, 1)
            want[u, v] = want[v, u] = enum.colors_block(c, 1)[0]
            got = enum.coloring_at(c).matrix
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def _placements(g, order):
    """The edge-index set of every injective placement of g in K_order,
    as a set of frozensets."""
    index = {e: i for i, e in enumerate(combinations(range(order), 2))}
    return {frozenset(index[tuple(sorted((phi[u], phi[v])))]
                      for u, v in g.edges)
            for phi in permutations(range(order), g.n)}


def _reference_hits(g, order, k, reduce_symmetry, start=0, stop=None):
    """(digits, hit) for the counters from start to stop (by default the end
    of the space): each one's color digits decoded by division, and whether
    summing every copy over them finds a zero-sum one."""
    copies = _placements(g, order)
    m = order * (order - 1) // 2
    prefixes = [()]
    low = m
    if reduce_symmetry:
        prefixes = list(combinations_with_replacement(range(k), order - 1))
        low = m - (order - 1)
    total = len(prefixes) * k ** low
    counters = np.arange(start, total if stop is None else stop)
    digits = np.zeros((len(counters), m), dtype=np.int16)
    rank, rest = np.divmod(counters, k ** low)
    for j in range(m - 1, m - low - 1, -1):
        rest, digits[:, j] = np.divmod(rest, k)
    digits[:, :m - low] = np.array(prefixes, dtype=np.int64)[rank]
    hit = np.zeros(len(counters), dtype=bool)
    for copy in copies:
        hit |= digits[:, sorted(copy)].sum(axis=1) % k == 0
    return digits, hit


def _reference_scan(g, order, k, reduce_symmetry, start=0, stop=None):
    """(unavoidable, witness counter, colorings checked, witness digits)
    from decoding every counter from start on and summing every copy.

    With ``stop``, only the counters below it are decoded, and one of them
    must be a witness."""
    digits, hit = _reference_hits(g, order, k, reduce_symmetry, start, stop)
    missing = np.flatnonzero(~hit)
    if missing.size == 0:
        assert stop is None, "no witness below stop"
        return True, None, len(hit), None
    i = int(missing[0])
    return False, start + i, i + 1, digits[i]


def _agrees(res, ref, order):
    unavoidable_, counter, checked, digits = ref
    assert (res.unavoidable, res.witness_counter,
            res.colorings_checked) == (unavoidable_, counter, checked)
    if digits is not None:
        iu = np.triu_indices(order, 1)
        assert list(res.witness.matrix[iu]) == list(digits)


EQUIVALENCE_CASES = [
    (g, order, k)
    for g in (matching(2), path(3), path(4), star(3), C4)
    for k in (2, 3, 4, 5)
    for order in range(g.n, 9)
    if k ** (order * (order - 1) // 2) <= 10 ** 5]


@pytest.mark.parametrize("reduce_symmetry", [False, True],
                         ids=["plain", "reduced"])
def test_split_digit_scan_matches_direct_sums(reduce_symmetry):
    assert len(EQUIVALENCE_CASES) == 39
    for g, order, k in EQUIVALENCE_CASES:
        res = scan_colorings(g, order, k, reduce_symmetry=reduce_symmetry)
        _agrees(res, _reference_scan(g, order, k, reduce_symmetry), order)


def test_split_digit_scan_resumes_inside_a_block(tmp_path):
    # P_4 in K_5 over Z_3 has 3^5-row blocks; none of these starts is a
    # multiple of 243, and the witnesses of K_{1,3} lie near 3050. From
    # 135, the first witness, 3050 or 2321, is row 134 of a later block,
    # and the block of the start has none
    for i, (g, reduce_symmetry, starts) in enumerate((
            (path(4), False, (1, 242, 244, 29524, 59048)),
            (star(3), False, (7, 135, 3000, 3050, 3051, 59048)),
            (star(3), True, (100, 135, 2321, 2322, 10934)))):
        cp = str(tmp_path / f"scan{i}.ckpt")
        scan_colorings(g, 5, 3, reduce_symmetry=reduce_symmetry,
                       checkpoint=cp)
        [fp] = _read_entries(cp)
        for start in starts:
            _write_entries(cp, {fp: start})
            res = scan_colorings(g, 5, 3, reduce_symmetry=reduce_symmetry,
                                 checkpoint=cp)
            _agrees(res, _reference_scan(g, 5, 3, reduce_symmetry, start), 5)


def _tasks(g, order, k, reduce_symmetry, start=0):
    scan = oracle._SplitScan(_Enumeration(order, k, reduce_symmetry),
                             _subgraph_copies(g, order))
    return list(scan.tasks(start))


class _RecordingPool(multiprocessing.pool.Pool):
    """A pool that records, for each ``imap`` call, its chunk size and
    its tasks when they come as a list."""

    calls: list = []

    def imap(self, func, iterable, chunksize=1):
        self.calls.append(
            (chunksize, iterable if isinstance(iterable, list) else None))
        return super().imap(func, iterable, chunksize)


def test_split_digit_scan_with_two_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so jobs=2 starts a pool
    calls = []
    monkeypatch.setattr(_RecordingPool, "calls", calls)
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    # each scan spans at least two tasks, so both workers get one.
    # K_{1,3} over Z_2 (odd edge count) is avoidable only by its last
    # coloring, all ones, so the K_7 scan runs through all of its tasks
    claw = star(3)
    assert len(_tasks(claw, 7, 2, False)) >= 2
    res = scan_colorings(claw, 7, 2, jobs=2)
    _agrees(res, (False, 2 ** 21 - 1, 2 ** 21, [1] * 21), 7)
    # one and two jobs give the same result and leave the same checkpoint.
    # The first witness of reduced P_3 over Z_3 at K_6, 619770, lies past
    # the first task; R(2K_2, Z_2) = 5, so every coloring of K_7 has a
    # zero-sum copy, and that scan resumes at 700001
    tasks = _tasks(path(3), 6, 3, True)
    assert len(tasks) >= 2 and tasks[0][1] <= 619_770
    assert len(_tasks(matching(2), 7, 2, False, 700_001)) >= 2
    for i, (g, order, k, reduce_symmetry, resume, ref) in enumerate((
            (path(3), 6, 3, True, 0,
             _reference_scan(path(3), 6, 3, True, stop=620_000)),
            (matching(2), 7, 2, False, 700_001,
             (True, None, 2 ** 21 - 700_001, None)))):
        files = []
        for jobs in (1, 2):
            cp = tmp_path / f"scan{i}-{jobs}.ckpt"
            _write_entries(str(cp), {oracle._fingerprint(
                g, order, k, reduce_symmetry): resume})
            calls.clear()
            res = scan_colorings(g, order, k, reduce_symmetry=reduce_symmetry,
                                 jobs=jobs, checkpoint=str(cp))
            _agrees(res, ref, order)
            files.append(cp.read_bytes())
        assert files[0] == files[1]
        # with two jobs the first task goes alone, then the rest in chunks
        first = _tasks(g, order, k, reduce_symmetry, resume)[0]
        assert calls == [(1, [first]), (oracle._CHUNK_TASKS, None)]


@pytest.mark.parametrize("g, order, k, reduce_symmetry", [
    (path(3), 3, 80, False), (path(3), 6, 3, True)],
    ids=["P3-K3-Z80", "P3-K6-Z3-reduced"])
def test_tasks_tile_the_space(g, order, k, reduce_symmetry):
    # both spaces hold more than the first task's window: 80-counter blocks
    # in a window of 2730 of 6400, then batches of 4096, and 3^8-counter
    # blocks in a window of 79 of 189, then batches of 189
    scan = oracle._SplitScan(_Enumeration(order, k, reduce_symmetry),
                             _subgraph_copies(g, order))
    window, total = scan.first * scan.block, scan.enum.total
    unit = scan.batch * scan.block
    assert 1 < scan.block < window < total and window <= unit
    hit = np.concatenate([
        _reference_hits(g, order, k, reduce_symmetry, a,
                        min(a + window, total))[1]
        for a in range(0, total, window)])
    for start in (0, scan.block + scan.block // 2, window - 1, window + 1):
        tasks = list(scan.tasks(start))
        bounds = [a for a, _ in tasks] + [tasks[-1][1]]
        assert bounds[0] == start and bounds[-1] == total
        assert [b for _, b in tasks] == bounds[1:]  # contiguous
        # the rest of one window, then whole batches, the last cut
        assert tasks[0][1] == min(total, (start // window + 1) * window)
        assert all(b - a == unit for a, b in tasks[1:-1])
        assert len(tasks) == 1 or 0 < tasks[-1][1] - tasks[-1][0] <= unit
        for chunk in (scan.chunk, 1):  # one chunk per surviving block too
            scan.chunk = chunk
            for a, b in tasks:
                missing = np.flatnonzero(~hit[a:b])
                want = a + int(missing[0]) if missing.size else None
                assert scan.first_missing(a, b) == want, (start, a, b, chunk)


def test_first_task_keeps_its_window(monkeypatch):
    # a task is a batch of blocks, as many as 2^13 words hold as their high
    # digits, but the first one of a scan runs to the end of a window of as
    # many blocks as 2^13 words hold as mask rows or as all m digits
    for g, order, k, reduce_symmetry, window in (
            (path(4), 6, 3, False, 79), (matching(3), 7, 3, True, 26),
            (matching(3), 8, 3, True, 26), (path(3), 3, 80, False, 2730)):
        scan = oracle._SplitScan(_Enumeration(order, k, reduce_symmetry),
                                 _subgraph_copies(g, order))
        m = order * (order - 1) // 2
        assert scan.first == window == (1 << 13) // max(scan.words, m)
        assert scan.batch > window
        unit = window * scan.block
        total = scan.enum.total
        for start in (0, 1, unit - 1, unit, 2 * unit + 7):
            assert next(scan.tasks(start)) == (
                start, min(total, (start // unit + 1) * unit))
    # so the witness of 3K_2 at K_7 over Z_3, at counter 29,524, costs one
    # window of 26 blocks of 3^9
    calls = []
    first_missing = oracle._SplitScan.first_missing

    def counted(self, start, stop):
        calls.append((start, stop))
        return first_missing(self, start, stop)

    monkeypatch.setattr(oracle._SplitScan, "first_missing", counted)
    res = scan_colorings(matching(3), 7, 3, budget=10 ** 9,
                         reduce_symmetry=True)
    assert (res.witness_counter, res.colorings_checked) == (29_524, 29_525)
    assert calls == [(0, 26 * 3 ** 9)]


def _recorded_writes(monkeypatch) -> list:
    """The entries of every checkpoint write from now on, in order."""
    writes = []
    write = oracle._write_entries

    def recorded(path, entries):
        writes.append(dict(entries))
        write(path, entries)

    monkeypatch.setattr(oracle, "_write_entries", recorded)
    return writes


def test_reduced_scan_takes_few_tasks(monkeypatch, tmp_path):
    # reduced P_4 in K_7 over Z_3: 20,412 blocks of 3^9, all settled on
    # their high digits; a window of 26, then batches of 682 (786 tasks
    # when every task was a window), each task one checkpoint write
    writes = _recorded_writes(monkeypatch)
    scan = oracle._SplitScan(_Enumeration(7, 3, True),
                             _subgraph_copies(path(4), 7))
    tasks = list(scan.tasks(0))
    assert len(tasks) <= 40
    assert tasks[0] == (0, 26 * scan.block) and scan.batch == 682
    assert all(b - a == 682 * scan.block for a, b in tasks[1:-1])
    assert [b for _, b in tasks[:-1]] == [a for a, _ in tasks[1:]]
    assert tasks[-1][1] == scan.enum.total
    res = scan_colorings(path(4), 7, 3, budget=5 * 10 ** 8,
                         reduce_symmetry=True,
                         checkpoint=str(tmp_path / "scan.ckpt"))
    assert res.unavoidable
    assert res.colorings_checked == res.enumerated_space == 28 * 3 ** 15
    assert [w.popitem()[1] for w in writes] == [b for _, b in tasks]


def test_settle_survivors_beyond_one_chunk():
    # no copy of 3K_2 lies in K_7's 10 high edges, so every block survives
    # the settle, and the second task's 768 blocks of 2^11 over Z_2 take
    # mask rows in three chunks of 256. Its only coloring with no zero-sum
    # copy is the last one, all ones (3K_2 has three edges)
    g = matching(3)
    scan = oracle._SplitScan(_Enumeration(7, 2, False), _subgraph_copies(g, 7))
    [_, (start, stop)] = list(scan.tasks(0))
    assert scan.settling == 0
    assert (stop - start) // scan.block == 768 == 3 * scan.chunk
    hit = np.concatenate([
        _reference_hits(g, 7, 2, False, a, min(stop, a + (1 << 18)))[1]
        for a in range(start, stop, 1 << 18)])
    assert np.flatnonzero(~hit).tolist() == [stop - 1 - start]
    scan.first_missing(start, stop)  # first-call allocations stay out
    tracemalloc.start()
    try:
        found = scan.first_missing(start, stop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == stop - 1 == 2 ** 21 - 1
    assert peak < 3 << 17, peak  # 3/8 MiB


def _counted(monkeypatch, name) -> list:
    """The arguments of every call of oracle.<name> from now on."""
    calls = []
    func = getattr(oracle, name)

    def counted(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def _counted_property(monkeypatch, name) -> list:
    """The scans that compute the cached property _SplitScan.<name> from
    now on, one entry each time."""
    calls = []
    func = getattr(oracle._SplitScan, name).func

    def counted(self):
        calls.append(self)
        return func(self)

    prop = cached_property(counted)
    prop.__set_name__(oracle._SplitScan, name)
    monkeypatch.setattr(oracle._SplitScan, name, prop)
    return calls


def test_mask_rows_are_built_lazily_and_once(monkeypatch):
    builds = _counted(monkeypatch, "_digit_masks")
    keyings = _counted_property(monkeypatch, "_sets")
    # the settle decides every block of these scans, so they key no sets
    # and build no mask rows: K_{1,3} in K_6 over Z_3, and reduced P_4 in
    # K_7 over Z_3
    assert scan_colorings(star(3), 6, 3).unavoidable
    assert scan_colorings(path(4), 7, 3, budget=5 * 10 ** 8,
                          reduce_symmetry=True).unavoidable
    assert builds == keyings == []
    # the cover test decides every block that the settle leaves of P_4 in
    # K_6 over Z_3, plain and reduced, and of 2K_2 in K_7 over Z_2: each
    # scan keys its sets once, over all of its tasks, and builds no masks
    for g, order, k, reduce_symmetry in ((path(4), 6, 3, False),
                                         (path(4), 6, 3, True),
                                         (matching(2), 7, 2, False)):
        keyings.clear()
        assert scan_colorings(g, order, k,
                              reduce_symmetry=reduce_symmetry).unavoidable
        assert len(keyings) == 1 and builds == []
    # P_4 in K_5 over Z_3 still needs mask rows: one build, one keying
    keyings.clear()
    assert scan_colorings(path(4), 5, 3).unavoidable
    assert len(builds) == len(keyings) == 1
    # every block of 3K_2 in K_7 over Z_2 survives the settle: its two
    # tasks and the second task's three chunks share one build
    builds.clear()
    keyings.clear()
    g = matching(3)
    scan = oracle._SplitScan(_Enumeration(7, 2, False), _subgraph_copies(g, 7))
    tasks = list(scan.tasks(0))
    assert len(tasks) == 2 and scan.settling == 0
    assert [scan.first_missing(a, b) for a, b in tasks] == [None, 2 ** 21 - 1]
    assert len(builds) == len(keyings) == 1
    res = scan_colorings(g, 7, 2)
    assert res.witness_counter == 2 ** 21 - 1
    assert len(builds) == len(keyings) == 2


def _set_residues(scan, digits):
    """Whether one set of low edges fills each block on its own, from the
    decoded digits of each block's first counter: the residues of the high
    sums of each set's copies, as Python sets."""
    k, split = scan.enum.k, scan.split
    which = scan._sets[0]
    full = []
    for row in digits:
        reached = {}
        for copy, key in zip(scan.copies, which):
            if (copy >= split).any():
                high = sum(int(row[e]) for e in copy if e < split)
                reached.setdefault(int(key), set()).add(high % k)
        full.append(any(len(r) == k for r in reached.values()))
    return full


@pytest.mark.parametrize("g, order, k, reduce_symmetry", [
    (path(4), 6, 3, False), (path(4), 6, 3, True), (matching(2), 7, 2, False),
    (path(4), 5, 4, False), (path(5), 5, 5, True)],
    ids=["P4-K6-Z3", "P4-K6-Z3-reduced", "2K2-K7-Z2", "P4-K5-Z4",
         "P5-K5-Z5-reduced"])
def test_cover_test_drops_exactly_the_blocks_one_set_fills(
        monkeypatch, g, order, k, reduce_symmetry):
    # in each of the first two tasks, the cover test drops the blocks the
    # settle leaves where one set's copies reach every residue, and only
    # those; every coloring of a dropped block has a zero-sum copy. With a
    # first pass of one copy, the passes cut sets in two
    seen = []
    cover = oracle._SplitScan._cover

    def recorded(self, live, high):
        kept = cover(self, live, high)
        seen.append((live, kept[0]))
        return kept

    monkeypatch.setattr(oracle._SplitScan, "_cover", recorded)
    scan = oracle._SplitScan(_Enumeration(order, k, reduce_symmetry),
                             _subgraph_copies(g, order))
    default = oracle._MIN_PASS_WORDS
    dropped = 0
    for a, b in islice(scan.tasks(0), 2):
        seen.clear()
        for shortest in (default, 1):
            monkeypatch.setattr(oracle, "_MIN_PASS_WORDS", shortest)
            scan.first_missing(a, b)
        if not seen:  # the settle decided every block
            continue
        [(live, kept), (_, kept_cut)] = seen
        starts = (a // scan.block + live) * scan.block
        digits = np.concatenate([
            _reference_hits(g, order, k, reduce_symmetry, c, c + 1)[0]
            for c in starts])
        full = _set_residues(scan, digits)
        assert np.isin(live, kept, invert=True).tolist() == full
        assert np.array_equal(kept, kept_cut)
        for c in starts[full]:
            assert _reference_hits(g, order, k, reduce_symmetry, c,
                                   c + scan.block)[1].all()
        dropped += sum(full)
    assert dropped > 0


SCAN_PATTERNS = (("C4", C4), ("2K2", matching(2)), ("P3", path(3)),
                 ("P4", path(4)), ("P5", path(5)), ("K13", star(3)),
                 ("K14", star(4)))


def _scan_digest(budget):
    """sha256 over every field of each ScanResult of a fixed corpus: seven
    patterns over Z_2 to Z_5 at orders 2 to 8, plain and reduced, wherever
    the space fits the budget."""
    h = hashlib.sha256()
    scans = 0
    for name, g in SCAN_PATTERNS:
        for k in range(2, 6):
            for order in range(2, 9):
                for reduce_symmetry in (False, True):
                    if _Enumeration(order, k, reduce_symmetry).total > budget:
                        continue
                    res = scan_colorings(g, order, k, budget,
                                         reduce_symmetry=reduce_symmetry)
                    witness = (None if res.witness is None
                               else res.witness.matrix.astype("<i2").tobytes())
                    h.update(repr((name, k, order, reduce_symmetry,
                                   res.unavoidable, res.witness_counter,
                                   res.colorings_checked,
                                   res.enumerated_space, witness)).encode())
                    scans += 1
    return scans, h.hexdigest()


def test_compute_ramsey_lists_the_table_once(monkeypatch):
    # compute_ramsey lists the pattern's labeling table once for all its
    # orders, and only once an order fits the budget; its value, witness
    # and count equal those of separate scans of each order
    tables = _counted(monkeypatch, "_labeling_table")
    budget, max_n = 10 ** 6, 8
    for k in (2, 3):
        for name, g in SCAN_PATTERNS:
            if g.edge_count % k:
                continue
            for reduce_symmetry in (False, True):
                tables.clear()
                got = compute_ramsey(g, k, max_n, budget,
                                     reduce_symmetry=reduce_symmetry)
                assert len(tables) == 1, (name, k)
                value, limit, checked = None, "max_n", 0
                witness = ColoredClique(g.n - 1, k, np.zeros(
                    (g.n - 1, g.n - 1), dtype=np.int16))
                for order in range(g.n, max_n + 1):
                    try:
                        res = scan_colorings(g, order, k, budget,
                                             reduce_symmetry=reduce_symmetry)
                    except BudgetExceeded:
                        value, limit, witness = None, "budget", None
                        break
                    checked += res.colorings_checked
                    if res.unavoidable:
                        value, limit = order, None
                        break
                    witness = res.witness
                assert (got.value, got.limit, got.colorings_checked) == (
                    value, limit, checked), (name, k, reduce_symmetry)
                if witness is None:
                    assert got.witness_coloring is None
                else:
                    assert np.array_equal(got.witness_coloring.matrix,
                                          witness.matrix)
    tables.clear()
    assert compute_ramsey(path(4), 3, 8, budget=10).limit == "budget"
    assert tables == []  # K_4 over Z_3 has 729 colorings


def test_recorded_scan_digest():
    # recorded from the scan that ORed every copy into every block; 266
    # scans of up to 1.4e7 colorings, 6.1e7 colorings checked in all
    assert _scan_digest(15_000_000) == (266, "d02a129d18685eb19e3af20b30f57fb3"
                                             "a0797c6f346f6b70a23524cddfba9a5b")


def test_scan_working_set_is_bounded():
    # P_4 in K_6 over Z_3: 180 copies, 3^15 colorings. The scan that kept a
    # 1 MB gather buffer peaked at about 2 MB here.
    scan_colorings(path(4), 6, 3)  # first-call allocations stay out
    tracemalloc.start()
    try:
        res = scan_colorings(path(4), 6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.unavoidable
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("g, order, k, witness", [
    (path(2), 2, 2048, 1), (path(3), 3, 64, 65), (path(3), 3, 128, 129)],
    ids=["K2-K2-Z2048", "P3-K3-Z64", "P3-K3-Z128"])
def test_scan_working_set_is_bounded_at_large_moduli(g, order, k, witness):
    # a set-up that built a k × k shift table and gathered k² masks of a
    # whole block per set peaked at 34, 4.4 and 66 MiB here, and a batch
    # sized by its mask words alone decoded its block starts in 0.3 and
    # 0.5 MiB at Z_64 and Z_128
    scan_colorings(g, order, k)  # first-call allocations stay out
    tracemalloc.start()
    try:
        res = scan_colorings(g, order, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.witness_counter == witness
    assert peak < 3 << 17, peak  # 3/8 MiB


def test_settle_working_set_is_bounded():
    # a whole batch of reduced P_7 in K_9 over Z_3: 303 blocks, as many as
    # 2^13 words hold as their 27 high digits, and 11,808 copies with no
    # low edge, all taken by the settle. On batches of 26 blocks, word
    # passes alone peaked at 191 KiB here, and one product over those
    # copies at 1.2 MiB
    scan = oracle._SplitScan(_Enumeration(9, 3, True),
                             _subgraph_copies(path(7), 9))
    _, (start, stop) = islice(scan.tasks(0), 2)
    assert (stop - start) // scan.block == scan.batch == 303
    assert scan.batch == (1 << 13) // scan.split
    assert scan.settling == 11_808
    scan.first_missing(start, stop)  # first-call allocations stay out
    tracemalloc.start()
    try:
        found = scan.first_missing(start, stop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is None  # R(P_7, Z_3) = 8
    assert peak < 3 << 17, peak  # 3/8 MiB


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    sizes = []
    real_pool = multiprocessing.Pool

    def recording_pool(processes, *args, **kwargs):
        sizes.append(processes)  # but never start more than two
        return real_pool(min(processes, 2), *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for order in (4, 5):  # a witness at K_4, none at K_5
        many = scan_colorings(path(4), order, 3, jobs=64)
        one = scan_colorings(path(4), order, 3, jobs=1)
        assert (many.unavoidable, many.witness_counter,
                many.colorings_checked, many.enumerated_space) == (
            one.unavoidable, one.witness_counter, one.colorings_checked,
            one.enumerated_space)
    assert sizes == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: no pool
    assert scan_colorings(path(4), 5, 3, jobs=64).unavoidable
    assert sizes == [2, 2]

    def unasked():
        raise AssertionError("one job needs no CPU count")

    monkeypatch.setattr(os, "cpu_count", unasked)
    assert scan_colorings(path(4), 5, 3, jobs=1).unavoidable
    assert compute_ramsey(path(4), 3, 8).value == 5


def test_subgraph_copies_match_every_placement():
    pendant = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    cases = [(g, order)
             for g in (matching(2), path(3), path(4), path(5), star(3), C4,
                       pendant)
             for order in range(g.n, g.n + 4)]
    for g, order in cases + [(path(7), 8)]:
        want = np.array(sorted(sorted(c) for c in _placements(g, order)),
                        dtype=np.int64)
        got = _subgraph_copies(g, order)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), order
        assert np.array_equal(got, want), (sorted(g.edges), order)


@pytest.mark.parametrize("g, order, k, reduce_symmetry", [
    (path(4), 6, 3, False), (matching(2), 7, 2, False),
    (star(3), 5, 3, True)], ids=["P4-K6-Z3", "2K2-K7-Z2", "K13-K5-Z3-reduced"])
def test_digit_masks_decode_the_low_digits(g, order, k, reduce_symmetry):
    copies = _subgraph_copies(g, order)
    scan = oracle._SplitScan(_Enumeration(order, k, reduce_symmetry), copies)
    low = order * (order - 1) // 2 - scan.split
    rows = np.arange(scan.block)
    digits = rows[:, None] // k ** np.arange(low - 1, -1, -1) % k
    # the scan takes the copies fewest low edges first, in a stable order
    ranked = np.argsort((copies >= scan.split).sum(axis=1), kind="stable")
    assert len(scan.masks) == scan.offsets.max() + k
    for offset, copy in zip(scan.offsets, copies[ranked]):
        minus = -digits[:, copy[copy >= scan.split] - scan.split].sum(axis=1)
        for r in range(k):
            bits = np.unpackbits(scan.masks[offset + r].astype("<u8")
                                 .view(np.uint8), bitorder="little")
            assert not bits[scan.block:].any()  # pad rows
            assert np.array_equal(bits[:scan.block] == 1, minus % k == r)


@pytest.mark.parametrize("k, low", [(3, 4), (5, 6), (2, 16)])
def test_digit_masks_decode_each_digit(k, low):
    # at Z_5 with 5^6-row blocks and at Z_2 with 2^16-row ones, k rows of
    # bools would pass 2^13 words, so the values of a digit go in groups
    block = k ** low
    words = -(-block // 64)
    assert (k * 8 * words > oracle._PASS_WORDS) == (k != 3)
    masks = oracle._digit_masks(k, low, words)
    rows = np.arange(block)
    for j in range(low + 1):
        digit = rows // k ** (low - 1 - j) % k if j < low else 0 * rows
        bits = np.unpackbits(masks[j].astype("<u8").view(np.uint8),
                             axis=1, bitorder="little")
        assert not bits[:, block:].any()  # pad rows
        for r in range(k):
            assert np.array_equal(bits[r, :block] == 1, -digit % k == r)


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


def test_reduced_budget_is_checked_before_listing_prefixes():
    # the size of the reduced space is counted, not listed
    for k in range(2, 6):
        for order in range(2, 8):
            enum = _Enumeration(order, k, True)
            assert enum.total == len(enum.prefixes) * enum.suffix_size
    # K_{1,12} over Z_12 at K_13 has C(23, 12) = 1.35e6 vertex-0 prefixes,
    # and listing them took 275 MB; P_4 over Z_200 at K_4 has 1.35e6 too
    tracemalloc.start()
    try:
        r = compute_ramsey(star(12), 12, 20, reduce_symmetry=True)
        with pytest.raises(BudgetExceeded):
            scan_colorings(path(4), 4, 200, budget=1000,
                           reduce_symmetry=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.value, r.limit) == (None, "budget")
    assert _Enumeration(13, 12, True).total == math.comb(23, 12) * 12 ** 66
    assert peak < 1 << 20, peak


def test_spaces_past_int64_counters_exceed_any_budget(tmp_path):
    # 2^63 colorings or more cannot be named by int64 counters: K_12 over
    # Z_2 has 2^66, reduced K_13 over Z_2 13 · 2^66, K_7 over Z_8 2^63
    cp = tmp_path / "scan.ckpt"
    cp.write_text("not a checkpoint\n")  # refused before it is read
    for order, k, reduce_symmetry in ((12, 2, False), (13, 2, True),
                                      (7, 8, False)):
        for checkpoint in (None, str(cp)):
            with pytest.raises(BudgetExceeded):
                scan_colorings(path(3), order, k, budget=2 ** 70,
                               reduce_symmetry=reduce_symmetry,
                               checkpoint=checkpoint)
    r = compute_ramsey(matching(6), 2, 14, budget=2 ** 70)
    assert (r.value, r.limit, r.colorings_checked) == (None, "budget", 0)


def test_high_sums_do_not_wrap_at_large_moduli(tmp_path):
    # K_3 over Z_32767 in three high digits: colors 32766, 32766, 2 sum to
    # 2 · 32767, which int16 sums wrap to -2, a false witness
    k = 32767
    triangle = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    cp = str(tmp_path / "scan.ckpt")
    start = ((k - 1) * k + k - 1) * k + 2
    _write_entries(cp, {oracle._fingerprint(triangle, 3, k, False): start})
    res = scan_colorings(triangle, 3, k, budget=k ** 3, checkpoint=cp)
    assert res.witness_counter == start + 1  # 32766 + 32766 + 3 = 2k + 1
    iu = np.triu_indices(3, 1)
    assert list(res.witness.matrix[iu]) == [k - 1, k - 1, 3]
    # colors are int16, so larger moduli are refused up front
    with pytest.raises(ValueError, match="modulus must be in"):
        scan_colorings(path(2), 2, 2 ** 15 + 1)
    with pytest.raises(ValueError, match="modulus must be in"):
        compute_ramsey(path(2), 40_000, 3)


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
    [counter] = _read_entries(cp).values()
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
    [fp] = _read_entries(cp)
    _write_entries(cp, {fp: fullspace // 2})
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


def _same_ramsey(a, b):
    assert (a.value, a.limit) == (b.value, b.limit)
    assert np.array_equal(a.witness_coloring.matrix, b.witness_coloring.matrix)


def test_checkpoint_rerun_after_finished_run(tmp_path):
    cp = str(tmp_path / "ramsey.ckpt")
    for g, k, max_n in ((path(4), 3, 7), (star(3), 3, 8)):
        plain = compute_ramsey(g, k, max_n)
        first = compute_ramsey(g, k, max_n, checkpoint=cp)
        again = compute_ramsey(g, k, max_n, checkpoint=cp)
        _same_ramsey(first, plain)
        _same_ramsey(again, plain)
        assert first.colorings_checked == plain.colorings_checked
        assert again.colorings_checked < plain.colorings_checked
        # order by order against the same file, as compute_ramsey scans
        for order in range(g.n, plain.value + 1):
            res = scan_colorings(g, order, k, checkpoint=cp)
            assert res.unavoidable == (order == plain.value)
        (tmp_path / "ramsey.ckpt").unlink()


def test_checkpoint_rerun_lists_no_copies_for_a_finished_order(
        tmp_path, monkeypatch):
    # R(P_4, Z_3) = 5: a rerun lists copies only at order 4, to find its
    # witness again, and none at order 5, whose entry is already 3^10
    cp = str(tmp_path / "ramsey.ckpt")
    first = compute_ramsey(path(4), 3, 7, checkpoint=cp)
    assert first.value == 5
    listed = _counted(monkeypatch, "_subgraph_copies")
    again = compute_ramsey(path(4), 3, 7, checkpoint=cp)
    _same_ramsey(again, first)
    assert [args[1] for args in listed] == [4]
    res = scan_colorings(path(4), 5, 3, checkpoint=cp)
    assert (res.unavoidable, res.colorings_checked) == (True, 0)
    assert [args[1] for args in listed] == [4]


def test_checkpoint_skips_writes_that_change_nothing(tmp_path, monkeypatch):
    # one write per task, and none that leaves the entry as it was: a
    # finished one-task scan once, not twice, and its rerun never
    writes = _recorded_writes(monkeypatch)
    cp = tmp_path / "scan.ckpt"
    assert len(_tasks(path(4), 5, 3, False)) == 1  # R(P_4, Z_3) = 5
    for _ in range(2):
        assert scan_colorings(path(4), 5, 3, checkpoint=str(cp)).unavoidable
        assert len(writes) == 1
    # a witness in the second task: its first task's end, then the witness;
    # the rerun finds the same witness and writes nothing
    writes.clear()
    cp = tmp_path / "witness.ckpt"
    fp = oracle._fingerprint(path(3), 6, 3, True)
    for _ in range(2):
        res = scan_colorings(path(3), 6, 3, reduce_symmetry=True,
                             checkpoint=str(cp))
        assert res.witness_counter == 619_770
        assert [w[fp] for w in writes] == [79 * 3 ** 8, 619_770]
    assert cp.read_text() == f"619770 {fp}\n"


class _Interrupted(Exception):
    pass


def test_checkpoint_resumes_run_interrupted_in_second_order(tmp_path,
                                                           monkeypatch):
    # K_{1,3} + K_2 over Z_2: every degree is odd, so the value is 7; order
    # 6 has a witness and order 7 takes 2^21 colorings, many tasks
    g = build_forest(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    plain = compute_ramsey(g, 2, 8)
    assert plain.value == 7 == exact_z2(g)

    cp = str(tmp_path / "ramsey.ckpt")
    write = oracle._write_entries

    def write_then_stop(path, entries):
        write(path, entries)
        if any(fp.endswith("-7") and 0 < counter < 2 ** 21
               for fp, counter in entries.items()):
            raise _Interrupted

    monkeypatch.setattr(oracle, "_write_entries", write_then_stop)
    with pytest.raises(_Interrupted):
        compute_ramsey(g, 2, 8, checkpoint=cp)
    monkeypatch.undo()
    fp, counter = list(_read_entries(cp).items())[-1]
    assert fp.endswith("-7") and 0 < counter < 2 ** 21

    resumed = compute_ramsey(g, 2, 8, checkpoint=cp)
    _same_ramsey(resumed, plain)
    assert resumed.colorings_checked < plain.colorings_checked
    # another modulus or reduction mode does not read this file
    with pytest.raises(CheckpointMismatch):
        scan_colorings(g, 7, 2, reduce_symmetry=True, checkpoint=cp)
    with pytest.raises(CheckpointMismatch):
        scan_colorings(matching(2), 7, 2, checkpoint=cp)


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


def test_exact_z3_values_at_k7_by_enumeration():
    # 3K_2 and the (3, 4) double star have value 8, so some coloring of K_7
    # over Z_3 avoids them: the first one is found at the same counter in
    # either mode, and brute force finds no zero-sum copy in it.
    # spider(2,2,2) has value 7: no coloring of K_7 avoids it
    budget = 3 ** 21
    dstar = build_forest(7, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (3, 6)])
    for g, counter in ((matching(3), 29_524), (dstar, 28_578_195)):
        assert exact_z3(g) == 8
        for reduce in (False, True):
            res = scan_colorings(g, 7, 3, budget, reduce_symmetry=reduce)
            assert not res.unavoidable
            assert res.witness_counter == counter
            assert brute_zero_sum(g, res.witness) is None
    legs = spider(2, 2, 2)
    assert exact_z3(legs) == 7
    res = scan_colorings(legs, 7, 3, budget, reduce_symmetry=True)
    assert res.unavoidable
    assert res.colorings_checked == res.enumerated_space == 401_769_396


def test_exact_z3_agrees_with_enumeration():
    g = build_forest(5, [(0, 1), (1, 2), (3, 4)])
    r = compute_ramsey(g, 3, 8)
    assert r.value == exact_z3(g) == 6
