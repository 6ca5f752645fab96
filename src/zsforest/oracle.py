"""Exhaustive ground truth at desk scale.

Two independent engines live here and are deliberately kept separate from the
constructive embedder so they can serve as its oracle:

* :func:`brute_zero_sum` searches one colored clique for a zero-sum copy of a
  pattern by injective backtracking in lowest-index order.
* :func:`unavoidable` enumerates every coloring of K_N over Z_k (optionally
  with a sound vertex-0 symmetry reduction) and reports whether each one
  contains a zero-sum copy; :func:`compute_ramsey` scans orders upward and
  asserts the defining property directly, never assuming monotonicity.

Patterns are :class:`~zsforest.core.SimpleGraph` instances: any simple graph
from ``build_graph``, cycles allowed, or a ``Forest`` from ``build_forest``.
Anything else is rejected with ``TypeError``.

Colorings are identified with base-k counters: edges are sorted
lexicographically ((0,1) < (0,2) < ... < (1,2) < ...) and the first edge is
the most significant digit, so counter order equals lexicographic coloring
order. Checkpoints store the next counter plus a fingerprint of the
enumeration (pattern, order, modulus, reduction mode).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations
from typing import Optional

import numpy as np

from .core import (ColoredClique, DivisibilityViolation, Embedding, Forest,
                   SimpleGraph, ZeroSumError)

DEFAULT_BUDGET = 20_000_000
_CHUNK_ROWS = 1 << 16


class BudgetExceeded(ZeroSumError):
    """The coloring space at this order is larger than the budget allows."""


class CheckpointMismatch(ZeroSumError):
    """Checkpoint file belongs to a different enumeration."""


def _as_pattern(g) -> SimpleGraph:
    if isinstance(g, SimpleGraph):
        return g
    raise TypeError(f"expected a SimpleGraph, got {type(g).__name__}")


# ---------------------------------------------------------------------------
# backtracking search in a single colored clique
# ---------------------------------------------------------------------------

def brute_zero_sum(g: SimpleGraph, host: ColoredClique,
                   p: Optional[int] = None) -> Optional[Embedding]:
    """First zero-sum copy of g in the host, or None after exhausting all
    injective placements.

    Pattern vertices are placed in ascending order and host candidates are
    tried in ascending order, so the returned embedding is the lexicographic
    minimum. The only pruning: once every pattern edge has both endpoints
    placed, the sum is final and a nonzero value cuts the branch.
    """
    g = _as_pattern(g)
    if p is None:
        p = host.modulus
    if p != host.modulus:
        raise ValueError(
            f"modulus argument {p} != clique modulus {host.modulus}")
    n, order = g.n, host.order
    if n > order:
        return None
    if n == 0:
        return None

    rows = host.matrix.tolist()
    earlier: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        earlier[max(u, v)].append(min(u, v))

    mapping = [-1] * n
    used = [False] * order

    def place(t: int, acc: int) -> bool:
        if t == n:
            return acc % p == 0
        targets = [mapping[w] for w in earlier[t]]
        for h in range(order):
            if used[h]:
                continue
            row = rows[h]
            add = 0
            for w in targets:
                add += row[w]
            used[h] = True
            mapping[t] = h
            if place(t + 1, acc + add):
                return True
            used[h] = False
        mapping[t] = -1
        return False

    if place(0, 0):
        return Embedding(pattern=g, host=host, mapping=tuple(mapping))
    return None


# ---------------------------------------------------------------------------
# full enumeration of colorings
# ---------------------------------------------------------------------------

def _edge_list(order: int) -> list[tuple[int, int]]:
    return list(combinations(range(order), 2))


def _subgraph_copies(g: SimpleGraph, order: int) -> np.ndarray:
    """Distinct edge-index sets of all copies of g inside K_order.

    Copies with identical edge sets (automorphic images) are deduplicated;
    the sum over a copy depends only on its edge set.
    """
    pairs = _edge_list(order)
    index = {e: i for i, e in enumerate(pairs)}
    edges = g.sorted_edges()
    seen = set()
    out = []
    for combo in combinations(range(order), g.n):
        for perm in permutations(combo):
            key = frozenset(
                index[(perm[u], perm[v])] if perm[u] < perm[v]
                else index[(perm[v], perm[u])]
                for u, v in edges)
            if key not in seen:
                seen.add(key)
                out.append(sorted(key))
    out.sort()
    return np.array(out, dtype=np.int64)


def _fingerprint(g: SimpleGraph, order: int, k: int,
                 reduce_symmetry: bool) -> str:
    text = f"{order}|{k}|{int(reduce_symmetry)}|{g.n}|{g.sorted_edges()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_checkpoint(path: str) -> tuple[int, str]:
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
    parts = line.split()
    if len(parts) != 2 or not parts[0].isdigit():
        raise CheckpointMismatch(f"malformed checkpoint: {line!r}")
    return int(parts[0]), parts[1]


def write_checkpoint(path: str, counter: int, fingerprint: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(f"{counter} {fingerprint}\n")
    os.replace(tmp, path)


class _Enumeration:
    """Counter arithmetic for one (order, k, reduction) coloring space."""

    def __init__(self, order: int, k: int, reduce_symmetry: bool):
        self.order = order
        self.k = k
        self.reduce = reduce_symmetry
        self.m = order * (order - 1) // 2
        if reduce_symmetry and order >= 2:
            d = order - 1  # vertex 0's edges come first in lex order
            self.prefixes = np.array(
                list(combinations_with_replacement(range(k), d)),
                dtype=np.int16)
            self.suffix_len = self.m - d
            self.suffix_size = k ** self.suffix_len
            self.total = len(self.prefixes) * self.suffix_size
        else:
            self.reduce = False
            self.prefixes = None
            self.suffix_len = self.m
            self.suffix_size = k ** self.m
            self.total = self.suffix_size

    def chunks(self, start: int, chunk_rows: int = _CHUNK_ROWS):
        """Yield (start, count) tasks, never straddling a prefix boundary."""
        pos = start
        while pos < self.total:
            count = min(chunk_rows, self.total - pos)
            if self.reduce:
                room = self.suffix_size - (pos % self.suffix_size)
                count = min(count, room)
            yield (pos, count)
            pos += count

    def colors_block(self, start: int, count: int) -> np.ndarray:
        """Color digits for counters [start, start+count), shape (count, m)."""
        out = np.empty((count, self.m), dtype=np.int16)
        if self.reduce:
            rank = start // self.suffix_size
            assert (start + count - 1) // self.suffix_size == rank
            d = self.order - 1
            out[:, :d] = self.prefixes[rank]
            idx = np.arange(start % self.suffix_size,
                            start % self.suffix_size + count, dtype=np.int64)
            lo = d
        else:
            idx = np.arange(start, start + count, dtype=np.int64)
            lo = 0
        for j in range(self.m - 1, lo - 1, -1):
            out[:, j] = idx % self.k
            idx //= self.k
        return out

    def coloring_at(self, counter: int) -> ColoredClique:
        digits = self.colors_block(counter, 1)[0]
        mat = np.zeros((self.order, self.order), dtype=np.int16)
        for e, (u, v) in enumerate(_edge_list(self.order)):
            mat[u, v] = digits[e]
            mat[v, u] = digits[e]
        return ColoredClique(self.order, self.k, mat)


def _scan_block(colors: np.ndarray, copies: np.ndarray, k: int
                ) -> Optional[int]:
    """Offset of the first row with no zero-sum copy, or None."""
    if copies.size == 0:
        return 0  # nothing can be embedded, every coloring is a counterexample
    nrows = colors.shape[0]
    mask = np.zeros(nrows, dtype=bool)
    for row in copies:
        sums = colors[:, row].sum(axis=1, dtype=np.int32)
        mask |= (sums % k) == 0
        if mask.all():
            return None
    missing = np.flatnonzero(~mask)
    return int(missing[0]) if missing.size else None


# worker state for sharded scans (populated per process by the initializer)
_WORKER: dict = {}


def _init_worker(order: int, k: int, reduce_symmetry: bool,
                 copies: np.ndarray) -> None:
    _WORKER["enum"] = _Enumeration(order, k, reduce_symmetry)
    _WORKER["copies"] = copies
    _WORKER["k"] = k


def _run_task(task: tuple[int, int]) -> tuple[int, int, Optional[int]]:
    start, count = task
    colors = _WORKER["enum"].colors_block(start, count)
    off = _scan_block(colors, _WORKER["copies"], _WORKER["k"])
    return start, count, off


@dataclass(frozen=True)
class ScanResult:
    unavoidable: bool
    witness_counter: Optional[int]
    witness: Optional[ColoredClique]
    colorings_checked: int
    enumerated_space: int


def scan_colorings(g: SimpleGraph, order: int, k: int,
                   budget: int = DEFAULT_BUDGET, *,
                   reduce_symmetry: bool = False, jobs: int = 1,
                   checkpoint: Optional[str] = None) -> ScanResult:
    """Decide whether every Z_k coloring of K_order has a zero-sum copy of g.

    Counterexamples are reported at their lowest counter regardless of the
    jobs setting: sharded chunks are consumed in submission order and the scan
    stops at the first chunk containing a witness.
    """
    g = _as_pattern(g)
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    if g.edge_count == 0:
        raise ValueError("pattern has no edges")
    enum = _Enumeration(order, k, reduce_symmetry)
    if enum.total > budget:
        raise BudgetExceeded(
            f"{enum.total} colorings at order {order} exceed budget {budget}")

    if g.n > order:
        # no injective placement exists; the all-zero coloring is a witness
        return ScanResult(False, 0, enum.coloring_at(0), 0, enum.total)

    fingerprint = _fingerprint(g, order, k, enum.reduce)
    start = 0
    if checkpoint is not None and os.path.exists(checkpoint):
        counter, stored = read_checkpoint(checkpoint)
        if stored != fingerprint:
            raise CheckpointMismatch(
                f"checkpoint {checkpoint} was written by a different scan")
        start = min(counter, enum.total)

    copies = _subgraph_copies(g, order)
    checked = 0
    witness_counter: Optional[int] = None

    def consume(task_start: int, count: int, off: Optional[int]) -> bool:
        """Advance the frontier; True means stop (witness found)."""
        nonlocal checked, witness_counter
        if off is not None:
            checked += off + 1
            witness_counter = task_start + off
            return True
        checked += count
        if checkpoint is not None:
            write_checkpoint(checkpoint, task_start + count, fingerprint)
        return False

    tasks = enum.chunks(start)
    if jobs <= 1:
        for task_start, count in tasks:
            colors = enum.colors_block(task_start, count)
            off = _scan_block(colors, copies, k)
            if consume(task_start, count, off):
                break
    else:
        import multiprocessing

        with multiprocessing.Pool(
                jobs, initializer=_init_worker,
                initargs=(order, k, enum.reduce, copies)) as pool:
            for task_start, count, off in pool.imap(_run_task, tasks):
                if consume(task_start, count, off):
                    pool.terminate()
                    break

    if witness_counter is None:
        if checkpoint is not None:
            write_checkpoint(checkpoint, enum.total, fingerprint)
        return ScanResult(True, None, None, checked, enum.total)
    return ScanResult(False, witness_counter, enum.coloring_at(witness_counter),
                      checked, enum.total)


def unavoidable(g: SimpleGraph, order: int, k: int,
                budget: int = DEFAULT_BUDGET, *,
                reduce_symmetry: bool = False, jobs: int = 1,
                checkpoint: Optional[str] = None) -> bool:
    """True iff every Z_k edge coloring of K_order has a zero-sum copy of g."""
    return scan_colorings(g, order, k, budget, reduce_symmetry=reduce_symmetry,
                          jobs=jobs, checkpoint=checkpoint).unavoidable


@dataclass(frozen=True)
class RamseyResult:
    pattern: SimpleGraph
    modulus: int
    value: Optional[int]
    limit: Optional[str]  # None, "budget" or "max_n"
    witness_coloring: Optional[ColoredClique]
    colorings_checked: int


def compute_ramsey(g: SimpleGraph, k: int, max_n: int,
                   budget: int = DEFAULT_BUDGET, *,
                   reduce_symmetry: bool = False, jobs: int = 1,
                   checkpoint: Optional[str] = None) -> RamseyResult:
    """Smallest N in [g.n, max_n] at which zero-sum copies are unavoidable.

    Every order is scanned and the definition asserted directly. The witness
    is a coloring of K_{N-1} with no zero-sum copy: the counterexample found
    at the previous order, or the all-zero coloring when N equals g.n (no
    copy fits in a smaller clique). A budget overflow before the value is
    found yields value None with limit "budget"; exhausting max_n yields
    limit "max_n".
    """
    g = _as_pattern(g)
    if k < 2:
        raise ValueError(f"modulus must be >= 2, got {k}")
    if g.edge_count == 0:
        raise ValueError("pattern has no edges")
    if g.edge_count % k != 0:
        raise DivisibilityViolation(
            f"{k} does not divide edge count {g.edge_count}")

    checked = 0
    prev_witness: Optional[ColoredClique] = None
    for order in range(g.n, max_n + 1):
        try:
            res = scan_colorings(g, order, k, budget,
                                 reduce_symmetry=reduce_symmetry, jobs=jobs,
                                 checkpoint=checkpoint)
        except BudgetExceeded:
            return RamseyResult(g, k, None, "budget", None, checked)
        checked += res.colorings_checked
        if res.unavoidable:
            if prev_witness is None:
                below = max(g.n - 1, 1)
                prev_witness = ColoredClique(
                    below, k, np.zeros((below, below), dtype=np.int16))
            return RamseyResult(g, k, order, None, prev_witness, checked)
        prev_witness = res.witness
    return RamseyResult(g, k, None, "max_n", prev_witness, checked)


# ---------------------------------------------------------------------------
# closed-form values for k = 2 and k = 3
# ---------------------------------------------------------------------------

def _is_complete_on(g: SimpleGraph, comp: list[int]) -> bool:
    """True when the connected component ``comp`` is a clique."""
    return all(g.degree(v) == len(comp) - 1 for v in comp)


def exact_z2(g: SimpleGraph) -> int:
    """Exact zero-sum Ramsey number over Z_2 for a simple graph with an even
    number of edges and no isolated vertices."""
    g = _as_pattern(g)
    if g.edge_count % 2 != 0:
        raise DivisibilityViolation(
            f"2 does not divide edge count {g.edge_count}")
    n = g.n
    comps = g.components()
    degrees = list(g.degrees)

    if len(comps) == 1 and _is_complete_on(g, comps[0]) and n % 4 in (0, 1):
        return n + 2
    two_cliques = (len(comps) == 2
                   and all(_is_complete_on(g, c) for c in comps)
                   and all(len(c) >= 2 for c in comps))
    if two_cliques:
        a, b = (len(c) for c in comps)
        if (a * (a - 1) // 2 + b * (b - 1) // 2) % 4 == 0:
            return n + 1
    if all(d % 2 == 1 for d in degrees):
        return n + 1
    return n


def exact_z3(f: Forest) -> int:
    """Exact zero-sum Ramsey number over Z_3 for a forest with 3 | edges and
    no isolated vertices."""
    if not isinstance(f, Forest):
        raise TypeError("exact_z3 takes a Forest")
    if f.edge_count % 3 != 0:
        raise DivisibilityViolation(
            f"3 does not divide edge count {f.edge_count}")
    n = f.n
    degrees = list(f.degrees)
    is_star = (f.edge_count == n - 1 and f.degree_count(1) == n - 1
               and n >= 3)
    one_mod3_everywhere = all(d % 3 == 1 for d in degrees)
    if one_mod3_everywhere or is_star:
        return n + 2
    no_zero_degrees = all(d % 3 != 0 for d in degrees)
    zero_count = sum(1 for d in degrees if d % 3 == 0)
    rest_are_one = all(d % 3 == 1 for d in degrees if d % 3 != 0)
    if no_zero_degrees or (zero_count == 1 and rest_are_one):
        return n + 1
    return n
