"""Exhaustive ground truth at desk scale.

Two independent engines live here and are deliberately kept separate from the
constructive embedder so they can serve as its oracle:

* :func:`brute_zero_sum` searches one colored clique for a zero-sum copy of a
  pattern by injective backtracking in lowest-index order.
* :func:`scan_colorings` enumerates every coloring of K_N over Z_k (optionally
  with a sound vertex-0 symmetry reduction) and reports whether each one
  contains a zero-sum copy; :func:`compute_ramsey` scans orders upward and
  asserts the defining property directly, never assuming monotonicity.

Patterns are :class:`~zsforest.core.SimpleGraph` instances: any simple graph
from ``build_graph``, cycles allowed, or a ``Forest`` from ``build_forest``.
Anything else is rejected with ``TypeError``.

Colorings are identified with base-k counters: edges are sorted
lexicographically ((0,1) < (0,2) < ... < (1,2) < ...) and the first edge is
the most significant digit, so counter order equals lexicographic coloring
order. A checkpoint file holds one line per order, the next counter to scan
and a fingerprint of the enumeration (pattern, modulus, reduction mode,
order).

Cost of a scan over m = C(N,2) edges with C distinct copies of the pattern.
The check splits the counter at its L low digits, L about m/2 (at most the
suffix length under the reduction, and k^L <= 2^16). Once per scan it sums
each copy's low edges for all k^L low-digit rows and packs the residues
into C*k bitmasks of k^L bits. Each aligned block of k^L counters then
costs one small matmul for the copies' high sums and an OR of C selected
masks, so a scan of S colorings does about C*S/64 word operations and
nothing per coloring in Python. Batches keep the gathered masks to about
1 MB. On a 2-vCPU shared VM, P_4 in K_6 over Z_3 (3^15 colorings, 360
copies) takes about 0.1 s, and the reduced scan of P_4 in K_7 over Z_3
(4.0e8 colorings, 420 copies) about 5 s.
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
_TASK_COLORINGS = 1 << 16  # least colorings per task, so per checkpoint write
_MAX_BLOCK = 1 << 16  # most low-digit rows per block
_BATCH_WORDS = 1 << 17  # 64-bit words gathered at once, about 1 MB


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
    """Name of one order's checkpoint entry: a hash of the pattern, modulus
    and reduction mode, then the order."""
    text = f"{k}|{int(reduce_symmetry)}|{g.n}|{g.sorted_edges()}"
    return f"{hashlib.sha256(text.encode()).hexdigest()[:16]}-{order}"


def _read_entries(path: str) -> dict[str, int]:
    """Checkpoint entries in file order: fingerprint -> next counter."""
    entries = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2 or not parts[0].isdigit():
                raise CheckpointMismatch(
                    f"malformed checkpoint: {line.strip()!r}")
            entries[parts[1]] = int(parts[0])
    if not entries:
        raise CheckpointMismatch(f"empty checkpoint: {path}")
    return entries


def _write_entries(path: str, entries: dict[str, int]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.writelines(f"{counter} {fp}\n" for fp, counter in entries.items())
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

    def colors_block(self, start: int, count: int, step: int = 1
                     ) -> np.ndarray:
        """Color digits of the counters start, start + step, ... (count of
        them), shape (count, m)."""
        idx = np.arange(start, start + count * step, step, dtype=np.int64)
        out = np.empty((count, self.m), dtype=np.int16)
        lo = 0
        if self.reduce:
            lo = self.order - 1
            rank, idx = np.divmod(idx, self.suffix_size)
            out[:, :lo] = self.prefixes[rank]
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


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack bools along the last axis (a multiple of 64 long) into 64-bit
    words, element i at bit i % 64 of word i // 64."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


class _SplitScan:
    """The zero-sum check over counter ranges of one coloring space, split
    at the low digits.

    A block is an aligned run of k^L counters: it fixes the high m - L
    digits and runs through every assignment of the L low ones. So each
    copy's sum over its low edges is known per low-digit row once per scan,
    and stored as one bitmask per (copy, residue) marking the rows where it
    takes that residue. A block's colorings with a zero-sum copy are then
    the OR, over copies, of the mask selected by minus the copy's high sum.
    """

    def __init__(self, enum: _Enumeration, copies: np.ndarray):
        k, m = enum.k, enum.m
        low = min((m + 1) // 2, enum.suffix_len)
        while k ** low > _MAX_BLOCK:
            low -= 1
        self.enum = enum
        self.split = m - low  # number of high digits
        self.block = k ** low
        self.words = words = -(-self.block // 64)
        ncopies = len(copies)
        incidence = np.zeros((m, ncopies), dtype=np.int16)
        incidence[copies, np.arange(ncopies)[:, None]] = 1
        self.high = incidence[:self.split]
        self.offsets = np.arange(ncopies) * k

        low_digits = enum.colors_block(0, self.block)[:, self.split:]
        residues = np.arange(k)[:, None]
        self.masks = np.empty((ncopies * k, words), dtype=np.uint64)
        # copies per pass, keeping each pass's temporaries near 256 KB
        step = max(1, min(ncopies, 2 * _BATCH_WORDS // (k * words * 64)))
        sums = np.full((step, words * 64), -1, dtype=np.int16)
        for c0 in range(0, ncopies, step):
            part = incidence[self.split:, c0:c0 + step]
            sums[:part.shape[1], :self.block] = (low_digits @ part).T % k
            hit = sums[:part.shape[1], None, :] == residues
            self.masks[c0 * k:(c0 + step) * k] = (
                _pack(hit).reshape(-1, words))
        # rows past the end of a block, set so that they never look missing
        self.pad = _pack(np.arange(words * 64) >= self.block)

        self.copy_step = max(1, min(ncopies, _BATCH_WORDS // words))
        self.batch = max(1, min(enum.total // self.block,
                                _BATCH_WORDS // (self.copy_step * words)))
        # one gather buffer for every batch: a fresh 1 MB array per batch
        # comes from new pages each time and took twice as long
        self.gathered = np.empty(self.batch * self.copy_step * words,
                                 dtype=np.uint64)

    def tasks(self, start: int):
        """(start, stop) ranges from start to the end of the space; each
        stops on a batch boundary at least 2^16 counters on, or at the end."""
        unit = self.batch * self.block
        pos = start
        while pos < self.enum.total:
            stop = min(self.enum.total,
                       -(-(pos + _TASK_COLORINGS) // unit) * unit)
            yield pos, stop
            pos = stop

    def first_missing(self, start: int, stop: int) -> Optional[int]:
        """Lowest counter in [start, stop) whose coloring has no zero-sum
        copy, or None. ``stop`` is a multiple of the block length."""
        block, words = self.block, self.words
        for b0 in range(start // block, stop // block, self.batch):
            nb = min(self.batch, stop // block - b0)
            high = self.enum.colors_block(b0 * block, nb, block)
            # mask row of (copy, residue) = (copy, minus the high sum)
            picks = ((-(high[:, :self.split] @ self.high)) % self.enum.k
                     + self.offsets)
            seen = np.tile(self.pad, (nb, 1))
            if b0 * block < start:  # resuming inside this block
                seen[0] |= _pack(np.arange(words * 64) < start - b0 * block)
            for c0 in range(0, picks.shape[1], self.copy_step):
                part = picks[:, c0:c0 + self.copy_step]
                picked = self.gathered[:part.size * words].reshape(
                    *part.shape, words)
                np.take(self.masks, part, axis=0, out=picked, mode="clip")
                seen |= np.bitwise_or.reduce(picked, axis=1)
            unseen = ~seen
            missing = np.flatnonzero(unseen)
            if missing.size:
                b, w = divmod(int(missing[0]), words)
                bits = int(unseen[b, w])
                bit = (bits & -bits).bit_length() - 1
                return (b0 + b) * block + 64 * w + bit
        return None


# worker state for sharded scans (populated per process by the initializer)
_WORKER: dict = {}


def _init_worker(scan: _SplitScan) -> None:
    _WORKER["scan"] = scan


def _run_task(task: tuple[int, int]) -> tuple[int, int, Optional[int]]:
    start, stop = task
    return start, stop, _WORKER["scan"].first_missing(start, stop)


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
    jobs setting: sharded tasks are consumed in submission order and the
    scan stops at the first task containing a witness.

    A checkpoint file holds one entry per order, so scans of successive
    orders (as :func:`compute_ramsey` runs them) can share one file. Each
    entry is the next counter not yet known to have a zero-sum copy; a scan
    resumes from its order's entry, and raises CheckpointMismatch on an
    entry written for another pattern, modulus or reduction mode.
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
    entries: dict[str, int] = {}
    if checkpoint is not None and os.path.exists(checkpoint):
        entries = _read_entries(checkpoint)
        family = fingerprint.rsplit("-", 1)[0]
        if any(fp.rsplit("-", 1)[0] != family for fp in entries):
            raise CheckpointMismatch(
                f"checkpoint {checkpoint} was written by a different scan")
    start = min(entries.get(fingerprint, 0), enum.total)

    def save(counter: int) -> None:
        if checkpoint is not None:
            entries[fingerprint] = counter
            _write_entries(checkpoint, entries)

    checked = 0
    witness_counter: Optional[int] = None

    def consume(task_start: int, stop: int, found: Optional[int]) -> bool:
        """Advance the frontier; True means stop (witness found)."""
        nonlocal checked, witness_counter
        if found is not None:
            checked += found - task_start + 1
            witness_counter = found
            save(found)
            return True
        checked += stop - task_start
        save(stop)
        return False

    scan = _SplitScan(enum, _subgraph_copies(g, order))
    if jobs <= 1:
        for task_start, stop in scan.tasks(start):
            if consume(task_start, stop,
                       scan.first_missing(task_start, stop)):
                break
    else:
        import multiprocessing

        with multiprocessing.Pool(jobs, initializer=_init_worker,
                                  initargs=(scan,)) as pool:
            for result in pool.imap(_run_task, scan.tasks(start)):
                if consume(*result):
                    pool.terminate()
                    break

    if witness_counter is None:
        save(enum.total)
        return ScanResult(True, None, None, checked, enum.total)
    return ScanResult(False, witness_counter, enum.coloring_at(witness_counter),
                      checked, enum.total)


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
