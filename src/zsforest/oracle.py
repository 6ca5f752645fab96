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
The copies are listed with array operations, nothing per placement in
Python: the distinct edge sets of the pattern's n! labelings on K_n form
one table, one fancy index maps it onto every n-subset of K_N, and one
lexsort orders the rows. :func:`compute_ramsey` lists that table once for
all its orders, after the first order's budget check. The check splits
the counter at its L low digits, L about m/2 and at most the suffix
length under the reduction. Once per scan, on the first block that the
settle and the cover test below leave, the copies are keyed by their set
of low edges (one dict over the rows' bytes, shared with the cover test)
and k bitmasks of k^L bits are built for each distinct set, marking the
low-digit rows where minus their sum is each residue; each set's masks
are an AND/OR convolution of one bitmask per (low digit, value). Low
digit j holds each value for k^(L-1-j) rows in turn, so a digit's k
bitmasks are one strided fill of k bool rows and one pack, with no
division (in groups of rows, where k rows would pass 2^13 words). L is
lowered until the two largest temporaries of that set-up fit in 2^13
words: one residue's bools over a block, k^L bytes, and one set's k²
gathered masks, k²·k^L/64 words; so k^L · max(k², 8) <= 2^19. A scan
whose settle decides every block keys no sets, and one whose settle and
cover test decide every block builds no masks. On a 2-vCPU shared VM,
P_4 in K_5 over Z_3 lists its copies in 0.08 ms, keys its sets in 0.02
ms and builds its masks in 0.08 ms more; P_4 in K_6 over Z_3 keys its
sets in 0.03 ms and needs no masks, which would take 0.37 ms.

An aligned block of k^L counters then needs the OR, over copies, of the
mask its high sum selects, but only until all of its bits are set. Blocks
go in batches, as many as 2^13 words hold as the m - L decoded high
digits of their starts, and a task, the unit of sharding and of
checkpoint writes, is one batch. Only a scan's first task is shorter: it
runs to the end of a window of as many blocks as 2^13 words hold as mask
rows or as all m digits, so a witness early in the space costs no more
than that window. Each task goes through three steps, each on the blocks
the one before leaves:

1. The settle. The copies come fewest low edges first. One with no low
   edge fills its block when its high sum is 0 and sets no bit
   otherwise, so those copies settle the task on high digits alone: in
   passes of doubling length, one integer per live block, they drop
   every block where one of them sums to 0.
2. The cover test, for k <= 64. A set of low edges' k masks partition a
   block's rows, since each row's low sum has one residue, so a block is
   full once the high sums of the set's copies take every residue. In
   passes like the settle's, the copies of each set with at least k of
   them OR the bit of their high sum's residue, and every block where
   one set reaches all k bits is dropped. The settle is the same test
   for the set with no low edge, whose rows all have residue 0.
3. The masks. Only the blocks left get bitmask rows, as many at a time
   as 2^13 words hold, in ascending order, and a task ends at the first
   such chunk with a counter missing. In a chunk, the blocks take the
   copies with low edges in passes of doubling length, each block
   dropped as soon as it is full.

So a settled block costs one integer per copy up to the first whose sum
is 0, a covered one at most one integer per copy of a set with k copies
or more, and a block left k^L/64 word operations per copy with low edges
up to the one that fills it, not for all C. P_4 in K_6 over Z_3 has 180
copies, 14 with no low edge; they settle 2,157 of its 2,187 blocks, after
3.1 of them on average (median 2). The other 166 copies fall in 61 sets
of low edges, 24 of them with at least 3 copies (124 copies in all), and
in each of the 30 blocks left one of those sets reaches every residue by
its 22nd copy on average (worst 39), so the scan builds no masks. No
gathered, set-up or decoded temporary holds more than 2^13 words (64 KB).
Nothing is done per coloring in Python. On the same VM, best of 400
runs, that P_4 scan (3^15 colorings, 3 tasks) takes 0.64 ms (1.5 ms when
its 30 blocks got masks) and 0.31 ms reduced (0.93 ms); 2K_2 in K_7 over
Z_2, which the cover test decides too, 0.40 ms (0.60 ms); P_4 in K_5
over Z_3, which still builds masks for 6 of its 243 blocks, 0.33 ms; the
scan of K_{1,3} in K_6 over Z_3, whose settle decides every block, 0.44
ms; and the reduced scan of P_4 in K_7 over Z_3 (4.0e8 colorings, 420
copies, 78 with no low edge, every block settled, 31 tasks) 5.5 ms.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import (chain, combinations, combinations_with_replacement,
                       islice, permutations)
from typing import Optional

import numpy as np

from .core import (ColoredClique, DivisibilityViolation, Embedding, Forest,
                   SimpleGraph, ZeroSumError, check_modulus)

DEFAULT_BUDGET = 20_000_000
_PASS_WORDS = 1 << 13  # most 64-bit words in one temporary, 64 KB
_MIN_PASS_WORDS = 1 << 12  # a shorter pass costs more in calls than in work
_FULL = np.uint64(2 ** 64 - 1)
_CHUNK_TASKS = 64  # tasks in one message to a worker, after a scan's first


class BudgetExceeded(ZeroSumError):
    """The coloring space at this order is larger than the budget allows."""


class CheckpointMismatch(ZeroSumError):
    """Checkpoint file belongs to a different enumeration."""


def _as_pattern(g) -> SimpleGraph:
    if isinstance(g, SimpleGraph):
        return g
    raise TypeError(f"expected a SimpleGraph, got {type(g).__name__}")


def _scan_args(g, k: int, jobs: int) -> SimpleGraph:
    """The pattern of a scan, once the scan's arguments are checked."""
    g = _as_pattern(g)
    check_modulus(k)  # colors are int16
    if g.edge_count == 0:
        raise ValueError("pattern has no edges")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return g


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

def _edge_index(a, b, order: int):
    """Lex index of the K_order edge (a, b), a < b: a(2·order - a - 1)/2
    edges start below a, and b - a - 1 of a's own edges come before it."""
    return a * (2 * order - a - 3) // 2 + b - 1


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])]


def _labeling_table(g: SimpleGraph) -> np.ndarray:
    """The distinct edge sets of g's n! labelings on K_n: one sorted row of
    K_n edge indices per set, rows in lexicographic order. It takes n! rows
    of work, so :func:`compute_ramsey` lists it once for all its orders."""
    n = g.n
    u, v = np.array(g.sorted_edges()).T
    perms = np.fromiter(permutations(range(n)), dtype=(np.int64, n),
                        count=math.factorial(n))
    a, b = perms[:, u], perms[:, v]
    rows = _lex_sorted(np.sort(
        _edge_index(np.minimum(a, b), np.maximum(a, b), n), axis=1))
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def _subgraph_copies(g: SimpleGraph, order: int,
                     table: Optional[np.ndarray] = None) -> np.ndarray:
    """Distinct edge-index sets of all copies of g inside K_order: one
    sorted row per copy, rows in lexicographic order. ``table`` is g's
    labeling table, listed here when not given.

    Copies with identical edge sets (automorphic images) are one row; the
    sum over a copy depends only on its edge set. Every n-subset of K_order
    maps the labeling table onto its own edges with one fancy index. An
    ascending subset maps K_n's edge order onto K_order's, so the rows stay
    sorted. g has no isolated vertices, so a copy's vertices are its
    subset, and copies from different subsets never coincide. The mapping
    takes a few arrays no larger than the output.
    """
    n = g.n
    if table is None:
        table = _labeling_table(g)
    subsets = np.fromiter(combinations(range(order), n), dtype=(np.int64, n),
                          count=math.comb(order, n))
    a, b = np.array(list(combinations(range(n), 2))).T  # K_n's edges
    # column i: the edge of K_order that K_n's edge i becomes in each subset
    image = _edge_index(subsets[:, a], subsets[:, b], order)
    return _lex_sorted(image[:, table].reshape(-1, g.edge_count))


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
            self.suffix_len = self.m - d
            self.suffix_size = k ** self.suffix_len
            # one prefix per multiset of d colors
            self.total = math.comb(k + d - 1, d) * self.suffix_size
        else:
            self.reduce = False
            self.suffix_len = self.m
            self.suffix_size = k ** self.m
            self.total = self.suffix_size
        # place value of each suffix digit, the last edge's being 1
        self.powers = k ** np.arange(self.suffix_len - 1, -1, -1,
                                     dtype=np.int64)

    @cached_property
    def prefixes(self) -> np.ndarray:
        """Vertex 0's non-decreasing color lists in lex order, one row per
        prefix of the reduced space; listed on first use, so a space over
        the budget never lists them."""
        return np.array(list(combinations_with_replacement(
            range(self.k), self.order - 1)), dtype=np.int16)

    def colors_block(self, start: int, count: int, step: int = 1,
                     digits: Optional[int] = None) -> np.ndarray:
        """Color digits of the counters start, start + step, ... (count of
        them), shape (count, digits): those of the first ``digits`` edges,
        all m by default; in reduced mode at least vertex 0's order - 1."""
        digits = self.m if digits is None else digits
        idx = np.arange(start, start + count * step, step, dtype=np.int64)
        out = np.empty((count, digits), dtype=np.int16)
        lo = 0
        if self.reduce:
            lo = self.order - 1
            rank, idx = np.divmod(idx, self.suffix_size)
            out[:, :lo] = self.prefixes[rank]
        out[:, lo:] = idx[:, None] // self.powers[:digits - lo] % self.k
        return out

    def coloring_at(self, counter: int) -> ColoredClique:
        matrix = np.zeros((self.order, self.order), dtype=np.int16)
        # a boolean mask takes the cells row by row, so the upper
        # triangle's come in lex order of the edges, and the transpose's
        # mirror them
        vertices = np.arange(self.order)
        upper = vertices[:, None] < vertices
        matrix[upper] = matrix.T[upper] = self.colors_block(counter, 1)[0]
        return ColoredClique(self.order, self.k, matrix)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack bools along the last axis (a multiple of 64 long) into 64-bit
    words, element i at bit i % 64 of word i // 64."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def _digit_masks(k: int, low: int, words: int) -> np.ndarray:
    """Bitmask of (low digit j, r) over the k^low rows of a block: the rows
    where minus digit j is r. Row ``low`` is an extra digit that is always
    0 and stands in for a copy's high edges. No mask has the rows past the
    end of a block.

    Digit j holds each value for k^(low-1-j) rows in turn, so the rows
    where it is c are runs of that length, one every k runs, starting at
    run c. One strided view over the bool rows of all k values takes every
    such run of a digit at once, and one pack turns them into masks; values
    go in groups of as many as fit their bools in _PASS_WORDS words.
    """
    block = k ** low
    masks = np.zeros((low + 1, k, words), dtype=np.uint64)
    group = max(1, min(k, _PASS_WORDS // (8 * words)))
    bits = np.zeros((group, 64 * words), dtype=bool)
    bits[0, :block] = True
    masks[low, 0] = _pack(bits[0])
    minus = -np.arange(k) % k
    for j in range(low):
        run = k ** (low - 1 - j)
        for c0 in range(0, k, group):
            n = min(group, k - c0)
            bits[:n] = False
            # row i of bits takes value c0 + i: its runs start at
            # (c0 + i)·run and repeat every k·run rows
            np.ndarray((n, k ** j, run), bool, bits, c0 * run,
                       (bits.strides[0] + run, k * run, 1))[:] = True
            masks[j, minus[c0:c0 + n]] = _pack(bits[:n])
    return masks


class _SplitScan:
    """The zero-sum check over counter ranges of one coloring space, split
    at the low digits.

    A block is an aligned run of k^L counters: it fixes the high m - L
    digits and runs through every assignment of the L low ones. So minus
    each copy's sum over its low edges is known per low-digit row once per
    scan, and stored as one bitmask per (set of low edges, residue) marking
    the rows where it takes that residue. A block's colorings with a
    zero-sum copy are then the OR, over copies, of the mask selected by the
    copy's high sum. A block leaves the OR once all of its bits are set, so
    the copies after that cost it nothing. The copies with the fewest low
    edges come first; OR does not depend on the order. The first
    ``settling`` of them have no low edge: each fills its block when its
    high sum is 0 and sets no bit otherwise, so they need no mask. Nor do
    the blocks where the copies of one set of low edges have high sums of
    every residue: the set's masks partition the rows, so the cover test
    drops those blocks too. The masks are built on the first block the
    settle and the cover test leave, once per scan object, so a scan
    where they decide every block builds none.

    _PASS_WORDS sizes everything: L is about m/2, lowered until the set-up's
    temporaries fit in that many words; a batch is as many blocks as it
    holds as the m - L decoded high digits of their starts; and the blocks
    the settle and the cover test leave get mask rows in chunks of as many
    blocks as it holds as mask words. A task is one batch, except the
    first of a scan, which runs to the next multiple of a shorter window:
    as many blocks as _PASS_WORDS holds as mask words or as all m digits
    of their starts, whichever is more. So a scan whose witness lies early
    does no more work than that window's.
    """

    def __init__(self, enum: _Enumeration, copies: np.ndarray):
        k, m = enum.k, enum.m
        # the set-up's two largest temporaries, one residue's bools over a
        # block (k^L bytes) and one set's k² gathered masks (k²·k^L/64
        # words), stay within _PASS_WORDS words
        low = min((m + 1) // 2, enum.suffix_len)
        while low and k ** low * max(k * k, 8) > 64 * _PASS_WORDS:
            low -= 1
        self.enum = enum
        self.split = split = m - low  # number of high digits
        self.block = k ** low
        self.words = words = -(-self.block // 64)
        lows = (copies >= split).sum(axis=1)
        order = np.argsort(lows, kind="stable")
        self.copies = copies = copies[order]
        ncopies = len(copies)
        # the copies with no low edge, which come first
        self.settling = int(np.count_nonzero(lows == 0))
        # a copy's high sum, up to split·(k - 1), must not wrap around
        incidence = np.zeros((m, ncopies), dtype=np.int16
                             if split * (k - 1) < 1 << 15 else np.int32)
        incidence[copies, np.arange(ncopies)[:, None]] = 1
        self.high = incidence[:split]

        # a batch is sized by the high digits of its block starts, split
        # words per block while decoded, and a chunk by its mask rows; the
        # first task's window by the mask rows or all m digits, whichever
        # is more, so that an early witness stays cheap
        blocks = enum.total // self.block
        self.batch = max(1, min(blocks, _PASS_WORDS // max(split, 1)))
        self.chunk = max(1, _PASS_WORDS // words)
        self.first = max(1, min(blocks, _PASS_WORDS // max(words, m)))

    @cached_property
    def _sets(self) -> tuple[np.ndarray, np.ndarray]:
        """(which, sets): each copy's set of low edges, numbered in order
        of first use, so the sets come fewest low edges first; and each
        set's edge list, shifted to low-digit indices. In a copy's edge
        list, -1 stands for a high edge and indexes the always-0 digit; the
        dict keys each list by its bytes. Keyed on first use, by the cover
        test or the mask rows, so a scan whose settle decides every block
        keys nothing."""
        lists = np.maximum(self.copies - self.split, -1)
        edges = lists.shape[1]
        index: dict[bytes, int] = {}
        which = [index.setdefault(key, len(index)) for key in
                 lists.view(np.dtype((np.void, lists.itemsize * edges)))
                 .ravel().tolist()]
        sets = np.frombuffer(b"".join(index), dtype=lists.dtype)
        return np.array(which), sets.reshape(-1, edges)

    @cached_property
    def _cover_sets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(high, heads, bit) for the cover test: the high-edge incidence
        of the copies with low edges whose set has at least k of them
        (fewer cannot reach every residue), grouped by set in the order of
        the sets; whether each column starts its set; and the bit of the
        residue of each high sum, up to split·(k - 1). Only for k <= 64,
        whose residues fit one 64-bit word."""
        k = self.enum.k
        which = self._sets[0][self.settling:]
        big = np.flatnonzero(np.bincount(which)[which] >= k)
        big = big[np.argsort(which[big], kind="stable")]
        heads = np.ones(len(big), dtype=bool)
        heads[1:] = which[big[1:]] != which[big[:-1]]
        residues = np.arange(self.split * (k - 1) + 1) % k
        return (self.high[:, self.settling + big], heads,
                np.uint64(1) << residues.astype(np.uint64))

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offsets, masks, pad): each copy's first mask row; k mask rows
        per distinct set of low edges, one per residue; and the bits past
        the end of a block, set so that they never look missing."""
        k, split, words = self.enum.k, self.split, self.words
        low = self.enum.m - split
        which, sets = self._sets
        edges = sets.shape[1]
        digit_masks = _digit_masks(k, low, words)
        # residue s of a sum of two terms: the OR over r of (first term is
        # s - r) AND (second term is r); a negative index s - r counts
        # from the end, so it picks residue s - r + k. Only a set with two
        # low edges has a second term, so only L >= 2 needs the table.
        if low >= 2:
            shift = np.subtract.outer(np.arange(k), np.arange(k))
        masks = np.empty((len(sets), k, words), dtype=np.uint64)
        step = max(1, _PASS_WORDS // (k * k * words))
        for c0 in range(0, len(sets), step):
            # a copy's high edges come first, and the last set of a pass
            # has the most low edges, so the columns before its first low
            # edge hold the always-0 digit for every set of the pass
            c1 = min(len(sets), c0 + step)
            highs = np.count_nonzero(sets[c1 - 1] < 0)
            part = sets[c0:c1, min(highs, edges - 1):]
            acc = digit_masks[part[:, 0]]
            for slot in part[:, 1:].T:
                acc = np.bitwise_or.reduce(
                    acc[:, shift] & digit_masks[slot, None], axis=2)
            masks[c0:c1] = acc
        return (which * k, masks.reshape(-1, words),
                ~digit_masks[low, 0])

    @property
    def offsets(self) -> np.ndarray:
        return self._rows[0]

    @property
    def masks(self) -> np.ndarray:
        return self._rows[1]

    def tasks(self, start: int):
        """(start, stop) ranges that tile the space from start to its end.
        The first stops at the next multiple of first · block; each later
        one is a whole batch of blocks, the last cut at the end.

        A batch is as many blocks as one temporary of _PASS_WORDS words
        holds as the decoded high digits of their starts; the first task's
        window, as many as it holds as mask rows or as all m digits. Each
        task is one checkpoint write."""
        total = self.enum.total
        window = self.first * self.block
        pos, stop = start, (start // window + 1) * window
        while pos < total:
            stop = min(total, stop)
            yield pos, stop
            pos, stop = stop, stop + self.batch * self.block

    def first_missing(self, start: int, stop: int) -> Optional[int]:
        """Lowest counter in [start, stop) whose coloring has no zero-sum
        copy, or None. The range is a task: it holds at most a batch of
        blocks, and ``stop`` is a multiple of the block length.

        Every block of the task is first settled on its high digits: a copy
        with no low edge fills its block when its high sum is 0 and sets no
        bit otherwise, so those copies only drop blocks, in passes of one
        integer per live block. The cover test then drops, on high digits
        too, every block where the copies of one set of low edges have
        high sums of every residue. The blocks left get mask rows a chunk
        at a time, in ascending order, and the first chunk with a missing
        counter holds the answer.
        """
        block = self.block
        b0 = start // block
        nb = stop // block - b0
        high = self.enum.colors_block(b0 * block, nb, block, self.split)
        live = np.arange(nb)  # the blocks with a bit still unset
        c0 = step = 0
        while c0 < self.settling:
            step = _pass_length(step, live.size)
            c1 = min(self.settling, c0 + step)
            open_ = ((high @ self.high[:, c0:c1]) % self.enum.k).all(axis=1)
            live, high = live[open_], high[open_]
            if not live.size:
                return None
            c0 = c1
        if self.enum.k <= 64:
            live, high = self._cover(live, high)
        skip = start - b0 * block  # counters of block 0 before start
        for i in range(0, live.size, self.chunk):
            part = live[i:i + self.chunk]
            found = self._first_unset(
                part, high[i:i + self.chunk], skip if part[0] == 0 else 0)
            if found is not None:
                return b0 * block + found
        return None

    def _cover(self, live: np.ndarray, high: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """The given blocks, and their high digits, less those that one set
        of low edges fills on its own.

        A set's k mask rows partition a block's rows, since each row's low
        sum has one residue, so the block is full once the high sums of
        the set's copies take every residue. The settle is the same test
        for the set with no low edge, whose rows all have residue 0. The
        sets go in passes of doubling length, one integer per copy and
        live block, as in the settle; a set that a pass cuts carries its
        residues into the next one.
        """
        cover, heads, bit = self._cover_sets
        every = np.uint64(2 ** self.enum.k - 1)
        carry = np.zeros(live.size, dtype=np.uint64)
        c0 = step = 0
        while c0 < len(heads) and live.size:
            step = _pass_length(step, live.size)
            c1 = min(len(heads), c0 + step)
            # the residues that each set, or the part of one, in the pass
            # reaches; the first part goes on from the last of the pass before
            cuts = heads[c0:c1].copy()
            cuts[0] = True
            seen = np.bitwise_or.reduceat(
                bit.take(high @ cover[:, c0:c1]), np.flatnonzero(cuts), axis=1)
            if not heads[c0]:
                seen[:, 0] |= carry
            carry = seen[:, -1]
            open_ = (seen != every).all(axis=1)
            live, high, carry = live[open_], high[open_], carry[open_]
            c0 = c1
        return live, high

    def _first_unset(self, live: np.ndarray, high: np.ndarray,
                     skip: int) -> Optional[int]:
        """Offset from the task's first block of the lowest counter of the
        given blocks, open after the settle, whose coloring has no
        zero-sum copy, or None; the first ``skip`` counters of the first
        block count as having one.

        The blocks take the copies with low edges in passes of words per
        block, and after each pass drop the blocks with every bit set. The
        passes double in length from at least _MIN_PASS_WORDS entries,
        unless the copies run out, to at most _PASS_WORDS.
        """
        words, k = self.words, self.enum.k
        offsets, masks, pad = self._rows
        ncopies = len(offsets)
        seen = np.empty((live.size, words), dtype=np.uint64)
        seen[:] = pad
        if skip:  # resuming inside this block
            seen[0] |= _pack(np.arange(words * 64) < skip)
        c0, step = self.settling, 0
        while c0 < ncopies:
            step = _pass_length(step, live.size * words)
            c1 = min(ncopies, c0 + step)
            # mask row of (the copy's low edges, its high sum)
            picks = (high @ self.high[:, c0:c1]) % k + offsets[c0:c1]
            seen |= np.bitwise_or.reduce(masks[picks], axis=1)
            c0 = c1
            if c0 < ncopies:
                open_ = np.bitwise_and.reduce(seen, axis=1) != _FULL
                live, high, seen = live[open_], high[open_], seen[open_]
                if not live.size:
                    return None
        unseen = ~seen
        missing = np.flatnonzero(unseen)
        if not missing.size:
            return None
        b, w = divmod(int(missing[0]), words)
        bits = int(unseen[b, w])
        bit = (bits & -bits).bit_length() - 1
        return int(live[b]) * self.block + 64 * w + bit


def _pass_length(step: int, row: int) -> int:
    """Copies in the next pass when each copy takes ``row`` entries over
    the live blocks, after a pass of ``step`` copies (0 before the first):
    twice as many, but at least _MIN_PASS_WORDS entries and at most
    _PASS_WORDS, and never none."""
    return max(1, min(max(2 * step, _MIN_PASS_WORDS // row),
                      _PASS_WORDS // row))


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

    With jobs > 1 the scan is sharded over min(jobs, os.cpu_count())
    worker processes; jobs below 1 raise ValueError. The first task goes
    to a worker alone, the rest in chunks of _CHUNK_TASKS. Counterexamples
    are reported at their lowest counter regardless of the jobs setting:
    sharded tasks are consumed in submission order and the scan stops at
    the first task containing a witness.

    A checkpoint file holds one entry per order, so scans of successive
    orders (as :func:`compute_ramsey` runs them) can share one file. Each
    entry is the next counter not yet known to have a zero-sum copy; a scan
    resumes from its order's entry, and raises CheckpointMismatch on an
    entry written for another pattern, modulus or reduction mode.
    """
    return _scan(_scan_args(g, k, jobs), order, k, budget, reduce_symmetry,
                 jobs, checkpoint, None)[0]


def _scan(g: SimpleGraph, order: int, k: int, budget: int,
          reduce_symmetry: bool, jobs: int, checkpoint: Optional[str],
          table: Optional[np.ndarray]
          ) -> tuple[ScanResult, Optional[np.ndarray]]:
    """:func:`scan_colorings` on checked arguments, with g's labeling
    table if an earlier order listed it. Returns the result and the table,
    which is listed here when it is None and the space fits the budget."""
    enum = _Enumeration(order, k, reduce_symmetry)
    budget = min(budget, np.iinfo(np.int64).max)  # counters are int64
    if enum.total > budget:
        raise BudgetExceeded(
            f"{enum.total} colorings at order {order} exceed budget {budget}")

    if g.n > order:
        # no injective placement exists; the all-zero coloring is a witness
        return ScanResult(False, 0, enum.coloring_at(0), 0, enum.total), table

    fingerprint = (None if checkpoint is None
                   else _fingerprint(g, order, k, enum.reduce))
    entries: dict[str, int] = {}
    if checkpoint is not None and os.path.exists(checkpoint):
        entries = _read_entries(checkpoint)
        family = fingerprint.rsplit("-", 1)[0]
        if any(fp.rsplit("-", 1)[0] != family for fp in entries):
            raise CheckpointMismatch(
                f"checkpoint {checkpoint} was written by a different scan")
    start = min(entries.get(fingerprint, 0), enum.total)

    def save(counter: int) -> None:
        # a scan that ends on its last task would write the file unchanged
        if checkpoint is not None and entries.get(fingerprint) != counter:
            entries[fingerprint] = counter
            _write_entries(checkpoint, entries)

    if start == enum.total:  # a finished order: nothing left to scan
        return ScanResult(True, None, None, 0, enum.total), table
    if table is None:
        table = _labeling_table(g)
    scan = _SplitScan(enum, _subgraph_copies(g, order, table))
    tasks = scan.tasks(start)
    if jobs > 1:
        jobs = min(jobs, os.cpu_count() or 1)  # the scan is CPU-bound
    if jobs <= 1:
        pool = nullcontext()
        results = ((task_start, stop, scan.first_missing(task_start, stop))
                   for task_start, stop in tasks)
    else:
        import multiprocessing

        pool = multiprocessing.Pool(jobs, initializer=_init_worker,
                                    initargs=(scan,))
        # the first task goes alone, so that a witness in it costs one
        # window; the rest go _CHUNK_TASKS to a message, so that passing
        # tasks and results does not keep the parent process busy
        results = chain(pool.imap(_run_task, list(islice(tasks, 1))),
                        pool.imap(_run_task, tasks, _CHUNK_TASKS))
    checked = 0
    witness_counter: Optional[int] = None
    with pool:  # leaving it terminates the workers, also after a witness
        for task_start, stop, found in results:
            if found is not None:
                checked += found - task_start + 1
                witness_counter = found
                save(found)
                break
            checked += stop - task_start
            save(stop)

    if witness_counter is None:
        save(enum.total)
        return ScanResult(True, None, None, checked, enum.total), table
    return ScanResult(False, witness_counter, enum.coloring_at(witness_counter),
                      checked, enum.total), table


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
    g = _scan_args(g, k, jobs)
    if g.edge_count % k != 0:
        raise DivisibilityViolation(
            f"{k} does not divide edge count {g.edge_count}")

    checked = 0
    prev_witness: Optional[ColoredClique] = None
    table = None  # g's labeling table, listed by the first order scanned
    for order in range(g.n, max_n + 1):
        try:
            res, table = _scan(g, order, k, budget, reduce_symmetry, jobs,
                               checkpoint, table)
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
