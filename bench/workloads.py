"""The benchmark's workloads: inputs made from the workload seed, the unit of
work, the correctness gate, and the traced decomposition of each unit.

A workload is a fixed *round* of operations derived from the seed. The timed
loop repeats whole rounds, so every run measures the same mix, and the first
round's outcomes are the reference that later rounds (and the traced
decomposition) must reproduce exactly.

Expected outcomes, by the kind of instance:

* ``CONSTRUCTIVE``: at guarantee scale or at a case-sharp order, the finder
  returns a non-fallback report that passes ``verify_report``.
* ``ABSENT``: on a star-free circulant host the unbudgeted fallback proves
  that no zero-sum star exists (``NoZeroSumCopy``).
* ``ORACLE``: below guarantee scale, the finder and ``brute_zero_sum`` agree
  on whether a copy exists, and any report passes ``verify_report``.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from zsforest import (CaseReport, ColoredClique, Forest, GreedyStuck,
                      MonochromaticityViolated, NoDominantColor,
                      NoZeroSumCopy, PreconditionFailed, Residue,
                      SelectionExhausted, brute_zero_sum, build_forest,
                      build_graph, compute_ramsey, dominant_partition,
                      embed_bushy_nonvibrant, embed_bushy_vibrant,
                      embed_nonbushy_nonswitchable, embed_nonbushy_switchable,
                      exact_z2, exact_z3, find_zero_sum_copy, is_bushy,
                      iterated_sumset, maximal_disjoint_switchers,
                      select_leaf_families, select_target_sets,
                      star_lower_bound_coloring, verify_report,
                      vibrant_vertices)
from zsforest.oracle import scan_colorings
from zsforest.patterns import cycle, matching, path, star
from zsforest.randomgen import (random_bushy_tree, random_coloring,
                                random_forest, splitmix64)

from tracing import Tracer

CONSTRUCTIVE = "constructive"
ABSENT = "absent"
ORACLE = "oracle"

NO_COPY = "NoZeroSumCopy"
FALLBACK = "BruteForceFallback"

# find_zero_sum_copy's documented dispatch order and the rejections it
# recovers from
ENGINES = (("bushy_vibrant", embed_bushy_vibrant),
           ("bushy_nonvibrant", embed_bushy_nonvibrant),
           ("nonbushy_switchable", embed_nonbushy_switchable),
           ("nonbushy_nonswitchable", embed_nonbushy_nonswitchable))
RECOVERABLE = (PreconditionFailed, SelectionExhausted, GreedyStuck,
               MonochromaticityViolated)


@dataclass(frozen=True)
class Op:
    """One timed operation of a round: its outcome and wall time."""

    ident: str
    outcome: tuple
    seconds: float


def raised(err: BaseException) -> tuple:
    return ("raised", type(err).__name__)


def _seeds(seed: int):
    stream = splitmix64(seed)
    while True:
        yield next(stream) >> 1  # non-negative, below 2**63


# ---------------------------------------------------------------------------
# find workloads
# ---------------------------------------------------------------------------

def near_one_colored(order: int, p: int, seed: int) -> ColoredClique:
    """One base color plus recolored stars of at most three edges at up to
    p - 2 centers, the stars pairwise vertex-disjoint.

    Every switcher must then contain a center, so no switcher packing reaches
    p - 1 and the non-switchable and non-vibrant engines carry the load.
    """
    stream = splitmix64(seed)
    base = next(stream) % p
    mat = np.full((order, order), base, dtype=np.int16)
    np.fill_diagonal(mat, 0)
    centers = 1 + next(stream) % (p - 2) if p > 3 else 1
    free = list(range(order))
    for _ in range(centers):
        c = free.pop(next(stream) % len(free))
        for _ in range(1 + next(stream) % 3):
            u = free.pop(next(stream) % len(free))
            mat[c, u] = mat[u, c] = (base + 1 + next(stream) % (p - 1)) % p
    return ColoredClique(order, p, mat)


@dataclass(frozen=True)
class Job:
    name: str
    forest: Forest
    expect: str


@dataclass(frozen=True)
class Host:
    """A host built inside the first unit that uses it; every job of the
    host then runs on that same object."""

    ident: str
    p: int
    generator: str  # span name of the host generator
    build: Callable[[], ColoredClique]
    jobs: tuple[Job, ...]


def _components_for(n: int, p: int) -> int:
    # the component count that makes p divide the edge count n - c
    if p == 2:
        return 2 if n % 2 == 0 else 1
    return {0: 3, 1: 1, 2: 2}[n % 3]


def _below_scale_host(ident: str, seed: int) -> Host:
    """Acceptance criterion 9's distribution: forests on 4-8 vertices over
    Z_2 or Z_3 in hosts barely larger than the forest."""
    stream = splitmix64(seed)
    if next(stream) % 10 < 3:
        p = 2
        n = 4 + next(stream) % 2
        low = n + 9 * p - 12
        order = low + next(stream) % (12 - low)
    else:
        p = 2 + next(stream) % 2
        n = 5 + next(stream) % 4
        order = n + (next(stream) % 3 if n < 8 else 0)
    f = random_forest(n, _components_for(n, p), seed=next(stream) >> 1)
    return Host(ident, p, "randomgen.random_coloring",
                partial(random_coloring, order, p, next(stream) >> 1),
                (Job(f"F{n}", f, ORACLE),))


def find_small_hosts(seed: int) -> list[Host]:
    """100 hosts of order at most 39, in a fixed ten-slot mix. P_7 in K_22
    fills half the slots, so the median operation lies inside that group."""
    seeds = _seeds(seed)
    slots = ("k22", "c9", "k22", "c9", "k22", "c5", "k22", "c9", "k22", "star")
    hosts = []
    for i in range(100):
        kind = slots[i % 10]
        ident = f"{i:03d}-{kind}"
        if kind == "k22":
            hosts.append(Host(
                ident, 3, "randomgen.random_coloring",
                partial(random_coloring, 22, 3, next(seeds)),
                (Job("P7", path(7), CONSTRUCTIVE),)))
        elif kind == "c9":
            hosts.append(_below_scale_host(ident, next(seeds)))
        elif kind == "c5":
            # a path at its case-sharp order n + 4p - 2 (criterion 5c)
            p = (3, 5)[(i // 10) % 2]
            n = {3: (10, 13), 5: (16, 21)}[p][(i // 20) % 2]
            hosts.append(Host(
                ident, p, "bench.near_one_colored",
                partial(near_one_colored, n + 4 * p - 2, p, next(seeds)),
                (Job(f"P{n}", path(n), CONSTRUCTIVE),)))
        else:
            p, n = ((3, 7), (5, 6))[(i // 10) % 2]
            hosts.append(Host(
                ident, p, "extremal.star_lower_bound_coloring",
                partial(star_lower_bound_coloring, n, p),
                (Job(f"K1,{n - 1}", star(n - 1), ABSENT),)))
    return hosts


def find_large_hosts(seed: int) -> list[Host]:
    """Nine K_59 hosts over Z_5 at guarantee scale (n = 26 = 3p^2 - 12p + 11,
    N = 59 = n + 9p - 12): two seeded random colorings per near-one-colored
    one. Each host serves a random bushy tree and then a path."""
    seeds = _seeds(seed)
    hosts = []
    for i in range(9):
        if i % 3 < 2:
            gen = "randomgen.random_coloring"
            build = partial(random_coloring, 59, 5, next(seeds))
        else:
            gen = "bench.near_one_colored"
            build = partial(near_one_colored, 59, 5, next(seeds))
        tree = random_bushy_tree(26, 5, next(seeds))
        hosts.append(Host(f"{i}-{gen.split('.')[1]}", 5, gen, build,
                          (Job("T26", tree, CONSTRUCTIVE),
                           Job("P26", path(26), CONSTRUCTIVE))))
    return hosts


def find_unit(f: Forest, k: ColoredClique, p: int) -> tuple:
    try:
        rep = find_zero_sum_copy(f, k, p)
    except NoZeroSumCopy:
        return (NO_COPY, None, True)
    return (rep.case_used, rep.embedding.mapping, verify_report(rep))


def _sumset_inputs(rep: CaseReport) -> list:
    """The residue pairs the sumset walk chose from, rebuilt from the
    certificate exactly as the engine built them."""
    k = rep.embedding.host
    p = k.modulus
    cert = rep.auxiliary
    pairs = []
    if rep.case_used == "BushyVibrant":
        fam, targets = cert.families, cert.targets
        for i, parent in enumerate(fam.parents):
            u = targets.parent_hosts[parent]
            for j in range(len(fam.selected[i])):
                pairs.append(
                    [Residue(k.value(u, targets.same_color[i][j]), p),
                     Residue(k.value(u, targets.other_color[i][j]), p)])
    elif rep.case_used == "NonbushySwitchable":
        for quad in cert.quads:
            d1, d2, d3, d4 = quad.vertices
            pairs.append(
                [Residue((k.value(d4, d1) + k.value(d1, d2)) % p, p),
                 Residue((k.value(d2, d3) + k.value(d3, d4)) % p, p)])
    return pairs


def traced_find(f: Forest, k: ColoredClique, p: int, fresh: bool,
                tr: Tracer, inst: str, stats: Counter) -> tuple:
    """find_zero_sum_copy taken apart into its public calls, each in a span,
    in dispatch order. Returns the same outcome as find_unit."""
    if k.order < f.n:
        return (NO_COPY, None, True)
    wits = tr.call("classify.vibrant_vertices", inst, vibrant_vertices, k, p)
    if fresh:
        tr.call("classify.switchers_cold", inst,
                maximal_disjoint_switchers, k, p - 1)
    quads = tr.call("classify.switchers_warm", inst,
                    maximal_disjoint_switchers, k, p - 1)
    stats["switchers_packed"] += len(quads)
    vibrant = len(wits) >= p - 1
    rep = None
    for name, engine in ENGINES:
        if (name == "bushy_vibrant" and vibrant and is_bushy(f, p)
                and k.order >= f.n + p - 1):
            try:
                tr.call("embedder.select_target_sets", inst,
                        select_target_sets, k, wits[:p - 1],
                        select_leaf_families(f, p))
            except SelectionExhausted:
                pass
        if name == "bushy_nonvibrant" and not vibrant:
            colorful = {w.vertex for w in wits}
            keep = [v for v in range(k.order) if v not in colorful]
            if keep:
                try:
                    tr.call("classify.dominant_partition", inst,
                            dominant_partition, k.induced(keep)[0], p)
                except NoDominantColor:
                    pass
        stats[f"{name}_attempts"] += 1
        try:
            rep = tr.call(f"embedder.{name}", inst, engine, f, k, p)
        except RECOVERABLE as err:
            stats[f"rejected {name}: {type(err).__name__}"] += 1
            continue
        stats[f"{name}_hits"] += 1
        break
    if rep is None:
        stats["fallbacks"] += 1
        emb = tr.call("oracle.brute_zero_sum", inst, brute_zero_sum, f, k, p)
        if emb is None:
            return (NO_COPY, None, True)
        rep = CaseReport(bushy=is_bushy(f, p), vibrant=vibrant,
                         switchable=len(quads) == p - 1, case_used=FALLBACK,
                         embedding=emb, auxiliary=None)
    else:
        pairs = _sumset_inputs(rep)
        if pairs:
            tr.call("sumset.iterated_sumset", inst, iterated_sumset, pairs)
    ok = tr.call("embedder.verify_report", inst, verify_report, rep)
    return (rep.case_used, rep.embedding.mapping, ok)


class FindWorkload:
    def __init__(self, hosts: list[Host], warm: tuple[tuple[int, int], ...]):
        self.hosts = hosts
        self.warm = warm
        self.expect = {f"{h.ident}/{j.name}": j.expect
                       for h in hosts for j in h.jobs}

    def warm_up(self) -> None:
        """One switcher packing per host order fills the process-wide
        4-subset index before timing starts."""
        for order, p in self.warm:
            k = random_coloring(order, p, order)
            vibrant_vertices(k, p)
            maximal_disjoint_switchers(k, p - 1)

    def round(self) -> list[Op]:
        ops = []
        for h in self.hosts:
            k = None
            for job in h.jobs:
                t0 = time.perf_counter()
                try:
                    if k is None:
                        k = h.build()
                    out = find_unit(job.forest, k, h.p)
                except Exception as err:  # a raise is a failed operation
                    out = raised(err)
                ops.append(Op(f"{h.ident}/{job.name}", out,
                              time.perf_counter() - t0))
        return ops

    def traced_round(self, tr: Tracer, stats: Counter) -> list[Op]:
        ops = []
        for h in self.hosts:
            k = None
            for job in h.jobs:
                inst = f"{h.ident}/{job.name}"
                t0 = time.perf_counter()
                with tr.span("op", inst):
                    try:
                        fresh = k is None
                        if fresh:
                            k = tr.call(h.generator, inst, h.build)
                        out = traced_find(job.forest, k, h.p, fresh, tr,
                                          inst, stats)
                    except Exception as err:
                        out = raised(err)
                ops.append(Op(inst, out, time.perf_counter() - t0))
        return ops

    def wrong(self, ident: str, outcome: tuple) -> Optional[str]:
        """Why an outcome contradicts what is known, or None."""
        if outcome[0] == "raised":
            return None
        case, _, verified = outcome
        expect = self.expect[ident]
        if expect == ABSENT:
            return None if case == NO_COPY else f"found {case}, none exists"
        if case == NO_COPY:
            return None if expect == ORACLE else "no copy at guarantee scale"
        if not verified:
            return f"{case} report fails verify_report"
        if expect == CONSTRUCTIVE and case == FALLBACK:
            return "fallback at guarantee scale"
        return None

    def oracle_gate(self, reference: dict[str, tuple]) -> dict[str, str]:
        """Below guarantee scale, brute force must agree on existence."""
        out = {}
        for h in self.hosts:
            for job in h.jobs:
                ident = f"{h.ident}/{job.name}"
                outcome = reference[ident]
                if job.expect != ORACLE or outcome[0] == "raised":
                    continue
                exists = brute_zero_sum(job.forest, h.build(), h.p)
                if (exists is None) != (outcome[0] == NO_COPY):
                    out[ident] = "finder and brute_zero_sum disagree"
        return out

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ramsey workload
# ---------------------------------------------------------------------------

KNOWN_VALUES = {"C4": 4, "2K2": 5, "P4": 5, "K13": 6}
_PATTERNS = {"C4": (cycle(4), 2, 6), "2K2": (matching(2), 2, 7),
             "P4": (path(4), 3, 7), "K13": (star(3), 3, 8)}
_FULL_SCANS = (("P4", 6), ("2K2", 7))
CHECKPOINT_PATTERN = "P4"


def _relabel(g, perm: list[int]):
    edges = [(perm[u], perm[v]) for u, v in g.sorted_edges()]
    return (build_forest if isinstance(g, Forest) else build_graph)(
        g.n, edges)


@dataclass(frozen=True)
class RamseyOp:
    ident: str
    kind: str  # "value", "scan", "ckpt-first" or "ckpt-rerun"
    label: str
    mode: str  # "plain", "reduced" or "ckpt"
    order: int  # scan order, or the largest order a value may reach


def _witness_tag(clique: Optional[ColoredClique]) -> Optional[str]:
    if clique is None:
        return None
    return hashlib.sha256(clique.matrix.tobytes()).hexdigest()[:16]


class RamseyWorkload:
    """Every value and full scan once plain and once with reduce_symmetry,
    then one value run twice against a single checkpoint file."""

    def __init__(self, seed: int, out_dir: str):
        stream = splitmix64(seed)
        self.patterns = {}
        for label, (g, k, max_n) in _PATTERNS.items():
            perm = list(range(g.n))
            for i in range(g.n - 1, 0, -1):
                j = next(stream) % (i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            self.patterns[label] = (_relabel(g, perm), k, max_n)
        ops = []
        for mode in ("plain", "reduced"):
            for label, (_, _, max_n) in _PATTERNS.items():
                ops.append(RamseyOp(f"value-{label}-{mode}", "value", label,
                                    mode, max_n))
            for label, order in _FULL_SCANS:
                ops.append(RamseyOp(f"scan-{label}-K{order}-{mode}", "scan",
                                    label, mode, order))
        for i in range(len(ops) - 1, 0, -1):
            j = next(stream) % (i + 1)
            ops[i], ops[j] = ops[j], ops[i]
        max_n = _PATTERNS[CHECKPOINT_PATTERN][2]
        for kind in ("ckpt-first", "ckpt-rerun"):
            ops.append(RamseyOp(f"{kind}-{CHECKPOINT_PATTERN}", kind,
                                CHECKPOINT_PATTERN, "ckpt", max_n))
        self.ops = ops
        self.checkpoint = os.path.join(out_dir, f"ckpt-{os.getpid()}.txt")

    def warm_up(self) -> None:
        for g, k, _ in self.patterns.values():
            scan_colorings(g, g.n, k)

    def _fresh_checkpoint(self, op: RamseyOp) -> None:
        if op.kind == "ckpt-first" and os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)

    def _run(self, op: RamseyOp) -> tuple:
        g, k, _ = self.patterns[op.label]
        if op.kind == "scan":
            res = scan_colorings(g, op.order, k,
                                 reduce_symmetry=op.mode == "reduced")
            return ("scan", res.unavoidable, res.colorings_checked,
                    res.enumerated_space, res.witness_counter)
        res = compute_ramsey(
            g, k, op.order, reduce_symmetry=op.mode == "reduced",
            checkpoint=self.checkpoint if op.mode == "ckpt" else None)
        return ("value", res.value, res.colorings_checked,
                _witness_tag(res.witness_coloring))

    def _traced_run(self, op: RamseyOp, tr: Tracer, stats: Counter
                    ) -> tuple:
        g, k, _ = self.patterns[op.label]
        reduce = op.mode == "reduced"
        ckpt = self.checkpoint if op.mode == "ckpt" else None

        def scan(order: int):
            res = tr.call(
                f"oracle.scan_colorings.{op.label}-K{order}-Z{k}-{op.mode}",
                op.ident, scan_colorings, g, order, k,
                reduce_symmetry=reduce, checkpoint=ckpt)
            if op.mode != "ckpt":
                stats["colorings_checked"] += res.colorings_checked
            return res

        if op.kind == "scan":
            res = scan(op.order)
            return ("scan", res.unavoidable, res.colorings_checked,
                    res.enumerated_space, res.witness_counter)
        # compute_ramsey's order loop, one span per order
        checked = 0
        prev = None
        for order in range(g.n, op.order + 1):
            res = scan(order)
            checked += res.colorings_checked
            if res.unavoidable:
                if prev is None:
                    below = max(g.n - 1, 1)
                    prev = ColoredClique(
                        below, k, np.zeros((below, below), dtype=np.int16))
                return ("value", order, checked, _witness_tag(prev))
            prev = res.witness
        return ("value", None, checked, _witness_tag(prev))

    def round(self) -> list[Op]:
        ops = []
        for op in self.ops:
            self._fresh_checkpoint(op)
            t0 = time.perf_counter()
            try:
                out = self._run(op)
            except Exception as err:  # a raise is a failed operation
                out = raised(err)
            ops.append(Op(op.ident, out, time.perf_counter() - t0))
        return ops

    def traced_round(self, tr: Tracer, stats: Counter) -> list[Op]:
        ops = []
        for op in self.ops:
            self._fresh_checkpoint(op)
            t0 = time.perf_counter()
            with tr.span("op", op.ident):
                try:
                    out = self._traced_run(op, tr, stats)
                except Exception as err:
                    out = raised(err)
            ops.append(Op(op.ident, out, time.perf_counter() - t0))
        return ops

    def wrong(self, ident: str, outcome: tuple) -> Optional[str]:
        if outcome[0] == "raised":
            return None
        op = next(o for o in self.ops if o.ident == ident)
        if outcome[0] == "scan":
            _, unavoidable, checked, space, _ = outcome
            if not unavoidable or checked != space:
                return "full scan found an avoiding coloring"
            return None
        g = self.patterns[op.label][0]
        want = KNOWN_VALUES[op.label]
        closed = exact_z2(g) if self.patterns[op.label][1] == 2 else exact_z3(g)
        if outcome[1] != want or closed != want:
            return f"value {outcome[1]}, closed form {closed}, known {want}"
        return None

    def oracle_gate(self, reference: dict[str, tuple]) -> dict[str, str]:
        return {}

    def close(self) -> None:
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)


def make(name: str, seed: int, out_dir: str):
    if name == "find-small":
        # every host order the mix can produce, at a modulus it uses
        warm = tuple((n, 3) for n in (*range(4, 12), 20, 22, 23, 34, 39))
        return FindWorkload(find_small_hosts(seed), warm)
    if name == "find-large":
        return FindWorkload(find_large_hosts(seed), ((59, 5),))
    if name == "ramsey":
        return RamseyWorkload(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
