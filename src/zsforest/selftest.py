"""The acceptance suite: nine numbered criteria, each a zero-argument
function returning (passed, detail).

Every criterion is deterministic: all randomness flows from fixed seeds
through the splitmix64 stream, so a failure reproduces exactly. The suite
is exposed both to pytest (tests/test_acceptance.py) and to the CLI
(`zsforest selftest`). Random and near-one-colored hosts come from
:mod:`zsforest.randomgen`; criterion 7's planted hosts are built here.

Criteria and their sources of truth:
  1  exact Z_2 values for C_4 and 2K_2 by exhaustive enumeration
  2  exact Z_3 values for P_4 and K_{1,3}, cross-checked against the
     closed-form rule
  3  P_7 into 10,000 random colorings of K_22 over Z_3, constructive only
  4  26-vertex random tree into 1,000 random colorings of K_59 over Z_5
  5  each constructive case at its own sharp host order: one sweep per row
     of a table of (draw, engine, case), at p = 3 and 5
  6  iterated sumset lower bound plus brute-force equality
  7  structural facts: on all colorings of K_5, switcher-free holds exactly
     when one-colored at p = 3 and exactly when one-colored or a vertex-cut
     coloring at p = 2; dominant-partition size inequalities; degree-2
     supply in non-bushy forests
  8  star-free circulant colorings contain no zero-sum star
  9  constructive finder vs. exhaustive oracle on small instances
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Optional

import numpy as np

from .classify import (dominant_partition, maximal_disjoint_switchers,
                       vibrant_vertices)
from .core import ColoredClique, Forest, Residue, edge_sum, is_bushy
from .embedder import (CASE_BUSHY_VIBRANT, CASE_FALLBACK,
                       CASE_NONBUSHY_NONSWITCHABLE, CASE_NONBUSHY_SWITCHABLE,
                       NoZeroSumCopy, embed_bushy_vibrant,
                       embed_nonbushy_nonswitchable,
                       embed_nonbushy_switchable, find_zero_sum_copy,
                       verify_report)
from .extremal import star_lower_bound_coloring
from .oracle import brute_zero_sum, compute_ramsey, exact_z3
from .patterns import cycle, matching, path, spider, star
from .randomgen import (near_one_colored, random_bushy_tree, random_coloring,
                        random_forest, random_tree, splitmix64)
from .sumset import iterated_sumset


# ---------------------------------------------------------------------------
# 1 + 2: exact values against the exhaustive oracle
# ---------------------------------------------------------------------------

def criterion_1() -> tuple[bool, str]:
    """Exact Z_2 values: the 4-cycle needs order 4, two disjoint edges 5."""
    r_c4 = compute_ramsey(cycle(4), 2, 6).value
    r_2k2 = compute_ramsey(matching(2), 2, 7).value
    ok = r_c4 == 4 and r_2k2 == 5
    return ok, f"R(C4,Z2)={r_c4} (want 4), R(2K2,Z2)={r_2k2} (want 5)"


def criterion_2() -> tuple[bool, str]:
    """Exact Z_3 values for P_4 and the 3-star, matching the closed form."""
    r_p4 = compute_ramsey(path(4), 3, 7).value
    r_star = compute_ramsey(star(3), 3, 8).value
    e_p4, e_star = exact_z3(path(4)), exact_z3(star(3))
    ok = r_p4 == 5 == e_p4 and r_star == 6 == e_star
    return ok, (f"R(P4,Z3)={r_p4} closed-form {e_p4} (want 5), "
                f"R(K13,Z3)={r_star} closed-form {e_star} (want 6)")


# ---------------------------------------------------------------------------
# 3 + 4: the main bound as a property over seeded colorings
# ---------------------------------------------------------------------------

def _find_sweep(f: Forest, order: int, p: int, trials: int,
                seed_base: int) -> tuple[bool, str]:
    failures = 0
    cases: dict[str, int] = {}
    for t in range(trials):
        k = random_coloring(order, p, seed_base + t)
        try:
            rep = find_zero_sum_copy(f, k, p, allow_fallback=False)
        except NoZeroSumCopy:
            failures += 1
            continue
        if rep.case_used == CASE_FALLBACK or not verify_report(rep):
            failures += 1
            continue
        cases[rep.case_used] = cases.get(rep.case_used, 0) + 1
    ok = failures == 0
    return ok, (f"{trials - failures}/{trials} found and verified on "
                f"K_{order} over Z_{p}, cases {cases}")


def criterion_3() -> tuple[bool, str]:
    return _find_sweep(path(7), 22, 3, 10_000, seed_base=30_000)


def criterion_4() -> tuple[bool, str]:
    f = random_tree(26, seed=1)
    return _find_sweep(f, 59, 5, 1_000, seed_base=40_000)


# ---------------------------------------------------------------------------
# 5: each case at its sharp host order
# ---------------------------------------------------------------------------

def _spider_legs(n: int, legs: int, stream) -> Forest:
    """Spider on n vertices with the given leg count, each leg >= 5."""
    lengths = [5] * legs
    for _ in range(n - 1 - 5 * legs):
        lengths[next(stream) % legs] += 1
    return spider(*lengths)


def _draw_a(p: int, seed: int) -> Optional[tuple[Forest, ColoredClique]]:
    """A bushy tree on a host of order n + p - 1, kept when it is vibrant."""
    pool = (10, 13, 16) if p == 3 else (31, 36)
    n = pool[seed % len(pool)]
    f = random_bushy_tree(n, p, seed=50_000 + seed)
    k = random_coloring(n + p - 1, p, seed=51_000_000 + seed)
    return (f, k) if len(vibrant_vertices(k, p)) >= p - 1 else None


def _draw_b(p: int, seed: int) -> Optional[tuple[Forest, ColoredClique]]:
    """A non-bushy path or spider with n >= 7p - 3 on a host of order
    n + p - 1, kept when p - 1 disjoint switchers pack."""
    pool = (19, 22) if p == 3 else (36, 41)
    n = pool[seed % len(pool)]
    stream = splitmix64(52_000_000 + seed)
    if next(stream) % 2:
        f = path(n)
    else:
        legs = 3 if p == 3 else 5 + next(stream) % 3
        f = _spider_legs(n, legs, stream)
    if is_bushy(f, p):
        raise ValueError("generator gave bushy")
    k = random_coloring(n + p - 1, p, seed=53_000_000 + seed)
    if len(maximal_disjoint_switchers(k, p - 1)) != p - 1:
        return None
    return f, k


def _draw_c(p: int, seed: int) -> tuple[Forest, ColoredClique]:
    """A path on a near-one-colored host of order n + 4p - 2, which is
    never switchable; the dispatcher must find a verified copy too."""
    pool = (10, 13) if p == 3 else (16, 21)
    n = pool[(seed - 1) % len(pool)]
    f = path(n)
    k = near_one_colored(n + 4 * p - 2, p, 54_000_000 + seed - 1)
    if not verify_report(find_zero_sum_copy(f, k, p, allow_fallback=False)):
        raise ValueError("dispatcher report fails verification")
    return f, k


# criterion 5's table of (tag, draw, engine, case): draw(p, seed) returns a
# (forest, host) instance of the case, or None when the draw does not fall
# in it, and raises when the draw itself is at fault
_CASES = (
    ("a", _draw_a, embed_bushy_vibrant, CASE_BUSHY_VIBRANT),
    ("b", _draw_b, embed_nonbushy_switchable, CASE_NONBUSHY_SWITCHABLE),
    ("c", _draw_c, embed_nonbushy_nonswitchable, CASE_NONBUSHY_NONSWITCHABLE),
)


def _case_sweep(per_p: int, tag: str, draw, engine, case: str
                ) -> tuple[int, int, list[str]]:
    """Run engine on per_p drawn instances at p = 3 and at p = 5, seeds
    1, 2, ... and at most 40·per_p draws per prime; each report must name
    the case and verify. Returns (instances, draws, problems)."""
    checked = drawn = 0
    problems = []
    for p in (3, 5):
        accepted = seed = 0
        while accepted < per_p and seed < 40 * per_p:
            seed += 1
            drawn += 1
            where = f"{tag}/p={p} seed={seed}"
            try:
                instance = draw(p, seed)
                if instance is None:
                    continue
                accepted += 1
                rep = engine(*instance, p)
            except Exception as err:
                problems.append(f"{where}: {err!r}")
                continue
            if rep.case_used != case or not verify_report(rep):
                problems.append(f"{where}: bad report")
        checked += accepted
        if accepted < per_p:
            problems.append(f"{tag}/p={p}: only {accepted} instances accepted")
    return checked, drawn, problems


def criterion_5() -> tuple[bool, str]:
    parts = []
    all_problems = []
    for tag, draw, engine, case in _CASES:
        checked, drawn, problems = _case_sweep(500, tag, draw, engine, case)
        all_problems += problems
        parts.append(f"{tag}: {checked} instances ({drawn} drawn), "
                     f"{len(problems)} problems")
    ok = not all_problems
    detail = "; ".join(parts)
    if all_problems:
        detail += " | first: " + all_problems[0]
    return ok, detail


# ---------------------------------------------------------------------------
# 6: sumset growth
# ---------------------------------------------------------------------------

def criterion_6() -> tuple[bool, str]:
    violations = 0
    bruted = 0
    for p in (2, 3, 5, 7, 13):
        stream = splitmix64(600 + p)
        for _ in range(10_000):
            count = 1 + next(stream) % 5
            wild = next(stream) % 10 == 0
            cap = p if wild else min(p, 6)
            fam = []
            for _ in range(count):
                size = 1 + next(stream) % cap
                vals = list(range(p))
                for i in range(size):  # partial Fisher-Yates
                    j = i + next(stream) % (p - i)
                    vals[i], vals[j] = vals[j], vals[i]
                fam.append([Residue(v, p) for v in sorted(vals[:size])])
            w = iterated_sumset(fam)
            total = sum(len(s) for s in fam)
            bound = min(p, total - count + 1)
            if len(w.achievable) < bound:
                violations += 1
                continue
            sizes = [len(s) for s in fam]
            prod = 1
            for s in sizes:
                prod *= s
            if prod <= 100_000:
                bruted += 1
                brute = {sum(r.value for r in combo) % p
                         for combo in product(*fam)}
                if brute != {r.value for r in w.achievable}:
                    violations += 1
    ok = violations == 0
    return ok, (f"50,000 families over p in 2,3,5,7,13; "
                f"{bruted} brute-checked exactly; {violations} violations")


# ---------------------------------------------------------------------------
# 7: structure facts
# ---------------------------------------------------------------------------

def _is_cut_coloring(bits: tuple[int, ...], pairs) -> bool:
    """True when some proper vertex bipartition colors exactly the crossing
    edges with one color and the rest with the other (a Z_2 coloring)."""
    for side in range(1, 1 << 4):  # vertex 4 stays outside: each cut once
        crossing = [((side >> u) ^ (side >> v)) & 1 for u, v in pairs]
        if list(bits) in (crossing, [1 - c for c in crossing]):
            return True
    return False


def _all_k5(p: int) -> tuple[int, int, int, int, Optional[str]]:
    """Scan every Z_p-coloring of K_5 against the switcher characterisation.

    Switcher-free must hold exactly when the coloring is one-colored (odd p)
    or one-colored or a cut coloring (p = 2). Returns the switcher-free,
    one-colored and cut counts, the number of colorings on the wrong side,
    and the edge colors of the first of them ("01=c 02=c ... 34=c").
    """
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    free_count = mono_count = cut_count = wrong = 0
    first_wrong = None
    for bits in product(range(p), repeat=10):
        mat = np.zeros((5, 5), dtype=np.int16)
        for (u, v), c in zip(pairs, bits):
            mat[u, v] = mat[v, u] = c
        switcher_free = not maximal_disjoint_switchers(
            ColoredClique(5, p, mat), 1)
        mono = len(set(bits)) == 1
        cut = p == 2 and _is_cut_coloring(bits, pairs)
        free_count += switcher_free
        mono_count += mono
        cut_count += cut
        if switcher_free != (mono or cut):
            wrong += 1
            if first_wrong is None:
                first_wrong = " ".join(f"{u}{v}={c}"
                                       for (u, v), c in zip(pairs, bits))
    return free_count, mono_count, cut_count, wrong, first_wrong


def _planted_dominant(p: int, order: int, stream) -> ColoredClique:
    """Qualifying coloring with planted classes near the size boundary.

    The smaller class owns each cross edge, so only larger-class vertices
    pick up deviations; a vertex qualifies when at most 3p - 5 of its edges
    leave its color, and the small-class sizes are drawn to sit against
    exactly that budget.
    """
    alpha = 3 * p - 4
    colors = list(range(p))
    for i in range(len(colors)):  # shuffle so the big class varies
        j = i + next(stream) % (p - i)
        colors[i], colors[j] = colors[j], colors[i]
    if p > 2 and next(stream) % 10 < 3:
        t1 = next(stream) % ((alpha - 1) // 2 + 1)
        t2 = next(stream) % (alpha - t1)
        sizes = [order - t1 - t2, t1, t2]
    else:
        sizes = [order - next(stream) % alpha]
        sizes.append(order - sizes[0])
    cls = []
    for idx, sz in enumerate(sizes):
        cls += [colors[idx]] * sz
    mat = np.zeros((order, order), dtype=np.int16)
    for u in range(order):
        for v in range(u + 1, order):
            if cls[u] == cls[v]:
                c = cls[u]
            else:
                # the smaller class colors the edge; ties to the later class
                c = cls[u] if sizes[colors.index(cls[u])] <= sizes[
                    colors.index(cls[v])] else cls[v]
            mat[u, v] = mat[v, u] = c
    return ColoredClique(order, p, mat)


def criterion_7() -> tuple[bool, str]:
    # Mod 2 every 4-cycle of a cut coloring crosses the cut evenly, so both
    # pairing sums agree and the 30 cut colorings of K_5 are switcher-free
    # yet two-colored; one-coloredness needs 2*chi(e) = 2*chi(f) divided
    # by 2, which only odd p allows.
    problems = []
    scans = []
    for p, want_free in ((2, 32), (3, 3)):
        free, mono, cuts, wrong, first = _all_k5(p)
        shape = f"{mono} mono + {cuts} cut" if p == 2 else f"{mono} mono"
        scans.append(f"K_5/Z_{p}: {free} switcher-free = {shape} "
                     f"of {p ** 10}")
        if free != want_free:
            problems.append(f"K_5/Z_{p}: {free} switcher-free colorings, "
                            f"want {want_free}")
        if wrong:
            claim = "one-colored or cut" if p == 2 else "one-colored"
            problems.append(f"K_5/Z_{p}: {wrong} colorings where "
                            f"switcher-free != {claim}, first {first}")

    part_checked = 0
    for i in range(10_000):
        p = (2, 3, 5)[i % 3]
        alpha = 3 * p - 4
        stream = splitmix64(70_000 + i)
        order = 2 * alpha + 2 + next(stream) % 13
        k = _planted_dominant(p, order, stream)
        part = dominant_partition(k, p)
        sq = sum(len(vs) ** 2 for vs in part.classes.values())
        biggest = max(len(vs) for vs in part.classes.values())
        if sq < order * order - 2 * alpha * order:
            problems.append(f"partition {i}: sum of squares {sq}")
        if biggest < order - 2 * alpha:
            problems.append(f"partition {i}: largest class {biggest}")
        part_checked += 1

    nonbushy = 0
    for i in range(10_000):
        stream = splitmix64(71_000 + i)
        p = (2, 3, 5, 7)[i % 4]
        n = 2 + next(stream) % 39
        comps = 1 + next(stream) % 3
        if n < 2 * comps:
            comps = 1
        f = random_forest(n, comps, seed=72_000 + i)
        if is_bushy(f, p):
            continue
        nonbushy += 1
        if f.degree_count(2) < f.n - 4 * p:
            problems.append(f"forest {i}: degree-2 count {f.degree_count(2)}")

    ok = not problems
    detail = (f"{'; '.join(scans)}; {part_checked} partitions; "
              f"{nonbushy} non-bushy forests checked")
    if problems:
        detail += f" | {len(problems)} problems | first: {problems[0]}"
    return ok, detail


# ---------------------------------------------------------------------------
# 8: the lower-bound construction
# ---------------------------------------------------------------------------

def criterion_8() -> tuple[bool, str]:
    problems = []
    for p, n in ((3, 4), (3, 7), (5, 6)):
        k = star_lower_bound_coloring(n, p)
        hit = brute_zero_sum(star(n - 1), k)
        if hit is not None:
            problems.append(f"(p={p}, n={n}): zero-sum star at {hit.mapping}")
    r_star = compute_ramsey(star(3), 3, 8).value
    if r_star != 6:
        problems.append(f"R(K13,Z3) = {r_star}, want 6 = 4 + 3 - 1")
    ok = not problems
    detail = ("star-free colorings hold for (3,4), (3,7), (5,6); "
              "tightness R(K13,Z3) = 6 = n + p - 1")
    if problems:
        detail = "; ".join(problems)
    return ok, detail


# ---------------------------------------------------------------------------
# 9: finder vs. oracle
# ---------------------------------------------------------------------------

def _components_for(n: int, p: int) -> int:
    if p == 2:
        return 2 if n % 2 == 0 else 1
    return {0: 3, 1: 1, 2: 2}[n % 3]


def _finder_vs_oracle_instances(
        count: int) -> Iterator[tuple[Forest, ColoredClique, int]]:
    """Criterion 9's seeded draws: (forest, host, p) for i in range(count)."""
    for i in range(count):
        stream = splitmix64(90_000 + i)
        if i % 10 < 3:
            # p = 2 at host order >= n + 9p - 12, where absence of a copy
            # would contradict the bound, so both engines must find one
            p = 2
            n = 4 + next(stream) % 2
            low = n + 9 * p - 12
            order = low + next(stream) % (12 - low)
        else:
            p = 2 if i % 2 == 0 else 3
            n = 5 + next(stream) % 4
            order = n + (next(stream) % 3 if n < 8 else 0)
        f = random_forest(n, _components_for(n, p), seed=91_000 + i)
        yield f, random_coloring(order, p, seed=92_000_000 + i), p


def criterion_9() -> tuple[bool, str]:
    problems = []
    checked = vice_versa = 0
    for i, (f, k, p) in enumerate(_finder_vs_oracle_instances(2_000)):
        checked += 1
        try:
            rep = find_zero_sum_copy(f, k, p)
        except NoZeroSumCopy:
            rep = None
        hit = brute_zero_sum(f, k)
        if rep is not None:
            if not verify_report(rep):
                problems.append(f"instance {i}: report fails verification")
            if hit is None:
                problems.append(f"instance {i}: finder yes, oracle no")
        if hit is not None and edge_sum(hit).value != 0:
            problems.append(f"instance {i}: oracle sum {edge_sum(hit).value}")
        if k.order >= f.n + 9 * p - 12:
            vice_versa += 1
            if hit is not None and rep is None:
                problems.append(f"instance {i}: oracle yes, finder no")
    ok = not problems
    detail = (f"{checked} instances, {vice_versa} at or above the bound "
              f"order; {len(problems)} disagreements")
    if problems:
        detail += " | first: " + problems[0]
    return ok, detail


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "exact-z2-values", criterion_1),
    (2, "exact-z3-values", criterion_2),
    (3, "main-bound-p3", criterion_3),
    (4, "main-bound-p5", criterion_4),
    (5, "case-sharp-orders", criterion_5),
    (6, "sumset-growth", criterion_6),
    (7, "structure-facts", criterion_7),
    (8, "star-lower-bound", criterion_8),
    (9, "finder-vs-oracle", criterion_9),
]
