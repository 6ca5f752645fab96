"""The four constructive cases and their dispatcher.

Every case returns a CaseReport whose embedding is zero-sum by construction
and whose auxiliary certificate lets :func:`verify_report` recheck the whole
argument from scratch. The dispatcher classifies the instance once, hands
that classification to each case in a fixed order, and optionally falls
back to the exhaustive backtracker; a direct ``embed_*`` call classifies
for itself.

Case summary:

* BushyVibrant: anchor the selected leaf parents on colorful vertices,
  reserve a same-color and an other-color target per selected leaf, and let
  the sumset walk decide each leaf between its two targets.
* BushyNonvibrant: strip colorful vertices, partition the rest by dominant
  color, and grow the forest greedily inside the largest class along
  single-color edges.
* NonbushySwitchable: pin each degree-2 triple across a switcher four-cycle
  so the center vertex has two placements with different edge sums; the
  sumset walk picks the combination hitting zero.
* NonbushyNonswitchable: remove a maximal (short) switcher packing; the rest
  of the clique must then be one-colored, where any placement works.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .classify import (Classification, ColorfulWitness, SwitcherQuad,
                       classify, dominant_partition)
from .core import (ColoredClique, DivisibilityViolation, Embedding, Forest,
                   LeafFamilies, PreconditionFailed, Residue, ZeroSumError,
                   edge_sum, require_prime, select_degree2_triples,
                   select_leaf_families)
from .oracle import brute_zero_sum
from .sumset import iterated_sumset

log = logging.getLogger(__name__)

CASE_BUSHY_VIBRANT = "BushyVibrant"
CASE_BUSHY_NONVIBRANT = "BushyNonvibrant"
CASE_NONBUSHY_SWITCHABLE = "NonbushySwitchable"
CASE_NONBUSHY_NONSWITCHABLE = "NonbushyNonswitchable"
CASE_FALLBACK = "BruteForceFallback"


class SelectionExhausted(PreconditionFailed):
    """Target-set selection ran out of candidates; only reachable when the
    colorful-witness preconditions were violated."""


class GreedyStuck(PreconditionFailed):
    """The one-color greedy found no continuation; cannot happen once the
    dominant class exceeds the forest by the full tolerance."""


class NoZeroSumCopy(ZeroSumError):
    """No zero-sum copy was produced (and, if the fallback ran, none exists)."""


class MonochromaticityViolated(PreconditionFailed):
    """A certified switcher-free remainder was not one-colored.

    For odd p that falsifies the structural guarantee the case rests on
    (deriving it divides 2*chi(e) = 2*chi(f) by 2), so it is logged loudly
    before the dispatcher moves on. For p = 2 the division is vacuous and
    two-class cut colorings genuinely evade every switcher test, so there
    this is an expected, quiet outcome."""


@dataclass(frozen=True)
class TargetSets:
    """Anchor hosts plus one same-color and one other-color target per
    selected leaf.

    parent_hosts maps each selected parent to its anchor vertex u_i. For
    family i, same_color[i][j] is a host whose edge to u_i carries the
    anchor's witness color, other_color[i][j] one whose edge does not; the
    j-th selected leaf of the family will land on one of the two. All listed
    vertices and anchors are pairwise distinct.
    """

    parent_hosts: Mapping[int, int]
    same_color: tuple[tuple[int, ...], ...]
    other_color: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BushyVibrantCert:
    witnesses: tuple[ColorfulWitness, ...]
    families: LeafFamilies
    targets: TargetSets
    picks: tuple[int, ...]


@dataclass(frozen=True)
class MonochromaticCert:
    color: Residue
    class_vertices: tuple[int, ...]
    subclique: tuple[int, ...]


@dataclass(frozen=True)
class SwitcherCert:
    triples: tuple[tuple[int, tuple[int, int]], ...]
    quads: tuple[SwitcherQuad, ...]
    picks: tuple[int, ...]


@dataclass(frozen=True)
class MonoSubcliqueCert:
    removed_quads: tuple[SwitcherQuad, ...]
    remainder: tuple[int, ...]
    color: Residue


@dataclass(frozen=True)
class CaseReport:
    """What the dispatcher decided and what the chosen case produced."""

    bushy: bool
    vibrant: bool
    switchable: bool
    case_used: str
    embedding: Embedding
    auxiliary: object


def _entry_checks(f: Forest, k: ColoredClique, p: int, context: str) -> None:
    # Divisibility is deliberately not required here: the two sumset-driven
    # cases steer the total to zero for any edge count, and the dispatcher
    # enforces p | e(F) before guaranteeing existence.
    require_prime(p, context)
    if p != k.modulus:
        raise ValueError(f"{context}: p={p} but clique modulus {k.modulus}")
    if f.edge_count == 0:
        raise ValueError(f"{context}: forest has no edges")


def _alone(body, f: Forest, k: ColoredClique, p: int, context: str
           ) -> CaseReport:
    """Run one case body outside the dispatcher, classifying for it."""
    _entry_checks(f, k, p, context)
    return body(f, k, p, classify(f, k, p))


def _report(c: Classification, case: str, emb: Embedding, aux: object
            ) -> CaseReport:
    return CaseReport(bushy=c.bushy, vibrant=c.vibrant,
                      switchable=c.switchable, case_used=case, embedding=emb,
                      auxiliary=aux)


# ---------------------------------------------------------------------------
# target-set selection (bushy + vibrant machinery)
# ---------------------------------------------------------------------------

def select_target_sets(k: ColoredClique, witnesses: Sequence[ColorfulWitness],
                       fam: LeafFamilies) -> TargetSets:
    """Reserve, for each selected leaf, one same-color and one other-color
    host adjacent to the family's anchor.

    Anchors are the first m witnesses (m = number of families). Selection is
    inductive and lowest-index first; the availability bound
    pool >= (3p-5) - 2*(leaves placed so far) - (m-1) >= family count
    is re-derived at each step and SelectionExhausted raised if the coloring
    does not honor it (possible only when the witnesses are not genuinely
    colorful for this clique).
    """
    p = k.modulus
    m = len(fam.parents)
    if len(witnesses) < m:
        raise SelectionExhausted(
            f"{m} leaf families but only {len(witnesses)} colorful witnesses")
    anchors = list(witnesses)[:m]
    anchor_hosts = [w.vertex for w in anchors]
    if len(set(anchor_hosts)) != m:
        raise SelectionExhausted("anchor vertices are not distinct")
    used: set[int] = set(anchor_hosts)
    same: list[tuple[int, ...]] = []
    other: list[tuple[int, ...]] = []
    placed = 0
    for i, count in enumerate(fam.counts):
        u = anchors[i].vertex
        x = anchors[i].color.value
        bound = (3 * p - 5) - placed - (m - 1)
        if bound < count:
            raise SelectionExhausted(
                f"availability bound {bound} below family size {count}")
        row = k.matrix[u]
        pool_same = [v for v in range(k.order)
                     if v != u and v not in used and int(row[v]) == x]
        pool_other = [v for v in range(k.order)
                      if v != u and v not in used and int(row[v]) != x]
        if len(pool_same) < bound or len(pool_other) < bound:
            raise SelectionExhausted(
                f"anchor {u} pools ({len(pool_same)}, {len(pool_other)}) "
                f"under the guaranteed bound {bound}")
        xs = tuple(pool_same[:count])
        ys = tuple(pool_other[:count])
        same.append(xs)
        other.append(ys)
        used.update(xs)
        used.update(ys)
        placed += 2 * count
    hosts = dict(zip(fam.parents, anchor_hosts))
    return TargetSets(parent_hosts=hosts, same_color=tuple(same),
                      other_color=tuple(other))


def _steer(f: Forest, k: ColoredClique, pinned: Mapping[int, int],
           choices: Sequence[tuple[int, int, int]], source: str
           ) -> tuple[Embedding, tuple[int, ...]]:
    """Place f with the pinned vertices fixed and each open vertex v of a
    choice (v, h0, h1) on h0 or h1, steering the edge sum to zero.

    Every other vertex takes, in ascending order, the lowest host that no pin
    or choice uses. Open vertices must be pairwise non-adjacent, so all their
    edges run to placed vertices; the sumset walk then picks one host per
    open vertex. Returns the embedding and the picks (0 for h0, 1 for h1).
    """
    p = k.modulus
    opened = {v for v, _, _ in choices}
    reserved = set(pinned.values())
    reserved.update(h for _, h0, h1 in choices for h in (h0, h1))
    mapping = [-1] * f.n
    for v, h in pinned.items():
        mapping[v] = h
    free = (h for h in range(k.order) if h not in reserved)
    for v in range(f.n):
        if v not in opened and v not in pinned:
            mapping[v] = next(free)

    s = sum(k.value(mapping[u], mapping[v]) for u, v in f.edges
            if u not in opened and v not in opened)
    options = [[Residue(sum(k.value(mapping[nb], h) for nb in f.neighbors(v))
                        % p, p) for h in (h0, h1)]
               for v, h0, h1 in choices]
    picks = iterated_sumset(options).choice.get(Residue((-s) % p, p))
    if picks is None:  # impossible: p-1 pairs of distinct residues cover Z_p
        raise SelectionExhausted(f"zero target unreachable from {source}")
    for (v, h0, h1), pick in zip(choices, picks):
        mapping[v] = h0 if pick == 0 else h1
    return Embedding(pattern=f, host=k, mapping=tuple(mapping)), picks


def _require_one_colored_zero(f: Forest, color: int, p: int) -> None:
    if (color * f.edge_count) % p != 0:
        raise DivisibilityViolation(
            f"one-colored copy in color {color} sums to "
            f"{(color * f.edge_count) % p}, not 0")


def _bushy_vibrant(f: Forest, k: ColoredClique, p: int, c: Classification
                   ) -> CaseReport:
    if not c.bushy:
        raise PreconditionFailed(
            f"forest has {f.degree_count(1)} leaves, needs {2 * (p - 1)}")
    if k.order < f.n + (p - 1):
        raise PreconditionFailed(
            f"host order {k.order} below {f.n + p - 1}")
    if not c.vibrant:
        raise PreconditionFailed(
            f"{len(c.witnesses)} colorful vertices, vibrancy needs {p - 1}")
    fam = select_leaf_families(f, p)
    targets = select_target_sets(k, c.witnesses[:p - 1], fam)
    choices = [slot for leaves, xs, ys in zip(fam.selected, targets.same_color,
                                              targets.other_color)
               for slot in zip(leaves, xs, ys)]
    emb, picks = _steer(f, k, targets.parent_hosts, choices, "leaf pairs")
    cert = BushyVibrantCert(witnesses=c.witnesses[:len(fam.parents)],
                            families=fam, targets=targets, picks=picks)
    return _report(c, CASE_BUSHY_VIBRANT, emb, cert)


def embed_bushy_vibrant(f: Forest, k: ColoredClique, p: int) -> CaseReport:
    """Anchor selected-leaf parents on colorful vertices and resolve each
    selected leaf between its two reserved targets via the sumset walk.

    Requires a bushy forest, at least p-1 colorful vertices, and a host of
    order at least n + p - 1.
    """
    return _alone(_bushy_vibrant, f, k, p, "embed_bushy_vibrant")


# ---------------------------------------------------------------------------
# non-vibrant: one-color greedy inside the dominant class
# ---------------------------------------------------------------------------

def _monochromatic_greedy(f: Forest, k: ColoredClique, hosts: Sequence[int],
                          color: int) -> list[int]:
    """Grow each tree from its lowest leaf along color-matching edges."""
    free = sorted(hosts)
    mat = k.matrix
    mapping = [-1] * f.n
    for comp in f.components():
        root = min(v for v in comp if f.degree(v) == 1)
        order = [root]
        parent: dict[int, int] = {root: -1}
        i = 0
        while i < len(order):
            u = order[i]
            i += 1
            for nb in f.neighbors(u):
                if nb not in parent:
                    parent[nb] = u
                    order.append(nb)
        for v in order:
            if parent[v] < 0:
                if not free:
                    raise GreedyStuck("no free host for a component root")
                h = free.pop(0)
            else:
                anchor = mapping[parent[v]]
                h = next((c for c in free if mat[anchor, c] == color), None)
                if h is None:
                    raise GreedyStuck(
                        f"no free host continues color {color} from "
                        f"{anchor}")
                free.remove(h)
            mapping[v] = h
    return mapping


def _bushy_nonvibrant(f: Forest, k: ColoredClique, p: int, c: Classification
                      ) -> CaseReport:
    if c.vibrant:
        raise PreconditionFailed(
            f"coloring is vibrant for p={p}; this case needs the opposite")
    colorful = {w.vertex for w in c.witnesses}
    keep = [v for v in range(k.order) if v not in colorful]
    if not keep:
        raise PreconditionFailed("every vertex is colorful")
    sub, labels = k.induced(keep)
    part = dominant_partition(sub, p)
    class_local = part.classes[part.largest]
    class_hosts = [labels[v] for v in class_local]
    if len(class_hosts) < f.n:
        raise PreconditionFailed(
            f"largest dominant class has {len(class_hosts)} vertices, "
            f"forest needs {f.n}")
    color = part.largest.value
    _require_one_colored_zero(f, color, p)
    mapping = _monochromatic_greedy(f, k, class_hosts, color)
    emb = Embedding(pattern=f, host=k, mapping=tuple(mapping))
    cert = MonochromaticCert(color=part.largest,
                             class_vertices=tuple(class_hosts),
                             subclique=labels)
    return _report(c, CASE_BUSHY_NONVIBRANT, emb, cert)


def embed_bushy_nonvibrant(f: Forest, k: ColoredClique, p: int) -> CaseReport:
    """One-colored copy inside the largest dominant class.

    Attempted whenever the class can hold the forest at all; guaranteed only
    when it exceeds the forest order by the tolerance 3p-4, so a greedy jam
    surfaces as GreedyStuck and sends the dispatcher onward.
    """
    return _alone(_bushy_nonvibrant, f, k, p, "embed_bushy_nonvibrant")


# ---------------------------------------------------------------------------
# switchable: degree-2 triples across switcher four-cycles
# ---------------------------------------------------------------------------

def _nonbushy_switchable(f: Forest, k: ColoredClique, p: int,
                         c: Classification) -> CaseReport:
    if k.order < f.n + (p - 1):
        raise PreconditionFailed(
            f"host order {k.order} below {f.n + p - 1}")
    triples = select_degree2_triples(f, p)
    quads = c.switchers
    if not c.switchable:
        raise PreconditionFailed(
            f"only {len(quads)} disjoint switchers, need {p - 1}")
    # each center sits on d1 or d3 between its ends pinned on d2 and d4; the
    # switcher property makes the two placements' edge sums differ
    pinned: dict[int, int] = {}
    choices = []
    for (t, (a, b)), quad in zip(triples, quads):
        d1, d2, d3, d4 = quad.vertices
        pinned[a] = d2
        pinned[b] = d4
        choices.append((t, d1, d3))
    emb, picks = _steer(f, k, pinned, choices, "switchers")
    cert = SwitcherCert(triples=triples, quads=tuple(quads), picks=picks)
    return _report(c, CASE_NONBUSHY_SWITCHABLE, emb, cert)


def embed_nonbushy_switchable(f: Forest, k: ColoredClique, p: int
                              ) -> CaseReport:
    """Pin p-1 degree-2 triples across disjoint switchers; each center picks
    between two diagonal placements whose edge sums differ, and the sumset
    walk steers the total to zero.

    Requires p-1 disjoint degree-2 triples in the forest, p-1 disjoint
    switchers in the coloring, and host order at least n + p - 1.
    """
    return _alone(_nonbushy_switchable, f, k, p, "embed_nonbushy_switchable")


# ---------------------------------------------------------------------------
# non-switchable: strip short packings, use the one-colored remainder
# ---------------------------------------------------------------------------

def _nonbushy_nonswitchable(f: Forest, k: ColoredClique, p: int,
                            c: Classification) -> CaseReport:
    quads = c.switchers
    if c.switchable:
        raise PreconditionFailed(
            f"found {len(quads)} disjoint switchers: classified switchable")
    removed = {v for q in quads for v in q.vertices}
    remainder = [v for v in range(k.order) if v not in removed]
    if len(remainder) < f.n:
        raise PreconditionFailed(
            f"remainder has {len(remainder)} vertices, forest needs {f.n}")
    if len(remainder) < 5:
        raise PreconditionFailed(
            f"remainder of {len(remainder)} vertices is too small to force "
            f"one-coloredness")
    idx = np.array(remainder)
    sub = k.matrix[idx][:, idx]
    color = int(sub[0, 1])
    if np.triu(sub != color, 1).any():
        colors = len(set(sub[np.triu_indices(len(idx), 1)].tolist()))
        if p != 2:
            log.error(
                "switcher-free remainder on %d vertices uses %d colors; "
                "this contradicts the structural guarantee behind the "
                "non-switchable case (remainder=%r)",
                len(remainder), colors, remainder)
        raise MonochromaticityViolated(
            f"switcher-free remainder carries {colors} colors")
    _require_one_colored_zero(f, color, p)
    mapping = tuple(remainder[:f.n])
    emb = Embedding(pattern=f, host=k, mapping=mapping)
    cert = MonoSubcliqueCert(removed_quads=tuple(quads),
                             remainder=tuple(remainder),
                             color=Residue(color, p))
    return _report(c, CASE_NONBUSHY_NONSWITCHABLE, emb, cert)


def embed_nonbushy_nonswitchable(f: Forest, k: ColoredClique, p: int
                                 ) -> CaseReport:
    """Remove a maximal switcher packing of size at most p-2; for odd p the
    remaining clique is then necessarily one-colored and any placement in
    it works.

    The one-coloredness is scanned, not assumed. For odd p a violation
    would contradict the maximality certificate and is logged as such; for
    p = 2 switcher-free cut colorings exist and the scan simply rejects
    them back to the dispatcher.
    """
    return _alone(_nonbushy_nonswitchable, f, k, p,
                  "embed_nonbushy_nonswitchable")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_CASE_ORDER = (_bushy_vibrant, _bushy_nonvibrant, _nonbushy_switchable,
               _nonbushy_nonswitchable)


def find_zero_sum_copy(f: Forest, k: ColoredClique, p: int,
                       allow_fallback: bool = True) -> CaseReport:
    """Classify once, then try the four constructive cases in fixed order on
    that classification; optionally fall back to exhaustive search.

    At guarantee scale (n >= 3p^2 - 12p + 11 and host order >= n + 9p - 12)
    one of the four cases succeeds and the fallback is never consulted.

    Raises:
        DivisibilityViolation: p does not divide the edge count.
        NoZeroSumCopy: nothing found; with fallback enabled this is a proof
            of absence, without it only that the constructive cases failed.
    """
    _entry_checks(f, k, p, "find_zero_sum_copy")
    if f.edge_count % p != 0:
        raise DivisibilityViolation(
            f"{p} does not divide edge count {f.edge_count}; no zero-sum "
            f"guarantee exists")
    if k.order < f.n:
        raise NoZeroSumCopy(
            f"host K_{k.order} cannot contain a forest on {f.n} vertices")
    c = classify(f, k, p)
    for case in _CASE_ORDER:
        try:
            return case(f, k, p, c)
        except PreconditionFailed:
            continue
    if allow_fallback:
        emb = brute_zero_sum(f, k, p)
        if emb is not None:
            return _report(c, CASE_FALLBACK, emb, None)
        raise NoZeroSumCopy("exhaustive search found no zero-sum copy")
    raise NoZeroSumCopy(
        "all constructive cases failed and the fallback is disabled")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _verify_common(r: CaseReport) -> bool:
    emb = r.embedding
    if not emb.is_injective():
        return False
    if edge_sum(emb).value != 0:
        return False
    return True


def _in_host(k: ColoredClique, vertices: Sequence[int],
             distinct: bool = False) -> bool:
    """True when every certificate vertex is one of the host's vertices
    0, ..., k.order - 1 and, when asked, no two are equal.

    Numpy reads a negative index from the far end of an axis, so every
    check that indexes the matrix with certificate vertices asks this
    first."""
    held = set(vertices)
    return (held <= set(range(k.order))
            and (not distinct or len(held) == len(vertices)))


def _verify_bushy_vibrant(r: CaseReport) -> bool:
    f = r.embedding.pattern
    k = r.embedding.host
    p = k.modulus
    cert: BushyVibrantCert = r.auxiliary
    fam = cert.families
    mp = r.embedding.mapping
    b = 3 * p - 5
    m = len(fam.parents)
    if not (len(cert.witnesses) == m == len(fam.counts) == len(fam.selected)):
        return False
    if sum(fam.counts) != p - 1:
        return False
    if len(cert.picks) != p - 1:
        return False
    targets = cert.targets
    if not _in_host(k, [*targets.parent_hosts.values(),
                        *(h for xs in targets.same_color for h in xs),
                        *(h for ys in targets.other_color for h in ys)]):
        return False

    all_targets: set[int] = set()
    for i, parent in enumerate(fam.parents):
        wit = cert.witnesses[i]
        u = cert.targets.parent_hosts.get(parent)
        if u is None or wit.vertex != u or mp[parent] != u:
            return False
        row = k.matrix[u]
        cnt = int(np.count_nonzero(np.delete(row, u) == wit.color.value))
        if cnt != wit.degree_in_color or not b <= cnt <= k.order - b - 1:
            return False
        xs = cert.targets.same_color[i]
        ys = cert.targets.other_color[i]
        if len(xs) != fam.counts[i] or len(ys) != fam.counts[i]:
            return False
        for x in xs:
            if int(row[x]) != wit.color.value:
                return False
        for y in ys:
            if int(row[y]) == wit.color.value:
                return False
        all_targets.update(xs)
        all_targets.update(ys)

    anchors = set(cert.targets.parent_hosts.values())
    if len(anchors) != m or anchors & all_targets:
        return False
    if len(all_targets) != 2 * (p - 1):
        return False

    slot = 0
    selected = set()
    for i, parent in enumerate(fam.parents):
        for j, leaf in enumerate(fam.selected[i]):
            selected.add(leaf)
            if f.degree(leaf) != 1 or f.neighbors(leaf) != (parent,):
                return False
            xh = cert.targets.same_color[i][j]
            yh = cert.targets.other_color[i][j]
            want = xh if cert.picks[slot] == 0 else yh
            if mp[leaf] != want:
                return False
            slot += 1
    for v in range(f.n):
        if v in selected or v in cert.targets.parent_hosts:
            continue
        if mp[v] in all_targets or mp[v] in anchors:
            return False
    return True


def _verify_monochromatic(r: CaseReport) -> bool:
    f = r.embedding.pattern
    k = r.embedding.host
    p = k.modulus
    cert: MonochromaticCert = r.auxiliary
    color = cert.color.value
    if not (_in_host(k, cert.subclique, distinct=True)
            and _in_host(k, cert.class_vertices, distinct=True)):
        return False
    sub = np.array(cert.subclique, dtype=np.intp)
    cls = np.array(cert.class_vertices, dtype=np.intp)
    # column of each host vertex in the sub-clique, -1 outside it
    column = np.full(k.order, -1)
    column[sub] = np.arange(sub.size)
    if (column[cls] < 0).any():
        return False
    in_class = np.zeros(k.order, dtype=bool)
    in_class[cls] = True
    mp = np.asarray(r.embedding.mapping, dtype=np.intp)
    if not in_class[mp].all():
        return False
    ends = mp[np.array(f.sorted_edges(), dtype=np.intp).reshape(-1, 2)]
    if (k.matrix[ends[:, 0], ends[:, 1]] != color).any():
        return False
    # each class vertex's color degree inside the sub-clique; its own
    # column is no edge, whatever the diagonal holds
    hits = k.matrix[cls][:, sub] == color
    hits[np.arange(cls.size), column[cls]] = False
    threshold = sub.size - (3 * p - 4)
    return bool((hits.sum(axis=1) >= threshold).all())


def _canonical_switcher_holds(k: ColoredClique, quad: SwitcherQuad) -> bool:
    d1, d2, d3, d4 = quad.vertices
    p = k.modulus
    left = (k.value(d4, d1) + k.value(d1, d2)) % p
    right = (k.value(d2, d3) + k.value(d3, d4)) % p
    return left != right


def _packed_vertices(k: ColoredClique,
                     quads: tuple[SwitcherQuad, ...]) -> Optional[set[int]]:
    """The vertices of a certified switcher packing, or None unless each
    quad has four vertices of the host, no vertex appears twice in the
    packing, and each quad meets the canonical inequality."""
    verts = [v for quad in quads for v in quad.vertices]
    if (any(len(quad.vertices) != 4 for quad in quads)
            or not _in_host(k, verts, distinct=True)
            or not all(_canonical_switcher_holds(k, quad) for quad in quads)):
        return None
    return set(verts)


def _verify_switcher(r: CaseReport) -> bool:
    f = r.embedding.pattern
    k = r.embedding.host
    p = k.modulus
    cert: SwitcherCert = r.auxiliary
    mp = r.embedding.mapping
    if not len(cert.triples) == len(cert.quads) == len(cert.picks) == p - 1:
        return False
    quad_verts = _packed_vertices(k, cert.quads)
    if quad_verts is None:
        return False
    seen_forest: set[int] = set()
    for (t, (a, bb)), quad, pick in zip(cert.triples, cert.quads,
                                        cert.picks):
        if f.degree(t) != 2 or f.neighbors(t) != (a, bb):
            return False
        group = {t, a, bb}
        if group & seen_forest:
            return False
        seen_forest |= group
        d1, d2, d3, d4 = quad.vertices
        if mp[a] != d2 or mp[bb] != d4:
            return False
        if mp[t] != (d1 if pick == 0 else d3):
            return False
    return all(mp[v] not in quad_verts
               for v in range(f.n) if v not in seen_forest)


def _verify_mono_subclique(r: CaseReport) -> bool:
    f = r.embedding.pattern
    k = r.embedding.host
    p = k.modulus
    cert: MonoSubcliqueCert = r.auxiliary
    if len(cert.removed_quads) > p - 2:
        return False
    removed = _packed_vertices(k, cert.removed_quads)
    if removed is None or not _in_host(k, cert.remainder, distinct=True):
        return False
    rem = set(cert.remainder)
    if rem & removed or rem | removed != set(range(k.order)):
        return False
    if len(rem) < 5 or len(rem) < f.n:
        return False
    idx = np.array(cert.remainder, dtype=np.intp)
    if np.triu(k.matrix[idx][:, idx] != cert.color.value, 1).any():
        return False
    return all(h in rem for h in r.embedding.mapping)


_VERIFIERS = {
    CASE_BUSHY_VIBRANT: (BushyVibrantCert, _verify_bushy_vibrant),
    CASE_BUSHY_NONVIBRANT: (MonochromaticCert, _verify_monochromatic),
    CASE_NONBUSHY_SWITCHABLE: (SwitcherCert, _verify_switcher),
    CASE_NONBUSHY_NONSWITCHABLE: (MonoSubcliqueCert, _verify_mono_subclique),
}


def verify_report(r: CaseReport) -> bool:
    """Recheck a report from scratch: injectivity, zero sum, and every
    case-specific certificate invariant. Never raises; any inconsistency,
    malformed field, or unknown case yields False.

    Every host vertex a certificate names (anchors, targets, switcher
    vertices, sub-clique, class and remainder vertices) must be one of
    the host's vertices 0, ..., order - 1; a negative or larger one is
    rejected, never read from the far end of the matrix. The vertices of
    a switcher packing, of the sub-clique, of the class and of the
    remainder must each be free of repeats. The checks read the host
    matrix directly and share no table with the finder."""
    try:
        if not _verify_common(r):
            return False
        if r.case_used == CASE_FALLBACK:
            return r.auxiliary is None
        entry = _VERIFIERS.get(r.case_used)
        if entry is None:
            return False
        cert_type, checker = entry
        if not isinstance(r.auxiliary, cert_type):
            return False
        return bool(checker(r))
    except Exception:
        return False
