"""Text formats for pattern graphs, colorings, and run reports.

All formats are line oriented; `#` starts a comment and blank lines are
ignored. Emitters write canonical files (sorted edge lists, no comments) so
that emit-then-parse is the identity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (ColoredClique, Forest, SimpleGraph, ZeroSumError,
                   build_forest, build_graph)

REPORT_MAGIC = "zsr-report v1"


class FileFormatError(ZeroSumError):
    """Malformed input file; the message carries the line number."""


def _logical_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _ints(no: int, line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise FileFormatError(
            f"line {no}: expected {count} fields for {what}, got "
            f"{len(parts)}: {line!r}")
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise FileFormatError(f"line {no}: non-integer field in {line!r}")


# the two numbers each header kind carries, as the README names them
_HEADER_FIELDS = {"forest": "<n> <m>", "clique": "<N> <p>"}


def _parse_edge_header(lines, kind: str):
    try:
        no, first = next(lines)
    except StopIteration:
        raise FileFormatError(f"empty file, expected a {kind} header")
    parts = first.split()
    if len(parts) != 3 or parts[0] != kind:
        raise FileFormatError(
            f"line {no}: expected header {kind!r} {_HEADER_FIELDS[kind]}, "
            f"got {first!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise FileFormatError(f"line {no}: non-integer header counts")
    if n < 0 or m < 0:
        raise FileFormatError(f"line {no}: negative counts in header")
    return n, m


def _graph_from_text(text: str, build):
    """Parse an edge-list file and build it with ``build`` (the one path
    behind :func:`forest_from_text` and :func:`graph_from_text`)."""
    lines = _logical_lines(text)
    n, m = _parse_edge_header(lines, "forest")
    if n > 2 * m:
        raise FileFormatError(
            f"header declares {n} vertices, but {m} edges touch at most "
            f"{2 * m}; every vertex must carry an edge")
    edges = []
    for no, line in lines:
        u, v = _ints(no, line, 2, "an edge")
        if not 0 <= u < v < n:
            raise FileFormatError(
                f"line {no}: edge {u} {v} violates 0 <= u < v < {n}")
        edges.append((u, v))
    if len(edges) != m:
        raise FileFormatError(
            f"header declares {m} edges but {len(edges)} listed")
    try:
        g = build(n, edges)
    except ZeroSumError as err:
        raise FileFormatError(str(err)) from err
    if g.n != n:
        raise FileFormatError(
            f"{n - g.n} isolated vertices; every vertex must carry an edge")
    return g


def forest_from_text(text: str) -> Forest:
    return _graph_from_text(text, build_forest)


def graph_from_text(text: str) -> SimpleGraph:
    """Same file format, but cycles are allowed (oracle patterns)."""
    return _graph_from_text(text, build_graph)


def clique_from_text(text: str) -> ColoredClique:
    """Parse a clique file; each pair is range- and duplicate-checked once,
    on its own line, and the pair count before the matrix is allocated."""
    lines = _logical_lines(text)
    order, p = _parse_edge_header(lines, "clique")
    pairs = {}
    for no, line in lines:
        u, v, c = _ints(no, line, 3, "a colored edge")
        if u == v or not (0 <= u < order and 0 <= v < order):
            raise FileFormatError(
                f"line {no}: pair {u} {v} invalid for K_{order}")
        key = (min(u, v), max(u, v))
        if key in pairs:
            raise FileFormatError(f"line {no}: duplicate pair {u} {v}")
        pairs[key] = c
    want = order * (order - 1) // 2
    if len(pairs) != want:
        raise FileFormatError(
            f"coloring not total: {len(pairs)} of {want} pairs given")
    try:
        # int64, so that the constructor range-checks a color that int16
        # cannot hold before it casts
        m = np.zeros((order, order), dtype=np.int64)
        for (u, v), c in pairs.items():
            m[u, v] = m[v, u] = c
        return ColoredClique(order, p, m)
    except (ValueError, OverflowError) as err:
        raise FileFormatError(str(err)) from err


def clique_to_text(k: ColoredClique) -> str:
    lines = [f"clique {k.order} {k.modulus}"]
    for u in range(k.order):
        for v in range(u + 1, k.order):
            lines.append(f"{u} {v} {k.value(u, v)}")
    return "\n".join(lines) + "\n"


def embedding_to_text(mapping: Sequence[int]) -> str:
    return ",".join(f"{i}:{h}" for i, h in enumerate(mapping))


def embedding_from_text(text: str, n: int) -> tuple[int, ...]:
    out = [-1] * n
    seen = set()
    for item in text.split(","):
        left, _, right = item.partition(":")
        try:
            i, h = int(left), int(right)
        except ValueError:
            raise FileFormatError(f"bad embedding entry {item!r}")
        if not 0 <= i < n or i in seen:
            raise FileFormatError(f"bad or repeated pattern vertex in {item!r}")
        seen.add(i)
        out[i] = h
    if len(seen) != n:
        raise FileFormatError(
            f"embedding lists {len(seen)} of {n} pattern vertices")
    return tuple(out)


def report_to_text(fields: Sequence[tuple[str, str]]) -> str:
    lines = [REPORT_MAGIC]
    lines += [f"{key} = {value}" for key, value in fields]
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> list[tuple[str, str]]:
    lines = _logical_lines(text)
    try:
        no, first = next(lines)
    except StopIteration:
        raise FileFormatError("empty file, expected a report header")
    if first != REPORT_MAGIC:
        raise FileFormatError(
            f"line {no}: expected {REPORT_MAGIC!r}, got {first!r}")
    fields = []
    for no, line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise FileFormatError(f"line {no}: expected 'key = value'")
        fields.append((key.strip(), value.strip()))
    return fields


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise FileFormatError(f"cannot read {path}: {err}") from err
