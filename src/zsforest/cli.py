"""Command-line surface.

Commands:
  classify   bushy / vibrant / switchable verdicts with witnesses
  find       constructive zero-sum embedding, optional brute fallback
  verify     re-check a find report against the original input files
  ramsey     exact zero-sum Ramsey value by exhaustive enumeration
  extremal   emit the star-free circulant coloring (subcommand: star)
  random     emit a seeded random coloring
  selftest   run the acceptance suite

Exit codes: 0 success or copy found; 1 well-formed negative outcome (no
copy, value not reached within --max-n, verification mismatch, selftest
failure); 2 malformed input, an unreadable or unwritable file (such as a
checkpoint), an ill-posed question (modulus does not divide the edge count)
or a size that cannot be allocated; 3 enumeration budget exceeded.

Reports are `key = value` lines in a fixed order behind the magic first
line; runs with identical inputs produce byte-identical reports except for
keys starting with `time_`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .classify import classify
from .core import ColoredClique, Embedding, Forest, ZeroSumError, edge_sum
from .embedder import NoZeroSumCopy, find_zero_sum_copy, verify_report
from .extremal import star_lower_bound_coloring
from .fileio import (clique_from_text, clique_to_text, embedding_from_text,
                     embedding_to_text, forest_from_text, graph_from_text,
                     read_text, report_from_text, report_to_text)
from .oracle import DEFAULT_BUDGET, compute_ramsey
from .randomgen import SCHEME, random_coloring

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _InputProblem(Exception):
    """Anything that should terminate with exit code 2."""


def _emit(fields: list[tuple[str, str]], started: float) -> None:
    fields.append(("time_total_s", f"{time.monotonic() - started:.3f}"))
    sys.stdout.write(report_to_text(fields))


def _input_fields(command: str, f: Optional[Forest],
                  k: Optional[ColoredClique]) -> list[tuple[str, str]]:
    fields = [("version", __version__), ("command", command)]
    if f is not None:
        fields += [("forest_n", str(f.n)),
                   ("forest_edges", str(f.edge_count))]
    if k is not None:
        fields += [("clique_order", str(k.order)),
                   ("clique_modulus", str(k.modulus))]
    return fields


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    started = time.monotonic()
    f = forest_from_text(read_text(args.forest))
    k = clique_from_text(read_text(args.clique))
    p = k.modulus

    c = classify(f, k, p)
    fields = _input_fields("classify", f, k)
    fields += [
        ("bushy", str(c.bushy).lower()),
        ("leaf_count", str(f.degree_count(1))),
        ("vibrant", str(c.vibrant).lower()),
        ("colorful_vertices", ",".join(str(w.vertex) for w in c.witnesses)),
        ("switchable", str(c.switchable).lower()),
        ("switcher_quads", ",".join(
            ":".join(str(v) for v in q.vertices) for q in c.switchers)),
    ]
    _emit(fields, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# find / verify
# ---------------------------------------------------------------------------

def cmd_find(args) -> int:
    started = time.monotonic()
    f = forest_from_text(read_text(args.forest))
    k = clique_from_text(read_text(args.clique))
    fields = _input_fields("find", f, k)
    try:
        report = find_zero_sum_copy(f, k, k.modulus,
                                    allow_fallback=not args.no_fallback)
    except NoZeroSumCopy as err:
        fields += [("found", "false"), ("reason", str(err))]
        _emit(fields, started)
        return EXIT_NEGATIVE
    fields += [
        ("found", "true"),
        ("bushy", str(report.bushy).lower()),
        ("vibrant", str(report.vibrant).lower()),
        ("switchable", str(report.switchable).lower()),
        ("case_used", report.case_used),
        ("embedding", embedding_to_text(report.embedding.mapping)),
        ("edge_sum", str(edge_sum(report.embedding).value)),
        ("verified", str(verify_report(report)).lower()),
    ]
    _emit(fields, started)
    return EXIT_OK


def _report_value(fields: Sequence[tuple[str, str]], key: str) -> str:
    for k, v in fields:
        if k == key:
            return v
    raise _InputProblem(f"report is missing the {key!r} field")


def cmd_verify(args) -> int:
    started = time.monotonic()
    f = forest_from_text(read_text(args.forest))
    k = clique_from_text(read_text(args.clique))
    parsed = report_from_text(read_text(args.report))

    problems = []
    for key, expect in (("forest_n", f.n), ("forest_edges", f.edge_count),
                        ("clique_order", k.order),
                        ("clique_modulus", k.modulus)):
        got = _report_value(parsed, key)
        if got != str(expect):
            problems.append(f"{key} is {got}, inputs say {expect}")
    if _report_value(parsed, "found") != "true":
        raise _InputProblem("report records no embedding to verify")
    mapping = embedding_from_text(_report_value(parsed, "embedding"), f.n)
    try:
        emb = Embedding(pattern=f, host=k, mapping=mapping)
    except ZeroSumError as err:
        problems.append(str(err))
        emb = None
    if emb is not None:
        if not emb.is_injective():
            problems.append("embedding repeats a host vertex")
        s = edge_sum(emb)
        if s.value != 0:
            problems.append(f"edge sum is {s.value}, not 0")

    fields = _input_fields("verify", f, k)
    fields.append(("verified", "true" if not problems else "false"))
    for i, msg in enumerate(problems):
        fields.append((f"problem_{i}", msg))
    _emit(fields, started)
    return EXIT_OK if not problems else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# ramsey
# ---------------------------------------------------------------------------

def cmd_ramsey(args) -> int:
    started = time.monotonic()
    g = graph_from_text(read_text(args.graph))
    res = compute_ramsey(g, args.k, args.max_n, args.budget,
                         reduce_symmetry=args.reduce_symmetry,
                         jobs=args.jobs, checkpoint=args.checkpoint)
    fields = [("version", __version__), ("command", "ramsey"),
              ("graph_n", str(g.n)), ("graph_edges", str(g.edge_count)),
              ("modulus", str(args.k)), ("max_n", str(args.max_n)),
              ("reduce_symmetry", "yes" if args.reduce_symmetry else "no"),
              ("value", "none" if res.value is None else str(res.value)),
              ("limit", res.limit or "none"),
              ("colorings_checked", str(res.colorings_checked))]
    _emit(fields, started)
    if res.value is not None:
        return EXIT_OK
    return EXIT_BUDGET if res.limit == "budget" else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# coloring emitters
# ---------------------------------------------------------------------------

def cmd_extremal(args) -> int:
    k = star_lower_bound_coloring(args.n, args.p)
    sys.stdout.write(f"# star-free: no zero-sum copy of K_1,{args.n - 1}\n")
    sys.stdout.write(clique_to_text(k))
    return EXIT_OK


def cmd_random(args) -> int:
    k = random_coloring(args.n, args.p, args.seed)
    sys.stdout.write(f"# scheme = {SCHEME}\n# seed = {args.seed}\n")
    sys.stdout.write(clique_to_text(k))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args) -> int:
    from . import selftest

    unknown = set(args.only or ()) - {idx for idx, _, _ in selftest.CRITERIA}
    if unknown:
        raise _InputProblem(
            f"no criterion {', '.join(map(str, sorted(unknown)))}; "
            f"criteria are 1-{len(selftest.CRITERIA)}")
    ok = True
    for idx, name, fn in selftest.CRITERIA:
        if args.only and idx not in args.only:
            continue
        t0 = time.monotonic()
        passed, detail = fn()
        ok = ok and passed
        word = "pass" if passed else "FAIL"
        print(f"[{word}] criterion {idx} ({name}): {detail} "
              f"[{time.monotonic() - t0:.1f}s]")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zsforest",
        description="Zero-sum forest embeddings in edge-colored cliques.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="bushy/vibrant/switchable verdicts")
    c.add_argument("--forest", required=True)
    c.add_argument("--clique", required=True)
    c.set_defaults(fn=cmd_classify)

    c = sub.add_parser("find", help="construct a zero-sum embedding")
    c.add_argument("--forest", required=True)
    c.add_argument("--clique", required=True)
    c.add_argument("--no-fallback", action="store_true",
                   help="constructive cases only, no exhaustive search")
    c.set_defaults(fn=cmd_find)

    c = sub.add_parser("verify", help="re-check a find report")
    c.add_argument("--report", required=True)
    c.add_argument("--forest", required=True)
    c.add_argument("--clique", required=True)
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("ramsey", help="exact zero-sum Ramsey value")
    c.add_argument("--graph", required=True)
    c.add_argument("--k", type=int, required=True, help="modulus")
    c.add_argument("--max-n", type=int, default=12)
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max colorings per order")
    c.add_argument("--reduce-symmetry", action="store_true",
                   help="scan only colorings whose vertex-0 edges are "
                        "non-decreasing")
    c.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the scan, at least 1 and at "
                        "most the CPU count")
    c.add_argument("--checkpoint")
    c.set_defaults(fn=cmd_ramsey)

    c = sub.add_parser("extremal", help="emit a star-free coloring")
    c.add_argument("shape", choices=["star"])
    c.add_argument("--n", type=int, required=True, help="star order")
    c.add_argument("--p", type=int, required=True, help="odd prime modulus")
    c.set_defaults(fn=cmd_extremal)

    c = sub.add_parser("random", help="emit a seeded random coloring")
    c.add_argument("--n", type=int, required=True, help="clique order")
    c.add_argument("--p", type=int, required=True, help="modulus")
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(fn=cmd_random)

    c = sub.add_parser("selftest", help="run the acceptance suite")
    c.add_argument("--only", type=int, action="append", metavar="I",
                   help="run a single criterion (repeatable)")
    c.set_defaults(fn=cmd_selftest)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ZeroSumError, _InputProblem, OSError, ValueError,
            MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
