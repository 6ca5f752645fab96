"""One workload run in its own process: set-up, then the timed or traced loop.

Set-up is the import plus one warm-up per host order. When it is done the
worker prints ``ready <time.monotonic()>``; with ``--setup-only`` it then
exits, otherwise it measures for about ``--seconds`` seconds in whole rounds
(it starts no round that would end more than half a round past that time)
and prints one JSON line with its counts, metrics and notes.

    python3 bench/worker.py --workload find-large --seed 1 --seconds 5 \
        --trace 0 --out bench/out
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict
from statistics import median

from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_max_ms": "ms",
    "round_s": "s",
}

ENGINE_NAMES = ("bushy_vibrant", "bushy_nonvibrant", "nonbushy_switchable",
                "nonbushy_nonswitchable")
LAYERS = ("randomgen", "classify", "embedder", "sumset", "oracle")
# (pattern, order, modulus) of every scan the ramsey workload makes
SCANS = (("C4", 4, 2), ("2K2", 4, 2), ("2K2", 5, 2), ("2K2", 7, 2),
         ("P4", 4, 3), ("P4", 5, 3), ("P4", 6, 3),
         ("K13", 4, 3), ("K13", 5, 3), ("K13", 6, 3))
SCAN_KEYS = tuple(f"{g}-K{n}-Z{k}-{mode}" for mode in ("plain", "reduced")
                  for g, n, k in SCANS)

# span name -> per-layer metric holding its median call time
_TIMED_CALLS = {
    "randomgen.random_coloring": "randomgen.random_coloring_ms",
    "classify.vibrant_vertices": "classify.vibrant_vertices_ms",
    "classify.switchers_cold": "classify.switchers_cold_ms",
    "classify.switchers_warm": "classify.switchers_warm_ms",
    "classify.dominant_partition": "classify.dominant_partition_ms",
    **{f"embedder.{e}": f"embedder.{e}_ms" for e in ENGINE_NAMES},
    "embedder.select_target_sets": "embedder.select_target_sets_ms",
    "embedder.verify_report": "embedder.verify_report_ms",
    "sumset.iterated_sumset": "sumset.iterated_sumset_ms",
    "oracle.brute_zero_sum": "oracle.brute_zero_sum_ms",
    **{f"oracle.scan_colorings.{key}": f"oracle.scan_colorings_ms.{key}"
       for key in SCAN_KEYS},
}

PER_LAYER = {
    **{metric: "ms" for metric in _TIMED_CALLS.values()},
    "classify.switchers_packed": "count",
    **{f"embedder.{e}_{what}": "count"
       for e in ENGINE_NAMES for what in ("attempts", "hits")},
    "embedder.case_hit_ratio": "ratio",
    "embedder.fallbacks": "count",
    "oracle.brute_zero_sum_calls": "count",
    "oracle.colorings_checked": "count",
    "oracle.scan_rate": "1/s",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.untraced_op_ms": "ms",
    "trace.span_sum_ms": "ms",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value). With 20 samples or fewer no percentile above the
    median qualifies, and the median is returned."""
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return 50.0, median(s)
    return 100.0 * (n - 10) / n, s[n - 11]


def judge(wl, ops, reference) -> tuple[int, list[str]]:
    """Count failed operations and describe the wrong answers."""
    gate = wl.oracle_gate(reference)
    failed = 0
    wrong = []
    for op in ops:
        why = (wl.wrong(op.ident, op.outcome) or gate.get(op.ident)
               or (None if op.outcome == reference[op.ident]
                   else "outcome differs from the first round"))
        if why is not None:
            wrong.append(f"{op.ident}: {why}")
        if why is not None or op.outcome[0] == "raised":
            failed += 1
    return failed, wrong


def digest(reference: dict) -> str:
    h = hashlib.sha256()
    for ident in sorted(reference):
        h.update(f"{ident}|{reference[ident]!r}\n".encode())
    return h.hexdigest()


def _raised(ops) -> dict[str, int]:
    return dict(Counter(op.outcome[1] for op in ops
                        if op.outcome[0] == "raised"))


def _reference(first_round) -> dict:
    return {op.ident: op.outcome for op in first_round}


def _another_round(start: float, seconds: int, last: float) -> bool:
    """Whether a round as long as the last one would end at most half a
    round past the end of the run."""
    return time.perf_counter() - start + last / 2 < seconds


def timed(wl, seconds: int) -> dict:
    start = time.perf_counter()
    rounds = []
    ops = []
    while not rounds or _another_round(start, seconds, rounds[-1]):
        t0 = time.perf_counter()
        got = wl.round()
        rounds.append(time.perf_counter() - t0)
        ops.extend(got)
    elapsed = time.perf_counter() - start
    reference = _reference(ops[:len(got)])
    failed, wrong = judge(wl, ops, reference)
    # Statistics over operations use one value per operation of the round,
    # or one per round, so that they do not shift with the number of rounds
    # that fit into the run.
    per_op = defaultdict(list)
    for op in ops:
        per_op[op.ident].append(op.seconds)
    per_round = len(got)
    round_max = [max(op.seconds for op in ops[i:i + per_round])
                 for i in range(0, len(ops), per_round)]
    pct, tail_s = tail([op.seconds for op in ops])
    metrics = {
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(ops) / elapsed,
        "op_p50_ms": median(median(v) for v in per_op.values()) * 1000,
        "op_max_ms": median(round_max) * 1000,
        "round_s": elapsed / len(rounds),
    }
    return {
        "correct": not wrong, "attempted": len(ops), "failed": failed,
        "metrics": metrics,
        "notes": {"digest": digest(reference), "rounds": len(rounds),
                  "ops_per_round": per_round, "tail_percentile": pct,
                  "tail_ms": tail_s * 1000, "wrong": wrong[:10],
                  "raised": _raised(ops)},
    }


def traced(wl, seconds: int, spans_path: str) -> dict:
    tr = Tracer()
    first = None
    total = Counter()
    untraced_s = traced_s = 0.0
    ops = []
    traced_ops = []
    start = last = time.perf_counter()
    while first is None or _another_round(start, seconds,
                                          time.perf_counter() - last):
        last = t0 = time.perf_counter()
        got = wl.round()
        untraced_s += time.perf_counter() - t0
        ops.extend(got)
        stats = Counter()
        t0 = time.perf_counter()
        traced_ops.extend(wl.traced_round(tr, stats))
        traced_s += time.perf_counter() - t0
        first = first if first is not None else stats
        total.update(stats)
    reference = _reference(ops[:len(got)])
    failed, wrong = judge(wl, ops + traced_ops, reference)
    tr.write(spans_path)

    med = tr.median_ms()
    metrics = {metric: med.get(name, 0.0)
               for name, metric in _TIMED_CALLS.items()}
    attempts = hits = 0
    for e in ENGINE_NAMES:
        metrics[f"embedder.{e}_attempts"] = first[f"{e}_attempts"]
        metrics[f"embedder.{e}_hits"] = first[f"{e}_hits"]
        attempts += first[f"{e}_attempts"]
        hits += first[f"{e}_hits"]
    scan_ns = sum(s.end_ns - s.start_ns for s in tr.spans
                  if s.name.startswith("oracle.scan_colorings.")
                  and not s.name.endswith("-ckpt"))
    op_spans = [i for i, s in enumerate(tr.spans) if s.name == "op"]
    self_ns = tr.self_times_ns()
    layer_self = tr.layer_self_ms()
    metrics.update({
        "classify.switchers_packed": first["switchers_packed"],
        "embedder.case_hit_ratio": hits / attempts if attempts else 0.0,
        "embedder.fallbacks": first["fallbacks"],
        "oracle.brute_zero_sum_calls": first["fallbacks"],
        "oracle.colorings_checked": first["colorings_checked"],
        "oracle.scan_rate":
            total["colorings_checked"] / (scan_ns / 1e9) if scan_ns else 0.0,
        **{f"{layer}.self_ms": layer_self.get(layer, 0.0) / len(op_spans)
           for layer in LAYERS},
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.untraced_op_ms": untraced_s / len(ops) * 1000,
        "trace.span_sum_ms": sum(
            tr.spans[i].end_ns - tr.spans[i].start_ns - self_ns[i]
            for i in op_spans) / len(op_spans) / 1e6,
    })
    rejections = {k: v for k, v in first.items() if k.startswith("rejected")}
    return {
        "correct": not wrong, "attempted": len(ops) + len(traced_ops),
        "failed": failed, "metrics": metrics,
        "notes": {"digest": digest(reference), "rounds": len(ops) // len(got),
                  "ops_per_round": len(got), "wrong": wrong[:10],
                  "raised": _raised(ops + traced_ops),
                  "rejections": rejections, "spans": spans_path},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import zsforest
    except ImportError as err:
        print(f"cannot import zsforest from {SRC}: {err}", file=sys.stderr)
        return 2
    if not os.path.abspath(zsforest.__file__).startswith(SRC + os.sep):
        print(f"zsforest comes from {zsforest.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, args.out)
    try:
        wl.warm_up()
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            spans = os.path.join(
                args.out, f"spans-{args.workload}-seed{args.seed}.json")
            result = traced(wl, args.seconds, spans)
        else:
            result = timed(wl, args.seconds)
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
