"""The zsforest benchmark: one command for every workload and metric.

    python3 bench/run.py --workload find-large --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in processes of its own, from the ``src`` tree next to
this directory. With ``--trace 0`` it prints every end-to-end metric; the
set-up time is the median over several fresh processes, the measuring one
included. With ``--trace 1`` a separate run times every layer through its
public functions and writes its spans under ``bench/out``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (for ``--workload all``, one such object per
workload). METRICS.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from worker import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
# BENCHMARK.json lists the first two; find-small is run by hand only, see
# METRICS.md
WORKLOADS = ("find-large", "ramsey", "find-small")

SETUP_SAMPLES = 5
# a run, set-up processes included, ends within this many seconds
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, seconds: int, trace: int,
           setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Run one worker process; return its set-up time and stdout lines."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} worker ran past the time limit") from err
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready"):
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return float(lines[0].split()[1]) - start, lines


def run_workload(workload: str, seed: int, seconds: int, trace: int
                 ) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    # the traced run reports no set-up time, so it needs no extra samples
    for _ in range(SETUP_SAMPLES - 1 if not trace else 0):
        setups.append(_spawn(workload, seed, seconds, trace, True,
                             deadline)[0])
    setup_s, lines = _spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = median(setups)
        result["notes"]["setup_samples"] = setups
    return result


def _print_report(workload: str, seed: int, seconds: int, trace: int,
                  result: dict) -> None:
    notes = result["notes"]
    units = PER_LAYER if trace else END_TO_END
    print(f"== {workload}  seed={seed} seconds={seconds} trace={trace}  "
          f"rounds={notes['rounds']} x {notes['ops_per_round']} ops")
    for name, unit in units.items():
        value = result["metrics"][name]
        extra = ""
        if name == "op_p50_ms":
            extra = (f"  (median of {notes['ops_per_round']} operations' "
                     f"medians over {notes['rounds']} rounds)")
        elif name == "op_max_ms":
            extra = f"  (median over {notes['rounds']} rounds)"
        elif name == "setup_s":
            extra = "  (median of " + ", ".join(
                f"{s:.3f}" for s in notes["setup_samples"]) + ")"
        print(f"   {name:44s} {value:14.6g} {unit}{extra}")
    if "tail_ms" in notes:
        beyond = ("10 beyond" if notes["tail_percentile"] > 50
                  else "20 or fewer, so the median")
        print(f"   op tail, not in BENCHMARK.json: {notes['tail_ms']:.6g} ms"
              f" (p{notes['tail_percentile']:.2f} of {result['attempted']}"
              f" ops, {beyond})")
    print(f"   fail_ratio {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.6g}"
          f"  raised={notes['raised']}")
    for key, count in sorted(notes.get("rejections", {}).items()):
        print(f"   {key}: {count}")
    for line in notes["wrong"]:
        print(f"   WRONG {line}")
    print(f"   digest {notes['digest']}")
    if "spans" in notes:
        print(f"   spans written to {os.path.relpath(notes['spans'], ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the zsforest benchmark.",
        epilog="See bench/METRICS.md for the workloads and metrics.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "zsforest",
                                       "__init__.py")):
        print(f"no zsforest sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            _print_report(name, args.seed, args.seconds, args.trace,
                          results[name])
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    final = {name: {"correct": r["correct"], "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": {m: {"value": r["metrics"][m], "unit": u}
                                for m, u in units.items()}}
             for name, r in results.items()}
    print(json.dumps(final[names[0]] if len(names) == 1 else final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
