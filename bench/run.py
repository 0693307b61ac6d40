"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload certify|falsify|eval --seed N \
                         --seconds S --trace 0|1

Run from the root of a checkout.  The run first starts a fresh interpreter
that imports elindep and generates the documents untimed (it may compile
the byte code), then SETUP_PROBES more that are timed.  It then
runs whole rounds, each in a fresh interpreter (bench/worker.py), while
the next round is expected to end within S seconds, and at least
MIN_ROUNDS.  The outputs of the first round are checked by bench/check.py;
every later round must print the same bytes.

Every time is scaled to the reference speed by the reference loops that
the worker times around and during each operation (README.md, Machine
speed).  An operation's figure is the median of its scaled times over the
untraced rounds; setup_s is the median of the scaled set-up times of the
probes and of every round.

With --trace 0 the last line of stdout is the end-to-end result.  With
--trace 1 rounds alternate untraced and traced, and the last line carries
the per-layer figures of the traced rounds (bench/spans.py), averaged per
round, plus the tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
# worker.reference_loop() on the reference machine at its fast speed; every
# time is scaled to that speed (README.md, Machine speed)
REFERENCE_S = 0.0004


def _worker(args, out: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--out", out, *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _percentile(values: list, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of `count` values
    beyond its nearest rank."""
    return math.floor(100 * (count - 10) / count)


def scaled(seconds: float, reference_s: float) -> float:
    """A time measured while reference_loop() took `reference_s`, scaled
    to the reference speed."""
    return seconds * REFERENCE_S / reference_s


def op_times(rounds: list, count: int) -> list:
    """Each operation's time: its median over the rounds, every time scaled
    to the reference speed by the mean of the reference loops run just
    before, during and just after it."""
    return [statistics.median(
        scaled(r["ops"][i]["seconds"], statistics.fmean(r["ops"][i]["reference_s"]))
        for r in rounds) for i in range(count)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("certify", "falsify", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "elindep", "cli.py")):
        print(f"no elindep sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from check import judge
    from docs import workload_ops
    from spans import PER_LAYER, summarize

    ops = workload_ops(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        # the first interpreter may compile elindep's byte code; it is not timed
        _worker(args, os.path.join(work, "warmup.json"), "--setup-only")
        setups = [_worker(args, os.path.join(work, f"setup{i}.json"), "--setup-only")
                  for i in range(SETUP_PROBES)]
        rounds, traced = [], []
        start = time.monotonic()
        i = 0
        # whole rounds while the next one is expected to end within --seconds
        while i < MIN_ROUNDS or (time.monotonic() - start) * (i + 1) / i <= args.seconds:
            out = os.path.join(work, f"round{i}.json")
            extra = ["--keep-output"] if i == 0 else []
            with_trace = args.trace == 1 and i % 2 == 1
            result = _worker(args, out, *extra, *(["--trace"] if with_trace else []))
            setups.append(result)
            if with_trace:
                with open(out[:-5] + "-spans.json", encoding="utf-8") as fh:
                    scale = [REFERENCE_S / statistics.fmean(o["reference_s"]) for o in result["ops"]]
                    result["layers"] = summarize(json.load(fh), scale)
                traced.append(result)
            else:
                rounds.append(result)
            i += 1

    # correctness: the first round is checked, later rounds must repeat it
    problems = []
    failed = 0
    first = rounds[0]["ops"]
    for op, res in zip(ops, first):
        is_failed, problem = judge(op, res["code"], res["error"], res["stdout"])
        failed += is_failed
        if problem:
            problems.append(f"{op.label}: {problem}")
    for result in rounds[1:] + traced:
        for op, a, b in zip(ops, first, result["ops"]):
            if (a["code"], a["error"], a["stdout_sha256"]) != (b["code"], b["error"], b["stdout_sha256"]):
                problems.append(f"{op.label}: output differs between rounds")
    for p in problems:
        print(f"WRONG {p}")
    all_rounds = rounds + traced
    digest = hashlib.sha256("".join(o["stdout_sha256"] for o in first).encode()).hexdigest()
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)}+{len(traced)} traced "
          f"ops/round={len(ops)} stdout_sha256={digest}")

    count = len(ops)
    tail = tail_percentile(count)
    setup_s = statistics.median(scaled(r["setup_s"], r["reference_s"]) for r in setups)
    op_seconds = op_times(rounds, count)
    ops_per_s = count / sum(op_seconds)
    # the same figures as measured, without scaling to the reference speed
    least = [min(r["ops"][i]["seconds"] for r in rounds) for i in range(count)]
    print(f"measured: setup_s={statistics.median(r['setup_s'] for r in setups):.4f} "
          f"ops_per_s={count / sum(least):.4f} op_p50_s={statistics.median(least):.5f} "
          f"op_p{tail}_s={_percentile(least, tail):.5f} (least over rounds); "
          f"reference loop median {1000 * statistics.median(o['reference_s'][0] for r in rounds for o in r['ops']):.4f} ms")
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(op_seconds), "s"),
            "op_tail_s": (_percentile(op_seconds, tail), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
    else:
        traced_ops_per_s = count / sum(op_times(traced, count))
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.ops_per_s":
                value = traced_ops_per_s
            elif name == "trace.overhead_pct":
                value = 100 * (ops_per_s / traced_ops_per_s - 1)
            elif name.endswith("_max"):
                value = max(r["layers"].get(name, 0) for r in traced)
            else:
                value = statistics.fmean(r["layers"].get(name, 0) for r in traced)
            metrics[name] = (value, unit)
    print(json.dumps({
        "correct": not problems,
        "attempted": count * len(all_rounds),
        "failed": failed * len(all_rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
