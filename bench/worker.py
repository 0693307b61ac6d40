"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py --root DIR --workload NAME --seed N --out FILE
                            [--setup-only] [--trace] [--keep-output]

Imports elindep from DIR/src, generates the workload's documents from the
seed and writes them as spec files next to FILE.  Unless --setup-only, it
then calls elindep.cli.main(argv) once per document, one after the other
(a closed loop with one client), with stdout and stderr captured, and
writes the per-operation outcomes to FILE as JSON.  A fresh interpreter per
round keeps the process-wide isolation cache of elindep.algebraic empty at
the start of every round.

Before the first operation and after every operation it also times
`reference_loop()`, a fixed piece of plain Python that uses nothing of
elindep, so that the runner can tell how fast the machine ran around each
operation (see README.md, Machine speed); in untraced rounds it times the
loop every SAMPLE_EVERY_S during the operation as well, from a SIGALRM
handler, and takes the handler's time off the operation's.  The output
records `ready_at`, the CLOCK_MONOTONIC time at which set-up ended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

SAMPLE_EVERY_S = 0.02


def reference_loop() -> float:
    """Seconds taken by a fixed dictionary-and-integer loop (about 0.4 ms
    on the reference machine)."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class SpeedSamples:
    """Times reference_loop() every SAMPLE_EVERY_S of wall time between
    start() and stop(), and adds up the time the samples took."""

    def __init__(self):
        self.loops: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.loops.append(reference_loop())
        self.spent += time.perf_counter() - start

    def start(self):
        self.loops, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--keep-output", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import elindep.cli

    if not os.path.abspath(elindep.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"elindep was imported from {elindep.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from docs import workload_ops

    ops = workload_ops(args.workload, args.seed)
    specs = []
    base = os.path.splitext(args.out)[0]
    for i, op in enumerate(ops):
        path = None
        if op.doc is not None:
            path = f"{base}-op{i:03d}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op.doc, fh)
        specs.append(path)
    ready_at = time.monotonic()
    reference = [reference_loop()]
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"ready_at": ready_at, "reference_s": reference[0]}, fh)
        return 0

    tracer = None
    samples = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # spans would count the samples' time as elindep's
        samples = SpeedSamples()
    cli_main = elindep.cli.main

    results = []
    for i, (op, spec) in enumerate(zip(ops, specs)):
        if tracer is not None:
            tracer.op = i
        out = io.StringIO()
        error = None
        code = None
        if samples is not None:
            samples.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(op.argv(spec))
        except Exception as exc:  # an uncaught exception is an outcome to record
            error = type(exc).__name__
        if samples is not None:
            samples.stop()
        seconds = time.perf_counter() - start
        during = []
        if samples is not None:
            seconds -= samples.spent
            during = samples.loops
        reference.append(reference_loop())
        text = out.getvalue()
        entry = {
            "code": code,
            "error": error,
            "seconds": seconds,
            # the reference loop just before, during and just after the operation
            "reference_s": [reference[-2], *during, reference[-1]],
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        if args.keep_output:
            entry["stdout"] = text
        results.append(entry)

    for spec in specs:
        if spec is not None:
            os.remove(spec)
    if tracer is not None:
        tracer.dump(f"{base}-spans.json")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "ready_at": ready_at,
            "reference_s": reference[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": results,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
