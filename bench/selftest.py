"""Shows that the output checkers catch wrong outputs.

    python3 bench/selftest.py

Runs a few operations of each workload through elindep.cli.main, checks
that the true outputs pass, then corrupts them and checks that each
corruption is reported: a flipped verdict, a ball shifted by twice its
radius, a wrong relation vector, a relation reported where none exists,
a flipped `demo` outcome, and a named failing operation that fails in
another way.  Exits 1 if any
corruption goes unreported.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from check import _decimal, judge, parse_sci  # noqa: E402
from docs import workload_ops  # noqa: E402
from elindep.cli import main as cli_main  # noqa: E402


def run(op, work: str) -> tuple[int, str]:
    path = os.path.join(work, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(op.doc, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(op.argv(path))
    return code, out.getvalue()


def pick(ops, label_prefix):
    return next(op for op in ops if op.label.startswith(label_prefix))


def main() -> int:
    missed = []

    def expect(name: str, op, code, stdout, wrong: bool):
        failed, problem = judge(op, code, None, stdout)
        caught = failed or problem is not None
        print(f"{'ok  ' if caught == wrong else 'MISS'} {name}: {problem or 'passes'}")
        if caught != wrong:
            missed.append(name)

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work:
        certify = workload_ops("certify", 1)
        for label in ("exp rational", "J0 x,-x", "hyp k=1,2", "hyp k=3,4", "alg f3 opposite", "si equal squares"):
            op = pick(certify, label)
            code, out = run(op, work)
            expect(f"certify {label}", op, code, out, wrong=False)
            report = json.loads(out)
            cert = report["certificate"]
            cert["verdict"] = ("Inconclusive" if cert["verdict"] == "CertifiedIndependent"
                               else "CertifiedIndependent")
            expect(f"certify {label}, verdict flipped", op, code, json.dumps(report), wrong=True)

        evals = workload_ops("eval", 1)
        for label in ("eval exp", "eval hypergeometric k=2", "eval I0"):
            op = pick(evals, label)
            digits = int(op.flags[op.flags.index("--digits") + 1])
            code, out = run(op, work)
            expect(f"{label}", op, code, out, wrong=False)
            for sign in (1, -1):
                report = json.loads(out)
                ball = report["results"][0]["value"]
                # the checker's ball: radius plus half an ulp of the printed midpoint
                radius = parse_sci(ball["radius"]) + Fraction(1, 2 * 10**digits)
                moved = _decimal(ball["re"]) + sign * 2 * radius
                ball["re"] = _fixed(moved, digits + 2)
                expect(f"{label}, ball shifted by {'+' if sign > 0 else '-'}2 radii", op, code,
                       json.dumps(report), wrong=True)

        falsify = workload_ops("falsify", 1)
        op = pick(falsify, "planted exp(2z)")
        code, out = run(op, work)
        expect("falsify planted exp(2z)", op, code, out, wrong=False)
        for name, change in (("sign", lambda c: [c[0], c[1], c[2], c[3] + 1]),
                             ("constant", lambda c: [c[0] + 1] + c[1:])):
            report = json.loads(out)
            rel = report["relation_report"]
            rel["coefficients"] = change(rel["coefficients"])
            expect(f"falsify planted, wrong vector ({name})", op, code, json.dumps(report), wrong=True)
        op = pick(falsify, "exp n=3")
        code, out = run(op, work)
        expect("falsify exp n=3", op, code, out, wrong=False)
        report = json.loads(out)
        report["relation_report"].update(found=True, excluded=False, coefficients=[0, 1, -1, 0])
        expect("falsify exp n=3, relation reported", op, code, json.dumps(report), wrong=True)

        op = pick(falsify, "demo")
        code, out = run(op, work)
        expect("demo", op, code, out, wrong=False)
        report = json.loads(out)
        report["demos"][3]["outcome"] = "CertifiedIndependent, no relation"  # J0 at 2, -2
        expect("demo, outcome flipped", op, code, json.dumps(report), wrong=True)

        op = pick(certify, "isolation: roots 1.4e-6 apart")
        failed, problem = judge(op, 1, None, "")
        print(f"{'ok  ' if problem else 'MISS'} named failure with exit 1 instead of 3: {problem}")
        if not problem:
            missed.append("named failure")
    print(f"{len(missed)} corruptions missed")
    return 1 if missed else 0


def _fixed(q: Fraction, digits: int) -> str:
    sign = "-" if q < 0 else ""
    units = round(abs(q) * 10**digits)
    text = str(units).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


if __name__ == "__main__":
    sys.exit(main())
