"""Seeded problem documents for the benchmark workloads.

`workload_ops(name, seed)` returns the operations of one round: each is a
CLI subcommand, one JSON problem document and its flags.  The same seed
gives the same documents, byte for byte.  The seed only chooses values
inside a fixed skeleton (which rational points, which root of a pool
polynomial, which function of a family), so every seed asks for the same
kinds and sizes of work; see README.md for the composition.

This module imports nothing from elindep: the program receives only the
documents and argv.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

@dataclass
class Op:
    label: str
    command: str
    doc: dict | None  # None for `demo`, which reads no document
    flags: list = field(default_factory=list)
    # (kind, value, reason) for an operation that fails today by a known
    # fault: kind is "exit" (exit code), "raises" (exception type name) or
    # "check" (the output fails the named check).
    known_failure: tuple | None = None

    def argv(self, spec_path: str | None) -> list:
        spec = [] if self.doc is None else ["--spec", spec_path]
        return [self.command, *spec, "--format", "json", *self.flags]


def _doc(task: str, **body) -> dict:
    return {"version": 1, "task": task.replace("-", "_"), **body}


def builtin(name: str, scale: str | None = None) -> dict:
    f = {"type": "builtin", "name": name}
    if scale is not None:
        f["scale"] = scale
    return f


def hyp(upper, lower, scale: str | None = None) -> dict:
    f = {"type": "hypergeometric", "upper": list(upper), "lower": list(lower)}
    if scale is not None:
        f["scale"] = scale
    return f


# Functions given by an operator and initial coefficients.  The checkers
# hold the closed form of each one (see check.ODES).
ODES = {
    "I0": ("(z)*D^2 + (1)*D^1 + (-z)", ["1", "0"], "1"),
    "cosh2": ("(1)*D^2 + (-4)", ["1", "0"], "2"),
    "zexp": ("(1+z)*D^1 + (-2-z)", ["1", "2"], "2"),
    "expmix": ("(1)*D^2 + (1)*D^1 + (-2)", ["2", "-1"], "2"),
    "sin3": ("(1)*D^2 + (9)", ["0", "3"], "3"),
}


def ode(name: str, bounded: bool = True) -> dict:
    text, initial, bound = ODES[name]
    f = {"type": "ode", "operator": text, "initial": list(initial), "name": name}
    if bounded:
        f["coeff_bound"] = bound
    return f


# Integer polynomials (ascending coefficients) whose roots serve as
# algebraic points.  Every pairing used below was run to completion.
POOL = {
    "q1": [-2, 0, 1],
    "q2": [-1, 1, 1],
    "q3": [3, -1, 1],
    "c1": [-1, -1, 0, 1],
    "c2": [-2, 0, 0, 1],
    "c3": [1, -3, 0, 1],
    "f1": [-2, 0, 0, 0, 1],
    "f2": [1, 1, 1, 1, 1],
    "f3": [-1, 0, -1, 0, 1],
    "f4": [2, -1, 0, 1, 1],
    "f5": [-3, 1, 0, 0, 1],
}
BOX_RADIUS = Fraction(1, 100)  # every pool polynomial separates its roots by > 1


@functools.lru_cache(maxsize=None)
def _roots(poly: tuple) -> list:
    with mpmath.workdps(30):
        roots = mpmath.polyroots(list(reversed(poly)), maxsteps=200, extraprec=100)
        centers = [
            (Fraction(round(float(mpmath.re(r)) * 10**6), 10**6),
             Fraction(round(float(mpmath.im(r)) * 10**6), 10**6))
            for r in roots
        ]
    return sorted(centers)


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def alg_point(key: str, root: int, flip: bool = False) -> dict:
    """{poly, box} for root number `root` of a pool polynomial; with flip,
    the point is the negated root, a root of p(-z)."""
    poly = list(POOL[key])
    re, im = _roots(tuple(poly))[root % (len(poly) - 1)]
    if flip:
        poly = [c if i % 2 == 0 else -c for i, c in enumerate(poly)]
        re, im = -re, -im
    r = BOX_RADIUS
    return {
        "poly": poly,
        "box": {"re": [_q(re - r), _q(re + r)], "im": [_q(im - r), _q(im + r)]},
    }


def _rational(rng: random.Random, num_max: int, den_max: int, sign: bool = True) -> Fraction:
    while True:
        num = rng.randint(1, num_max) * (rng.choice((1, -1)) if sign else 1)
        x = Fraction(num, rng.randint(1, den_max))
        if x != 0:
            return x


def _banded(rng: random.Random, sign: int) -> Fraction:
    """p/q for two distinct primes from 11..23: the cost of a k-th root or
    a ratio test grows with the size of p and q, so the seed keeps it."""
    p, q = rng.sample((11, 13, 17, 19, 23), 2)
    return sign * Fraction(p, q)


def _ladder(rng: random.Random, count: int) -> list:
    """One point k + a/7 (a in 1..6) in each of (0, 1), (1, 2), ..., so that
    the magnitudes of the values, and with them the lattice entries, do not
    depend on the seed."""
    return [k + Fraction(rng.randint(1, 6), 7) for k in range(count)]


def _distinct(rng, count, num_max, den_max, sign=True, squares=False) -> list:
    out: list[Fraction] = []
    while len(out) < count:
        x = _rational(rng, num_max, den_max, sign)
        key = [abs(y) for y in out] if squares else out
        if (abs(x) if squares else x) not in key:
            out.append(x)
    return out


# -- certify -------------------------------------------------------------------

ISOLATION_FAULT = (
    "exit", 3,
    "algebraic._certify_proposals starts Krawczyk at radius sep/8, then sep/512, "
    "whatever the precision rung, so every rung fails the same way",
)

# Algebraic slots: (first pool key, second pool key).  The ratio set of the
# two points has degree deg(first) * deg(second).
ALG_SLOTS = [
    ("f1", "f5"),
    ("f5", "c3"),
    ("c2", "c3"),
    ("q1", "f1"), ("q2", "f3"),
    ("q3", "c2"), ("q1", "q2"),
]


def _certify_ops(rng: random.Random) -> list:
    ops: list[Op] = []

    # hypergeometric pairs, powers 1..4 (the shape of the power-condition
    # acceptance check); pairs with k_i = 1 are planted collisions
    for ki in range(1, 5):
        for kj in range(1, 5):
            if ki == kj:
                continue
            ai = _banded(rng, 1)
            if ki == 1:
                forbidden = Fraction(kj, ki) ** (ki * kj)
                aj = ai**kj / forbidden
            else:
                aj = _banded(rng, -1 if (ki + kj) % 2 else 1)
            fs = [hyp([], ["1"] * ki), hyp([], ["1"] * kj)]
            ops.append(Op(f"hyp k={ki},{kj}", "certify-hyp",
                          _doc("certify-hyp", functions=fs, points=[_q(ai), _q(aj)])))
    for k in range(1, 5):
        ai, aj = _banded(rng, 1), _banded(rng, -1)
        scale = rng.choice(("2", "1/2", "3"))
        if k == 2:
            aj = ai * Fraction(scale)  # scaled points coincide
        fs = [hyp([], ["1"] * k, scale), hyp([], ["1"] * k)]
        ops.append(Op(f"hyp k={k},{k}", "certify-hyp",
                      _doc("certify-hyp", functions=fs, points=[_q(ai), _q(aj)])))
    pts = [_banded(rng, 1), _banded(rng, -1), _banded(rng, 1)]
    if len(set(pts)) < 3:
        pts[2] = pts[0] + 1
    fs = [hyp(["1/3"], ["1", "2/3", "1"]) for _ in pts]
    ops.append(Op("hyp triple", "certify-hyp",
                  _doc("certify-hyp", functions=fs, points=[_q(x) for x in pts])))

    # built-in and ode functions at rational points
    for name in ("exp", "J0", "Si") * 3:
        pts = _distinct(rng, 3, 12, 9, squares=name != "exp")
        ops.append(Op(f"{name} rational", "certify",
                      _doc("certify", functions=[builtin(name)], points=[_q(x) for x in pts])))
    for _ in range(2):
        x, y = _distinct(rng, 2, 12, 9, squares=True)
        ops.append(Op("J0 x,-x", "certify",
                      _doc("certify", functions=[builtin("J0")], points=[_q(x), _q(-x), _q(y)])))
    x = _rational(rng, 12, 9)
    for pair in (("exp", "J0"), ("exp", "Si"), ("J0", "Si"), ("exp", "J0", "Si"), ("Si", "exp")):
        ops.append(Op(f"{','.join(pair)} one point", "certify",
                      _doc("certify", functions=[builtin(n) for n in pair], points=[_q(x)])))
    lam = _distinct(rng, 2, 5, 4, sign=False)
    pts = _distinct(rng, 2, 12, 9)
    if rng.random() < 0.5:
        pts[1] = pts[0] * lam[0] / lam[1]  # a_0/a_1 = lam_1/lam_0 collides
    ops.append(Op("scaled exp pair", "certify", _doc(
        "certify", functions=[builtin("exp", _q(lam[0])), builtin("exp", _q(lam[1]))],
        points=[_q(p) for p in pts])))
    ops.append(Op("scaled J0,Si", "certify", _doc(
        "certify", functions=[builtin("J0", _q(lam[0])), builtin("Si", _q(lam[1]))],
        points=[_q(p) for p in _distinct(rng, 2, 12, 9)])))
    names = sorted(ODES)
    for name in names * 3:
        pts = _distinct(rng, 3, 12, 9)
        ops.append(Op(f"ode {name} rational", "certify",
                      _doc("certify", functions=[ode(name)], points=[_q(x) for x in pts])))
    for _ in range(2):
        a, b = rng.sample(names, 2)
        pts = _distinct(rng, 2, 12, 9)
        ops.append(Op(f"ode {a},{b}", "certify", _doc(
            "certify", functions=[ode(a), ode(b)], points=[_q(x) for x in pts])))

    # algebraic points: one pair per slot, then the same two polynomials at
    # other roots (shares the ratio-set polynomial with the first call)
    for key_a, key_b in ALG_SLOTS:
        fn = rng.choice(("exp", "J0"))
        for round_ in range(2 if key_a[0] == "f" else 1):
            pa = alg_point(key_a, rng.randrange(8))
            pb = alg_point(key_b, rng.randrange(8))
            f = builtin(fn) if round_ == 0 else builtin("exp" if fn == "J0" else "J0")
            ops.append(Op(f"alg {key_a},{key_b}", "certify",
                          _doc("certify", functions=[f], points=[pa, pb])))
    # opposite roots of an even polynomial: J0 cannot be certified there
    for key in ("q1", "f3"):
        root = rng.randrange(2)
        a = alg_point(key, root)
        b = alg_point(key, root, flip=True)
        fn = rng.choice(("J0", "exp"))
        ops.append(Op(f"alg {key} opposite", "certify",
                      _doc("certify", functions=[builtin(fn)], points=[a, b])))
    for name, (key_a, key_b) in (("I0", ("q1", "c2")), ("cosh2", ("q2", "c1"))):
        pa = alg_point(key_a, rng.randrange(8))
        pb = alg_point(key_b, rng.randrange(8))
        ops.append(Op(f"alg ode {name}", "certify",
                      _doc("certify", functions=[ode(name)], points=[pa, pb])))

    # sine-integral endpoint pairs
    ends = _distinct(rng, 4, 12, 9, squares=True)
    ops.append(Op("si two pairs", "certify-si", _doc(
        "certify-si", pairs=[[_q(ends[0]), _q(ends[1])], [_q(ends[2]), _q(ends[3])]])))
    ops.append(Op("si zero endpoint", "certify-si", _doc(
        "certify-si", pairs=[["0", _q(ends[0])], [_q(ends[1]), _q(ends[2])]])))
    ops.append(Op("si shared endpoint", "certify-si", _doc(
        "certify-si", pairs=[[_q(a), _q(b)] for a, b in zip(ends[:3], ends[1:])])))
    for a, b in zip(ends, ends[1:]):
        ops.append(Op("si one pair", "certify-si", _doc("certify-si", pairs=[[_q(a), _q(b)]])))
    ops.append(Op("si equal squares", "certify-si", _doc(
        "certify-si", pairs=[[_q(ends[0]), _q(ends[1])], [_q(-ends[1]), _q(ends[3])]])))

    # fixed failures: isolation fails the same way at every rung
    cap = ["--max-precision-bits", "256"]
    close = [-2, 400, -20000, 0, 1]  # z^4 - 2(100z - 1)^2: two roots 1.4e-6 apart
    ops.append(Op("isolation: roots 1.4e-6 apart", "certify", _doc(
        "certify", functions=[builtin("exp")], points=[
            {"poly": close, "box": {"re": ["0.0099992", "0.0099994"], "im": ["-0.0000001", "0.0000001"]}},
            {"poly": close, "box": {"re": ["0.0100006", "0.0100008"], "im": ["-0.0000001", "0.0000001"]}},
        ]), cap, ISOLATION_FAULT))
    return ops


# -- falsify -------------------------------------------------------------------

# (function, count of points, digits, coefficient bound); chosen so that
# exclusion is provable at every seed.  The three-point operations climb in
# small steps of digits, so that their times lie close together without
# piling up at one value: op_p50_s falls among them, and an order statistic
# at the edge of a pile jumps with a few percent of noise.
FALSIFY_SIZES = (
    [(("exp", "J0")[i % 2], 3, 60 + 5 * i // 2, 10**6) for i in range(19)]
    + [("exp", 4, 60, 10**5), ("J0", 4, 80, 10**6), ("exp", 5, 60, 10**4)]
)


def _falsify_ops(rng: random.Random) -> list:
    ops: list[Op] = []
    for name, n, digits, bound in FALSIFY_SIZES:
        pts = _ladder(rng, n)
        ops.append(Op(f"{name} n={n} d={digits}", "falsify",
                      _doc("falsify", functions=[builtin(name)], points=[_q(x) for x in pts]),
                      ["--digits", str(digits), "--coeff-bound", str(bound)]))
    for lower, n in ((["1/2"], 3), (["2/3"], 4), (["1", "1/3"], 3), (["3/2", "1"], 4)):
        pts = _ladder(rng, n)
        ops.append(Op(f"hyp {','.join(lower)} n={n}", "falsify",
                      _doc("falsify", functions=[hyp([], lower)], points=[_q(x) for x in pts]),
                      ["--digits", "70", "--coeff-bound", "100000"]))
    # planted relations: exp(2z) at x/2 equals exp at x; J0 is even
    for _ in range(4):
        x, y = _ladder(rng, 2)
        ops.append(Op("planted exp(2z)", "falsify", _doc(
            "falsify", functions=[builtin("exp", "2"), builtin("exp"), builtin("exp")],
            points=[_q(x / 2), _q(x), _q(y)]), ["--digits", "60", "--coeff-bound", "1000000"]))
        x, y = _ladder(rng, 2)
        ops.append(Op("planted J0(-x)", "falsify", _doc(
            "falsify", functions=[builtin("J0")], points=[_q(x), _q(-x), _q(y)]),
            ["--digits", "60", "--coeff-bound", "1000000"]))
    # the worked examples: the only CLI path to eval_hypergeometric_value
    ops.append(Op("demo", "demo", None, ["--digits", "40", "--coeff-bound", "1000"]))
    return ops


# -- eval ----------------------------------------------------------------------

EVAL_FUNCTIONS = [
    builtin("exp"), builtin("J0"), builtin("Si"),
    hyp([], ["1/2"]), hyp(["1/3"], ["1/2", "2/5"]), hyp([], ["1", "1"]), hyp([], ["1/2", "1"]),
    ode("I0"), ode("zexp"), ode("expmix"), ode("I0", bounded=False),
    ode("cosh2", bounded=False),
]
# (integer part of the point, digits) per operation of each function: the
# seed picks the point m + a/7, a in {3, 4}, which keeps the length of the
# sum and the size of its terms (a hypergeometric sum at m + 1/7 and at
# m + 6/7 can differ by half its time).  An integer point would be several
# times cheaper than its neighbours.  At k = 2 points beyond 5 overflow the
# radius text (see README.md), so those functions stay at or below 5.
EVAL_SLOTS = [(0, 300), (2, 250), (5, 200), (19, 250)]
EVAL_SLOTS_K2 = [(0, 300), (1, 250), (2, 200), (4, 250)]


def _eval_ops(rng: random.Random) -> list:
    ops: list[Op] = []
    for f in EVAL_FUNCTIONS:
        k = len(f.get("lower", [])) - len(f.get("upper", []))
        for whole, digits in EVAL_SLOTS_K2 if k == 2 else EVAL_SLOTS:
            x = whole + Fraction(rng.randint(3, 4), 7)
            ops.append(Op(f"eval {f.get('name', f['type'])} k={k}", "eval",
                          _doc("eval", functions=[f], points=[_q(x)]),
                          ["--digits", str(digits)]))
    ops.append(Op("eval F[;1,1] at 5, 1000 digits", "eval",
                  _doc("eval", functions=[hyp([], ["1", "1"])], points=["5"]),
                  ["--digits", "1000"],
                  ("raises", "ValueError", "numeric._sci_upper calls str() on a radius numerator over 4300 digits")))
    ops.append(Op("eval exp at 1, 400 digits", "eval",
                  _doc("eval", functions=[builtin("exp")], points=["1"]),
                  ["--digits", "400"],
                  ("check", "radius", "numeric._sci_upper prints radii below 1e-308 as 0.001e-324")))
    return ops


def workload_ops(name: str, seed: int) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        return _certify_ops(rng)
    if name == "falsify":
        return _falsify_ops(rng)
    if name == "eval":
        return _eval_ops(rng)
    raise ValueError(f"unknown workload {name!r}")
