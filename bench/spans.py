"""Spans around elindep's layer functions, recorded from outside the program.

`install()` wraps the public functions of each layer and rebinds every
name in every loaded `elindep.*` module (and every module-level dict) that
refers to them, so calls between modules and inside one module both go
through the wrapper.  Each call records one span: metric group, start,
end, parent span, the operation it belongs to, and an input size.  Spans stay in memory; `dump()` writes
them out once the round is over and `summarize()` turns them into the
per-layer metrics.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _degree(p, *_, **__):
    return {"degree": p.degree}


def _isolate_size(p, precision_bits=64, *_, **__):
    return {"degree": p.degree, "bits": precision_bits, "key": tuple(p.int_coeffs())}


def _ratio_size(p, q, *_, **__):
    return {"degree": p.degree * q.degree}


def _lll_size(rows, *_, **__):
    bits = max((abs(int(x)).bit_length() for row in rows for x in row), default=0)
    return {"dim": len(rows), "entry_bits": bits}


def _eval_size(f, x, digits, *_, **__):
    return {"digits": digits}


# (module, attribute path, metric group, size function)
LAYERS = [
    ("cli", "parse_spec", "cli.parse_spec", None),
    ("cli", "run", "cli.run", None),
    ("criterion", "certify_main", "criterion.certify", None),
    ("criterion", "certify_multi", "criterion.certify", None),
    ("criterion", "certify_single", "criterion.certify", None),
    ("criterion", "certify_hypergeometric", "criterion.certify", None),
    ("criterion", "certify_si_integrals", "criterion.certify", None),
    ("singularities", "singularity_superset", "singularities.singularity_superset", None),
    ("singularities", "ratio_condition", "singularities.ratio_condition", None),
    ("diffop", "psi_transform", "diffop.psi_transform", None),
    ("diffop", "recurrence_from_ode", "diffop.recurrence_from_ode", None),
    ("efunction", "EFunction.__init__", "efunction.build", None),
    ("efunction", "ef_exp", "efunction.build", None),
    ("efunction", "ef_bessel_j0", "efunction.build", None),
    ("efunction", "ef_sin_integral", "efunction.build", None),
    ("efunction", "ef_hypergeometric", "efunction.build", None),
    ("efunction", "ef_scale", "efunction.build", None),
    ("efunction", "EFunction.coefficient", "efunction.coefficient", None),
    ("polynomials", "ratio_set_poly", "polynomials.ratio_set_poly", _ratio_size),
    ("polynomials", "resultant_bivariate", "polynomials.resultant_bivariate", None),
    ("polynomials", "squarefree_part", "polynomials.squarefree_part", None),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd", None),
    ("algebraic", "isolate_roots", "algebraic.isolate_roots", _isolate_size),
    ("algebraic", "refine_root_box", "algebraic.refine_root_box", None),
    ("algebraic", "AlgebraicNumber.root_in_box", "algebraic.root_in_box", None),
    ("algebraic", "alg_div", "algebraic.alg_div", None),
    ("algebraic", "is_root_of", "algebraic.is_root_of", None),
    ("algebraic", "alg_equals", "algebraic.alg_equals", None),
    ("algebraic", "alg_nth_root", "algebraic.alg_nth_root", None),
    ("numeric", "eval_efunction", "numeric.eval_efunction", _eval_size),
    ("numeric", "eval_hypergeometric_value", "numeric.eval_hypergeometric_value", None),
    ("numeric", "find_integer_relation", "numeric.find_integer_relation", None),
    ("numeric", "falsify", "numeric.falsify", None),
    ("lattice", "lll_reduce", "lattice.lll_reduce", _lll_size),
]

# metric -> (unit, better); every per-layer metric the benchmark reports
_UNITS = {"self_s": "s", "degree_max": "degree", "bits_max": "bits", "dim_max": "rows",
          "entry_bits_max": "bits", "digits_max": "digits"}
PER_LAYER = {}
for _name, _stats in [
    ("algebraic.isolate_roots", ("self_s", "calls", "degree_max", "bits_max", "repeat_calls")),
    ("algebraic.refine_root_box", ("self_s", "calls")),
    ("algebraic.root_in_box", ("self_s",)),
    ("algebraic.alg_div", ("self_s",)),
    ("algebraic.is_root_of", ("self_s",)),
    ("algebraic.alg_equals", ("self_s",)),
    ("algebraic.alg_nth_root", ("self_s",)),
    ("polynomials.ratio_set_poly", ("self_s", "calls", "degree_max")),
    ("polynomials.resultant_bivariate", ("self_s",)),
    ("polynomials.squarefree_part", ("self_s",)),
    ("polynomials.poly_gcd", ("self_s", "calls")),
    ("singularities.singularity_superset", ("self_s",)),
    ("singularities.ratio_condition", ("self_s", "calls")),
    ("diffop.psi_transform", ("self_s", "calls")),
    ("diffop.recurrence_from_ode", ("self_s",)),
    ("criterion.certify", ("self_s", "calls")),
    ("lattice.lll_reduce", ("self_s", "calls", "dim_max", "entry_bits_max")),
    ("numeric.find_integer_relation", ("self_s",)),
    ("numeric.falsify", ("self_s",)),
    ("numeric.eval_efunction", ("self_s", "calls", "digits_max")),
    ("numeric.eval_hypergeometric_value", ("self_s",)),
    ("efunction.coefficient", ("self_s", "calls")),
    ("efunction.build", ("self_s",)),
    ("cli.parse_spec", ("self_s",)),
    ("cli.run", ("self_s",)),
]:
    for _stat in _stats:
        PER_LAYER[f"{_name}.{_stat}"] = (_UNITS.get(_stat, "count"), "lower")
PER_LAYER["algebraic.precision_exhausted.count"] = ("count", "lower")
PER_LAYER["trace.ops_per_s"] = ("1/s", "higher")
PER_LAYER["trace.overhead_pct"] = ("%", "lower")


class Tracer:
    def __init__(self):
        # [group, start, end, parent index, size dict or None, operation]
        self.spans: list[list] = []
        self.op = -1  # index of the running operation, set by the caller
        self._stack: list[int] = []
        self.exhausted = 0
        self._exhausted_type = None

    def _wrap(self, fn, group: str, size):
        spans, stack = self.spans, self._stack
        algebraic = group.startswith("algebraic.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = size(*args, **kwargs) if size is not None else None
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, info, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if algebraic and isinstance(exc, self._exhausted_type) and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.exhausted += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        from elindep.errors import PrecisionExceededError

        self._exhausted_type = PrecisionExceededError
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "elindep" or name.startswith("elindep.")]
        for module_name, path, group, size in LAYERS:
            owner = sys.modules[f"elindep.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, group, size)))
                else:
                    setattr(cls, attr, self._wrap(raw, group, size))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(original, group, size)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapped

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exhausted": self.exhausted, "spans": self.spans}, fh)


def summarize(trace: dict, scale: list) -> dict:
    """Per-layer figures of one traced round; the self time of a span in
    operation i is multiplied by scale[i] (the runner's factor to the
    reference speed)."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for group, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    seen_isolated: set = set()
    for i, (group, start, end, _, info, op) in enumerate(spans):
        self_s = (end - start - child_time[i]) * scale[op]
        out[f"{group}.self_s"] = out.get(f"{group}.self_s", 0.0) + self_s
        out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + 1
        if info:
            for key, value in info.items():
                if key == "key":
                    continue
                name = f"{group}.{key}_max"
                out[name] = max(out.get(name, 0), value)
        if group == "algebraic.isolate_roots":
            key = tuple(info["key"])
            if key in seen_isolated:
                out["algebraic.isolate_roots.repeat_calls"] = out.get("algebraic.isolate_roots.repeat_calls", 0) + 1
            seen_isolated.add(key)
    out["algebraic.precision_exhausted.count"] = trace["exhausted"]
    return out
