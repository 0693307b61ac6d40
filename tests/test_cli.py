"""Command-line interface: spec parsing, report rendering, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from elindep import cli, efunction
from elindep.algebraic import AlgebraicNumber, Precision
from elindep.cli import main, parse_spec
from elindep.efunction import HypergeometricParams
from elindep.errors import InputError
from elindep.singularities import hypergeometric_singularities


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CERTIFY_EXP = {
    "version": 1,
    "task": "certify",
    "functions": [{"type": "builtin", "name": "exp"}],
    "points": ["1", "2", "1/2"],
}


class TestParseSpec:
    def test_unknown_field_path(self):
        doc = {
            "version": 1,
            "task": "certify",
            "functions": [{"type": "builtin", "name": "exp", "oops": 1}],
            "points": ["1"],
        }
        with pytest.raises(InputError, match=r"\$\.functions\[0\]\.oops: unknown field"):
            parse_spec(json.dumps(doc))

    def test_version_mismatch(self):
        doc = dict(CERTIFY_EXP, version=99)
        with pytest.raises(InputError, match=r"\$\.version"):
            parse_spec(json.dumps(doc))

    def test_unknown_task(self):
        doc = dict(CERTIFY_EXP, task="frobnicate")
        with pytest.raises(InputError, match=r"\$\.task"):
            parse_spec(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(InputError, match="not valid JSON"):
            parse_spec("{nope")

    def test_bad_hypergeometric_parameters(self):
        doc = {
            "version": 1,
            "task": "certify_hyp",
            "functions": [{"type": "hypergeometric", "upper": [], "lower": ["-1"]}],
            "points": ["1"],
        }
        with pytest.raises(InputError, match="lower parameters outside"):
            parse_spec(json.dumps(doc))

    def test_missing_points(self):
        doc = {
            "version": 1,
            "task": "certify",
            "functions": [{"type": "builtin", "name": "exp"}],
        }
        with pytest.raises(InputError, match=r"\$\.points"):
            parse_spec(json.dumps(doc))

    def test_hyp_task_requires_hyp_functions(self):
        doc = {
            "version": 1,
            "task": "certify_hyp",
            "functions": [{"type": "builtin", "name": "exp"}],
            "points": ["1"],
        }
        with pytest.raises(InputError, match="hypergeometric"):
            parse_spec(json.dumps(doc))

    def test_ode_function(self):
        doc = {
            "version": 1,
            "task": "singularities",
            "functions": [{
                "type": "ode",
                "operator": "(1)*∂^1 + (-1)",
                "initial": ["1"],
                "coeff_bound": "1",
                "name": "myexp",
            }],
        }
        spec = parse_spec(json.dumps(doc))
        assert spec.params == [None]
        f = spec.functions[0](Precision())
        assert (f.name, f.order, f.coeff_bound) == ("myexp", 1, 1)
        assert [f.coefficient(n) for n in range(4)] == [1, 1, 1, 1]


class TestMain:
    def test_certify_text(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        code = main(["certify", "--spec", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "CertifiedIndependent" in out

    def test_certify_json(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        code = main(["certify", "--spec", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert report["certificate"]["verdict"] == "CertifiedIndependent"
        assert report["certificate"]["caveat"] == "unless two of them are algebraic"

    def test_singularities(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "singularities",
            "functions": [
                {"type": "builtin", "name": "J0"},
                {"type": "builtin", "name": "exp"},
            ],
        }
        path = write_spec(tmp_path, doc)
        code = main(["singularities", "--spec", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        polys = [r["root_set"]["poly"] for r in report["results"]]
        assert polys[0] in ([1, 0, 1], [-1, 0, -1])
        assert polys[1] in ([-1, 1], [1, -1])

    def test_transform(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "transform",
            "functions": [{"type": "builtin", "name": "exp"}],
        }
        path = write_spec(tmp_path, doc)
        code = main(["transform", "--spec", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"][0]["operator_text"] == "(1 - z)*∂^1 + (-1)"

    def test_eval(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "builtin", "name": "exp"}],
            "points": ["1"],
        }
        path = write_spec(tmp_path, doc)
        code = main(["eval", "--spec", path, "--digits", "30", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        value = report["results"][0]["value"]
        assert value["re"].startswith("2.71828182845904523536")

    def test_eval_ball_contains_value(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "builtin", "name": "exp"}],
            "points": ["5/7"],
        }
        path = write_spec(tmp_path, doc)
        code = main(["eval", "--spec", path, "--digits", "300", "--format", "json"])
        assert code == 0
        value = json.loads(capsys.readouterr().out)["results"][0]["value"]
        mant, exp = value["radius"].split("e")
        radius = Fraction(mant) * Fraction(10) ** int(exp)
        assert radius <= Fraction(1, 10**300)
        with mpmath.workdps(330):
            want = mpmath.exp(mpmath.mpf(5) / 7)
        want = Fraction(want.man) * Fraction(2) ** want.exp
        assert abs(want - Fraction(value["re"])) <= radius

    def test_certify_close_roots(self, tmp_path, capsys):
        # exp at the two roots of z^4 - 2(100z - 1)^2 that lie 1.4e-6 apart;
        # their ratio set has degree 13 and coefficients near 8e16
        close = [-2, 400, -20000, 0, 1]
        doc = {
            "version": 1,
            "task": "certify",
            "functions": [{"type": "builtin", "name": "exp"}],
            "points": [
                {"poly": close, "box": {"re": ["0.0099992", "0.0099994"],
                                        "im": ["-0.0000001", "0.0000001"]}},
                {"poly": close, "box": {"re": ["0.0100006", "0.0100008"],
                                        "im": ["-0.0000001", "0.0000001"]}},
            ],
        }
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code = main(["certify", "--spec", path, "--format", "json",
                     "--max-precision-bits", "256"])
        assert time.perf_counter() - start < 10
        assert code == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["verdict"] == "CertifiedIndependent"

    def test_certify_si(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "certify_si",
            "pairs": [["1", "2"], ["3", "4"]],
        }
        path = write_spec(tmp_path, doc)
        code = main(["certify-si", "--spec", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "CertifiedIndependent"

    def test_certify_hyp(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "certify_hyp",
            "functions": [
                {"type": "hypergeometric", "upper": [], "lower": ["1"]},
                {"type": "hypergeometric", "upper": [], "lower": ["1", "1"]},
            ],
            "points": ["1/2", "1"],
        }
        path = write_spec(tmp_path, doc)
        code = main(["certify-hyp", "--spec", path, "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["verdict"] == "CertifiedIndependent"

    def test_falsify_negative_control(self, tmp_path, capsys):
        doc = dict(CERTIFY_EXP, task="falsify", points=["1", "2"])
        path = write_spec(tmp_path, doc)
        code = main(["falsify", "--spec", path, "--digits", "40",
                     "--coeff-bound", "1000", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        rel = report["relation_report"]
        assert rel["excluded"] and not rel["found"]

    def test_hypergeometric_scale_applied_once(self, tmp_path, capsys):
        fn = {"type": "hypergeometric", "upper": [], "lower": ["1"], "scale": "2"}
        doc = {"version": 1, "task": "eval", "functions": [fn], "points": ["1"]}
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "20",
                     "--format", "json"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert result["function"] == "F[;1]@2"
        assert result["value"]["re"].startswith("7.3890560989306502272")  # e^2
        doc = {"version": 1, "task": "singularities", "functions": [fn]}
        code = main(["singularities", "--spec", write_spec(tmp_path, doc),
                     "--format", "json"])
        assert code == 0
        root_set = json.loads(capsys.readouterr().out)["results"][0]["root_set"]
        params = HypergeometricParams((), (Fraction(1),), Fraction(2))
        assert root_set == hypergeometric_singularities(params).to_json()
        assert root_set["poly"] == [-1, 2]  # the set {1/2}

    def test_hypergeometric_parameters_checked_once(self, tmp_path, capsys, monkeypatch):
        # the function is built from the parameters the document parse checked
        calls = []
        check = HypergeometricParams.__post_init__
        monkeypatch.setattr(HypergeometricParams, "__post_init__",
                            lambda self: calls.append(self) or check(self))
        fn = {"type": "hypergeometric", "upper": [], "lower": ["1", "1"]}
        doc = {"version": 1, "task": "eval", "functions": [fn], "points": ["1/3"]}
        assert main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "20"]) == 0
        assert "F[;1,1]" in capsys.readouterr().out
        assert len(calls) == 1

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        main(["certify", "--spec", path, "--format", "json"])
        first = capsys.readouterr().out
        main(["certify", "--spec", path, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestExitCodes:
    def test_missing_file(self, capsys):
        code = main(["certify", "--spec", "/nonexistent/spec.json"])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"version": 1, "task": "bogus"})
        code = main(["certify", "--spec", path])
        assert code == 1

    def test_task_subcommand_mismatch(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        code = main(["eval", "--spec", path])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_precision_cap(self, tmp_path, capsys):
        # two digits cannot separate found from excluded at bound 10^12
        doc = dict(CERTIFY_EXP, task="falsify", points=["1", "2"])
        path = write_spec(tmp_path, doc)
        code = main(["falsify", "--spec", path, "--digits", "2",
                     "--coeff-bound", str(10**12)])
        assert code == 3
        assert "precision" in capsys.readouterr().err

    def test_precision_bits_below_start(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        code = main(["certify", "--spec", path, "--max-precision-bits", "4"])
        assert code == 1
        assert "input error: precision bounds" in capsys.readouterr().err

    def test_negative_digits_falsify(self, tmp_path, capsys):
        path = write_spec(tmp_path, dict(CERTIFY_EXP, task="falsify"))
        code = main(["falsify", "--spec", path, "--digits", "-5"])
        assert code == 1
        assert "input error: digits must be positive" in capsys.readouterr().err

    def test_over_budget_series_fails_fast(self, tmp_path, capsys):
        doc = dict(CERTIFY_EXP, task="eval", points=["1000000"])
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code = main(["eval", "--spec", path, "--digits", "5"])
        assert time.perf_counter() - start < 2
        assert code == 3
        assert "precision cap exceeded" in capsys.readouterr().err

    def test_long_series_sum_is_bounded(self, tmp_path, capsys):
        # about 13600 terms; a term-by-term Fraction sum gave no result in 100 s
        doc = dict(CERTIFY_EXP, task="eval", points=["5000"])
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code = main(["eval", "--spec", path, "--digits", "10", "--format", "json"])
        assert time.perf_counter() - start < 15
        assert code == 0
        value = json.loads(capsys.readouterr().out)["results"][0]["value"]
        mant, exp = value["radius"].split("e")
        radius = Fraction(mant) * Fraction(10) ** int(exp)
        with mpmath.workdps(2200):
            want = mpmath.exp(5000)
        want = Fraction(want.man) * Fraction(2) ** want.exp
        assert abs(want - Fraction(value["re"])) <= radius

    def test_falsify_at_the_digits_cap_is_fast(self, tmp_path, capsys):
        # an 11-row lattice: exclusion needs about 77 of the 4300 digits,
        # and a single reduction at 4300 digits did not finish in 90 s
        points = [f"{i}/{i + 1}" for i in range(1, 11)]
        doc = dict(CERTIFY_EXP, task="falsify", points=points)
        start = time.perf_counter()
        code = main(["falsify", "--spec", write_spec(tmp_path, doc), "--digits", "4300",
                     "--format", "json"])
        assert time.perf_counter() - start < 20
        assert code == 0
        rel = json.loads(capsys.readouterr().out)["relation_report"]
        assert rel["excluded"] and not rel["found"]
        assert rel["lattice_digits"] < 4300

    def test_scaled_ode_with_a_large_parameter_is_fast(self, tmp_path, capsys):
        # the leading band (t + 1)(t + N) has no nonnegative integer root;
        # a scan up to its Cauchy bound did not finish within 120 s
        n = 10**7
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "ode", "operator": f"(z)*D^2 + ({n})*D^1 + (-1)",
                           "initial": ["1", f"1/{n}"], "coeff_bound": "1", "scale": "2"}],
            "points": ["1"],
        }
        start = time.perf_counter()
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "20"])
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "1.00000020000002000000" in capsys.readouterr().out

    def test_scale_obeys_precision_cap(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = efunction.isolate_roots

        def recording(p, bits, ctx):
            seen.append(ctx)
            return real(p, bits, ctx)

        # an ode, scaled or not, finds the integer roots of a leading band
        # whose coefficients change sign by isolation: (t + 1)(2t - 5) here
        monkeypatch.setattr(efunction, "isolate_roots", recording)

        def run(operator, initial):
            doc = {
                "version": 1,
                "task": "eval",
                "functions": [{"type": "ode", "operator": operator,
                               "initial": initial, "scale": "2"}],
                "points": ["1"],
            }
            return main(["eval", "--spec", write_spec(tmp_path, doc),
                         "--max-precision-bits", "256"])

        assert run("(2*z)*D^2 + (-5)*D^1 + (-1)", ["1", "-1/5"]) == 0
        assert seen and {ctx.max_bits for ctx in seen} == {256}
        # (t + 1)(t + 3) keeps one sign, so Descartes' rule leaves no
        # positive root to isolate
        seen.clear()
        assert run("(z)*D^2 + (3)*D^1 + (-1)", ["1", "1/3"]) == 0
        assert seen == []

    def test_huge_power_of_z_rejected_fast(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "task": "transform",
            "functions": [{"type": "ode", "operator": "(1)*D^1 + (-z^100000000)",
                           "initial": ["1"]}],
        }
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code = main(["transform", "--spec", path])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = capsys.readouterr().err
        assert "input error: power of z" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, doc", [
        ("certify", dict(CERTIFY_EXP, points=["1e40000000", "1"])),
        # 10^4300 parses quickly but has too many digits to print
        ("certify", dict(CERTIFY_EXP, points=["1e4300", "1"])),
        ("transform", {
            "version": 1,
            "task": "transform",
            "functions": [{"type": "ode", "initial": ["1"], "operator": {"terms": [
                {"dorder": 1, "poly": {"zmin": 0, "coeffs": ["1"]}},
                {"dorder": 0, "poly": {"zmin": 0, "coeffs": ["-1e40000000"]}},
            ]}}],
        }),
    ])
    def test_huge_decimal_exponent_rejected_fast(self, tmp_path, capsys, command, doc):
        path = write_spec(tmp_path, doc)
        start = time.perf_counter()
        code = main([command, "--spec", path])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("box", [
        {"re": ["5", "6"], "im": ["0", "0"]},  # no root of z^2 - 2 in it
        {"re": ["2", "1"], "im": ["0", "0"]},  # bounds out of order
    ])
    def test_point_box_rejected(self, tmp_path, capsys, box):
        doc = dict(CERTIFY_EXP, points=[{"poly": [-2, 0, 1], "box": box}, "1"])
        code = main(["certify", "--spec", write_spec(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error: point")

    def test_point_box_with_two_roots_fails_at_once(self, tmp_path, capsys):
        box = {"re": ["-2", "2"], "im": ["-1", "1"]}  # holds both roots of z^2 - 2
        doc = dict(CERTIFY_EXP, points=[{"poly": [-2, 0, 1], "box": box}, "1"])
        start = time.perf_counter()
        code = main(["certify", "--spec", write_spec(tmp_path, doc)])
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error: point")
        assert "several roots" in err

    def test_point_box_of_a_linear_polynomial(self, tmp_path, capsys):
        # the root 1/2 of 2z - 1: its derivative is a constant
        box = {"re": ["0", "1"], "im": ["0", "0"]}
        doc = dict(CERTIFY_EXP, points=[{"poly": [-1, 2], "box": box}, "1"])
        code = main(["certify", "--spec", write_spec(tmp_path, doc), "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["certificate"]["verdict"] == "CertifiedIndependent"

    def test_point_box_obeys_precision_cap(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = AlgebraicNumber.root_in_box

        def recording(cls, *args):
            seen.append(args[-1])
            return real(*args)

        monkeypatch.setattr(AlgebraicNumber, "root_in_box", classmethod(recording))
        # the roots +-i of z^2 + 1 lie on the edges of this square, so no
        # rung can tell whether they are inside
        box = {"re": ["-1", "1"], "im": ["-1", "1"]}
        doc = dict(CERTIFY_EXP, points=[{"poly": [1, 0, 1], "box": box}, "1"])
        code = main(["certify", "--spec", write_spec(tmp_path, doc),
                     "--max-precision-bits", "256"])
        assert [ctx.max_bits for ctx in seen] == [256]
        assert code == 3
        assert "at the 256-bit precision cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        # json.loads raises a plain ValueError past Python's 4300-digit limit
        ("eval", '{"version": 1, "task": "eval", "functions": [{"type": "builtin", '
                 '"name": "exp"}], "points": ["1"], "x": ' + "9" * 5000 + "}"),
        ("transform", json.dumps({"version": 1, "task": "transform", "functions": [
            {"type": "ode", "operator": "(1)*D^" + "9" * 5000 + " + (1)", "initial": ["1"]}]})),
        ("transform", json.dumps({"version": 1, "task": "transform", "functions": [
            {"type": "ode", "operator": "(1)*D^1 + (z^999)", "initial": ["1"]}]})),
    ], ids=["json-integer", "derivative-order", "text-power-of-z"])
    def test_oversized_integer_rejected(self, tmp_path, capsys, command, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        code = main([command, "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("operator, message", [
        ("(1)*D^1 + (z^999)", "power of z must lie in 0..256, got 999"),
        ("(1)*D^300 + (1)", "derivative order must lie in 0..256, got 300"),
        ("(1)*D^1 + (2*y)", "cannot parse monomial '2*y'"),
    ])
    def test_text_operator_error_names_its_field(self, tmp_path, capsys, operator, message):
        # the same check as for the JSON form, at parse time, with the path
        doc = {"version": 1, "task": "transform", "functions": [
            {"type": "builtin", "name": "exp"},
            {"type": "ode", "operator": operator, "initial": ["1"]}]}
        code = main(["transform", "--spec", write_spec(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"input error: {message} ($.functions[1].operator)\n"
        with pytest.raises(InputError, match=r"\(\$\.functions\[1\]\.operator\)$"):
            parse_spec(json.dumps(doc))

    @pytest.mark.parametrize("field, value, path", [
        ("poly", [True, False, True], r"$.points[0].poly"),
        ("version", True, r"$.version"),
        ("version", 1.0, r"$.version"),
        ("dorder", True, r"$.functions[0].operator.terms[0].dorder"),
        ("zmin", 2.7, r"$.functions[0].operator.terms[1].poly.zmin"),
        ("zmin", "3", r"$.functions[0].operator.terms[1].poly.zmin"),
        ("zmin", True, r"$.functions[0].operator.terms[1].poly.zmin"),
    ], ids=["poly-bools", "version-bool", "version-float", "dorder-bool",
            "zmin-float", "zmin-string", "zmin-bool"])
    def test_integer_fields_take_json_integers_only(self, tmp_path, capsys, field, value, path):
        # exp: (1)*D^1 + (-z^0), with the zmin of the second term spelled out
        terms = [{"dorder": 1, "poly": {"zmin": 0, "coeffs": ["1"]}},
                 {"dorder": 0, "poly": {"zmin": 0, "coeffs": ["-1"]}}]
        point = {"poly": [1, 0, 1], "box": {"re": ["-1", "1"], "im": ["1/2", "2"]}}
        doc = {"version": 1, "task": "certify",
               "functions": [{"type": "ode", "operator": {"terms": terms}, "initial": ["1"]}],
               "points": [point]}
        if field == "poly":
            point["poly"] = value
        elif field == "version":
            doc["version"] = value
        elif field == "dorder":
            terms[0]["dorder"] = value
        else:
            terms[1]["poly"]["zmin"] = value
        code = main(["certify", "--spec", write_spec(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"input error: {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fn, field", [
        ({"type": "builtin", "name": "exp"}, "scale"),
        ({"type": "ode", "operator": "(1)*D^1 + (-1)", "initial": ["1"]}, "scale"),
        ({"type": "ode", "operator": "(1)*D^1 + (-1)", "initial": ["1"]}, "coeff_bound"),
        ({"type": "hypergeometric", "upper": [], "lower": ["1"]}, "scale"),
    ], ids=["builtin-scale", "ode-scale", "ode-coeff_bound", "hypergeometric-scale"])
    def test_scalar_field_error_names_the_field(self, tmp_path, capsys, fn, field):
        doc = {"version": 1, "task": "eval", "functions": [dict(fn, **{field: "1/x"})],
               "points": ["1"]}
        code = main(["eval", "--spec", write_spec(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: $.functions[0].{field}: not a rational number: '1/x'\n")

    def test_negative_coeff_bound_exits_1(self, tmp_path, capsys):
        # e^(2z) under the bound -5 printed a wrong ball for e^6 and exited 0
        doc = {"version": 1, "task": "eval", "points": ["3"], "functions": [
            {"type": "ode", "operator": "(1)*D^1 + (-2)", "initial": ["1"], "coeff_bound": "-5"}]}
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "20"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "input error: coefficient bound must be nonnegative, got -5\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--spec", "spec.json", "--digits", "abc"],
        ["frobnicate"],
        ["certify"],
    ], ids=["bad-int", "unknown-subcommand", "missing-spec"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: elindep" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--spec" in capsys.readouterr().out

    @pytest.mark.parametrize("digits", ["4400", "1000000", "0"])
    def test_digits_out_of_range_rejected_fast(self, tmp_path, capsys, digits):
        path = write_spec(tmp_path, dict(CERTIFY_EXP, task="eval", points=["1"]))
        start = time.perf_counter()
        code = main(["eval", "--spec", path, "--digits", digits])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: digits must be positive and at most 4300")
        assert "Traceback" not in err

    def test_too_many_printed_digits_rejected(self, tmp_path, capsys):
        # e * 10^4300 has 4301 digits before the rounding point
        path = write_spec(tmp_path, dict(CERTIFY_EXP, task="eval", points=["1"]))
        start = time.perf_counter()
        code = main(["eval", "--spec", path, "--digits", "4300"])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "4300 digits" in err
        assert "Traceback" not in err

    def test_relation_under_a_caveat_is_no_contradiction(self, tmp_path, capsys):
        # 1/(1-z) is no E-function; its certificate rests on the caveat, and
        # the relation 1 + f(1/3) - 2 f(1/5) = 0 shows the caveat fails
        doc = {
            "version": 1,
            "task": "falsify",
            "functions": [{"type": "ode", "operator": "(1-z)*D^1 + (-1)", "initial": ["1"]}],
            "points": ["1/3", "1/5"],
        }
        code = main(["falsify", "--spec", write_spec(tmp_path, doc)])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONTRADICTION" not in out
        assert "relation found: coefficients [1, 1, -2]" in out
        assert ("notice: relation found; the certificate is conditional on: "
                "unless two of them are algebraic") in out

    @pytest.mark.parametrize("task, points", [("eval", ["1/3"]), ("falsify", ["1/3", "1/2"])])
    def test_divergent_series_stops(self, tmp_path, capsys, task, points):
        # Euler's series: a_n = (n!)^2, so sum n! z^n diverges at every
        # z != 0; without a coefficient bound each doubling of the
        # truncation moves the partial sum by more than the one before
        doc = {
            "version": 1,
            "task": task,
            "functions": [{"type": "ode", "operator": "(z^2)*D^2 + (3*z-1)*D^1 + (1)",
                           "initial": ["1", "1"]}],
            "points": points,
        }
        start = time.perf_counter()
        code = main([task, "--spec", write_spec(tmp_path, doc)])
        assert time.perf_counter() - start < 5
        assert code == 3
        err = capsys.readouterr().err
        assert "partial sums do not settle" in err
        assert "Traceback" not in err

    def test_heuristic_tail_never_excludes(self, tmp_path, capsys):
        # no coeff_bound: the values' radii rest on an unproven series tail
        doc = {
            "version": 1,
            "task": "falsify",
            "functions": [{"type": "ode", "operator": "(1)*D^1 + (-1)", "initial": ["1"]}],
            "points": ["1", "2"],
        }
        code = main(["falsify", "--spec", write_spec(tmp_path, doc), "--format", "json"])
        assert code == 0
        rel = json.loads(capsys.readouterr().out)["relation_report"]
        assert not rel["found"] and not rel["excluded"] and not rel["skipped"]
        assert "no exclusion: a value's radius rests on an unproven series tail" in rel["notices"]

    def test_hypergeometric_with_a_free_coefficient(self, tmp_path, capsys):
        # b = -7/2 leaves the series coefficient 9 free in the recurrence
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "hypergeometric", "upper": [], "lower": ["-7/2", "1"]}],
            "points": ["1/1000000000"],
        }
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "30",
                     "--format", "json"])
        assert code == 0
        value = json.loads(capsys.readouterr().out)["results"][0]["value"]
        mant, exp = value["radius"].split("e")
        radius = Fraction(mant) * Fraction(10) ** int(exp)
        with mpmath.workdps(60):
            want = mpmath.hyp0f1(mpmath.mpf(-7) / 2, mpmath.mpf(10) ** -18)
        want = Fraction(want.man) * Fraction(2) ** want.exp
        assert abs(want - Fraction(value["re"])) <= radius

    def test_hypergeometric_summed_against_its_terms(self, tmp_path, capsys):
        # its coefficient bound C is about 10^8, so (C/3)^n / n! would ask
        # for more than MAX_TERMS terms; its own terms stop at 15
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "hypergeometric", "upper": [], "lower": ["-7/2", "1"]}],
            "points": ["1/3"],
        }
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "30",
                     "--format", "json"])
        assert code == 0
        value = json.loads(capsys.readouterr().out)["results"][0]["value"]
        assert value["heuristic_tail"] is False
        mant, exp = value["radius"].split("e")
        radius = Fraction(mant) * Fraction(10) ** int(exp)
        assert radius <= Fraction(1, 10**30)
        with mpmath.workdps(60):
            want = mpmath.hyp0f1(mpmath.mpf(-7) / 2, mpmath.mpf(1) / 9)
        want = Fraction(want.man) * Fraction(2) ** want.exp
        assert abs(want - Fraction(value["re"])) <= radius

    @pytest.mark.parametrize(
        "operator, initial, point, exit_code",
        [
            # coefficient denominators pass 1e308 within the growth prefix
            ("(z)*D^2 + (100000)*D^1 + (-1)", ["1", "1/100000"], "1", 0),
            # |a_n| = 10^(6n) passes 1e308 from n = 52 on
            ("(1)*D^1 + (-1000000)", ["1"], "1/10000000", 0),
            # |a_1|^(1/1) = 10^400 is beyond the float range itself; a large
            # constant factor still reads as growth, so only the absence of a
            # traceback is pinned here
            ("(1)*D^1 + (-1)", ["1" + "0" * 400], "1/3", None),
        ],
    )
    def test_growth_estimate_past_the_float_range(
        self, tmp_path, capsys, operator, initial, point, exit_code
    ):
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "ode", "operator": operator, "initial": initial}],
            "points": [point],
        }
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "20"])
        if exit_code is not None:
            assert code == exit_code
        assert "Traceback" not in capsys.readouterr().err

    def test_function_point_count_mismatch(self, tmp_path, capsys):
        doc = dict(CERTIFY_EXP, functions=[CERTIFY_EXP["functions"][0]] * 2)
        code = main(["certify", "--spec", write_spec(tmp_path, doc)])
        assert code == 1
        assert capsys.readouterr().err == (
            "input error: cannot match 2 functions with 3 points: use one "
            "function (many points), one point (many functions), or equal counts\n"
        )

    def test_demo_runs_clean(self, capsys):
        code = main(["demo", "--digits", "25", "--coeff-bound", "50",
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in report["demos"]]
        assert len(names) == len(set(names)) >= 10
        for entry in report["demos"]:
            rel = entry.get("relation_report")
            if rel:
                assert not rel["contradiction"]


class TestDemoDocuments:
    """The demo's certificate documents, byte for byte.  The demo points are
    rational, so no floating-point root proposal reaches the printed bytes,
    and the hashes hold across PYTHONHASHSEED values."""

    @pytest.mark.parametrize("options, sha256", [
        ([], "113dff8a3d0f9d8a976dcfc24de4c76430e06043c8951dc554e151fa86dc1adf"),
        (["--digits", "40", "--coeff-bound", "1000"],
         "cf0008ab52c94748e5f56da5888897289c159251f581502e9629e2110e952574"),
    ], ids=["defaults", "digits-40"])
    def test_demo_json_is_pinned(self, capsys, options, sha256):
        assert main(["demo", "--format", "json", *options]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _ode(name, text, initial, bound=None):
    f = {"type": "ode", "operator": text, "initial": initial, "name": name}
    if bound is not None:
        f["coeff_bound"] = bound
    return f


EXP, J0, SI = ({"type": "builtin", "name": n} for n in ("exp", "J0", "Si"))
ZEXP = _ode("zexp", "(1+z)*D^1 + (-2-z)", ["1", "2"], "2")
EXPMIX = _ode("expmix", "(1)*D^2 + (1)*D^1 + (-2)", ["2", "-1"], "2")
F_HALF = {"type": "hypergeometric", "upper": [], "lower": ["1/2"]}
F_HALF_ONE = {"type": "hypergeometric", "upper": [], "lower": ["1/2", "1"]}


class TestEvalDocuments:
    """`eval --format json`, byte for byte, on documents that reach each
    path of the series sums and of the printing: recurrences of order 1
    (every residue class of exp, J0 and Si) and of order 2 (zexp, expmix),
    hypergeometric series in z and in z^2, the doubling search without a
    bound, a negative point, and 1, 300 and 4000 printed digits."""

    @pytest.mark.parametrize("functions, point, digits, sha256", [
        ([EXP, J0, SI], "38/7", 60,
         "2cab2e40cfeb3924dc5ba66d06f886665ae76546f91ca94ebd33b2a7c8aee0ef"),
        ([ZEXP, EXPMIX], "17/7", 60,
         "1861dc53a4b715ed7debef1eaf5c6f56a54cea88df27beae6073f34cc6619bd2"),
        ([F_HALF, F_HALF_ONE], "17/7", 60,
         "f1cfe3cae79b6834744a2c11a0acb6516d80c07fcc13b9d9234ad6c438362594"),
        ([_ode("I0", "(z)*D^2 + (1)*D^1 + (-z)", ["1", "0"])], "17/7", 60,
         "ecafa4d54b91ea2f0896e7fab5fd231f959a6689da267c9fec9bf65f39fc8b86"),
        ([EXP, J0, ZEXP, F_HALF], "-38/7", 60,
         "20e892d911423bcb3db93d9e4de7ca4a3b32468e9abf4cb0edf0d3acf80ca522"),
        ([EXP], "136/7", 1,
         "aa1b838d6f64898ccdf81843ae76cbd27036ca5cadb1b55b21bd93e1121acba6"),
        ([EXP], "136/7", 300,
         "5a1603549533c89c482b9038da977f1f36b2533dabd973c004ce58ec5e7304b2"),
        ([EXP], "136/7", 4000,
         "003cad6d5ecdabbe34c6f38bd3a03c9609209ffe1160328fc33e26a267046e73"),
    ], ids=["order-1-classes", "order-2", "hypergeometric", "heuristic-tail",
            "negative-point", "digits-1", "digits-300", "digits-4000"])
    def test_eval_json_is_pinned(self, tmp_path, capsys, functions, point, digits, sha256):
        doc = {"version": 1, "task": "eval", "functions": functions, "points": [point]}
        spec = write_spec(tmp_path, doc)
        assert main(["eval", "--spec", spec, "--format", "json", "--digits", str(digits)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("point", ["22/7", "-38/7"])
    def test_order_2_sums_meet_their_closed_forms(self, tmp_path, capsys, point):
        # zexp = (1 + x) e^x and expmix = e^x + e^(-2x), whose a_n = 1 + (-2)^n
        # needs the bound 3: 2 fails at n = 2
        doc = {"version": 1, "task": "eval", "functions": [ZEXP, dict(EXPMIX, coeff_bound="3")],
               "points": [point]}
        spec = write_spec(tmp_path, doc)
        assert main(["eval", "--spec", spec, "--format", "json", "--digits", "300"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        q = Fraction(point)
        with mpmath.workdps(340):
            x = mpmath.mpf(q.numerator) / q.denominator
            truths = [(1 + x) * mpmath.exp(x), mpmath.exp(x) + mpmath.exp(-2 * x)]
            truths = [Fraction(mpmath.nstr(t, 335, strip_zeros=False)) for t in truths]
        assert [r["function"] for r in results] == ["zexp", "expmix"]
        for result, truth in zip(results, truths):
            value = result["value"]
            radius = Fraction(value["radius"])
            assert radius < Fraction(1, 10**299)
            assert abs(Fraction(value["re"]) - truth) <= radius


class TestParserReuse:
    """`main` builds its parser once per process; every later call must
    behave as a first call does."""

    def test_later_calls_match_first_calls(self, tmp_path, capsys):
        certify = write_spec(tmp_path, CERTIFY_EXP, "certify.json")
        eval_doc = dict(CERTIFY_EXP, task="eval", points=["1", "-1/3"])
        falsify_doc = dict(CERTIFY_EXP, task="falsify", points=["1", "2"])
        calls = [
            ["frobnicate"],
            ["certify", "--help"],
            ["certify", "--spec", certify],
            ["eval", "--spec", write_spec(tmp_path, eval_doc, "eval.json"), "--digits", "30"],
            ["falsify", "--spec", write_spec(tmp_path, falsify_doc, "falsify.json"),
             "--digits", "40", "--coeff-bound", "1000"],
            ["demo", "--digits", "25", "--coeff-bound", "50", "--format", "json"],
            ["certify", "--spec", certify],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return code, out, err

        first = []
        for argv in calls:
            cli._parser.cache_clear()
            first.append(outcome(argv))
        parser = cli._parser()
        again = [outcome(argv) for argv in calls]
        assert cli._parser() is parser
        assert again == first
        codes = [code for code, _, _ in first]
        assert codes == [1, 0, 0, 0, 0, 0, 0]
        assert first[0][2].startswith("usage: elindep")
        assert "--spec" in first[1][1]
        assert first[2] == first[-1]


def run_cli_process(args, **kwargs):
    """`python -m elindep.cli` in a fresh interpreter that imports this
    checkout's elindep."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


class TestProcess:
    """Behaviour that only a fresh interpreter shows."""

    def test_closed_stdout_prints_no_traceback(self):
        # the read end is closed before the child writes: the demo report
        # fits in a pipe buffer, so `| head -1` may not show the fault
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli_process(["-m", "elindep.cli", "demo", "--digits", "20",
                                    "--coeff-bound", "50"], stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr

    def test_eval_at_a_rational_point_loads_no_mpmath(self, tmp_path):
        doc = {
            "version": 1,
            "task": "eval",
            "functions": [{"type": "builtin", "name": "J0"},
                          {"type": "hypergeometric", "upper": ["1/3"], "lower": ["1/2", "2/5"]}],
            "points": ["1/3", "-2"],
        }
        code = (
            "import sys, elindep.cli\n"
            f"assert elindep.cli.main(['eval', '--spec', {write_spec(tmp_path, doc)!r}]) == 0\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        )
        proc = run_cli_process(["-c", code], stdout=subprocess.DEVNULL)
        assert proc.returncode == 0, proc.stderr


# exp at 1, and i on an edge of its box: 2^20 bits took 25 s to exit 3
EDGE_ROOT = {
    "version": 1,
    "task": "certify",
    "functions": [{"type": "builtin", "name": "exp"}],
    "points": ["1", {"poly": [1, 0, 1], "box": {"re": ["-1", "1"], "im": ["1", "2"]}}],
}


class TestPrecisionBitsCap:
    def test_above_the_cap_is_an_input_error_at_once(self, tmp_path, capsys):
        path = write_spec(tmp_path, EDGE_ROOT)
        start = time.perf_counter()
        assert main(["certify", "--spec", path, "--max-precision-bits", str(1 << 20)]) == 1
        assert time.perf_counter() - start < 1
        assert "input error: max precision bits must be at most 262144" in capsys.readouterr().err

    def test_the_cap_itself_is_accepted(self, tmp_path, capsys):
        path = write_spec(tmp_path, CERTIFY_EXP)
        assert main(["certify", "--spec", path, "--max-precision-bits", str(1 << 18)]) == 0
        assert "CertifiedIndependent" in capsys.readouterr().out

    @pytest.mark.parametrize("bits", ["4", "8"])
    def test_demo_rejects_bits_below_the_start_as_certify_does(self, tmp_path, capsys, bits):
        path = write_spec(tmp_path, CERTIFY_EXP)
        assert main(["certify", "--spec", path, "--max-precision-bits", bits]) == 1
        err = capsys.readouterr().err
        assert err == ("input error: precision bounds need 8 <= start bits <= max bits, "
                       f"got 64 and {bits}\n")
        assert main(["demo", "--max-precision-bits", bits]) == 1
        assert capsys.readouterr() == ("", err)

    def test_demo_certifies_under_the_given_cap(self, capsys, monkeypatch):
        caps = []
        for name in ("certify_single", "certify_main", "certify_multi",
                     "certify_si_integrals", "certify_hypergeometric"):
            def spy(*args, _certify=getattr(cli, name)):
                caps.append(args[-1].max_bits)
                return _certify(*args)
            monkeypatch.setattr(cli, name, spy)
        assert main(["demo", "--max-precision-bits", "128"]) == 0
        capsys.readouterr()
        assert caps == [128] * 12

    def test_help_states_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["certify", "--help"])
        assert "at most 262144" in " ".join(capsys.readouterr().out.split())


HYP_DOC = {
    "version": 1,
    "functions": [{"type": "hypergeometric", "upper": [], "lower": ["-7/2", "1"]},
                  {"type": "hypergeometric", "upper": ["1/3"], "lower": ["1/2", "2/5"]}],
    "points": ["1/3", "2/5"],
}
BIG_B = "-1000000000000000000000000000001/2"


class TestHypergeometricParameters:
    """A hypergeometric function is its parameters: the CLI tasks that sum
    or certify it never build its operator."""

    @pytest.mark.parametrize("command", ["eval", "falsify", "certify"])
    def test_no_operator_is_built(self, tmp_path, capsys, monkeypatch, command):
        argv = [command, "--spec", write_spec(tmp_path, dict(HYP_DOC, task=command)),
                "--digits", "30", "--coeff-bound", "1000"]
        code = main(argv)
        want = capsys.readouterr()

        def refuse(params):
            raise AssertionError("the annihilator was built")

        monkeypatch.setattr(efunction, "hypergeometric_annihilator", refuse)
        assert main(argv) == code == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("command", ["eval", "falsify", "certify"])
    def test_a_31_digit_parameter_ends_at_once(self, tmp_path, capsys, command):
        doc = {
            "version": 1,
            "task": command,
            "functions": [{"type": "hypergeometric", "upper": [], "lower": [BIG_B, "1"]}],
            "points": ["1/3", "1/2"],
        }
        start = time.perf_counter()
        code = main([command, "--spec", write_spec(tmp_path, doc), "--digits", "30"])
        assert time.perf_counter() - start < 1
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


# the scaled function needs 10^9 + 2 seeds, so building it ends in exit 3
FREE_COEFFICIENTS = {
    "version": 1,
    "task": "certify",
    "functions": [{"type": "ode", "operator": "(z)*D^2 + (-1000000000)*D^1 + (-1)",
                   "initial": ["1", "-1/1000000000"], "scale": "2"}],
    "points": ["1/3", "1/2"],
}


class TestBuiltOnlyWhenRead:
    """A document is checked whole, but its functions and points are built
    after the subcommand check, and only for the fields the task reads."""

    def test_subcommand_mismatch_builds_nothing(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["eval", "--spec", write_spec(tmp_path, FREE_COEFFICIENTS)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "does not match subcommand" in capsys.readouterr().err

    def test_singularities_builds_no_point(self, tmp_path, capsys):
        doc = {"version": 1, "task": "singularities",
               "functions": [{"type": "builtin", "name": "J0"}]}
        assert main(["singularities", "--spec", write_spec(tmp_path, doc)]) == 0
        want = capsys.readouterr().out
        rootless = {"poly": [-2, 0, 1], "box": {"re": ["5", "6"], "im": ["0", "0"]}}
        doc = dict(doc, points=[rootless], pairs=[["1", "2"]])
        assert main(["singularities", "--spec", write_spec(tmp_path, doc)]) == 0
        assert capsys.readouterr().out == want

    def test_eval_reports_points_as_written(self, tmp_path, capsys):
        box = {"poly": [-1, 2], "box": {"re": [0, 1], "im": ["0", "0"]}}
        doc = {"version": 1, "task": "eval", "functions": [{"type": "builtin", "name": "exp"}],
               "points": [5, "0.5", box]}
        code = main(["eval", "--spec", write_spec(tmp_path, doc), "--digits", "10",
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["point"] for r in report["results"]] == [
            "5", "0.5", '{"box": {"im": ["0", "0"], "re": ["0", "1"]}, "poly": [-1, 2]}']


RATIONAL = st.builds(
    lambda n, d: str(Fraction(n, d)), st.integers(-9, 9), st.integers(1, 4)
)
NONZERO = RATIONAL.filter(lambda q: q != "0")
BUILTIN = st.builds(
    lambda name, scale: {"type": "builtin", "name": name, **scale},
    st.sampled_from(["exp", "J0", "Si"]),
    st.one_of(st.just({}), NONZERO.map(lambda q: {"scale": q})),
)


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(["certify", "falsify", "eval"]))
    functions = draw(st.lists(BUILTIN, min_size=1, max_size=3))
    if command == "eval" or len(functions) == 1:
        points = draw(st.lists(RATIONAL, min_size=1, max_size=3))
    else:  # one shared point, or one point per function
        count = draw(st.sampled_from([1, len(functions)]))
        points = draw(st.lists(RATIONAL, min_size=count, max_size=count))
    doc = {"version": 1, "task": command, "functions": functions, "points": points}
    # at most one flag out of range, so that valid runs stay common
    bad = draw(st.sampled_from([None, "digits", "coeff", "bits"]))
    digits = draw(st.integers(-5, 0) if bad == "digits" else st.integers(1, 200))
    coeff = draw(st.sampled_from([0, -1] if bad == "coeff" else [10**6, 1000, 1]))
    bits = draw(st.sampled_from([4, 63] if bad == "bits" else [1 << 16, 256, 64]))
    flags = ["--digits", str(digits), "--coeff-bound", str(coeff),
             "--max-precision-bits", str(bits)]
    return command, doc, flags


class TestFuzz:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(("certify", CERTIFY_EXP, ["--max-precision-bits", "4"]))
    @example(("falsify", dict(CERTIFY_EXP, task="falsify"), ["--digits", "-5"]))
    @given(cli_calls())
    def test_exit_codes_and_determinism(self, tmp_path, capsys, call):
        command, doc, flags = call
        argv = [command, "--spec", write_spec(tmp_path, doc), "--format", "json", *flags]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert main(argv) == code
        assert capsys.readouterr().out == out
