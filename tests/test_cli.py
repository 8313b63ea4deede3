"""Front-end contract: flags, formats, exit codes, byte determinism."""
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import hahnkit
import hahnkit.classical as classical_mod
import hahnkit.cli as cli_mod
import hahnkit.hahn_bi as bi_mod
import hahnkit.hahn_uni as uni_mod
import hahnkit.oracle as oracle_mod
from hahnkit.cli import main
from hahnkit.hahn_bi import BiParams, overlap2, p2_eval
from hahnkit.hahn_uni import UniParams, hahn_eval, hahn_norm
from hahnkit.numeric import Rat, format_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_hahn1_exact(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "hahn1", "--alpha", "1/2,0",
            "--N", "3", "--degrees", "2", "--point", "1",
        )
        assert code == 0
        payload = json.loads(out)
        expected = format_rational(hahn_eval(2, 1, UniParams(Rat(1, 2), 0, 3)))
        assert payload["entries"] == [expected]
        assert payload["rows"] == ["1"] and payload["cols"] == ["2"]
        assert payload["mode"] == "exact"

    def test_hahn2_csv(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "hahn2", "--alpha", "0,0,0",
            "--N", "1", "--degrees", "0,1", "--point", "0,0", "--format", "csv",
        )
        assert code == 0
        assert out == ",0.1\n0.0,2\n"

    def test_hahnd_float(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "hahnd", "--alpha", "0,0,0,0",
            "--N", "2", "--degrees", "1,0,0", "--point", "0,1,0", "--mode", "float",
        )
        assert code == 0
        assert json.loads(out)["entries"] == ["-1"]

    def test_bad_arity(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "hahn1", "--alpha", "0,0",
            "--N", "3", "--degrees", "1,2", "--point", "1",
        )
        assert code == 2 and err.startswith("error:")

    def test_decimal_alpha_rejected(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "hahn1", "--alpha", "0.5,0",
            "--N", "3", "--degrees", "1", "--point", "1",
        )
        assert code == 2 and "rational" in err

    def test_off_simplex(self, capsys):
        code, _, err = run(
            capsys, "eval", "--family", "hahn2", "--alpha", "0,0,0",
            "--N", "1", "--degrees", "1,1", "--point", "0,0",
        )
        assert code == 2 and "simplex" in err


class TestOverlap:
    def test_trivial_level_csv(self, capsys):
        code, out, _ = run(capsys, "overlap", "--N", "0", "--alpha", "0,0,0", "--format", "csv")
        assert code == 0
        assert out == ",0.0\n0.0,1\n"

    def test_float_entries_match_library(self, capsys):
        code, out, _ = run(capsys, "overlap", "--alpha", "1/2,-1/2,3", "--N", "2")
        assert code == 0
        payload = json.loads(out)
        matrix = overlap2(BiParams(Rat(1, 2), Rat(-1, 2), 3, 2), mode="float")
        expected = [f"{v:.17g}" for row in matrix.entries for v in row]
        assert payload["entries"] == expected
        assert payload["rows"] == ["0.0", "1.0", "2.0", "0.1", "1.1", "0.2"]

    def test_exact_mode_squares(self, capsys):
        code, out, _ = run(capsys, "overlap", "--alpha", "0,0,0", "--N", "1", "--mode", "exact")
        assert code == 0
        payload = json.loads(out)
        matrix = overlap2(BiParams(0, 0, 0, 1), mode="squared")
        assert payload["entries"] == [
            format_rational(v) for row in matrix.entries for v in row
        ]
        assert payload["mode"] == "exact"

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_oversized_level_is_refused(self, capsys, mode):
        level = str(bi_mod.MAX_OVERLAP_LEVEL + 1)
        code, out, err = run(capsys, "overlap", "--alpha", "1/2,-1/2,3", "--N", level, "--mode", mode)
        assert code == 2 and out == ""
        assert f"the cap is {bi_mod.MAX_OVERLAP_LEVEL}" in err


class TestChain:
    def test_product_matches_overlap(self, capsys):
        code, out, _ = run(capsys, "chain", "--alpha", "1/2,-1/2,3", "--N", "3")
        assert code == 0
        payload = json.loads(out)
        matrix = overlap2(BiParams(Rat(1, 2), Rat(-1, 2), 3, 3), mode="float")
        flat = [v for row in matrix.entries for v in row]
        got = [float(v) for v in payload["entries"]]
        assert max(abs(a - b) for a, b in zip(got, flat)) < 1e-10

    def test_exact_mode_rejected(self, capsys):
        # chain has no --mode: its output is floating point by nature
        code, _, err = run(capsys, "chain", "--alpha", "0,0,0", "--N", "2", "--mode", "exact")
        assert code == 2 and "unrecognized arguments: --mode exact" in err

    def test_oversized_level_is_refused(self, capsys):
        level = str(bi_mod.MAX_OVERLAP_LEVEL + 1)
        code, out, err = run(capsys, "chain", "--alpha", "1/2,-1/2,3", "--N", level)
        assert code == 2 and out == ""
        assert f"the cap is {bi_mod.MAX_OVERLAP_LEVEL}" in err


class TestGenfun:
    def test_univariate(self, capsys):
        code, out, _ = run(capsys, "genfun", "--alpha", "1/2,7/3", "--N", "3")
        assert code == 0
        payload = json.loads(out)
        assert [c["name"] for c in payload["checks"]] == ["genfun", "dual-genfun"]
        assert payload["status"] == "pass"

    def test_bivariate(self, capsys):
        code, out, _ = run(capsys, "genfun", "--alpha", "0,1/2,3", "--N", "3")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    @pytest.mark.parametrize("alpha, N", [("1/2,0,3,7/3", "3"), ("1/3,1/2,2,0,-1/2", "4")])
    def test_d_variable_runs_the_mv_check(self, capsys, alpha, N):
        code, out, _ = run(capsys, "genfun", f"--alpha={alpha}", "--N", N)
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "mv" and payload["status"] == "pass"
        assert payload["checks"] == [{"name": "genfun", "status": "pass", "max_residual": "0"}]

    def test_oversized_simplex_is_refused(self, capsys):
        # d = 6, N = 7: 1716 points, over MAX_GRAM_POINTS
        code, out, err = run(capsys, "genfun", "--alpha", "0,0,0,0,0,0,0", "--N", "7")
        assert code == 2 and out == "" and "refused" in err

    def test_oversized_uni_level_is_refused(self, capsys):
        level = str(uni_mod.MAX_UNI_LEVEL + 1)
        code, out, err = run(capsys, "genfun", "--alpha", "1/2,7/3", "--N", level)
        assert code == 2 and out == "" and "refused" in err


class TestVerify:
    def test_uni_spec_example(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "uni", "--alpha", "0,0", "--N", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["params"] == {"alpha": "0", "beta": "0", "N": 2}
        # the Gram diagonal this report certifies
        u = UniParams(0, 0, 2)
        assert [hahn_norm(n, u) for n in range(3)] == [1, Rat(8, 3), 32]

    def test_single_check(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "bi", "--check", "diff-L1",
            "--alpha", "0,0,0", "--N", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert [c["name"] for c in payload["checks"]] == ["diff-L1"]

    def test_oversized_bi_level_is_refused(self, capsys):
        # Refused before any value is made, with the usage-error exit code.
        code, out, err = run(
            capsys, "verify", "--suite", "bi", "--alpha", "1/2,-1/2,3", "--N", str(bi_mod.MAX_BI_LEVEL + 1),
        )
        assert code == 2 and out == ""
        assert f"the cap is {bi_mod.MAX_BI_LEVEL}" in err
        code, _, err = run(
            capsys, "verify", "--suite", "bi", "--check", "diff-L1",
            "--alpha", "0,0,0", "--N", str(bi_mod.MAX_BI_LEVEL + 1),
        )
        assert code == 2 and "refused" in err

    def test_oversized_oracle_level_is_refused(self, capsys):
        # Refused before any matrix is built, with the usage-error exit code.
        code, out, err = run(
            capsys, "verify", "--suite", "oracle", "--alpha", "1/2,-1/2,3",
            "--N", str(oracle_mod.MAX_ORACLE_LEVEL + 1),
        )
        assert code == 2 and out == ""
        assert f"the cap is {oracle_mod.MAX_ORACLE_LEVEL}" in err
        code, _, err = run(
            capsys, "verify", "--suite", "oracle", "--check", "commutation",
            "--alpha", "0,0,0", "--N", str(oracle_mod.MAX_ORACLE_LEVEL + 1),
        )
        assert code == 2 and "refused" in err

    def test_mv_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "mv", "--alpha", "1/2,0,3", "--N", "3")
        assert code == 0
        assert json.loads(out)["suite"] == "mv"

    def test_oracle_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--alpha", "0,0,0", "--N", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,check,status,max_residual"
        assert all(line.split(",")[2] == "pass" for line in lines[1:])

    def test_classical_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "classical", "--alpha", "1/2,7/3", "--N", "5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["checks"]) == 7

    def test_classical_single_relation(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "classical", "--check", "laguerre-addition",
            "--alpha", "1/2,7/3", "--N", "4",
        )
        assert code == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == ["laguerre-addition"]

    def test_oversized_classical_degree_is_refused(self, capsys):
        degree = str(classical_mod.MAX_CLASSICAL_DEGREE + 1)
        code, out, err = run(capsys, "verify", "--suite", "classical", "--alpha", "1/2,7/3", "--N", degree)
        assert code == 2 and out == ""
        assert f"the cap is {classical_mod.MAX_CLASSICAL_DEGREE}" in err

    def test_all_battery(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert [r["suite"] for r in payload["suites"]] == [
            "classical", "uni", "uni", "uni", "bi", "bi", "mv", "mv", "oracle",
        ]

    def test_all_battery_calls_each_check_through_module_globals(self, capsys, monkeypatch):
        # a wrapper set on the cli module sees every check of the battery
        calls = {}
        for attr in ("verify_classical", "verify_uni", "verify_bi", "verify_mv", "verify_oracle"):
            def counted(*args, _attr=attr, _run=getattr(cli_mod, attr)):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _run(*args)

            monkeypatch.setattr(cli_mod, attr, counted)
        code, _, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert calls == {
            "verify_classical": len(cli_mod.RELATION_NAMES),
            "verify_uni": 3 * len(cli_mod.UNI_CHECK_NAMES),
            "verify_bi": 2 * len(bi_mod.BI_CHECK_NAMES),
            "verify_mv": 2,
            "verify_oracle": len(oracle_mod.ORACLE_CHECK_NAMES),
        }

    def test_negative_first_alpha_needs_the_equals_form(self, capsys):
        # argparse reads a separate value that starts with "-" as an option
        code, out, err = run(capsys, "verify", "--suite", "oracle", "--alpha", "-1/2,0,3", "--N", "2")
        assert code == 2 and out == ""
        assert "argument --alpha: expected one argument" in err
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "--alpha=-1/2,0,3", "--N", "2")
        assert code == 0
        assert json.loads(out)["params"]["alpha1"] == "-1/2"

    def test_alpha_help_names_the_equals_form(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert "--alpha=-1/2,0,3" in out

    def test_all_rejects_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "all", "--alpha", "0,0")
        assert code == 2 and "battery" in err

    def test_unknown_check(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "uni", "--check", "spectral-flow",
            "--alpha", "0,0", "--N", "2",
        )
        assert code == 2 and "unknown check" in err

    def test_fault_injection(self, capsys, monkeypatch):
        orig = oracle_mod._shift_coeffs

        def tampered(label, i, k, a1, a2, a3, N):
            out = orig(label, i, k, a1, a2, a3, N)
            if label == "L2" and (i, k) == (1, 1):
                out = dict(out)
                out[(1, 0)] = out[(1, 0)] * 2
            return out

        monkeypatch.setattr(oracle_mod, "_shift_coeffs", tampered)
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--check", "joint-eigenvectors",
            "--alpha", "0,0,0", "--N", "3",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert "counterexample" in payload["checks"][0]

    def test_unevaluable_coefficient_is_a_reported_failure(self, capsys, monkeypatch):
        """A coefficient that cannot be evaluated (here a negative radicand)
        fails its rows with residual "inf"; the other rows still run."""
        honest = bi_mod._coef_alpha

        def tampered(m, n, N, a1, a2, a3, q):
            ((numerators, denominators),), bracket = honest(m, n, N, a1, a2, a3, q)
            return (((-1,) + numerators, denominators),), bracket

        monkeypatch.setattr(bi_mod, "_coef_alpha", tampered)
        code, out, _ = run(capsys, "verify", "--suite", "bi", "--alpha", "1/2,-1/2,3", "--N", "3")
        assert code == 1
        checks = json.loads(out)["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        assert [c["name"] for c in failed] == [
            f"normalized-structure-float[{way}-{var}]" for var in ("i", "k") for way in ("forward", "backward")
        ]
        for c in failed:
            assert c["max_residual"] == "inf"
            assert c["counterexample"] == {
                "indices": {}, "lhs": "negative squared coefficient; transcription error", "rhs": "",
            }
        assert len(checks) > len(failed)


class TestPlumbing:
    def test_missing_level(self, capsys):
        code, _, err = run(capsys, "overlap", "--alpha", "0,0,0")
        assert code == 2 and "--N" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--family", "hahn1", "--alpha", "0,0", "--N", "2", "--degrees", "1", "--point", "0", "--tol", "1"],
            ["genfun", "--alpha", "0,0", "--N", "2", "--tol", "1"],
            ["verify", "--suite", "uni", "--alpha", "0,0", "--N", "2", "--mode", "exact"],
            ["genfun", "--alpha", "0,0", "--N", "2", "--mode", "exact"],
            ["verify", "--suite", "uni", "--alpha", "0,0", "--N", "2", "--tol", "1"],
            ["chain", "--alpha", "0,0,0", "--N", "2", "--mode", "float"],
        ],
        ids=["eval-tol", "genfun-tol", "verify-mode", "genfun-mode", "verify-tol", "chain-mode"],
    )
    def test_flags_only_where_read(self, capsys, argv):
        # --mode belongs to eval and overlap; every check is exact, so no
        # command takes a tolerance
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_oversized_uni_level_is_refused(self, capsys):
        level = str(uni_mod.MAX_UNI_LEVEL + 1)
        code, out, err = run(capsys, "verify", "--suite", "uni", "--alpha", "1/2,7/3", "--N", level)
        assert code == 2 and out == "" and "refused" in err

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nope", "--alpha", "0,0", "--N", "1"]) == 2
        capsys.readouterr()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--suite", "uni", "--alpha", "0,0", "--N", "2",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["status"] == "pass"

    def test_byte_determinism(self, capsys):
        argv = ["overlap", "--alpha", "1/2,-1/2,3", "--N", "4", "--format", "csv"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hahnkit", "verify", "--suite", "uni",
             "--alpha", "0,0", "--N", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "pass"


class TestInfo:
    def test_reports_version_python_and_backend(self, capsys):
        code, out, _ = run(capsys, "info")
        assert code == 0 and out.endswith("\n")
        backend = type(Rat(0))
        assert json.loads(out) == {
            "hahnkit": hahnkit.__version__,
            "python": platform.python_version(),
            "backend": f"{backend.__module__}.{backend.__qualname__}",
        }

    def test_takes_no_options(self, capsys):
        code, out, _ = run(capsys, "info", "--tol", "1")
        assert code == 2 and out == ""


# Run in a fresh interpreter: the modules a bare interpreter has at start-up
# (site and whatever it loads on this machine) are the baseline, so only what
# `import hahnkit, hahnkit.cli` adds is judged.
IMPORT_GUARD = """
import contextlib, io, json, sys
before = set(sys.modules)
import hahnkit, hahnkit.cli
added = sorted(set(sys.modules) - before)
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = hahnkit.cli.main(["verify", "--suite", "uni", "--alpha", "0,0", "--N", "6"])
print(json.dumps({"added": added, "code": code, "text": buffer.getvalue(),
                  "argparse_after": "argparse" in sys.modules}))
"""


class TestImportCost:
    def test_import_loads_no_parser_and_no_dataclasses(self):
        src = pathlib.Path(hahnkit.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert "hahnkit.cli" in result["added"]
        assert not {"dataclasses", "inspect", "argparse"} & set(result["added"])
        # a parsing run loads argparse, and prints what the battery holds
        assert result["argparse_after"] and result["code"] == 0
        battery = json.loads((pathlib.Path(__file__).parent / "data" / "verify_all.json").read_text())
        suite = next(s for s in battery["suites"] if s["suite"] == "uni" and s["params"]["N"] == 6
                     and s["params"]["alpha"] == "0")
        assert result["text"] == json.dumps(suite, indent=2) + "\n"
