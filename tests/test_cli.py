"""Command-line behaviour: tables, suite exit codes, exports, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

import idemarith
from idemarith import arith, cli
from idemarith.algebra import DenseMatrix
from idemarith.cli import _parse_range, main
from idemarith.ramanujan_ops import OperatorFamily
from oracle_forms import element_from_json, shift_operators


@pytest.fixture()
def runner():
    return CliRunner()


class TestTable:
    def test_mobius_csv(self, runner):
        result = runner.invoke(main, ["table", "mobius", "--range", "1..6"])
        assert result.exit_code == 0
        assert result.output == "n,value\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n"

    def test_ramanujan_parametrized(self, runner):
        result = runner.invoke(main, ["table", "ramanujan:6", "--range", "1..6"])
        values = [line.split(",")[1] for line in result.output.splitlines()[1:]]
        assert values == ["1", "-1", "-2", "-1", "1", "2"]

    def test_nu_negative_power_renders_fractions(self, runner):
        result = runner.invoke(main, ["table", "nu:-1", "--range", "1..4"])
        values = [line.split(",")[1] for line in result.output.splitlines()[1:]]
        assert values == ["1", "1/2", "1/3", "1/4"]

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["table", "totient", "--range", "1..4", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["values"] == {"1": "1", "2": "1", "3": "2", "4": "2"}

    def test_deterministic_output(self, runner):
        args = ["table", "jordan:2", "--range", "1..30", "--format", "json"]
        first = runner.invoke(main, args).output
        second = runner.invoke(main, args).output
        assert first == second

    def test_out_writes_file(self, runner, tmp_path):
        path = tmp_path / "table.csv"
        result = runner.invoke(
            main, ["table", "tau", "--range", "1..3", "--out", str(path)]
        )
        assert result.exit_code == 0
        assert path.read_text() == "n,value\n1,1\n2,2\n3,2\n"

    def test_unknown_function_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "sigma"])
        assert result.exit_code == 2

    def test_bad_range_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "mobius", "--range", "5..2"])
        assert result.exit_code == 2

    def test_range_above_factor_limit_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["table", "mobius", "--range", "999999999999..1000000000001"])
        assert result.exit_code == 2
        assert "ends above 1000000000000" in result.output
        result = runner.invoke(
            main, ["table", "mobius", "--range", "999999999999..1000000000000"])
        assert result.exit_code == 0
        assert result.output == "n,value\n999999999999,0\n1000000000000,0\n"

    @pytest.mark.parametrize("function", ["jordan:100000", "nu:-100000", "lcm-count:100000"])
    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_value_with_too_many_digits_is_usage_error(self, runner, function, format_):
        # 2^100000 - 1, 1/2^100000 and 2^100000 - 1 at n = 2: beyond the int-to-text limit
        result = runner.invoke(main, ["table", function, "--range", "1..2", "--format", format_])
        assert result.exit_code == 2
        assert f"{function} at n=2 has too many digits to print" in result.output

    @pytest.mark.parametrize("function", ["jordan:1000000000000", "nu:1000000000000",
                                          "nu:-1000000000000", "lcm-count:1000000000000",
                                          f"nu:{10**400}"])  # too large for a float
    def test_too_many_digits_refused_before_any_value(self, runner, monkeypatch, function):
        def refuse(*args):
            raise AssertionError("a value was computed")

        for name in ("jordan_totient", "nu", "lcm_tuple_count"):
            monkeypatch.setattr(arith, name, refuse)
        result = runner.invoke(main, ["table", function, "--range", "1..2"])
        assert result.exit_code == 2
        assert f"{function} at n=2 has too many digits to print" in result.output

    def test_digit_bound_is_exact_for_powers_of_ten(self, runner):
        # 10^K has K + 1 digits, within the limit exactly while K < limit
        limit = sys.get_int_max_str_digits()
        result = runner.invoke(main, ["table", f"nu:{limit - 1}", "--range", "10..10"])
        assert result.exit_code == 0
        assert result.output == f"n,value\n10,1{'0' * (limit - 1)}\n"
        result = runner.invoke(main, ["table", f"nu:{limit}", "--range", "10..10"])
        assert result.exit_code == 2
        assert f"nu:{limit} at n=10 has too many digits to print" in result.output

    def test_ramanujan_level_above_factor_limit_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "ramanujan:10000000000000", "--range", "1..2"])
        assert result.exit_code == 2
        assert "above 1000000000000" in result.output
        result = runner.invoke(main, ["table", "ramanujan:1000000000000", "--range", "1..2"])
        assert result.output == "n,value\n1,0\n2,0\n"

    def test_range_of_more_than_a_million_values_is_usage_error(self, runner):
        # exactly 10^6 values pass the range check (not tabulated here)
        assert _parse_range("1..1000000") == (1, 10**6)
        assert _parse_range("999999000001..1000000000000") == (999999000001, 10**12)
        for text in ("1..1000001", "1..1000000000000"):
            result = runner.invoke(main, ["table", "mobius", "--range", text])
            assert result.exit_code == 2
            assert "spans more than 1000000 values" in result.output

    @pytest.mark.parametrize("function", ["ramanujan:0", "jordan:0"])
    def test_parameter_below_one_is_usage_error(self, runner, function):
        result = runner.invoke(main, ["table", function])
        assert result.exit_code == 2
        assert "must be >= 1" in result.output


class TestCheck:
    def test_default_report_matches_golden(self, runner):
        # the committed `check all` report at the defaults; only the three
        # rows whose oracle sums roots of unity in floats may move, by 1e-12
        float_oracle_rows = {
            "congruence-exact vs dft-float provider",
            "scalar Ramanujan sums vs root-of-unity oracle",
            "operator Ramanujan identities (three constructions, partitions)",
        }
        result = runner.invoke(main, ["check", "all"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        golden = json.loads(pathlib.Path(__file__).with_name("check_all_default.json").read_text())
        for row, expected in zip(report["checks"], golden["checks"]):
            if row["identity"] in float_oracle_rows:
                assert abs(row["max_residual"] - expected["max_residual"]) <= 1e-12
                row["max_residual"] = expected["max_residual"]
        assert report == golden

    def test_product_law_passes(self, runner):
        result = runner.invoke(
            main, ["check", "product-law", "--n-max", "8", "--dim", "60"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["pass"] is True
        assert report["suite"] == "product-law"
        assert all(c["pass"] for c in report["checks"])

    def test_axioms_zero_tolerance_fails(self, runner):
        # the dft-float cross-check carries ~1e-16 noise, so tol 0 must fail
        result = runner.invoke(
            main,
            ["check", "axioms", "--n-max", "6", "--dim", "24", "--tolerance", "0"],
        )
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["pass"] is False
        (failed,) = [c for c in report["checks"] if not c["pass"]]
        assert failed["identity"] == "congruence-exact vs dft-float provider"
        assert set(failed["counterexample"]) == {"n"}

    def test_convolution_suite(self, runner):
        result = runner.invoke(
            main, ["check", "convolution", "--n-max", "8", "--dim", "60"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["suite"] == "convolution"
        assert report["summary"] == {"total": 4, "passed": 4, "failed": 0}

    def test_check_without_cases_fails(self, runner):
        # n-max 1 leaves the determinant and trace checks nothing to evaluate
        result = runner.invoke(main, ["check", "analytic", "--n-max", "1"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        errors = [c["error"] for c in report["checks"] if not c["pass"]]
        assert errors == ["no case evaluated"] * 2

    def test_errata_reported_but_never_fail(self, runner):
        result = runner.invoke(
            main, ["check", "analytic", "--n-max", "12", "--dim", "64"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["errata"]
        assert all("id" in e for e in report["errata"])

    def test_unknown_suite_is_usage_error(self, runner):
        result = runner.invoke(main, ["check", "nonsense"])
        assert result.exit_code == 2

    def test_negative_tolerance_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["check", "ramanujan", "--tolerance", "-1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, runner, n_max):
        result = runner.invoke(main, ["check", "axioms", "--n-max", n_max])
        assert result.exit_code == 2
        assert "--n-max" in result.output

    def test_nan_tolerance_is_usage_error(self, runner):
        result = runner.invoke(main, ["check", "all", "--tolerance", "nan"])
        assert result.exit_code == 2
        assert "tolerance" in result.output

    @pytest.mark.parametrize("tolerance", ["inf", "-inf"])
    def test_infinite_tolerance_is_usage_error(self, runner, tolerance):
        # an infinite tolerance would pass every row, a broken one too
        result = runner.invoke(main, ["check", "axioms", "--tolerance", tolerance])
        assert result.exit_code == 2
        assert "tolerance must be a finite number >= 0" in result.output

    @pytest.mark.parametrize("dim,accepted", [(0, False), (1, True), (10**6, True),
                                              (10**6 + 1, False)])
    def test_dim_above_a_million_is_usage_error(self, runner, monkeypatch, dim, accepted):
        runs = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda suite, **kw: runs.append(kw) or {"pass": True})
        result = runner.invoke(main, ["check", "all", "--dim", str(dim)])
        if accepted:
            assert result.exit_code == 0 and runs[0]["dim"] == dim
        else:
            assert result.exit_code == 2 and not runs
            assert "dim must be between 1 and 1000000" in result.output

    def test_unwritable_out_fails_before_any_row(self, runner, monkeypatch, tmp_path):
        runs = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda suite, **kw: runs.append(kw) or {"pass": True})
        path = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, ["check", "all", "--out", str(path)])
        assert result.exit_code == 2 and not runs
        assert f"cannot write --out {path}" in result.output

    def test_report_to_file(self, runner, tmp_path):
        path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["check", "transforms", "--n-max", "8", "--dim", "48", "--out", str(path)],
        )
        assert result.exit_code == 0
        assert json.loads(path.read_text())["pass"] is True


def _exported(spec: str, dim: int, offset: int):
    """The operator `export SPEC` prints, built through the library; theta
    and IU* come from the dense shift-matrix oracle."""
    family = OperatorFamily(dim, offset)
    ops = shift_operators(OperatorFamily(dim, 1))
    return {"P:2:6": family.projection(2, 6), "C:1:12": family.c_operator(1, 12),
            "T:3:1:12": family.t_operator(3, 1, 12), "S:7": family.s_operator(7),
            "theta": ops["theta"], "IU*": ops["integration"] * ops["U_star"]}[spec]


class TestExport:
    def test_projection(self, runner):
        result = runner.invoke(main, ["export", "P:1:2", "--dim", "4"])
        payload = json.loads(result.output)
        assert payload["kind"] == "diag"
        assert payload["n"] == 4
        assert payload["offset"] == 0
        assert payload["entries"] == [[0, 0], [1, 0], [0, 0], [1, 0]]

    def test_t_selector(self, runner):
        result = runner.invoke(main, ["export", "T:3:0:6", "--dim", "6"])
        entries = json.loads(result.output)["entries"]
        assert [e[0] for e in entries] == [0, 0, 1, 0, 1, 0]

    def test_c_operator_offset_one(self, runner):
        result = runner.invoke(
            main, ["export", "C:0:4", "--dim", "4", "--offset", "1"]
        )
        payload = json.loads(result.output)
        assert payload["offset"] == 1
        assert [e[0] for e in payload["entries"]] == [0, -2, 0, 2]

    def test_s_operator_roots_of_unity(self, runner):
        result = runner.invoke(main, ["export", "S:4", "--dim", "4"])
        entries = json.loads(result.output)["entries"]
        assert entries[0] == [1, 0]
        assert abs(entries[1][1] - 1) < 1e-12  # eps_4^1 = i

    def test_dense_export(self, runner):
        result = runner.invoke(main, ["export", "theta", "--dim", "3"])
        payload = json.loads(result.output)
        assert payload["kind"] == "dense"
        assert payload["n"] == 3
        # row-major flat entries: theta[1][1] = 2 sits at index 4
        assert payload["entries"][4] == [2, 0]

    def test_iu_star_export(self, runner):
        result = runner.invoke(main, ["export", "IU*", "--dim", "4"])
        payload = json.loads(result.output)
        assert payload["kind"] == "dense"
        assert abs(payload["entries"][5][0] - 0.5) < 1e-12  # diagonal entry at m = 2

    @pytest.mark.parametrize("spec", ["P:2:6", "C:1:12", "T:3:1:12", "S:7", "theta", "IU*"])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_every_kind_round_trips(self, runner, spec, offset):
        # theta and IU* also at the truncation edges: the backward shift kills e_1,
        # so IU*'s diagonal is [0] at dim 1 and [0, 1/2] at dim 2
        for dim in (1, 2, 24) if spec in ("theta", "IU*") else (24,):
            result = runner.invoke(main, ["export", spec, "--dim", str(dim),
                                          "--offset", str(offset)])
            assert result.exit_code == 0
            back, want = element_from_json(json.loads(result.output)), _exported(spec, dim, offset)
            if isinstance(want, DenseMatrix):
                assert np.array_equal(back.array, want.array)
            else:
                assert back.offset == want.offset
                assert np.array_equal(np.array(back.entries, dtype=complex),
                                      np.array(want.entries, dtype=complex))

    @pytest.mark.parametrize("args,sha256", [
        (["P:-3:8", "--dim", "360", "--offset", "1"],
         "6c7b272cf167f30b857ad9e0ed9204e5a6fa6ad0372f54425aca9401227c3721"),
        (["C:5:12", "--dim", "360", "--offset", "1"],
         "6bd83b3952100fa8efcb64e362919f82d646fbaed9c5ec0f28f4fbcffc43d4c6"),
        (["T:3:1:12", "--dim", "360", "--offset", "1"],
         "6bcf9fd1f72fc11247537ac5cde6218d5614ded67137efa9d0c22dfc56fd7d57"),
        (["theta", "--dim", "24"],
         "240509d92916220622660a829342a76e829c0601905b3d0950a0ad54619383b4"),
        (["IU*", "--dim", "24"],
         "651ba9c8cbe4d2de7c9f96084d23e9af68798d9755997d74c1fa092b17503e8d"),
        # 2520 = 68 * 37 + 4: the window ends inside a period
        (["S:37", "--dim", "2520", "--offset", "1"],
         "b3e87002c59bace84cba3e937a5fd269d6ea09546ebd2beefb48e6e7cbe46807"),
        (["P:3:37", "--dim", "2520"],
         "ec75fa588b2ed943da47d7851dea31e4bae1c4118227b239e571648c81ee6bbe"),
        (["C:5:60", "--dim", "2520", "--offset", "1"],
         "57b4bc231f1bf736943bbaffb27430a83634eef43edfea951aee6dcd6101a42b"),
        (["S:1", "--dim", "2520"],  # a period of one entry
         "ec9da61f256d044557be79322f4fd6940f24dee6127657c50403c6cfb04a1399"),
        (["P:0:2520", "--dim", "2520"],  # one period fills the window
         "263a091a762977f3bc388328e186da678aaa5aa07e796c09375bba022ade8cd8"),
        # the largest dense exports, a million entries each
        (["theta", "--dim", "1000"],
         "0239ac1116a6a0386b4718185cb1c2c68b3f3ac997665f1b160d5a31af4ac3b7"),
        (["IU*", "--dim", "1000"],
         "310344810fc5b6e9ef2c9229ca0dd7395e246330795176579e3c6d92e9b16860"),
    ])
    def test_export_text_is_pinned(self, runner, args, sha256):
        result = runner.invoke(main, ["export", *args])
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("n", [1, 7, 37, 60])
    def test_s_export_repeats_one_period(self, runner, n):
        result = runner.invoke(main, ["export", f"S:{n}", "--dim", "2520", "--offset", "1"])
        assert len({tuple(pair) for pair in json.loads(result.output)["entries"]}) <= n

    @pytest.mark.parametrize("spec,edge", [("P:1:2", 10**6), ("theta", 1000), ("IU*", 1000)])
    def test_more_than_a_million_entries_is_usage_error(self, runner, spec, edge):
        # a diagonal has dim entries, a dense matrix dim^2
        result = runner.invoke(main, ["export", spec, "--dim", str(edge)])
        assert result.exit_code == 0
        assert f'"n": {edge}' in result.output[-40:]  # the tail after the entries
        result = runner.invoke(main, ["export", spec, "--dim", str(edge + 1)])
        assert result.exit_code == 2
        assert "more than 1000000" in result.output

    def test_stdout_is_not_kept_after_export(self):
        # an in-process caller's output buffer must die with its last reference
        buf = io.StringIO()
        ref = weakref.ref(buf)
        with contextlib.redirect_stdout(buf):
            try:
                cli.main.main(["export", "S:7", "--dim", "60"], prog_name="idemarith")
            except SystemExit as exc:
                assert not exc.code
        assert buf.getvalue().startswith('{"entries": ')
        del buf
        gc.collect()
        assert ref() is None

    def test_export_determinism(self, runner):
        args = ["export", "C:1:12", "--dim", "24"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_r_not_dividing_n_is_usage_error(self, runner):
        result = runner.invoke(main, ["export", "T:4:0:6", "--dim", "12"])
        assert result.exit_code == 2

    def test_dim_smaller_than_level_is_usage_error(self, runner):
        result = runner.invoke(main, ["export", "P:0:8", "--dim", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", ["P:0:0", "C:0:-2", "S:0", "T:1:0:0"])
    def test_level_below_one_is_usage_error(self, runner, spec):
        result = runner.invoke(main, ["export", spec, "--dim", "12"])
        assert result.exit_code == 2
        assert "must be >= 1" in result.output

    @pytest.mark.parametrize("spec", ["T:0:0:6", "T:-2:0:6"])
    def test_r_below_one_is_usage_error(self, runner, spec):
        result = runner.invoke(main, ["export", spec, "--dim", "12"])
        assert result.exit_code == 2
        assert "positive divisor" in result.output

    def test_unknown_spec_is_usage_error(self, runner):
        result = runner.invoke(main, ["export", "Q:1:2", "--dim", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["6", "abc"])
    def test_dim_is_set_only_by_the_option(self, runner, value):
        result = runner.invoke(main, ["export", "S:2"], env={"IDEMARITH_DIM": value})
        assert result.exit_code == 0
        assert json.loads(result.output)["n"] == 2520


@pytest.mark.parametrize("args,target", [
    (["export", "P:0:3", "--dim", "6"], "missing/x.json"),
    (["table", "mobius"], "."),
    (["check", "product-law", "--n-max", "4"], "missing/r.json"),
], ids=["export", "table", "check"])
def test_unwritable_out_is_usage_error(tmp_path, args, target):
    # a missing parent directory or a directory as --out: exit 2, one line, no traceback
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(idemarith.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "idemarith.cli", *args,
                             "--out", str(tmp_path / target)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"Error: cannot write --out {tmp_path / target}" in result.stderr
