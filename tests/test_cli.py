"""Command-line behaviour: tables, suite exit codes, exports, determinism, help."""

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idemarith
from idemarith import arith, cli, ramanujan_ops
from idemarith.algebra import DenseMatrix
from idemarith.cli import _parse_range, main
from idemarith.ramanujan_ops import OperatorFamily
from oracle_forms import element_from_json, shift_operators


def invoke(args: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process on ARGS: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


class TestTable:
    def test_mobius_csv(self):
        code, out, err = invoke(["table", "mobius", "--range", "1..6"])
        assert code == 0
        assert out == "n,value\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n"

    def test_ramanujan_parametrized(self):
        code, out, err = invoke(["table", "ramanujan:6", "--range", "1..6"])
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values == ["1", "-1", "-2", "-1", "1", "2"]

    def test_nu_negative_power_renders_fractions(self):
        code, out, err = invoke(["table", "nu:-1", "--range", "1..4"])
        values = [line.split(",")[1] for line in out.splitlines()[1:]]
        assert values == ["1", "1/2", "1/3", "1/4"]

    def test_json_format(self):
        code, out, err = invoke(["table", "totient", "--range", "1..4", "--format", "json"])
        payload = json.loads(out)
        assert payload["values"] == {"1": "1", "2": "1", "3": "2", "4": "2"}

    def test_deterministic_output(self):
        args = ["table", "jordan:2", "--range", "1..30", "--format", "json"]
        first = invoke(args)[1]
        second = invoke(args)[1]
        assert first == second

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "table.csv"
        code, out, err = invoke(["table", "tau", "--range", "1..3", "--out", str(path)])
        assert code == 0
        assert path.read_text() == "n,value\n1,1\n2,2\n3,2\n"

    @pytest.mark.parametrize("k,range_", [
        (1, "1..30"), (1000003, "1..50"),  # a period far longer than the range
        (7, "20..60"), (12, "100..150"),  # ranges starting past k
        (5, "1..23"), (60, "3..1000"), (1, "999999999990..1000000000000"),  # several periods
    ])
    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_ramanujan_table_is_one_period_repeated(self, monkeypatch, k, range_, format_):
        lo, hi = map(int, range_.split(".."))
        want = {n: arith.ramanujan_sum(k, n) for n in range(lo, hi + 1)}
        calls = []
        monkeypatch.setattr(arith, "ramanujan_sum", lambda k, n: calls.append(n) or want[n])
        code, out, err = invoke(["table", f"ramanujan:{k}", "--range", range_, "--format", format_])
        assert code == 0
        if format_ == "csv":
            assert out == "n,value\n" + "".join(f"{n},{v}\n" for n, v in want.items())
        else:
            assert json.loads(out)["values"] == {str(n): str(v) for n, v in want.items()}
        # c_k on the first min(k, hi - lo + 1) values only: never a list as long as k
        assert calls == list(range(lo, lo + min(k, hi - lo + 1)))

    def test_csv_is_written_in_chunks_of_rows(self, monkeypatch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(cli, "CSV_ROWS", 7)
        with contextlib.redirect_stdout(Recorder()) as buf:
            main(["table", "tau", "--range", "3..24"])
        assert buf.getvalue() == "n,value\n" + "".join(
            f"{n},{arith.tau(n)}\n" for n in range(3, 25))
        assert [text.count("\n") for text in writes] == [1, 7, 7, 7, 1]

    @pytest.mark.parametrize("function, value", [
        ("mobius", arith.mobius), ("totient", arith.totient), ("tau", arith.tau),
        ("omega", arith.omega), ("jordan:3", lambda n: arith.jordan_totient(3, n)),
        ("ramanujan:7", lambda n: arith.ramanujan_sum(7, n)), ("nu:-2", lambda n: arith.nu(-2, n)),
        ("lcm-count:3", lambda n: arith.lcm_tuple_count(3, n)),
    ])
    @pytest.mark.parametrize("lo, hi", [(95, 1005), (8, 12), (1, 1),
                                        (999999999990, 1000000000000)])
    def test_json_table_is_the_sorted_dump(self, function, value, lo, hi):
        # streamed in "10" before "2" order; the ranges cross digit lengths
        code, out, err = invoke(["table", function, "--range", f"{lo}..{hi}", "--format", "json"])
        assert code == 0
        assert out == json.dumps({"function": function, "range": [lo, hi], "values": {
            str(n): str(value(n)) for n in range(lo, hi + 1)}}, indent=2, sort_keys=True) + "\n"

    def test_json_is_written_in_chunks_of_rows(self, monkeypatch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(cli, "CSV_ROWS", 7)
        with contextlib.redirect_stdout(Recorder()) as buf:
            main(["table", "tau", "--range", "3..24", "--format", "json"])
        assert json.loads(buf.getvalue())["values"] == {str(n): str(arith.tau(n))
                                                        for n in range(3, 25)}
        # the opening text, 22 rows 7 at a time, and the closing text
        assert [len(re.findall(r'"\d+": ', text)) for text in writes] == [0, 7, 7, 7, 1, 0]

    def test_unknown_function_is_usage_error(self):
        code, out, err = invoke(["table", "sigma"])
        assert code == 2

    def test_bad_range_is_usage_error(self):
        code, out, err = invoke(["table", "mobius", "--range", "5..2"])
        assert code == 2

    def test_range_above_factor_limit_is_usage_error(self):
        code, out, err = invoke(["table", "mobius", "--range", "999999999999..1000000000001"])
        assert code == 2
        assert "ends above 1000000000000" in err
        code, out, err = invoke(["table", "mobius", "--range", "999999999999..1000000000000"])
        assert code == 0
        assert out == "n,value\n999999999999,0\n1000000000000,0\n"

    @pytest.mark.parametrize("function", ["jordan:100000", "nu:-100000", "lcm-count:100000"])
    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_value_with_too_many_digits_is_usage_error(self, function, format_):
        # 2^100000 - 1, 1/2^100000 and 2^100000 - 1 at n = 2: beyond the int-to-text limit
        code, out, err = invoke(["table", function, "--range", "1..2", "--format", format_])
        assert code == 2
        assert f"{function} at n=2 has too many digits to print" in err

    @pytest.mark.parametrize("function", ["jordan:1000000000000", "nu:1000000000000",
                                          "nu:-1000000000000", "lcm-count:1000000000000",
                                          f"nu:{10**400}"])  # too large for a float
    def test_too_many_digits_refused_before_any_value(self, monkeypatch, function):
        def refuse(*args):
            raise AssertionError("a value was computed")

        for name in ("jordan_totient", "nu", "lcm_tuple_count"):
            monkeypatch.setattr(arith, name, refuse)
        code, out, err = invoke(["table", function, "--range", "1..2"])
        assert code == 2
        assert f"{function} at n=2 has too many digits to print" in err

    def test_digit_bound_is_exact_for_powers_of_ten(self):
        # 10^K has K + 1 digits, within the limit exactly while K < limit
        limit = sys.get_int_max_str_digits()
        code, out, err = invoke(["table", f"nu:{limit - 1}", "--range", "10..10"])
        assert code == 0
        assert out == f"n,value\n10,1{'0' * (limit - 1)}\n"
        code, out, err = invoke(["table", f"nu:{limit}", "--range", "10..10"])
        assert code == 2
        assert f"nu:{limit} at n=10 has too many digits to print" in err

    def test_ramanujan_level_above_factor_limit_is_usage_error(self):
        code, out, err = invoke(["table", "ramanujan:10000000000000", "--range", "1..2"])
        assert code == 2
        assert "above 1000000000000" in err
        code, out, err = invoke(["table", "ramanujan:1000000000000", "--range", "1..2"])
        assert out == "n,value\n1,0\n2,0\n"

    def test_range_of_more_than_a_million_values_is_usage_error(self):
        # exactly 10^6 values pass the range check (not tabulated here)
        assert _parse_range("1..1000000") == (1, 10**6)
        assert _parse_range("999999000001..1000000000000") == (999999000001, 10**12)
        for text in ("1..1000001", "1..1000000000000"):
            code, out, err = invoke(["table", "mobius", "--range", text])
            assert code == 2
            assert "spans more than 1000000 values" in err

    @pytest.mark.parametrize("function", ["ramanujan:0", "jordan:0"])
    def test_parameter_below_one_is_usage_error(self, function):
        code, out, err = invoke(["table", function])
        assert code == 2
        assert "must be >= 1" in err


class TestCheck:
    def test_default_report_matches_golden(self):
        # the committed `check all` report at the defaults, every residual exactly 0
        code, out, err = invoke(["check", "all"])
        assert code == 0
        report = json.loads(out)
        golden = json.loads(pathlib.Path(__file__).with_name("check_all_default.json").read_text())
        assert report == golden
        assert {row["max_residual"] for row in report["checks"]} == {0.0}

    def test_product_law_passes(self):
        code, out, err = invoke(["check", "product-law", "--n-max", "8", "--dim", "60"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["suite"] == "product-law"
        assert all(c["pass"] for c in report["checks"])

    def test_axioms_fault_in_the_dft_row_exits_one(self, monkeypatch):
        real = ramanujan_ops._roots_mod

        def squared(n):  # omega^2, of order 2, in place of omega at level 4
            q, powers = real(n)
            return (q, powers[2 * np.arange(n) % n]) if n == 4 else (q, powers)

        monkeypatch.setattr(ramanujan_ops, "_roots_mod", squared)
        code, out, err = invoke(["check", "axioms", "--n-max", "6", "--dim", "24"])
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        (failed,) = [c for c in report["checks"] if not c["pass"]]
        assert failed["identity"] == "congruence-exact vs DFT provider"
        assert failed["counterexample"] == {"n": 4}
        assert failed["max_residual"] == 4.0  # sum_l omega^{2l} at x = 2 is 4, 4 P_0(4) is 0

    def test_convolution_suite(self):
        code, out, err = invoke(["check", "convolution", "--n-max", "8", "--dim", "60"])
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "convolution"
        assert report["summary"] == {"total": 4, "passed": 4, "failed": 0}

    def test_check_without_cases_fails(self):
        # n-max 1 leaves the determinant and trace checks nothing to evaluate
        code, out, err = invoke(["check", "analytic", "--n-max", "1"])
        assert code == 1
        report = json.loads(out)
        errors = [c["error"] for c in report["checks"] if not c["pass"]]
        assert errors == ["no case evaluated"] * 2

    def test_errata_reported_but_never_fail(self):
        code, out, err = invoke(["check", "analytic", "--n-max", "12", "--dim", "64"])
        assert code == 0
        report = json.loads(out)
        assert report["errata"]
        assert all("id" in e for e in report["errata"])

    def test_unknown_suite_is_usage_error(self):
        code, out, err = invoke(["check", "nonsense"])
        assert code == 2

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_is_usage_error(self, n_max):
        code, out, err = invoke(["check", "axioms", "--n-max", n_max])
        assert code == 2
        assert "--n-max" in err

    # every row passes only at residual 0, so --tolerance is gone and any value of it
    # is refused as an unknown option, without a traceback
    @staticmethod
    def _assert_tolerance_refused(code, err):
        # invoke lets any exception but SystemExit propagate, so none was raised here
        assert code == 2
        assert "unrecognized arguments" in err and "--tolerance" in err

    @pytest.mark.parametrize("tolerance", ["0", "1e-9"])
    def test_tolerance_option_is_refused(self, tolerance):
        code, out, err = invoke(["check", "all", "--tolerance", tolerance])
        self._assert_tolerance_refused(code, err)

    def test_negative_tolerance_is_usage_error(self):
        code, out, err = invoke(["check", "ramanujan", "--tolerance", "-1"])
        self._assert_tolerance_refused(code, err)

    def test_nan_tolerance_is_usage_error(self):
        code, out, err = invoke(["check", "all", "--tolerance", "nan"])
        self._assert_tolerance_refused(code, err)

    @pytest.mark.parametrize("tolerance", ["inf", "-inf"])
    def test_infinite_tolerance_is_usage_error(self, tolerance):
        code, out, err = invoke(["check", "axioms", "--tolerance", tolerance])
        self._assert_tolerance_refused(code, err)

    @pytest.mark.parametrize("dim,accepted", [(0, False), (1, True), (10**6, True),
                                              (10**6 + 1, False)])
    def test_dim_above_a_million_is_usage_error(self, monkeypatch, dim, accepted):
        runs = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda suite, **kw: runs.append(kw) or {"pass": True})
        code, out, err = invoke(["check", "all", "--dim", str(dim)])
        if accepted:
            assert code == 0 and runs[0]["dim"] == dim
        else:
            assert code == 2 and not runs
            assert "dim must be between 1 and 1000000" in err

    def test_unwritable_out_fails_before_any_row(self, monkeypatch, tmp_path):
        runs = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda suite, **kw: runs.append(kw) or {"pass": True})
        path = tmp_path / "missing" / "r.json"
        code, out, err = invoke(["check", "all", "--out", str(path)])
        assert code == 2 and not runs
        assert f"cannot write --out {path}" in err

    def test_report_to_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = invoke(["check", "transforms", "--n-max", "8", "--dim", "48",
                                 "--out", str(path)])
        assert code == 0
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
    def test_projection(self):
        code, out, err = invoke(["export", "P:1:2", "--dim", "4"])
        payload = json.loads(out)
        assert payload["kind"] == "diag"
        assert payload["n"] == 4
        assert payload["offset"] == 0
        assert payload["entries"] == [[0, 0], [1, 0], [0, 0], [1, 0]]

    def test_t_selector(self):
        code, out, err = invoke(["export", "T:3:0:6", "--dim", "6"])
        entries = json.loads(out)["entries"]
        assert [e[0] for e in entries] == [0, 0, 1, 0, 1, 0]

    def test_c_operator_offset_one(self):
        code, out, err = invoke(["export", "C:0:4", "--dim", "4", "--offset", "1"])
        payload = json.loads(out)
        assert payload["offset"] == 1
        assert [e[0] for e in payload["entries"]] == [0, -2, 0, 2]

    def test_s_operator_roots_of_unity(self):
        code, out, err = invoke(["export", "S:4", "--dim", "4"])
        entries = json.loads(out)["entries"]
        assert entries[0] == [1, 0]
        assert abs(entries[1][1] - 1) < 1e-12  # eps_4^1 = i

    def test_dense_export(self):
        code, out, err = invoke(["export", "theta", "--dim", "3"])
        payload = json.loads(out)
        assert payload["kind"] == "dense"
        assert payload["n"] == 3
        # row-major flat entries: theta[1][1] = 2 sits at index 4
        assert payload["entries"][4] == [2, 0]

    def test_iu_star_export(self):
        code, out, err = invoke(["export", "IU*", "--dim", "4"])
        payload = json.loads(out)
        assert payload["kind"] == "dense"
        assert abs(payload["entries"][5][0] - 0.5) < 1e-12  # diagonal entry at m = 2

    @pytest.mark.parametrize("spec", ["P:2:6", "C:1:12", "T:3:1:12", "S:7", "theta", "IU*"])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_every_kind_round_trips(self, spec, offset):
        # theta and IU* also at the truncation edges: the backward shift kills e_1,
        # so IU*'s diagonal is [0] at dim 1 and [0, 1/2] at dim 2
        for dim in (1, 2, 24) if spec in ("theta", "IU*") else (24,):
            code, out, err = invoke(["export", spec, "--dim", str(dim),
                                     "--offset", str(offset)])
            assert code == 0
            back, want = element_from_json(json.loads(out)), _exported(spec, dim, offset)
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
    def test_export_text_is_pinned(self, args, sha256):
        code, out, err = invoke(["export", *args])
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("n", [1, 7, 37, 60])
    def test_s_export_repeats_one_period(self, n):
        code, out, err = invoke(["export", f"S:{n}", "--dim", "2520", "--offset", "1"])
        assert len({tuple(pair) for pair in json.loads(out)["entries"]}) <= n

    @pytest.mark.parametrize("spec,edge", [("P:1:2", 10**6), ("theta", 1000), ("IU*", 1000)])
    def test_more_than_a_million_entries_is_usage_error(self, spec, edge):
        # a diagonal has dim entries, a dense matrix dim^2
        code, out, err = invoke(["export", spec, "--dim", str(edge)])
        assert code == 0
        assert f'"n": {edge}' in out[-40:]  # the tail after the entries
        code, out, err = invoke(["export", spec, "--dim", str(edge + 1)])
        assert code == 2
        assert "more than 1000000" in err

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

    def test_export_determinism(self):
        args = ["export", "C:1:12", "--dim", "24"]
        assert invoke(args)[1] == invoke(args)[1]

    def test_r_not_dividing_n_is_usage_error(self):
        code, out, err = invoke(["export", "T:4:0:6", "--dim", "12"])
        assert code == 2

    def test_dim_smaller_than_level_is_usage_error(self):
        code, out, err = invoke(["export", "P:0:8", "--dim", "4"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["P:0:0", "C:0:-2", "S:0", "T:1:0:0"])
    def test_level_below_one_is_usage_error(self, spec):
        code, out, err = invoke(["export", spec, "--dim", "12"])
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize("spec", ["T:0:0:6", "T:-2:0:6"])
    def test_r_below_one_is_usage_error(self, spec):
        code, out, err = invoke(["export", spec, "--dim", "12"])
        assert code == 2
        assert "positive divisor" in err

    def test_unknown_spec_is_usage_error(self):
        code, out, err = invoke(["export", "Q:1:2", "--dim", "4"])
        assert code == 2

    @pytest.mark.parametrize("spec,count", [("theta:5", 0), ("IU*:x", 0), ("theta:", 0),
                                            ("S:3:4", 1), ("P:1", 2), ("T:1:0:6:6", 3)])
    def test_wrong_index_count_is_usage_error(self, spec, count):
        # theta and IU* take no indices: a suffix is refused, not dropped
        code, out, err = invoke(["export", spec, "--dim", "2"])
        assert (code, out) == (2, "")
        assert f"export expects {count} indices" in err

    @pytest.mark.parametrize("value", ["6", "abc"])
    def test_dim_is_set_only_by_the_option(self, monkeypatch, value):
        monkeypatch.setenv("IDEMARITH_DIM", value)
        code, out, err = invoke(["export", "S:2"])
        assert code == 0
        assert json.loads(out)["n"] == 2520


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


@pytest.mark.parametrize("args", [
    ["export", "P:0:3", "--dim", "6"], ["table", "mobius"], ["check", "product-law", "--n-max", "4"],
], ids=["export", "table", "check"])
@pytest.mark.parametrize("out", [["--out", ""], ["--out="]], ids=["spaced", "equals"])
def test_empty_out_is_usage_error(args, out):
    # an empty path (an unset shell variable) is unwritable, not stdout
    code, stdout, err = invoke([*args, *out])
    assert (code, stdout) == (2, "")
    assert err.startswith("Error: cannot write --out : ") and err.count("\n") == 1


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader takes the header line of a million-row table and closes the pipe
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(idemarith.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "idemarith.cli", "table", "mobius",
                           "--range", "1..1000000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline() == b"n,value\n"
        child.stdout.close()
        err = child.stderr.read().decode()
    assert child.returncode == 2
    assert "Traceback" not in err


# the new spellings argparse would take but the CLI never did (-h, --n for --n-max) are
# refused too; each error is one usage line and one message on stderr, no traceback
@pytest.mark.parametrize("args", [
    "", "sigma", "check nonsense", "check all --n-max 0", "check all --n 5",
    "export P:0:3 --offset 2", "export", "export S:3 --dim abc", "table mobius --format xml",
    "table mobius -h", "check all --n-max abc",
])
def test_parser_error_is_usage_error(args):
    code, out, err = invoke(args.split())
    assert code == 2 and out == ""
    assert "error: " in err


@pytest.mark.parametrize("spelling", [["--n-max", "abc"], ["--n-max=abc"]])
def test_n_max_that_is_not_an_integer_names_the_option(spelling):
    code, out, err = invoke(["check", "all", *spelling])
    assert (code, out) == (2, "")
    assert "error: argument --n-max: 'abc' is not an integer" in err and "_n_max" not in err


# the last seven are the request shapes of the README and the cli-requests workload
@pytest.mark.parametrize("args", [
    ["export", "S:7", "--dim", "60"], ["table", "mobius", "--range", "1..6"],
    ["check", "axioms", "--n-max", "3"], ["table", "ramanujan:4", "--format", "json"],
    ["export", "P:-3:7", "--dim", "60", "--offset", "1"],
    ["export", "C:5:12", "--dim", "60", "--offset", "0"],
    ["export", "T:2:-1:6", "--dim", "60", "--offset", "1"],
    ["export", "S:5", "--dim", "60", "--offset", "0"],
    ["export", "theta", "--dim", "8"], ["export", "IU*", "--dim", "8"],
    ["table", "ramanujan:6", "--range", "3..20"],
])
def test_a_command_is_parsed_by_its_own_parser_alone(monkeypatch, args):
    # a well-formed request is read off the argument table: no argparse parser runs
    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser ran")

    for parser in [cli._PARSER, *cli._COMMAND_PARSERS.values()]:
        monkeypatch.setattr(parser, "parse_args", refuse)
    code, out, err = invoke(args)
    assert code == 0 and out and err == ""


# each command's spellings, good and bad: its positionals, its options' values, and
# the tokens argparse alone decides
_OUT_VALUES = ["r.json", "", "-", "--dim", "-h"]
_VALUES = {
    "table": (["mobius", "ramanujan:4", "", "x=y", "-", "-3"],
              {"--range": ["1..6", "3..2", "", "-1..3"], "--format": ["csv", "json", "xml", ""],
               "--out": _OUT_VALUES}),
    "check": (["all", "axioms", "nonsense", "", "-1"],
              {"--n-max": ["5", "0", "-3", "abc", "", " 7", "1_0"],
               "--dim": ["72", "0", "-5", "abc", "5.0"], "--out": _OUT_VALUES}),
    "export": (["P:0:3", "theta", "IU*", "", "-5"],
               {"--dim": ["6", "-6", "x", ""], "--offset": ["0", "1", "2", "-1", "01", " 1"],
                "--out": _OUT_VALUES}),
}
_TOKENS = ["--", "--help", "-h", "-", "", "--bogus", "--n", "--out", "--dim", "--out="]


@st.composite
def _argvs(draw, name):
    """An argv of command NAME in any order: repeated options spelt with and without
    "=", a positional, and at most one more token, positionals or _TOKENS."""
    positionals, options = _VALUES[name]
    option = st.sampled_from(sorted(options)).flatmap(
        lambda opt: st.sampled_from(options[opt]).flatmap(
            lambda value: st.sampled_from([[opt, value], [f"{opt}={value}"]])))
    pieces = [*draw(st.lists(option, max_size=4)), [draw(st.sampled_from(positionals))],
              *draw(st.lists(st.sampled_from(_TOKENS + positionals).map(lambda t: [t]),
                             max_size=1))]
    return [token for piece in draw(st.permutations(pieces)) for token in piece]


@pytest.mark.parametrize("name", sorted(_VALUES))
@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_the_walk_reads_what_argparse_reads(name, data):
    # whatever the walk accepts, the command's parser reads the same; the rest it leaves
    argv = data.draw(_argvs(name))
    options = cli._options(name, argv)
    if options is not None:
        assert options == vars(cli._COMMAND_PARSERS[name].parse_args(argv))


@pytest.mark.parametrize("args,status", [([], 2), (["sigma"], 2), (["--help"], 0)])
def test_the_top_level_parser_runs_without_a_command(args, status):
    code, out, err = invoke(args)
    assert code == status
    assert (out if status == 0 else err).startswith("usage: idemarith [--help] COMMAND ...")


def test_unrecognized_arguments_are_reported_by_the_command():
    code, out, err = invoke(["check", "all", "--bogus"])
    assert code == 2 and out == ""
    assert "idemarith check: error: unrecognized arguments: --bogus" in err


def _help_entries(text: str) -> dict[str, str]:
    """{option: its help entry, whitespace collapsed} from an argparse help text."""
    options = text.split("\noptions:\n")[1]
    return {entry.split()[0]: " ".join(entry.split())
            for entry in re.split(r"\n(?=  --)", options) if entry.strip()}


@pytest.mark.parametrize("command,defaults,doc", [
    ([], {"--help": None}, ["Arithmetic-function tables, identity suites, and operator exports.",
                            "table Tabulate a scalar arithmetic function.",
                            "check Run an identity suite and emit its JSON report.",
                            "export Export one operator as JSON."]),
    (["table"], {"--range": "1..60", "--format": "csv", "--out": None, "--help": None},
     ["FUNCTION is one of mobius, totient, tau, omega, jordan:R, ramanujan:N, nu:K, "
      "lcm-count:S."]),
    (["check"], {"--n-max": "60", "--dim": "2520", "--out": None, "--help": None},
     ["Exits 0 iff every check has residual exactly 0; documented errata are reported in a "
      "separate section and never fail the run."]),
    (["export"], {"--dim": "2520", "--offset": "0", "--out": None, "--help": None},
     ["SPEC is one of P:j:n, C:j:n, T:r:j:n, S:n, theta, IU*."]),
], ids=["idemarith", "table", "check", "export"])
def test_help_names_every_option_with_its_default(command, defaults, doc):
    code, out, err = invoke([*command, "--help"])
    assert code == 0 and err == ""
    text = " ".join(out.split())
    assert all(line in text for line in doc)
    entries = _help_entries(out)
    assert set(entries) == set(defaults)
    for option, default in defaults.items():
        if default is not None:
            assert entries[option].endswith(f"(default: {default})")


def test_cli_loads_only_the_stdlib_numpy_and_itself():
    # argparse parses the command line: importing the CLI and running each command
    # must load no third-party module but numpy
    script = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        import idemarith.cli

        for args in (["export", "S:7", "--dim", "60"], ["table", "mobius", "--range", "1..6"],
                     ["check", "axioms", "--n-max", "3"]):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    idemarith.cli.main(args)
                except SystemExit as exc:
                    assert not exc.code, args
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(sorted(loaded - sys.stdlib_module_names))
    """)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(idemarith.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "['idemarith', 'numpy']\n"
