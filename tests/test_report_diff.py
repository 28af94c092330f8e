"""scripts/report_diff.py on pairs of small reports: which rows it pairs,
names and flags, and its exit status."""

import copy
import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _report(*identities):
    return {"params": {"n_max": 60}, "errata": [{"id": "e"}],
            "summary": {"total": len(identities)},
            "checks": [{"identity": name, "params": {}, "max_residual": 0.0, "pass": True}
                       for name in identities]}


@pytest.fixture
def run(tmp_path, capsys):
    def diff(old, new):
        paths = []
        for name, report in (("old.json", old), ("new.json", new)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(report))
        status = report_diff.main(*map(str, paths))
        return status, capsys.readouterr().out.splitlines()
    return diff


def test_same_reports_exit_0(run):
    status, lines = run(_report("a", "b"), _report("a", "b"))
    assert status == 0
    assert lines == ["row count: same", "errata: same", "report params: same", "summary: same"]


def test_dropped_row_is_named_and_the_rest_still_pair(run):
    status, lines = run(_report("a", "b", "c", "d"), _report("a", "c", "d"))
    assert status == 1
    assert lines[0] == "row 2 only in OLD: b"
    assert lines[1:] == ["row count: DIFFERENT", "errata: same", "report params: same",
                         "summary: DIFFERENT"]


def test_added_row_is_named_by_its_number_in_new(run):
    status, lines = run(_report("a", "b"), _report("a", "x", "b"))
    assert status == 1
    assert lines[0] == "row 2 only in NEW: x"


def test_renamed_row_pairs_as_one_changed_identity(run):
    status, lines = run(_report("a", "b", "c"), _report("a", "B", "c"))
    assert status == 0  # names and params alone do not fail
    assert lines[:2] == ["row 2: B", '  identity: "b" -> "B"']


def test_moved_residual_or_errata_exit_1(run):
    old = _report("a", "b")
    new = copy.deepcopy(old)
    new["checks"][1].update(max_residual=1.0, **{"pass": False})
    status, lines = run(old, new)
    assert status == 1
    assert lines[:3] == ["row 2: b", "  max_residual: 0.0 -> 1.0", "  pass: true -> false"]
    new = copy.deepcopy(old)
    new["errata"] = []
    assert run(old, new)[0] == 1
