"""Row-by-row difference of two `idemarith check` JSON reports.

    python scripts/report_diff.py OLD.json NEW.json

Rows are paired by identity in report order (``difflib``'s longest
matching runs); where a run of rows differs, its rows pair by position,
so a renamed row shows as one changed identity, and any rows left over
are unpaired.  Prints each paired row (numbered from 1 in NEW) whose
identity, params, residual or verdict changed, each key of it that
changed; each unpaired row as "only in OLD" or "only in NEW" with its
number in that report and its identity; then whether the rows' count,
the errata and the run's params and summary are the same.

Exits 1 if a paired row's residual, verdict or error differs, if a row
is unpaired (one report has a row the other lacks), or if the errata
differ; 0 otherwise, even when only params, identities or the summary
changed.

To compare the committed default report with an earlier commit's:

    git show REV:tests/check_all_default.json > old.json
    python scripts/report_diff.py old.json tests/check_all_default.json
"""

import difflib
import json
import sys

_ABSENT = object()


def _changes(old: dict, new: dict) -> dict:
    """{key: (old value, new value)} for each key of two rows (or two params
    dicts) whose value differs, params compared key by key."""
    changed = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, _ABSENT), new.get(key, _ABSENT)
        if key == "params" and isinstance(a, dict) and isinstance(b, dict):
            changed.update({f"params.{k}": v for k, v in _changes(a, b).items()})
        elif a != b:
            changed[key] = (a, b)
    return changed


def _text(value) -> str:
    return "(absent)" if value is _ABSENT else json.dumps(value)


def _pairs(old_rows: list, new_rows: list):
    """(i, j) for each paired row, (i, None) or (None, j) for each unpaired
    one, 0-based, in report order."""
    matcher = difflib.SequenceMatcher(None, [r["identity"] for r in old_rows],
                                      [r["identity"] for r in new_rows], autojunk=False)
    for _, i1, i2, j1, j2 in matcher.get_opcodes():
        common = min(i2 - i1, j2 - j1)
        yield from ((i1 + k, j1 + k) for k in range(common))
        yield from ((i, None) for i in range(i1 + common, i2))
        yield from ((None, j) for j in range(j1 + common, j2))


def main(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    verdicts_moved = unpaired = False
    for i, j in _pairs(old["checks"], new["checks"]):
        if i is None or j is None:
            which, k, rows = ("OLD", i, old["checks"]) if j is None else ("NEW", j, new["checks"])
            print(f"row {k + 1} only in {which}: {rows[k]['identity']}")
            unpaired = True
            continue
        changed = _changes(old["checks"][i], new["checks"][j])
        if changed:
            print(f"row {j + 1}: {new['checks'][j]['identity']}")
            for key, (was, now) in changed.items():
                print(f"  {key}: {_text(was)} -> {_text(now)}")
        verdicts_moved |= bool(changed.keys() & {"max_residual", "pass", "error"})
    same = {"row count": len(old["checks"]) == len(new["checks"]),
            "errata": old["errata"] == new["errata"],
            "report params": old["params"] == new["params"],
            "summary": old["summary"] == new["summary"]}
    for what, equal in same.items():
        print(f"{what}: {'same' if equal else 'DIFFERENT'}")
    return int(verdicts_moved or unpaired or not same["errata"])


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
