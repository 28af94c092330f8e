"""Row-by-row difference of two `idemarith check` JSON reports.

    python scripts/report_diff.py OLD.json NEW.json

Prints each row (numbered from 1) whose identity, params, residual or
verdict changed, each key of it that changed, then whether the rows' count,
the errata and the run's params and summary are the same.  Rows are paired
by position, so a renamed row shows as one changed identity.  Exits 1 if any row's verdict or
residual differs, or if the errata differ; 0 otherwise.

To compare the committed default report with an earlier commit's:

    git show REV:tests/check_all_default.json > old.json
    python scripts/report_diff.py old.json tests/check_all_default.json
"""

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


def main(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    verdicts_moved = False
    for i, (a, b) in enumerate(zip(old["checks"], new["checks"]), 1):
        changed = _changes(a, b)
        if changed:
            print(f"row {i}: {b['identity']}")
            for key, (was, now) in changed.items():
                print(f"  {key}: {_text(was)} -> {_text(now)}")
        verdicts_moved |= bool(changed.keys() & {"max_residual", "pass", "error"})
    same = {"row count": len(old["checks"]) == len(new["checks"]),
            "errata": old["errata"] == new["errata"],
            "report params": old["params"] == new["params"],
            "summary": old["summary"] == new["summary"]}
    for what, equal in same.items():
        print(f"{what}: {'same' if equal else 'DIFFERENT'}")
    return int(verdicts_moved or not same["errata"] or not same["row count"])


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
