"""Command-line front end: scalar function tables, identity suites, and
operator exports.

Exit codes: 0 all checks pass (at residual exactly 0), 1 identity failure,
2 usage error.  The truncation dimension is --dim, 2520 by default.  For
``check`` it is the truncation of the axioms and family-multiplicativity
checks, which run on its first min(dim, 6 n_limit) or min(dim, K)
entries, K the family's largest level, and report both.  For ``export``
it is the length of the exported operator, theta and IU* from ``analytic``.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import analytic, arith
from .algebra import DenseMatrix, element_text
from .ramanujan_ops import OperatorFamily
from .suites import SUITES, run_suite

DEFAULT_DIM = 2520
# `table` holds every row, and `export` every entry, before it writes one; `check`
# keeps the same cap on dim, though its dim-bound windows stay within 6 * 12 entries
MAX_TABLE_VALUES = 10**6


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"range must look like A..B, got {text!r}")
    if lo < 1 or hi < lo:
        raise click.UsageError(f"range {text!r} is empty or starts below 1")
    if hi > arith.MAX_FACTOR_INPUT:
        raise click.UsageError(f"range {text!r} ends above {arith.MAX_FACTOR_INPUT}")
    if hi - lo + 1 > MAX_TABLE_VALUES:
        raise click.UsageError(f"range {text!r} spans more than {MAX_TABLE_VALUES} values")
    return lo, hi


_TABLE_FUNCTIONS = {
    "mobius": arith.mobius,
    "totient": arith.totient,
    "tau": arith.tau,
    "omega": arith.omega,
}


def _table_function(name: str, hi: int):
    """The function NAME names, refused up front when a value on 1..hi
    could not be computed or printed."""
    if name in _TABLE_FUNCTIONS:
        return _TABLE_FUNCTIONS[name]
    head, _, arg = name.partition(":")
    if not arg:
        raise click.UsageError(f"unknown function {name!r}")
    try:
        k = int(arg)
    except ValueError:
        raise click.UsageError(f"bad parameter in {name!r}")
    if head in ("jordan", "ramanujan", "lcm-count") and k < 1:
        raise click.UsageError(f"parameter in {name!r} must be >= 1")
    if head == "ramanujan" and k > arith.MAX_FACTOR_INPUT:
        raise click.UsageError(f"parameter in {name!r} is above {arith.MAX_FACTOR_INPUT}")
    # J_R(n) < n^R, nu_K(n) = n^K and M_S(n) <= n^S, so a value on 1..hi has at
    # most |k| log10(hi) + 1 digits; with no limit set, the default 4300 bounds memory
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if head in ("jordan", "nu", "lcm-count") and hi > 1 and abs(k) >= digits / math.log10(hi):
        raise click.UsageError(f"{name} at n={hi} has too many digits to print")
    if head == "jordan":
        return lambda n: arith.jordan_totient(k, n)
    if head == "ramanujan":
        return lambda n: arith.ramanujan_sum(k, n)
    if head == "nu":
        return lambda n: arith.nu(k, n)
    if head == "lcm-count":
        return lambda n: arith.lcm_tuple_count(k, n)
    raise click.UsageError(f"unknown function {name!r}")


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --out {out}: {exc.strerror or exc}")
    else:  # not click.echo: it scans the text for ANSI codes and caches each stdout it sees
        sys.stdout.write(text)
        sys.stdout.flush()


@click.group()
def main():
    """Arithmetic-function tables, identity suites, and operator exports."""


@main.command("table")
@click.argument("function")
@click.option("--range", "range_", default="1..60", show_default=True,
              help="Index range A..B.")
@click.option("--format", "format_", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
def cmd_table(function, range_, format_, out):
    """Tabulate a scalar arithmetic function.

    FUNCTION is one of mobius, totient, tau, omega, jordan:R, ramanujan:N,
    nu:K, lcm-count:S.
    """
    lo, hi = _parse_range(range_)
    fn = _table_function(function, hi)
    rows = [(n, str(fn(n))) for n in range(lo, hi + 1)]
    if format_ == "csv":
        text = "n,value\n" + "".join(f"{n},{v}\n" for n, v in rows)
    else:
        text = json.dumps(
            {"function": function, "range": [lo, hi],
             "values": {str(n): v for n, v in rows}},
            indent=2, sort_keys=True) + "\n"
    _emit(text, out)


@main.command("check")
@click.argument("suite", type=click.Choice(SUITES))
@click.option("--n-max", type=click.IntRange(min=1), default=60, show_default=True)
@click.option("--dim", type=int, default=DEFAULT_DIM, show_default=True,
              help="Truncation dimension of the axioms and family-multiplicativity "
                   "checks; each runs on the shortest window that decides it.")
@click.option("--out", type=click.Path(), default=None, help="Report path (default stdout).")
def cmd_check(suite, n_max, dim, out):
    """Run an identity suite and emit its JSON report.

    Exits 0 iff every check has residual exactly 0; documented errata are
    reported in a separate section and never fail the run.
    """
    if not 1 <= dim <= MAX_TABLE_VALUES:
        raise click.UsageError(f"dim must be between 1 and {MAX_TABLE_VALUES}")
    if out:
        _emit("", out)  # an unwritable --out fails here, before any row runs
    report = run_suite(suite, n_max=n_max, dim=dim)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)
    sys.exit(0 if report["pass"] else 1)


@main.command("export")
@click.argument("spec")
@click.option("--dim", type=int, default=DEFAULT_DIM, show_default=True,
              help="Truncation dimension.")
@click.option("--offset", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")
def cmd_export(spec, dim, offset, out):
    """Export one operator as JSON.

    SPEC is one of P:j:n, C:j:n, T:r:j:n, S:n, theta, IU*.
    """
    if dim < 1:
        raise click.UsageError("dim must be positive")
    parts = spec.split(":")
    kind = parts[0].upper()
    size = dim * dim if kind in ("THETA", "IU*") else dim
    if size > MAX_TABLE_VALUES:
        raise click.UsageError(
            f"{spec} at dim {dim} has {size} entries, more than {MAX_TABLE_VALUES}")

    def _ints(expected: int) -> list[int]:
        if len(parts) - 1 != expected:
            raise click.UsageError(f"{kind} export expects {expected} indices")
        try:
            return [int(p) for p in parts[1:]]
        except ValueError:
            raise click.UsageError(f"non-integer index in {spec!r}")

    def _level(n: int) -> int:
        if n < 1:
            raise click.UsageError(f"level {n} must be >= 1")
        if dim < n:
            raise click.UsageError(f"dim {dim} is smaller than level {n}")
        return n

    family = OperatorFamily(dim, offset)
    if kind in ("THETA", "IU*"):
        # the diagonals the analytic rows check, on e_1..e_dim whatever the offset; the text
        # stays "dense", and a float64 diagonal keeps DenseMatrix to one complex copy
        diag = analytic.theta_power(1, dim) if kind == "THETA" else analytic.iu_star(dim)
        element = DenseMatrix(np.diag(np.array(diag.entries, dtype=np.float64)))
    elif kind == "P":
        j, n = _ints(2)
        element = family.projection(j, _level(n))
    elif kind == "S":
        (n,) = _ints(1)
        element = family.s_operator(_level(n))
    elif kind == "C":
        j, n = _ints(2)
        element = family.c_operator(j, _level(n))
    elif kind == "T":
        r, j, n = _ints(3)
        _level(n)
        if r < 1 or n % r != 0:
            raise click.UsageError(f"r={r} is not a positive divisor of n={n}")
        element = family.t_operator(r, j, n)
    else:
        raise click.UsageError(f"unknown operator spec {spec!r}")
    _emit(element_text(element) + "\n", out)


if __name__ == "__main__":
    main()
