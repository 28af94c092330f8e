"""Command-line front end: scalar function tables, identity suites, and operator exports.

A request is read in one walk of its command's _COMMANDS entry; argparse parses only
what the walk leaves (help, usage errors), the top-level parser only on no arguments,
an unknown command or --help.  A table, CSV or JSON, is written CSV_ROWS rows at a
time, a ramanujan:k table from one period of c_k; an export's text is built once and
its newline written after it.

Exit codes: 0 all checks pass (at residual exactly 0), 1 identity failure,
2 usage error or a closed stdout.  The truncation dimension is --dim, 2520
by default.  For ``check`` it is the truncation of the axioms check, which
runs on its first min(dim, 6 n_limit) entries and reports both.  For
``export`` it is the length of the exported operator, theta and IU* from
``analytic``.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import math
import os
import sys

from . import analytic, arith
from .algebra import element_text
from .ramanujan_ops import OperatorFamily
from .suites import SUITES, run_suite

DEFAULT_DIM = 2520
# `export` holds every entry before it writes one; `table` keeps the same cap on its
# range, and `check` on dim, though its dim-bound windows stay within 6 * 12 entries
MAX_TABLE_VALUES = 10**6
# rows per write of a `table`
CSV_ROWS = 4096


class UsageError(Exception):
    """A bad command line: `main` writes ``Error: <message>`` to stderr and exits 2."""


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"range must look like A..B, got {text!r}")
    if lo < 1 or hi < lo:
        raise UsageError(f"range {text!r} is empty or starts below 1")
    if hi > arith.MAX_FACTOR_INPUT:
        raise UsageError(f"range {text!r} ends above {arith.MAX_FACTOR_INPUT}")
    if hi - lo + 1 > MAX_TABLE_VALUES:
        raise UsageError(f"range {text!r} spans more than {MAX_TABLE_VALUES} values")
    return lo, hi


_TABLE_FUNCTIONS = {
    "mobius": arith.mobius,
    "totient": arith.totient,
    "tau": arith.tau,
    "omega": arith.omega,
}


def _table_values(name: str, lo: int, hi: int):
    """values(a, b), the values on a..b, lo <= a <= b <= hi, of the function
    NAME names, refused up front when one on lo..hi could not be computed or printed."""
    if name in _TABLE_FUNCTIONS:
        return lambda a, b: map(_TABLE_FUNCTIONS[name], range(a, b + 1))
    head, _, arg = name.partition(":")
    if not arg:
        raise UsageError(f"unknown function {name!r}")
    try:
        k = int(arg)
    except ValueError:
        raise UsageError(f"bad parameter in {name!r}")
    if head in ("jordan", "ramanujan", "lcm-count") and k < 1:
        raise UsageError(f"parameter in {name!r} must be >= 1")
    if head == "ramanujan" and k > arith.MAX_FACTOR_INPUT:
        raise UsageError(f"parameter in {name!r} is above {arith.MAX_FACTOR_INPUT}")
    # J_R(n) < n^R, nu_K(n) = n^K and M_S(n) <= n^S, so a value on 1..hi has at
    # most |k| log10(hi) + 1 digits; with no limit set, the default 4300 bounds memory
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if head in ("jordan", "nu", "lcm-count") and hi > 1 and abs(k) >= digits / math.log10(hi):
        raise UsageError(f"{name} at n={hi} has too many digits to print")
    if head == "ramanujan":  # c_k(n) has period k in n: one period of lo..hi, then repeated
        period = [arith.ramanujan_sum(k, n) for n in range(lo, lo + min(k, hi - lo + 1))]
        return lambda a, b: itertools.islice(itertools.cycle(period), (a - lo) % len(period),
                                             (a - lo) % len(period) + b - a + 1)
    powers = {"jordan": arith.jordan_totient, "nu": arith.nu, "lcm-count": arith.lcm_tuple_count}
    if head in powers:
        return lambda a, b: (powers[head](k, n) for n in range(a, b + 1))
    raise UsageError(f"unknown function {name!r}")


def _chunks(lines):
    """The texts of lines, CSV_ROWS lines at a time."""
    while chunk := "".join(itertools.islice(lines, CSV_ROWS)):
        yield chunk


def _emit(texts, out: str | None):
    """Write each of texts in turn to the --out file, or to stdout and flush."""
    if out is not None:  # an empty path is unwritable, not stdout
        try:
            with open(out, "w") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}")
    else:
        sys.stdout.writelines(texts)
        sys.stdout.flush()


def cmd_table(function, range_, format_, out):
    """Tabulate a scalar arithmetic function.

    FUNCTION is one of mobius, totient, tau, omega, jordan:R, ramanujan:N,
    nu:K, lcm-count:S.
    """
    lo, hi = _parse_range(range_)
    values = _table_values(function, lo, hi)
    if format_ == "csv":
        _emit(itertools.chain(["n,value\n"], _chunks(
            f"{n},{v}\n" for n, v in zip(range(lo, hi + 1), values(lo, hi)))), out)
        return
    # json.dumps(sort_keys=True) order, "10" before "2": the n of one digit length
    # ascend as strings, so the digit lengths' (key, value) streams merge into it.
    # Integer and fraction text needs no JSON escape
    lengths = [(max(lo, 10 ** (d - 1)), min(hi, 10**d - 1))
               for d in range(len(str(lo)), len(str(hi)) + 1)]
    rows = heapq.merge(*(zip(map(str, range(a, b + 1)), values(a, b)) for a, b in lengths))
    head, tail = json.dumps({"function": function, "range": [lo, hi], "values": {}},
                            indent=2, sort_keys=True).rsplit("{}", 1)
    separators = itertools.chain(["\n"], itertools.repeat(",\n"))
    _emit(itertools.chain([head + "{"], _chunks(
        f'{sep}    "{n}": "{v}"' for sep, (n, v) in zip(separators, rows)), ["\n  }" + tail + "\n"]),
        out)


def cmd_check(suite, n_max, dim, out):
    """Run an identity suite and emit its JSON report.

    Exits 0 iff every check has residual exactly 0; documented errata are
    reported in a separate section and never fail the run.
    """
    if not 1 <= dim <= MAX_TABLE_VALUES:
        raise UsageError(f"dim must be between 1 and {MAX_TABLE_VALUES}")
    if out is not None:
        _emit([], out)  # an unwritable --out fails here, before any row runs
    report = run_suite(suite, n_max=n_max, dim=dim)
    _emit([json.dumps(report, indent=2, sort_keys=True), "\n"], out)
    sys.exit(0 if report["pass"] else 1)


def cmd_export(spec, dim, offset, out):
    """Export one operator as JSON.

    SPEC is one of P:j:n, C:j:n, T:r:j:n, S:n, theta, IU*.
    """
    if dim < 1:
        raise UsageError("dim must be positive")
    parts = spec.split(":")
    kind = parts[0].upper()
    dense = kind in ("THETA", "IU*")
    size = dim * dim if dense else dim
    if size > MAX_TABLE_VALUES:
        raise UsageError(
            f"{spec} at dim {dim} has {size} entries, more than {MAX_TABLE_VALUES}")

    def _ints(expected: int) -> list[int]:
        if len(parts) - 1 != expected:
            raise UsageError(f"{kind} export expects {expected} indices")
        try:
            return [int(p) for p in parts[1:]]
        except ValueError:
            raise UsageError(f"non-integer index in {spec!r}")

    def _level(n: int) -> int:
        if n < 1:
            raise UsageError(f"level {n} must be >= 1")
        if dim < n:
            raise UsageError(f"dim {dim} is smaller than level {n}")
        return n

    family = OperatorFamily(dim, offset)
    if dense:
        _ints(0)
        # the diagonals the analytic rows check, on e_1..e_dim whatever the offset
        element = analytic.theta_power(1, dim) if kind == "THETA" else analytic.iu_star(dim)
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
            raise UsageError(f"r={r} is not a positive divisor of n={n}")
        element = family.t_operator(r, j, n)
    else:
        raise UsageError(f"unknown operator spec {spec!r}")
    _emit([element_text(element, dense=dense), "\n"], out)


def _n_max(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not >= 1")
    return n


_OUT = ("--out", dict(metavar="PATH", help="Output path; stdout when not given."))
# each command's handler, then add_argument's name and keywords for each of its arguments
_COMMANDS = {
    "table": (cmd_table, [
        ("function", dict(metavar="FUNCTION")),
        ("--range", dict(dest="range_", default="1..60", metavar="A..B", help="Index range.")),
        ("--format", dict(dest="format_", choices=("csv", "json"), default="csv",
                          help="Output format.")), _OUT]),
    "check": (cmd_check, [
        ("suite", dict(choices=SUITES)),
        ("--n-max", dict(type=_n_max, default=60, help="Largest level checked.")),
        ("--dim", dict(type=int, default=DEFAULT_DIM, help="Truncation dimension of the axioms "
                       "check.")), _OUT]),
    "export": (cmd_export, [
        ("spec", dict(metavar="SPEC")),
        ("--dim", dict(type=int, default=DEFAULT_DIM, help="Truncation dimension.")),
        ("--offset", dict(type=int, choices=(0, 1), default=0, help="First basis index.")),
        _OUT]),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The idemarith parser, and the parser of each command by name."""
    # no abbreviation (--n for --n-max) and no -h: only the spellings the CLI always took
    style = dict(allow_abbrev=False, add_help=False,
                 formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser = argparse.ArgumentParser(prog="idemarith", description=main.__doc__, **style)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (handler, arguments) in _COMMANDS.items():
        sub = commands.add_parser(name, help=handler.__doc__.partition("\n")[0],
                                  description=handler.__doc__, **style)
        for arg, kw in arguments:
            sub.add_argument(arg, **kw)
        sub.set_defaults(handler=handler)
    for sub in [parser, *commands.choices.values()]:
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    return parser, commands.choices


def _options(name: str, argv: list[str]) -> dict | None:
    """vars(parse_args(argv)) of command NAME's parser, read off _COMMANDS in one walk
    (the last repeat wins); None, for the parser to decide, on help, `--`, any other
    token or option value starting with "-", a bad value, or other than one positional."""
    handler, args = _COMMANDS[name]
    declared = {arg: (kw.get("dest", arg.strip("-").replace("-", "_")), kw) for arg, kw in args}
    options = {dest: kw.get("default") for dest, kw in declared.values()}
    positional, positionals, tokens = args[0][0], 0, iter(argv)  # the positional comes first
    for token in tokens:  # "--opt=VALUE", "--opt VALUE", or the positional's VALUE
        arg, eq, value = token.partition("=") if token[:1] == "-" else (positional, "=", token)
        value = value if eq else next(tokens, "-")
        if arg not in declared or value.startswith("-"):
            return None
        dest, kw = declared[arg]
        try:
            options[dest] = kw.get("type", str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kw and options[dest] not in kw["choices"]:
            return None
        positionals += arg == positional
    return {"handler": handler, **options} if positionals == 1 else None


def main(args: list[str] | None = None, prog_name: str = "idemarith") -> None:
    """Arithmetic-function tables, identity suites, and operator exports."""
    args = sys.argv[1:] if args is None else args
    command = _COMMAND_PARSERS.get(args[0]) if args else None
    options = _options(args[0], args[1:]) if command else None
    if options is None:  # help, a usage error, or a spelling only argparse decides
        options = vars(command.parse_args(args[1:]) if command else _PARSER.parse_args(args))
    try:
        options.pop("handler")(**options)
    except UsageError as exc:
        _PARSER.exit(2, f"Error: {exc}\n")
    except BrokenPipeError:  # stdout is closed: devnull takes the flush at exit, which cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(2)


# bench/workloads.py runs each request as main.main(args, prog_name="idemarith");
# prog_name is unused
main.main = main
_PARSER, _COMMAND_PARSERS = _build_parser()

if __name__ == "__main__":
    main()
