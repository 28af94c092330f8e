"""The three workloads.  Each pass generates its inputs from the seed, runs
them against the package, and checks every output; a wrong output or an
exception counts as a failed operation and never ends the pass.

Only calls into the package are timed: input generation and the oracle
checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from idemarith import analytic, cli
from idemarith import convolution as conv
from idemarith.algebra import Scalar

import oracles

EXPECTED_CHECKS = 24
CLI_DEFAULTS = {"n_max": 60, "dim": 2520}
TABLE_SIZES = (1000, 3000)
ORACLE_SAMPLE = 40  # entries per output checked against a brute-force oracle
GRID_POINTS = 40  # (n, N) points per table size for trace_identities and det_c0
EXPORT_DIM = 2520
LEVEL_MAX = 60
# one kind per example in the package README: its six export kinds and its
# `table ramanujan:n` request.  No record of real use gives a mix, so every
# kind gets the same share.
REQUEST_KINDS = ("P", "C", "T", "S", "theta", "IU*", "table")
REQUESTS_PER_KIND = 143  # 1001 requests a pass
MAX_ERRORS = 20


class Pass:
    """Timings and the correctness tally of one pass."""

    def __init__(self, sampler, rec=None):
        self.sampler = sampler
        self.rec = rec
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.kinds: list[str] = []  # the request kind of each latency
        self.windows: list[tuple[float, float]] = []  # its sampler.clock() interval
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cli = _invoke_cli if rec is None else rec.wrap("cli.request", _invoke_cli)

    def timed(self, fn, *args, **kwargs):
        """(fn's result or the exception it raised, seconds taken, less the
        time the reference sampler interrupted it for)."""
        t0 = self.sampler.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation, tallied by check()
            result = exc
        dt = self.sampler.clock() - t0
        self.wall_s += dt
        return result, dt

    def check(self, what: str, verify, result) -> None:
        """Count one operation; it fails when result is an exception or
        verify(result) is not True (or raises)."""
        self.attempted += 1
        if isinstance(result, Exception):
            ok, detail = False, repr(result)
        else:
            try:
                ok, detail = verify(result) is True, "wrong output"
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                ok, detail = False, f"unreadable output: {exc!r}"
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{what}: {detail}")

    def call(self, what: str, verify, fn, *args, **kwargs) -> None:
        """Time fn(*args, **kwargs) and check its result."""
        self.check(what, verify, self.timed(fn, *args, **kwargs)[0])

    def request(self, kind: str, latency: float, start: float) -> None:
        """Record one request: its kind, latency and clock interval."""
        self.latencies.append(latency)
        self.kinds.append(kind)
        self.windows.append((start, self.sampler.clock()))

    def run_cli(self, args: list[str], kind: str):
        start = self.sampler.clock()
        (result, dt) = self.timed(self.cli, args)
        self.request(kind, dt, start)
        if self.rec is not None and not isinstance(result, Exception):
            self.rec.counters["cli.output_bytes"] += len(result[1].encode())
        return result


def _invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run the click entry point in-process: (exit status, stdout text)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args, prog_name="idemarith")
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue()


# -- check-all -----------------------------------------------------------


def check_all(seed: int, p: Pass) -> None:
    """`idemarith check all` at the CLI defaults.  The seed is unused: the
    CLI takes none and the suites use their own fixed seed."""
    result = p.run_cli(["check", "all"], "check all")
    try:
        report = json.loads(result[1])
    except (TypeError, ValueError):  # the call raised, or its output is not JSON
        report = None
    checks = report["checks"] if report else []
    for i in range(EXPECTED_CHECKS):
        name = checks[i]["identity"] if i < len(checks) else f"check {i} missing"
        p.check(name, lambda c: c["pass"], checks[i] if i < len(checks) else KeyError(name))
    p.check("exit status and verdict", lambda r: (
        r[0] == 0 and report is not None and report["pass"] is True
        and report["summary"] == {"total": EXPECTED_CHECKS, "passed": EXPECTED_CHECKS,
                                  "failed": 0}
        and all(report["params"][k] == v for k, v in CLI_DEFAULTS.items())
    ), result)


# -- convolution-large ---------------------------------------------------


def _multiplicative_table(rng: random.Random, n: int) -> list[int]:
    """h(1) = 1 and h(m) = prod h(p^a) over p^a || m, with each h(p^a)
    drawn from the seed."""
    at_prime_power: dict[int, int] = {}
    table = []
    for m in range(1, n + 1):
        value = 1
        for p, a in oracles.factor(m):
            if p**a not in at_prime_power:
                at_prime_power[p**a] = rng.choice((-3, -2, -1, 1, 2, 3))
            value *= at_prime_power[p**a]
        table.append(value)
    return table


def _is_counterexample(table, pair) -> bool:
    x, y = pair
    return (math.gcd(x, y) == 1 and x * y <= len(table)
            and table[x * y - 1] != table[x - 1] * table[y - 1])


def _multiplicativity_oracle(table, verdict) -> bool:
    ok, pair = verdict
    if not ok:
        return _is_counterexample(table, pair)
    n = len(table)
    return table[0] == 1 and not any(
        _is_counterexample(table, (x, y))
        for x in range(2, n + 1) for y in range(x + 1, n // x + 1))


def convolution_large(seed: int, p: Pass) -> None:
    """Scalar and Scalar-valued convolutions, inverses and the analytic
    identities on seeded integer tables of size 1000 and 3000, all one
    request."""
    start = p.sampler.clock()
    rng = random.Random(seed)
    for n in TABLE_SIZES:
        a = [1] + [rng.randint(-9, 9) for _ in range(n - 1)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        sample = sorted(rng.sample(range(1, n + 1), ORACLE_SAMPLE))
        for kernel, oracle in ((conv.scalar_dirichlet, oracles.dirichlet_at),
                               (conv.scalar_lcm, oracles.lcm_at),
                               (conv.scalar_unitary, oracles.unitary_at)):
            p.call(f"{kernel.__name__} n={n}", lambda out: len(out) == n and all(
                out[m - 1] == oracle(a, b, m) for m in sample), kernel, a, b)

        p.call(f"lehmer_identity_check n={n}", lambda r: (
            r["pass"] is True and r["scalar_failures"] == [] and r["n_max"] == n),
            conv.lehmer_identity_check, a, b, tol=0)

        p.call(f"dirichlet_inverse n={n}", lambda g: g.n_max == n and all(
            sum(a[d - 1] * g(m // d).value for d in oracles.divisors(m)) == (m == 1)
            for m in sample), conv.dirichlet_inverse, conv.AlgFunction(map(Scalar, a)), tol=0)
        p.call(f"Moebius as inverse of 1, n={n}", lambda g: g.n_max == n and all(
            g(m).value == oracles.mobius(m) for m in range(1, n + 1)),
            conv.dirichlet_inverse, conv.AlgFunction([Scalar(1)] * n), tol=0)

        for table in (_multiplicative_table(rng, n), a):
            p.call(f"is_multiplicative n={n}", lambda v: _multiplicativity_oracle(table, v),
                   conv.is_multiplicative, conv.AlgFunction(map(Scalar, table)), tol=0)

        p.call(f"p_operator_identities n={n}", lambda r: (
            r["pass"] is True and r["algebra_map_max_residual"] == 0
            and r["euler_power_max_residual"] == 0),
            analytic.p_operator_identities, analytic.TruncatedSpace(n, 1), n, pairs=1,
            seed=rng.randrange(2**32), tol=0)

        for k in rng.sample(range(2, n + 1), GRID_POINTS):
            big_n = rng.randint(1, n)
            p.call(f"trace_identities({k}, {big_n})", lambda r: (
                r["trace_c0"] == r["trace_c0_closed"] and r["trace_t0"] == r["trace_t0_closed"]
                and r["pass"] is True), analytic.trace_identities, k, big_n)
            p.call(f"det_c0({k}, {big_n})", lambda d: d[0] == d[1], analytic.det_c0, k, big_n)
    p.request("pass", p.wall_s, start)


# -- cli-requests --------------------------------------------------------


class _Oracle:
    """Expected CLI outputs, with the per-level rows computed once."""

    def __init__(self):
        self._rows: dict[int, list[int]] = {}
        self._orders: dict[int, list[int]] = {}

    def c(self, n: int, k: int) -> int:
        if n not in self._rows:
            self._rows[n] = oracles.ramanujan_row(n)
        return self._rows[n][k % n]

    def order(self, n: int, x: int) -> int:
        if n not in self._orders:
            self._orders[n] = oracles.additive_orders(n)
        return self._orders[n][x % n]


def _export_text(kind: str, dim: int, entries, offset: int | None = None) -> str:
    """The exact `export` output for the given entry strings."""
    tail = "" if offset is None else f', "offset": {offset}'
    return f'{{"entries": [{", ".join(entries)}], "kind": "{kind}", "n": {dim}{tail}}}\n'


def _diagonal_text(dim: int, offset: int, period: int, value) -> str:
    """Export text of the diagonal with the integer value(m) at basis index
    m, where value has the given period."""
    row = [f"[{float(value(m))!r}, 0.0]" for m in range(offset, offset + period)]
    return _export_text("diag", dim, (row * (dim // period + 1))[:dim], offset)


def _close_to(text: str, kind: str, dim: int, expected: list[complex], tol: float) -> bool:
    """The export parses to the given kind and shape, and each entry lies
    within tol of the expected one."""
    data = json.loads(text)
    entries = data["entries"]
    return (data["kind"], data["n"], len(entries)) == (kind, dim, len(expected)) and all(
        abs(complex(re, im) - e) <= tol for (re, im), e in zip(entries, expected))


def _request(kind: str, rng: random.Random, oracle: _Oracle):
    """A CLI request of the given kind with arguments drawn from rng:
    (argv, expected stdout text, or a predicate on it)."""
    n = rng.randint(1, LEVEL_MAX)
    j = rng.randint(-n, 2 * n)
    offset = rng.randint(0, 1)
    window = ["--dim", str(EXPORT_DIM), "--offset", str(offset)]
    if kind == "P":
        return (["export", f"P:{j}:{n}", *window],
                _diagonal_text(EXPORT_DIM, offset, n, lambda m: (m - j) % n == 0))
    if kind == "C":
        return (["export", f"C:{j}:{n}", *window],
                _diagonal_text(EXPORT_DIM, offset, n, lambda m: oracle.c(n, m - j)))
    if kind == "T":
        r = rng.choice(oracles.divisors(n))
        return (["export", f"T:{r}:{j}:{n}", *window],
                _diagonal_text(EXPORT_DIM, offset, n, lambda m: oracle.order(n, m - j) == r))
    if kind == "S":
        roots = [oracles.root_of_unity(m, n) for m in range(offset, offset + EXPORT_DIM)]
        return (["export", f"S:{n}", *window], lambda t: (
            json.loads(t)["offset"] == offset and _close_to(t, "diag", EXPORT_DIM, roots, 1e-9)))
    if kind == "theta":
        dim = rng.randint(8, 48)
        entries = (f"[{float(i // dim + 1)!r}, 0.0]" if i // dim == i % dim else "[0.0, 0.0]"
                   for i in range(dim * dim))
        return ["export", kind, "--dim", str(dim)], _export_text("dense", dim, entries)
    if kind == "IU*":
        dim = rng.randint(8, 48)
        expected = [1 / (i // dim + 1) if i // dim == i % dim and i else 0
                    for i in range(dim * dim)]
        return (["export", kind, "--dim", str(dim)],
                lambda t: _close_to(t, "dense", dim, expected, 1e-12))
    lo = rng.randint(1, 100)
    hi = lo + rng.randint(0, 400)
    expected = "n,value\n" + "".join(f"{m},{oracle.c(n, m)}\n" for m in range(lo, hi + 1))
    return ["table", f"ramanujan:{n}", "--range", f"{lo}..{hi}"], expected


def cli_requests(seed: int, p: Pass) -> None:
    """A closed loop, one client: each seeded request is sent through the
    click entry point once the previous one has returned.  Every kind
    comes REQUESTS_PER_KIND times, in seeded order; each request and its
    expected output are made just before it is sent."""
    rng = random.Random(seed)
    oracle = _Oracle()
    kinds = [k for k in REQUEST_KINDS for _ in range(REQUESTS_PER_KIND)]
    rng.shuffle(kinds)
    for kind in kinds:
        args, expected = _request(kind, rng, oracle)
        result = p.run_cli(args, kind)
        p.check(" ".join(args), lambda r: r[0] == 0 and (
            r[1] == expected if isinstance(expected, str) else expected(r[1])), result)


PARAMS = {
    "check-all": {"argv": ["check", "all"], **CLI_DEFAULTS, "seed_used": False},
    "convolution-large": {"table_sizes": list(TABLE_SIZES), "oracle_sample": ORACLE_SAMPLE,
                          "grid_points": GRID_POINTS, "value_range": [-9, 9]},
    "cli-requests": {"requests": REQUESTS_PER_KIND * len(REQUEST_KINDS),
                     "export_dim": EXPORT_DIM, "level_max": LEVEL_MAX,
                     "mix": dict.fromkeys(REQUEST_KINDS, REQUESTS_PER_KIND), "clients": 1,
                     "loop": "closed"},
}

WORKLOADS = {
    "check-all": check_all,
    "convolution-large": convolution_large,
    "cli-requests": cli_requests,
}
