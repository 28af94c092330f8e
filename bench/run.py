"""idemarith benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in a fresh interpreter
(bench/child.py) with PYTHONPATH=src, so it measures the source tree it
sits in, with the package's lru caches empty.  Passes repeat for S
seconds: no pass starts that would, at the median pass duration so far,
end after them.

--trace 0 reports the end-to-end metrics: set-up time (spawn to package
imported; the median over SETUP_SPAWNS set-up-only spawns), wall time of
one pass, the child's own peak RSS (os.wait4), request latency
percentiles (per pass, then the median over passes) and throughput.  A "request" is one CLI call on cli-requests and check-all,
and one whole pass on convolution-large.  Times in a pass are rescaled to
a nominal CPU speed (bench/reference.py); the raw ones are printed beside
them.

--trace 1 alternates plain and traced passes, rescaled the same way.
Traced passes wrap every public function of the package in spans
(bench/instrument.py) and report per-layer counts and self times, plus
the tracing overhead: traced minus plain wall time.  The plain passes
also give each request kind's median latency.

Every output is checked; failures are counted, never fatal.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with the environment,
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
from spans import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "idemarith"
OUT = BENCH / "out"
WORKLOADS = ("check-all", "convolution-large", "cli-requests")
SETUP_SPAWNS = 20  # set-up-only spawns per run
RUN_LIMIT_S = 170  # a run is cut (and its open pass counted failed) after this
REQUEST_PERCENTILE = 99
# one process, one thread: idle BLAS/OpenMP worker threads only add noise
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    """One finished child process: its JSON result (None if it failed),
    set-up seconds, peak RSS in MiB and exit status."""

    result: dict | None
    setup_s: float | None
    rss_mb: float
    status: int


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("IDEMARITH_DIM", None)  # check-all runs at the CLI's own default
    env.update(THREAD_LIMITS)
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Child:
    """Run bench/child.py and wait for it; kill it at the deadline."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
           str(OUT / f"spans-{workload}.npz")]
    t0 = _now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    chunks = []
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - _now()
        if remaining <= 0:
            proc.kill()
            remaining = None
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = b"".join(chunks).decode().strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        if not result["package"].startswith(str(PACKAGE)):
            raise SystemExit(f"child imported {result['package']}, not {PACKAGE}")
    setup_s = result["imported"] - t0 if result else None
    return Child(result, setup_s, usage.ru_maxrss / 1024, proc.returncode)


def environment(workload: str, seed: int, seconds: int, trace: int, params) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_limits": THREAD_LIMITS,
        "git_commit": commit,
        "git_dirty": dirty,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def speed_factor(child: Child) -> float:
    """NOMINAL_S over the pass's mean reference time (see reference.py)."""
    return reference.NOMINAL_S / reference.mean_sample(child.result["reference"])


def latencies(child: Child, scale: bool = True) -> list[float]:
    """The pass's request latencies in seconds, each rescaled by the
    reference samples taken near it unless scale is False."""
    r = child.result
    if not scale:
        return r["latencies"]
    factors = reference.local_factors(r["reference"], r["reference_times"],
                                      r["request_windows"])
    return [t * f for t, f in zip(r["latencies"], factors)]


def kind_latencies_ms(passes: list[Child], q: float) -> dict[str, float]:
    """Per request kind, the median over passes of the kind's q-th
    percentile latency in each pass, in ms, rescaled."""
    per_kind: dict[str, list[float]] = {}
    for c in passes:
        by_kind: dict[str, list[float]] = {}
        for kind, latency in zip(c.result["request_kinds"], latencies(c)):
            by_kind.setdefault(kind, []).append(latency)
        for kind, values in by_kind.items():
            per_kind.setdefault(kind, []).append(1000 * percentile(values, q))
    return {kind: statistics.median(v) for kind, v in per_kind.items()}


def end_to_end(passes: list[Child], setups: list[Child], setup_reference: list[float],
               scale: bool = True) -> dict:
    """The end-to-end metrics; times are rescaled to the nominal speed
    unless scale is False: wall times by the pass's reference samples,
    request latencies by the samples near each request, set-up times by
    the reference bursts timed between the set-up spawns."""
    factors = [speed_factor(c) if scale else 1.0 for c in passes]
    setup_factor = reference.NOMINAL_S / reference.mean_sample(setup_reference) if scale else 1.0

    per_pass = [latencies(c, scale) for c in passes]

    def request_ms(q):
        """Median over passes of each pass's q-th percentile latency."""
        return 1000 * statistics.median(percentile(t, q) for t in per_pass)

    requests = sum(len(t) for t in per_pass)
    request_s = sum(sum(t) for t in per_pass)
    return {
        "setup_s": (statistics.median(c.setup_s for c in setups) * setup_factor, "s"),
        "wall_s": (statistics.median(c.result["wall_s"] * f for c, f in zip(passes, factors)),
                   "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in passes), "MiB"),
        "request_p50_ms": (request_ms(50), "ms"),
        "request_p99_ms": (request_ms(REQUEST_PERCENTILE), "ms"),
        "requests_per_s": (requests / request_s, "1/s"),
    }


def per_layer(traced: list[Child], plain: list[Child]) -> dict:
    """Per-layer metrics, the median over traced passes, with times
    rescaled like the end-to-end ones; the tracing overhead; and each
    request kind's median latency in the plain passes (0 where the
    workload sends no such request)."""
    def value(child, name, unit):
        v = child.result["layers"][name][0]
        return v * speed_factor(child) if unit == "s" else v

    def wall(children):
        return statistics.median(c.result["wall_s"] * speed_factor(c) for c in children)

    names = traced[0].result["layers"]
    out = {name: (statistics.median(value(c, name, unit) for c in traced), unit)
           for name, (_, unit) in names.items()}
    out["trace.overhead_s"] = (wall(traced) - wall(plain), "s")
    p50 = kind_latencies_ms(plain, 50)
    for kind in traced[0].result["request_kind_names"]:
        out[f"cli.request.{kind.replace('*', 'star')}.p50_ms"] = (p50.get(kind, 0.0), "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no idemarith package at {PACKAGE}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = _now()
    deadline = started + RUN_LIMIT_S

    setups = []
    setup_reference = reference.burst()
    for _ in range(SETUP_SPAWNS):
        child = spawn(args.workload, args.seed, "setup", deadline)
        setup_reference += reference.burst()
        if child.result is None:
            print(f"set-up spawn failed with status {child.status}", file=sys.stderr)
            return 1
        setups.append(child)

    modes = ("plain", "traced") if args.trace else ("plain",)
    runs: dict[str, list[Child]] = {m: [] for m in modes}
    durations: dict[str, list[float]] = {m: [] for m in modes}
    attempted = failed = 0
    errors: list[str] = []
    measure_start = _now()
    for i in itertools.count():
        mode = modes[i % len(modes)]
        # stop before a pass that would end past --seconds, once each mode has one
        spent = _now() - measure_start
        if all(runs.values()) and spent + statistics.median(durations[mode]) > args.seconds:
            break
        if _now() >= deadline:
            break
        t0 = _now()
        child = spawn(args.workload, args.seed, mode, deadline)
        durations[mode].append(_now() - t0)
        if child.result is None:
            attempted += 1
            failed += 1
            errors.append(f"{mode} pass exited with status {child.status}")
            continue
        runs[mode].append(child)
        attempted += child.result["attempted"]
        failed += child.result["failed"]
        errors.extend(child.result["errors"])
    if not all(runs.values()):
        print("no pass completed: " + "; ".join(errors[:5]), file=sys.stderr)
        return 1

    plain = runs["plain"]
    raw = end_to_end(plain, setups, setup_reference, scale=False)
    if args.trace:
        metrics = per_layer(runs["traced"], plain)
    else:
        metrics = end_to_end(plain, setups, setup_reference)
    env = environment(args.workload, args.seed, args.seconds, args.trace,
                      plain[0].result["params"])
    samples = sum(len(c.result["latencies"]) for c in plain)
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name][0]:.6g})" if name in raw else ""
        print(f"{name:<48} {value:>14.6g} {unit}{note}")
    by_kind = {q: kind_latencies_ms(plain, q) for q in (50, REQUEST_PERCENTILE)}
    if len(by_kind[50]) > 1:
        for kind in sorted(by_kind[50], key=by_kind[50].get):
            print(f"  {kind:<10} p50 {by_kind[50][kind]:9.4g} ms  "
                  f"p{REQUEST_PERCENTILE} {by_kind[REQUEST_PERCENTILE][kind]:9.4g} ms")
    print(f"{'error_rate':<48} {failed / attempted:>14.6g} ratio ({failed}/{attempted} operations)")
    print(f"samples: {len(setups)} set-ups; {len(plain)} plain passes, {samples} requests in"
          " all; request percentiles are taken per pass, then the median over passes")
    for line in errors[:10]:
        print(f"failed: {line}")
    record = {
        "environment": env,
        "passes": [{"mode": m, "setup_s": c.setup_s, "rss_mb": c.rss_mb,
                    "wall_s": c.result["wall_s"], "speed_factor": speed_factor(c),
                    "reference_samples": len(c.result["reference"]),
                    "requests": len(c.result["latencies"]),
                    "attempted": c.result["attempted"], "failed": c.result["failed"],
                    "spans": c.result.get("spans")}
                   for m, children in runs.items() for c in children],
        "setup_s_samples": [c.setup_s for c in setups],
        "setup_reference_samples": setup_reference,
        "request_kind_ms": {f"p{q}": v for q, v in by_kind.items()},
        "error_rate": failed / attempted,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
