"""Checks that rescaling to the nominal CPU speed keeps a known ratio of work.

    python3 bench/rescale_check.py --workload NAME --pairs 8

Runs pairs of passes, each in a fresh interpreter under the periodic
reference sampler, as plain passes run.  One pass of a pair does the
workload once; the other does it twice, with the arith lru caches cleared
between the rounds, so it does twice the same work.  The order within a
pair alternates.  For raw and for rescaled wall time, prints each pair's
2x/1x ratio and the median and quartiles over pairs.  Both medians should
be close to 2; if rescaling absorbed part of a change in the program's
work, the rescaled one would not be.  Also prints the median reference
unit time of each kind of pass: the unit should not run slower or faster
because the program did more work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import reference
import run


def child(workload: str, rounds: int) -> None:
    from idemarith import arith

    import workloads

    caches = [v for v in vars(arith).values() if hasattr(v, "cache_clear")]
    with reference.Sampler() as sampler:
        p = workloads.Pass(sampler)
        for _ in range(rounds):
            for cache in caches:
                cache.cache_clear()
            workloads.WORKLOADS[workload](1, p)
    print(json.dumps({"wall_s": p.wall_s, "reference": sampler.samples, "failed": p.failed}))


def one_pass(workload: str, rounds: int) -> tuple[float, float, float]:
    """(raw wall seconds, rescaled wall seconds, mean unit seconds)."""
    out = subprocess.run([sys.executable, __file__, "--workload", workload,
                          "--child", str(rounds)], cwd=run.ROOT, env=run._child_env(),
                         capture_output=True, text=True, check=True, timeout=600).stdout
    result = json.loads(out.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload}: {result['failed']} operations failed")
    unit_s = reference.mean_sample(result["reference"])
    return result["wall_s"], result["wall_s"] * reference.NOMINAL_S / unit_s, unit_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    if args.child:
        child(args.workload, args.child)
        return 0
    pairs = []
    for i in range(args.pairs):
        order = (1, 2) if i % 2 == 0 else (2, 1)
        got = {rounds: one_pass(args.workload, rounds) for rounds in order}
        pairs.append(got)
        print(f"pair {i}: raw {got[2][0] / got[1][0]:.3f}  rescaled {got[2][1] / got[1][1]:.3f}",
              flush=True)
    for j, label in ((0, "raw"), (1, "rescaled")):
        ratios = [p[2][j] / p[1][j] for p in pairs]
        q = statistics.quantiles(ratios, n=4)
        print(f"{label:<9} 2x/1x median {statistics.median(ratios):.3f}"
              f"  quartiles {q[0]:.3f}..{q[2]:.3f}")
    for rounds in (1, 2):
        unit_ms = 1000 * statistics.median(p[rounds][2] for p in pairs)
        print(f"unit time in {rounds}x passes: median {unit_ms:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
