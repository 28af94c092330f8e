"""One measured pass in a fresh interpreter, so the package's lru caches
start empty as they do for a CLI user.

    python3 bench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is "setup" (import the package and exit), "plain" or "traced".  The
last line of standard output is one JSON object.  Its "imported" field is
CLOCK_MONOTONIC just after the package import, which the parent compares
with the time it spawned this process.
"""

import time

import idemarith
import idemarith.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

# imported after the stamp: set-up covers the interpreter and the package only
import json
import sys
from pathlib import Path

import reference


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    out = {"imported": IMPORTED, "package": idemarith.__file__}
    if mode != "setup":
        import workloads
        from spans import Recorder

        sampler = reference.Sampler()
        rec = caches = None
        if mode == "traced":
            import instrument

            rec = Recorder(clock=sampler.clock)
            caches = instrument.install(rec)
        with sampler:
            p = workloads.Pass(sampler, rec)
            workloads.WORKLOADS[workload](seed, p)
        out.update(params=workloads.PARAMS[workload], wall_s=p.wall_s, latencies=p.latencies,
                   request_kinds=p.kinds, request_kind_names=workloads.REQUEST_KINDS,
                   request_windows=p.windows, reference=sampler.samples,
                   reference_times=sampler.times, attempted=p.attempted, failed=p.failed,
                   errors=p.errors)
        if rec is not None:
            out["layers"] = instrument.layer_metrics(rec, caches)
            out["spans"] = len(rec.start)
            rec.save(Path(argv[3]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
