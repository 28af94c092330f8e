"""Wraps the public functions and methods of every idemarith module in
spans, and turns the recorded spans into the per-layer metrics.

Only the traced run installs this.  Wrappers are bound wherever the
package holds a reference to the original (other modules' imports, the
suite runner table), so calls between modules are recorded too.
"""

from __future__ import annotations

import inspect

import idemarith
from idemarith import (
    algebra,
    analytic,
    arith,
    cli,
    convolution,
    idempotents,
    ramanujan_ops,
    suites,
)

import oracles
from spans import Recorder
from workloads import TABLE_SIZES

MODULES = (arith, algebra, convolution, idempotents, ramanujan_ops, analytic, suites, cli)
_DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__"}
# table-size suffix, so N = 1000 and N = 3000 are told apart
_SIZED = {"scalar_dirichlet", "scalar_lcm", "scalar_unitary",
          "dirichlet_convolve", "lcm_convolve", "unitary_convolve"}
_SUITE_PREFIX = "_suite_"
SUITE_RUNNERS = ("axioms", "product_law", "ramanujan", "transforms",
                 "even_identity", "convolution", "analytic")
_CACHE_NAMES = ("factorize", "divisors")


def _table_size(args) -> str:
    table = args[0]
    return f"n{getattr(table, 'n_max', None) or len(table)}"


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def _wrap_class(rec: Recorder, prefix: str, cls) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _DUNDERS:
            continue
        name = f"{prefix}.{cls.__name__}.{attr}"
        if cls is algebra.DiagonalOperator and attr == "__init__":
            member = _counting_init(rec, member)
        if inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(name, member))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(rec.wrap(name, member.__func__)))


def _counting_init(rec: Recorder, init):
    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.counters["algebra.diag.entries_built"] += len(self.entries)

    return counted


def _counting_run_suite(rec: Recorder, run_suite):
    def counted(*args, **kwargs):
        report = run_suite(*args, **kwargs)
        rec.counters["suites.checks"] += report["summary"]["total"]
        rec.counters["suites.checks_failed"] += report["summary"]["failed"]
        return report

    return counted


def install(rec: Recorder) -> dict:
    """Wrap every module's public callables; returns the lru caches of
    ``arith`` (unwrapped), keyed by name, for the cache metrics."""
    caches = {k: v for k, v in vars(arith).items() if hasattr(v, "cache_info")}
    replaced: dict[int, tuple[object, object]] = {}
    for module in MODULES:
        prefix = _short(module)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(rec, prefix, obj)
            elif callable(obj):
                fn = _counting_run_suite(rec, obj) if obj is suites.run_suite else obj
                label = _table_size if attr in _SIZED else None
                replaced[id(obj)] = (obj, rec.wrap(f"{prefix}.{attr}", fn, label))
    for key, runners in suites._RUNNERS.items():
        wrapped = []
        for fn in runners:
            if id(fn) not in replaced:
                name = f"suites.{fn.__name__.removeprefix(_SUITE_PREFIX)}"
                replaced[id(fn)] = (fn, rec.wrap(name, fn))
            wrapped.append(replaced[id(fn)][1])
        suites._RUNNERS[key] = tuple(wrapped)
    for module in MODULES + (idemarith,):
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]
    return caches


def layer_metrics(rec: Recorder, caches: dict) -> dict:
    """Per-layer metrics {name: (value, unit)} from the spans, the
    counters and the lru caches."""
    totals = rec.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(*names, prefix=None):
        return sum(t for k, (_, t) in totals.items()
                   if k in names or (prefix is not None and k.startswith(prefix)))

    diag = "algebra.DiagonalOperator"
    fam = "ramanujan_ops.OperatorFamily"
    out = {
        "algebra.diag.constructed": (calls(f"{diag}.__init__"), "count"),
        "algebra.diag.entries_built": (rec.counters["algebra.diag.entries_built"], "count"),
        "algebra.diag.mul.calls": (calls(f"{diag}.__mul__"), "count"),
        "algebra.diag.add.calls": (calls(f"{diag}.__add__"), "count"),
        "algebra.diag.distance.calls": (calls(f"{diag}.distance"), "count"),
        "algebra.diag.self_s": (self_s(prefix=f"{diag}."), "s"),
        "algebra.element_to_json.self_s": (self_s("algebra.element_to_json"), "s"),
        "idempotents.projection.calls": (calls("idempotents.IdempotentSystem.projection"), "count"),
        "idempotents.projection.self_s": (self_s("idempotents.IdempotentSystem.projection"), "s"),
        "idempotents.product_law.calls": (calls("idempotents.product_law"), "count"),
        "idempotents.product_law.self_s": (self_s("idempotents.product_law"), "s"),
        "idempotents.verify_axioms.self_s": (self_s("idempotents.verify_axioms"), "s"),
        "ramanujan_ops.c_operator.calls": (calls(f"{fam}.c_operator"), "count"),
        "ramanujan_ops.c_operator.self_s": (self_s(f"{fam}.c_operator"), "s"),
        "ramanujan_ops.t_operator.calls": (calls(f"{fam}.t_operator"), "count"),
        "ramanujan_ops.t_operator.self_s": (self_s(f"{fam}.t_operator"), "s"),
        "ramanujan_ops.c_operator_constructions.self_s":
            (self_s(f"{fam}.c_operator_constructions"), "s"),
    }
    for kernel in ("scalar_lcm", "scalar_dirichlet", "scalar_unitary"):
        for n in TABLE_SIZES:
            name = f"convolution.{kernel}.n{n}"
            out[f"{name}.self_s"] = (self_s(name), "s")
    out["convolution.dirichlet_inverse.self_s"] = (self_s("convolution.dirichlet_inverse"), "s")
    out["convolution.lehmer_identity_check.self_s"] = (
        self_s("convolution.lehmer_identity_check"), "s")
    visited = useful = 0
    for name, (count, _) in totals.items():
        for kernel in ("convolution.scalar_lcm.n", "convolution.lcm_convolve.n"):
            if name.startswith(kernel):
                n = int(name[len(kernel):])
                visited += count * n * n
                useful += count * oracles.lcm_useful_pairs(n)
    # computed from each call's table size, not counted inside the kernel
    out["convolution.lcm.useful_pair_ratio"] = (useful / visited if visited else 0.0,
                                                "computed-ratio")
    info = {k: caches[k].cache_info() for k in _CACHE_NAMES}
    out["arith.factorize.calls"] = (calls("arith.factorize"), "count")
    for k in _CACHE_NAMES:
        lookups = info[k].hits + info[k].misses
        out[f"arith.{k}.cache_hit_ratio"] = (info[k].hits / lookups if lookups else 0.0, "ratio")
    out["arith.ramanujan_sum.calls"] = (calls("arith.ramanujan_sum"), "count")
    out["arith.ramanujan_sum.self_s"] = (self_s("arith.ramanujan_sum"), "s")
    out["arith.cache_entries"] = (sum(c.cache_info().currsize for c in caches.values()), "count")
    for name in ("trace_identities", "det_c0", "p_operator_identities"):
        out[f"analytic.{name}.self_s"] = (self_s(f"analytic.{name}"), "s")
    for runner in SUITE_RUNNERS:
        out[f"suites.{runner}.self_s"] = (self_s(f"suites.{runner}"), "s")
    out["suites.checks"] = (rec.counters["suites.checks"], "count")
    out["suites.checks_failed"] = (rec.counters["suites.checks_failed"], "count")
    out["cli.request.self_s"] = (self_s("cli.request"), "s")
    out["cli.output_bytes"] = (rec.counters["cli.output_bytes"], "bytes")
    return out
