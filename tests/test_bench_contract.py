"""The calls and report keys that bench/workloads.py relies on.

The convolution-large workload calls these three functions as below and
reads these keys; renaming a keyword or dropping a key breaks the
benchmark, not just these tests.
"""

from idemarith import analytic
from idemarith.convolution import lehmer_identity_check


def test_lehmer_identity_check_report():
    a = [1] + [k % 7 - 3 for k in range(2, 61)]
    b = [k % 5 - 2 for k in range(1, 61)]
    report = lehmer_identity_check(a, b, tol=0)
    assert report["pass"] is True
    assert report["scalar_failures"] == []
    assert report["n_max"] == 60


def test_p_operator_identities_report():
    report = analytic.p_operator_identities(analytic.TruncatedSpace(60, 1), 60, pairs=1,
                                            seed=12345, tol=0)
    assert report["pass"] is True
    assert report["algebra_map_max_residual"] == 0
    assert report["euler_power_max_residual"] == 0


def test_trace_identities_report():
    report = analytic.trace_identities(12, 50)
    assert set(report) == {"n", "dim", "trace_c0", "trace_c0_closed", "trace_t0",
                           "trace_t0_closed", "pass"}
    assert report["pass"] is True
