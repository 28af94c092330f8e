"""What the package keeps between calls: every table at most ``arith.HELD_BYTES``,
after a suite run and after requests past the cap, and no table of a suite run.

``assert_held_tables_stay_under_cap(n)`` checks that after ``run_suite("all", 1000)``,
``number_table(10**6)`` and one lcm product at N = n; the test and CI run it at 60,000.
"""

import math
import random

import numpy as np

from idemarith import arith, convolution, suites
from idemarith.arith import number_table
from idemarith.convolution import scalar_lcm
from idemarith.ramanujan_ops import LevelTable


def held_bytes() -> dict:
    """The bytes of each table the package keeps between calls, by name."""
    tables = {f"{kind} index": index for kind, index in convolution._indexes.items()}
    if arith._held[0] is not None:
        tables["number table"] = arith._held[0]
    return {name: sum(array.nbytes for array in table) for name, table in tables.items()}


def assert_nothing_held_past_the_cap():
    assert all(size <= arith.HELD_BYTES for size in held_bytes().values()), held_bytes()
    # nor does suites keep a level or class table of a run, or a cache of its own
    assert not [name for name, value in vars(suites).items() if isinstance(value, LevelTable)
                or hasattr(value, "cache_info") and value.__module__ == suites.__name__]


def assert_held_tables_stay_under_cap(n: int):
    """After a run, a number table past the cap and an lcm product on two n-entry int64
    tables whose index passes it, every kept table is at most the cap; the Dirichlet and
    unitary indexes on 1..n, within it, stay held, and the lcm product is right."""
    assert suites.run_suite("all", 1000)["pass"] is True
    assert_nothing_held_past_the_cap()
    run_table = arith._held[0]
    numbers = number_table(10**6)
    assert numbers.mu.size == 10**6 + 1 and numbers.mu[999_999] == 0  # 999,999 = 3^3 37037
    assert_nothing_held_past_the_cap()
    assert arith._held[0] is run_table  # the table past the cap left the held one as it was
    a, b = np.random.default_rng(0).integers(-9, 10, (2, n))
    got = scalar_lcm(a, b)
    for m in [n, *random.Random(0).sample(range(1, n + 1), 8)]:
        divs = arith.divisors(m)
        assert got[m - 1] == sum(int(a[k - 1]) * int(b[l - 1]) for k in divs for l in divs
                                 if math.lcm(k, l) == m), m
    assert_nothing_held_past_the_cap()
    held = {kind: len(index[2]) - 1 for kind, index in convolution._indexes.items()}
    assert held["dirichlet"] == held["unitary"] == n and held["lcm"] < n, held


def test_held_tables_stay_under_the_cap_after_large_requests():
    assert_held_tables_stay_under_cap(60_000)
