"""What the enumeration and the contradiction search leave to the cyclic
garbage collector.

A full collection costs milliseconds once tens of thousands of frameworks
are alive, and the number of collections follows the number of objects the
collector tracks.  So neither search may leave a reference cycle behind,
and the enumeration's count of tracked objects per framework is bounded.
Both are measured with collection disabled, so that nothing is collected
behind the test's back.
"""

from __future__ import annotations

import gc

import pytest

from chslit import build_experiment, enumerate_consistent_frameworks, find_contradictions
from conftest import make_scenario


@pytest.mark.parametrize("mode", ["medium", "weak"])
@pytest.mark.parametrize("amplitudes", [[1, -1, 1], [1, 0, 0, 0, 0, 0]], ids=["paradox", "e1-6"])
def test_searches_leave_no_reference_cycles(amplitudes, mode):
    # The census's recursion refers to itself; without freeing it, one call
    # leaves its tables behind as a cycle.
    model = build_experiment(make_scenario(amplitudes))
    gc.collect()
    gc.disable()
    try:
        for search in (enumerate_consistent_frameworks, find_contradictions):
            result = search(model, mode=mode)
            assert gc.collect() == 0, search.__name__
            del result
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", ["medium", "weak"])
@pytest.mark.parametrize(
    "amplitudes",
    [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0.6 - 0.8j, 0, 0]],
    ids=["e1-7", "two-nonzero-8"],
)
def test_enumeration_allocates_few_tracked_objects_per_framework(amplitudes, mode):
    # The net count of objects the collector tracks, over one call after a
    # warm-up, with no earlier result freed in between: it repeats exactly.
    # It reads 5.44 per framework on both inputs, so one more object per
    # framework fails the bound.
    model = build_experiment(make_scenario(amplitudes))
    results = []
    gc.disable()
    try:
        results.append(enumerate_consistent_frameworks(model, mode=mode))
        before = gc.get_count()[0]
        results.append(enumerate_consistent_frameworks(model, mode=mode))
        allocated = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(results[-1]) == 877
    assert allocated <= 6 * 877
