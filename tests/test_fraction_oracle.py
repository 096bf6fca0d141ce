"""Verdicts against an oracle on ``Fraction``s, across the double range.

The oracle shares no arithmetic with the kernel.  It reads each amplitude
component as the ``Fraction`` of its binary value and evaluates the
decoherence functional in closed form on rationals: ``c_G = A_G / (sqrt(k)
|A|)``, so a detected entry is ``conj(A_H) A_G / (k |A|^2)`` and a diagonal
value ``|A_G|^2 / (k |A|^2)`` or ``|G|/k - |A_G|^2 / (k |A|^2)``.  Undetected
entries off the diagonal are the detected ones negated, and entries across
the branches vanish, so the detected entries decide.  Every pair of groups
is compared, the full complex entry squared in medium mode and its real part
in weak mode, against the tolerance times the largest diagonal value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from chslit import (
    Partition,
    build_experiment,
    check_consistency,
    enumerate_consistent_frameworks,
    enumerate_partitions,
)
from chslit.engine import MODES
from conftest import make_scenario


def _oracle(amplitudes: list[complex], groups, mode: str, tolerance: float) -> bool:
    parts = [(Fraction(a.real), Fraction(a.imag)) for a in amplitudes]
    k, norm = len(parts), sum(x * x + y * y for x, y in parts)
    sums = [(sum(parts[i][0] for i in g), sum(parts[i][1] for i in g)) for g in groups]
    detected = [(x * x + y * y) / (k * norm) for x, y in sums]
    diagonal = detected + [Fraction(len(g), k) - p for g, p in zip(groups, detected)]
    allowed = Fraction(tolerance) * max(diagonal)
    for (x, y), (u, v) in combinations(sums, 2):
        real, imag = (x * u + y * v) / (k * norm), (x * v - y * u) / (k * norm)
        if (abs(real) > allowed) if mode == "weak" else (real * real + imag * imag > allowed * allowed):
            return False
    return True


#: Components +-m * 2**e, e anywhere in the double range or within 60 binades
#: of a base drawn for the example, so sums both interact and span it.  Two
#: of them still add to a finite float.
_LARGEST_EXPONENT = 968


@st.composite
def _amplitudes(draw) -> list[complex]:
    """Up to 6 amplitudes with planted cancellations x, -x and -(x + y)."""
    base = draw(st.integers(-1074, _LARGEST_EXPONENT - 60))
    exponent = st.one_of(st.integers(base, base + 60), st.integers(-1074, _LARGEST_EXPONENT))
    component = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, m, e: sign * math.ldexp(m, e),
                  st.sampled_from((-1, 1)), st.integers(1, 2**53 - 1), exponent),
    )
    k = draw(st.integers(1, 6))
    amplitudes = draw(st.lists(st.builds(complex, component, component), min_size=k, max_size=k))
    index = st.integers(0, k - 1)
    for i, j, l in draw(st.lists(st.tuples(index, index, index), max_size=3)):
        if i != j:
            amplitudes[j] = -amplitudes[i]
            if l not in (i, j):
                amplitudes[l] = -(amplitudes[i] + amplitudes[(l + 1) % k])
    return amplitudes


@st.composite
def _partitions(draw, k: int) -> Partition:
    """A partition of range(k), from a restricted growth string."""
    labels: list[int] = []
    for _ in range(k):
        labels.append(draw(st.integers(0, max(labels, default=-1) + 1)))
    return Partition(tuple(frozenset(i for i in range(k) if labels[i] == g) for g in range(max(labels) + 1)))


def _near_the_boundary(model, partition, mode) -> list[float]:
    """Tolerance 0, and the float ratio of the violation to the largest
    diagonal value, stepped by up to 4 ulps each way."""
    ratio = check_consistency(model, partition, mode, 0.0).max_violation
    ratio /= check_consistency(model, partition, mode, 1.0).tolerance_used
    tolerances = [0.0, ratio]
    for direction in (-math.inf, math.inf):
        step = ratio
        for _ in range(4):
            step = math.nextafter(step, direction)
            tolerances.append(step)
    return [t for t in tolerances if t >= 0.0]


@settings(max_examples=100, deadline=None)
@given(amplitudes=_amplitudes(), data=st.data())
def test_verdicts_equal_the_fraction_oracle(amplitudes, data):
    if not any(amplitudes):
        return
    model = build_experiment(make_scenario(amplitudes))
    partition = data.draw(_partitions(len(amplitudes)))
    for mode in MODES:
        for tolerance in _near_the_boundary(model, partition, mode):
            report = check_consistency(model, partition, mode, tolerance)
            assert report.consistent == _oracle(amplitudes, partition.groups, mode, tolerance), (mode, tolerance)
            # The reported numbers sit on the verdict's side of each other.
            assert report.consistent == (report.max_violation <= report.tolerance_used), (mode, tolerance)


@settings(max_examples=60, deadline=None)
@given(amplitudes=_amplitudes(), data=st.data())
def test_enumeration_equals_a_walk_through_check_consistency(amplitudes, data):
    if not any(amplitudes):
        return
    model = build_experiment(make_scenario(amplitudes))
    k = len(amplitudes)
    partition = data.draw(_partitions(k))
    for mode in MODES:
        for tolerance in (0.0, data.draw(st.sampled_from(_near_the_boundary(model, partition, mode)))):
            listed = [(f.partition, f.report.max_violation.hex(), f.report.tolerance_used.hex())
                      for f in enumerate_consistent_frameworks(model, mode, tolerance)]
            reports = [(p, check_consistency(model, p, mode, tolerance)) for p in enumerate_partitions(k)]
            walked = [(p, r.max_violation.hex(), r.tolerance_used.hex()) for p, r in reports if r.consistent]
            assert listed == walked, (mode, tolerance)
