"""The experiment model and the one kernel that decides consistency.

The model lives in the path basis: one dimension per flattened path,
identity dynamics, and two time steps per history (which slit group, then
whether the detector fired).  The initial state is the equal-weight
superposition over the k open paths; the detector direction is
``conj(A)/|A|``.  ``chslit.reference`` builds it with explicit projectors
from an :class:`ExperimentModel`, as the oracle for the tests.

The detector projector is rank one and the path projectors are diagonal, so
with ``c_G = A_G / (sqrt(k) * |A|)`` the decoherence functional of a
partition is ``conj(c_H) * c_G`` between detected histories,
``delta_GH * |G|/k - conj(c_H) * c_G`` between undetected ones, and exactly
0 across.  Its diagonal supplies candidate probabilities; a partition whose
off-diagonal values vanish to tolerance is a consistent set (Griffiths,
J. Stat. Phys. 36, 219 (1984)).

Verdicts are exact, on each amplitude as a Gaussian integer times one
power of two; reported numbers are floats from correctly rounded sums.
``_group_terms`` evaluates one group, ``_fold`` adds it to a state of three
values, in any order, ``_settle`` judges that state, and only
``check_consistency`` names the offending pair.  Every verdict and
probability in the package comes from these functions.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from .core import Partition, SlitScenario, _check_covers_open, _Entity, _open_members, _sum_amplitudes
from .errors import DegenerateDetector, NoOpenPaths

DETECTED = "detected"
UNDETECTED = "undetected"
BRANCHES = (DETECTED, UNDETECTED)

MODE_WEAK = "weak"
MODE_MEDIUM = "medium"
MODES = (MODE_WEAK, MODE_MEDIUM)

#: Default consistency tolerance, relative to the largest diagonal value.
DEFAULT_TOLERANCE = 1e-10

#: Conditioning events with probability at or below this are treated as null.
NULL_CONDITION = 1e-14


class ExperimentModel(_Entity, namedtuple("ExperimentModel", "scenario amplitudes scale points norm")):
    """Immutable realization of a scenario: what the closed form reads.

    ``amplitudes`` are the path amplitudes times the power of two that puts
    the largest component in [1, 2); with ``scale = 1 / (k * sum |amplitudes|^2)``
    they give the floats reported, ``|c_G|^2 = |s|^2 * scale`` for a sum ``s``.
    ``points`` are the path amplitudes exactly, each ``(p + iq) 2**E`` with
    ``E`` the least exponent as ``(p, q)``, and ``norm = sum p^2 + q^2``:
    every verdict is decided on these integers.
    """

    __slots__ = ()


def build_experiment(scenario: SlitScenario) -> ExperimentModel:
    """Construct the path-basis model for a scenario.

    The absolute detection probability inherits the equal-weight convention
    for the initial state; only conditional probabilities and ratios of
    counting rates are physically meaningful.
    """
    if not scenario.open_indices:
        raise NoOpenPaths(f"scenario {scenario.name!r} has no open path")
    largest = max(max(abs(a.real), abs(a.imag)) for a in scenario.amplitudes)
    if largest == 0.0:
        raise DegenerateDetector("all amplitudes vanish; detector direction undefined")
    shift = 1 - math.frexp(largest)[1]
    amplitudes = tuple(complex(math.ldexp(a.real, shift), math.ldexp(a.imag, shift)) for a in scenario.amplitudes)
    norm_sq = math.fsum(abs(a) ** 2 for a in amplitudes)
    # From the scenario's amplitudes: the shift above may round a small part, even to 0.
    parts = [c for a in scenario.amplitudes for c in (a.real, a.imag)]
    least = math.frexp(min(filter(None, map(abs, parts))))[1]  # the smallest nonzero part's
    ints = iter([int(m * 2.0**53) << (e - least) if m else 0 for m, e in map(math.frexp, parts)])
    points = tuple(zip(ints, ints))
    norm = sum(p * p + q * q for p, q in points)
    return ExperimentModel(scenario, amplitudes, 1.0 / (scenario.n_open * norm_sq), points, norm)


class ConsistencyReport(
    _Entity, namedtuple("ConsistencyReport", "mode consistent max_violation offending_pair tolerance_used")
):
    """A verdict: the largest off-diagonal violation against the tolerance
    it was held to, and, for an inconsistent set, the labels of the two
    histories whose decoherence value is that violation."""

    __slots__ = ()


class Framework(_Entity, namedtuple("Framework", "partition mode probabilities report")):
    """A consistent partition with its probability table, keyed by
    ``(group, branch)``: the unit of valid inference about which path a
    particle took."""

    __slots__ = ()

    def detected_total(self) -> float:
        return math.fsum(p for (_, branch), p in self.probabilities.items() if branch == DETECTED)


def _check_mode_and_tolerance(mode: str, tolerance: float) -> float:
    if mode not in MODES:
        raise ValueError(f"unknown consistency mode {mode!r}")
    # A comparison before float(): an int may exceed the double range.  A bool is no number.
    try:
        valid = (not isinstance(tolerance, bool) and hasattr(tolerance, "__float__")
                 and 0 <= tolerance <= sys.float_info.max)
        value = abs(float(tolerance))  # -0 passes the test above; report it as 0
    except (ArithmeticError, TypeError, ValueError):
        # A Decimal NaN raises where a float NaN compares false; an array with
        # axes compares elementwise, and does not convert to a float.
        valid = False
    if not valid:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    return value


def _group_terms(total: complex, exact: tuple[int, int], count: int, k: int, scale: float, norm: int) -> tuple:
    """``(total, size, detected, undetected, top, exact)`` of a group of ``count``
    of the ``k`` open paths, whose amplitudes sum to ``total`` in floats and to
    ``exact`` on the points of ``N = norm``: the floats ``|c_G|^2`` and ``|G|/k
    - |c_G|^2``, and ``|S|^2`` and the larger diagonal value in units of ``1/(k
    N)``, each paired with its float, so that equal integers order by it."""
    modulus = abs(total)
    detected = modulus * modulus * scale
    undetected = count / k - detected
    square = exact[0] ** 2 + exact[1] ** 2
    top = max((square, detected), (count * norm - square, undetected))
    return total, (square, modulus), detected, undetected, top, exact


def _real_part(terms: tuple, other: tuple) -> tuple[int, float]:
    """``|Re(conj(S) S')|`` of two groups' terms, exactly and on the float sums, in either order."""
    (p, q), (r, s) = terms[5], other[5]
    return abs(p * r + q * s), abs((terms[0].conjugate() * other[0]).real)


#: The state of a verdict before any group is folded in, by mode; see :func:`_fold`.
_EMPTY = {MODE_MEDIUM: ((0, 0.0), (0, 0.0), (0, 0.0)), MODE_WEAK: ((0, 0.0), (0, 0.0), ())}


def _fold(state: tuple, terms: tuple, mode: str) -> tuple:
    """The state of a partition's verdict with one more group, whose
    :func:`_group_terms` are ``terms``.

    The undetected block mirrors the detected one and the cross block
    vanishes, so a verdict reads only the largest diagonal value ``d`` and
    the worst detected entry: in medium mode the two largest sizes ``x >=
    y``, in weak mode the largest real part ``x``, with in ``y`` the terms
    of each group so far.  The state holds ``(integer, float)`` values only,
    no group numbers, so it does not depend on the order of folding.
    """
    d, x, y = state
    size, top = terms[1], terms[4]
    if top > d:
        d = top
    if mode == MODE_MEDIUM:
        if size > y:
            return (d, size, x) if size > x else (d, x, size)
        return d, x, y
    for other in y:
        value = _real_part(terms, other)
        if value > x:
            x = value
    return d, x, (*y, terms)


def _settle(state: tuple, scale: float, tolerance: float, ratio: tuple, mode: str) -> tuple[bool, float, float]:
    """``(consistent, max_violation, tolerance_used)`` of a folded state ``(D,
    X, Y)``, judged on its integers with ``tolerance = t / u`` (``ratio``):
    medium mode needs ``X Y u^2 <= (t D)^2``, weak mode ``X u <= t D``.  A
    float violation on the other side of the tolerance used (one below the
    double range reads 0) is reported as the nearest float on the verdict's side.

    A product of four positive integers whose bit lengths sum to ``L`` lies
    in ``[2^(L-4), 2^L)``, so the medium test first compares those sums, ``A``
    for ``X Y u^2`` and ``B`` for ``(t D)^2``, and multiplies only when they
    differ by less than 4: across the double range the products have
    thousands of bits."""
    ((d, largest), (x, worst), y), (t, u) = state, ratio
    if mode == MODE_MEDIUM:
        y, second = y
        consistent = True
        if y:
            a = x.bit_length() + y.bit_length() + 2 * u.bit_length()
            b = 2 * (t.bit_length() + d.bit_length())
            consistent = t > 0 and (a <= b - 4 or a < b + 4 and x * y * u * u <= (t * d) ** 2)
        worst *= second
    else:
        consistent = not x or x * u <= t * d
    violation, tolerance_used = worst * scale, tolerance * largest
    if consistent != (violation <= tolerance_used):
        violation = tolerance_used if consistent else math.nextafter(tolerance_used, math.inf)
    return consistent, violation, tolerance_used


def _history_label(scenario: SlitScenario, group: Iterable[int], branch: str) -> str:
    return "{%s} then %s" % (",".join(scenario.path_label(i) for i in sorted(group)), branch)


def _framework(
    partition: Partition, mode: str, detected: Iterable, undetected: Iterable, violation: float, tolerance_used: float
) -> Framework:
    """Wrap a partition the kernel found consistent: the one assembler of
    every framework, for :func:`~chslit.frameworks.build_framework`
    and the enumeration alike.  ``detected`` and ``undetected`` are the
    groups' table items, ``((group, branch), probability)`` in group order;
    the table lists every detected item, then every undetected one.
    Neither record type checks its fields (a contract test pins that
    neither has a ``__new__`` of its own), so both are built past
    namedtuple's Python-level ``__new__``."""
    new = tuple.__new__
    report = new(ConsistencyReport, (mode, True, violation, None, tolerance_used))
    return new(Framework, (partition, mode, dict([*detected, *undetected]), report))


def _verdict(model: ExperimentModel, partition: Partition, mode: str, tolerance: float):
    """The groups' terms and the kernel's verdict on them."""
    tolerance = _check_mode_and_tolerance(mode, tolerance)
    _check_covers_open(model.scenario, partition)
    k, scale, amplitudes, points, norm = model.scenario.n_open, model.scale, model.amplitudes, model.points, model.norm
    terms = [_group_terms(_sum_amplitudes(amplitudes[i] for i in g), tuple(map(sum, zip(*(points[i] for i in g)))),
                          len(g), k, scale, norm) for g in partition.groups]
    state = _EMPTY[mode]
    for group_terms in terms:
        state = _fold(state, group_terms, mode)
    return terms, _settle(state, scale, tolerance, tolerance.as_integer_ratio(), mode)


def group_decoherence_closed_form(
    scenario: SlitScenario,
    group: Iterable[int],
    group2: Iterable[int],
    branch: str,
) -> complex:
    """Analytic decoherence value for two slit-then-detection histories.

    The detected branch gives ``conj(c_G2) * c_G``; the undetected branch
    gives ``|G & G2|/k - conj(c_G2) * c_G``.  The groups may overlap.
    """
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    model = build_experiment(scenario)
    g, g2 = _open_members(scenario, group), _open_members(scenario, group2)
    c, c2 = (_sum_amplitudes(model.amplitudes[i] for i in members) for members in (g, g2))
    value = c2.conjugate() * c * model.scale
    return value if branch == DETECTED else len(set(g) & set(g2)) / scenario.n_open - value


def check_consistency(
    model: ExperimentModel,
    partition: Partition,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConsistencyReport:
    """Decide whether the partition's histories form a consistent set.

    Medium mode requires every off-diagonal value to vanish within tolerance;
    weak mode only constrains the real parts.  The tolerance is relative to
    the largest diagonal value, so the verdict does not depend on the
    overall amplitude scale; it must be finite and non-negative.
    """
    terms, (consistent, violation, tolerance_used) = _verdict(model, partition, mode, tolerance)
    offending = None
    if not consistent:
        # The worst entry's groups, those whose values the state kept: in
        # medium mode the two largest sizes, the lower group first among
        # equal ones (a stable sort); in weak mode the first pair, in the
        # order of combinations, whose real part is the largest.
        if mode == MODE_MEDIUM:
            pair = sorted(sorted(range(len(terms)), key=lambda g: terms[g][1], reverse=True)[:2])
        else:
            real = lambda p: _real_part(terms[p[1]], terms[p[0]])
            pair = max(itertools.combinations(range(len(terms)), 2), key=real)
        offending = tuple(_history_label(model.scenario, partition.groups[g], DETECTED) for g in pair)
    return ConsistencyReport(mode, consistent, violation, offending, tolerance_used)
