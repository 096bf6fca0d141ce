"""The experiment model and the one kernel that decides consistency.

The model lives in the path basis: one dimension per flattened path,
identity dynamics, and two time steps per history (which slit group, then
whether the detector fired).  The initial state is the equal-weight
superposition over the k open paths; the detector direction is
``conj(A)/|A|``.  ``chslit.reference`` builds it with explicit projectors,
as the oracle for the tests.

The detector projector is rank one and the path projectors are diagonal, so
with ``c_G = A_G / (sqrt(k) * |A|)`` the decoherence functional of a
partition is ``conj(c_H) * c_G`` between detected histories,
``delta_GH * |G|/k - conj(c_H) * c_G`` between undetected ones, and exactly
0 across.  Its diagonal supplies candidate probabilities; a partition whose
off-diagonal values vanish to tolerance is a consistent set (Griffiths,
J. Stat. Phys. 36, 219 (1984)).  ``_group_terms`` evaluates it for one
group.  A verdict reads only the largest diagonal value and the worst
detected entry, in medium mode the product of the two largest ``|c_G|``,
so ``_fold`` adds one group's terms to a state of three values, in any
order, and ``_settle`` judges that state.  The state numbers no group:
``check_consistency`` alone names the offending pair, from the groups'
terms, when its verdict is inconsistent.  Every verdict and probability in
the package comes from these functions.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property

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


def _reference():
    # Imported on first use, so that no command path loads numpy.
    from . import reference

    return reference


class ExperimentModel(_Entity, namedtuple("ExperimentModel", "scenario amplitudes scale")):
    """Immutable realization of a scenario: what the closed form reads.

    ``amplitudes`` are the path amplitudes times the power of two that puts
    the largest component in [1, 2): exact, so cancelling sums still cancel,
    and no square overflows or underflows anywhere in the double range.
    With ``scale = 1 / (k * sum |amplitudes|^2)``, a group whose amplitudes
    sum to ``s`` has ``|c_G|^2 = |s|^2 * scale``.  The dense members ``psi``,
    ``group_projector`` and ``branch_projector`` delegate to
    ``chslit.reference``, the one home of every dense object.  No
    ``__slots__``: ``psi`` is cached in the instance dict.
    """

    @cached_property
    def psi(self):
        return _reference().initial_state(self)

    def group_projector(self, group: Iterable[int]):
        return _reference().group_projector(self, group)

    def branch_projector(self, branch: str):
        return _reference().branch_projector(self, branch)


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
    return ExperimentModel(scenario, amplitudes, 1.0 / (scenario.n_open * norm_sq))


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
    if not (tolerance >= 0.0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    return abs(tolerance)  # -0 passes the test above; report it as 0


def _group_terms(total: complex, count: int, k: int, scale: float) -> tuple[complex, float, float, float]:
    """What the closed form reads of one group of ``count`` of the ``k``
    open paths whose model amplitudes sum to ``total``: that sum, its
    modulus, and the group's diagonal entries, the detected probability
    ``|c_G|^2`` and the undetected ``|G|/k - |c_G|^2``.  They depend on the
    group alone, whatever partition it sits in."""
    modulus = abs(total)
    detected = modulus * modulus * scale
    return total, modulus, detected, count / k - detected


#: The state of a verdict before any group is folded in, by mode; see :func:`_fold`.
_EMPTY = {MODE_MEDIUM: (0.0, 0.0, 0.0), MODE_WEAK: (0.0, 0.0, ())}


def _fold(state: tuple, terms: tuple[complex, float, float, float], mode: str) -> tuple:
    """The state of a partition's verdict with one more group, whose
    :func:`_group_terms` are ``terms``.

    The undetected block mirrors the detected one and the cross block
    vanishes, so a verdict reads only the largest diagonal value ``d`` and
    the worst detected entry: ``|conj(c_h) * c_g|`` of the two largest
    moduli (medium), or the largest real part ``|Re(conj(c_h) * c_g)|``
    over the group pairs (weak).  The state is ``(d, x, y)``: in medium mode
    the two largest moduli ``x >= y``; in weak mode the largest real part
    ``x``, unscaled, and in ``y`` each sum so far.  It holds values only, no
    group numbers, so it does not depend on the order the groups are folded
    in.
    """
    d, x, y = state
    total, modulus, detected, undetected = terms
    if detected > d:
        d = detected
    if undetected > d:
        d = undetected
    if mode == MODE_MEDIUM:
        if modulus > x:
            return d, modulus, x
        return d, x, (modulus if modulus > y else y)
    for s in y:
        # The real part of conj(a) * b is that of conj(b) * a, bit for bit.
        value = abs((total.conjugate() * s).real)
        if value > x:
            x = value
    return d, x, (*y, total)


def _settle(state: tuple, scale: float, tolerance: float, mode: str) -> tuple[bool, float, float]:
    """The verdict on a folded state: the worst entry, scaled, against the
    tolerance relative to the largest diagonal value, at least ``1/(2n)``.

    Returns ``(consistent, max_violation, tolerance_used)``.  A single group
    has no off-diagonal entry, and its state settles to a violation of 0.
    """
    d, x, y = state
    tolerance_used = tolerance * d
    violation = (x * y if mode == MODE_MEDIUM else x) * scale
    return violation <= tolerance_used, violation, tolerance_used


def _history_label(scenario: SlitScenario, group: Iterable[int], branch: str) -> str:
    return "{%s} then %s" % (",".join(scenario.path_label(i) for i in sorted(group)), branch)


def _framework(
    partition: Partition, mode: str, detected: Iterable, undetected: Iterable, violation: float, tolerance_used: float
) -> Framework:
    """Wrap a partition the kernel found consistent: the one assembler of
    every framework, for :func:`~chslit.frameworks.history_probabilities`
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
    k, scale = model.scenario.n_open, model.scale
    terms = [_group_terms(_sum_amplitudes(model.amplitudes[i] for i in g), len(g), k, scale) for g in partition.groups]
    state = _EMPTY[mode]
    for group_terms in terms:
        state = _fold(state, group_terms, mode)
    return terms, _settle(state, scale, tolerance, mode)


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
        # The worst entry's groups: in medium mode the two largest moduli,
        # the lower group first among equal ones (a stable sort); in weak
        # mode the first pair, in the order of combinations, whose real part
        # is the largest.
        if mode == MODE_MEDIUM:
            pair = sorted(sorted(range(len(terms)), key=lambda g: terms[g][1], reverse=True)[:2])
        else:
            real = lambda p: abs((terms[p[1]][0].conjugate() * terms[p[0]][0]).real)
            pair = max(itertools.combinations(range(len(terms)), 2), key=real)
        offending = tuple(_history_label(model.scenario, partition.groups[g], DETECTED) for g in pair)
    return ConsistencyReport(mode, consistent, violation, offending, tolerance_used)
