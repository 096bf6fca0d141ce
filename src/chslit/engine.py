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
J. Stat. Phys. 36, 219 (1984)).  ``_decide`` evaluates this closed form,
and every verdict and probability in the package comes from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .core import Partition, SlitScenario, _check_covers_open, _open_members, _sum_amplitudes
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


@dataclass(frozen=True, eq=False)
class ExperimentModel:
    """Immutable realization of a scenario: what the closed form reads.

    ``amplitudes`` are the path amplitudes times the power of two that puts
    the largest component in [1, 2): exact, so cancelling sums still cancel,
    and no square overflows or underflows anywhere in the double range.
    With ``scale = 1 / (k * sum |amplitudes|^2)``, a group whose amplitudes
    sum to ``s`` has ``|c_G|^2 = |s|^2 * scale``.  The dense members ``psi``,
    ``group_projector`` and ``branch_projector`` delegate to
    ``chslit.reference``, the one home of every dense object.
    """

    scenario: SlitScenario
    amplitudes: tuple[complex, ...]
    scale: float

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


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """A verdict: the largest off-diagonal violation against the tolerance
    it was held to, and, for an inconsistent set, the labels of the two
    histories whose decoherence value is that violation."""

    mode: str
    consistent: bool
    max_violation: float
    offending_pair: tuple[str, str] | None
    tolerance_used: float


@dataclass(frozen=True, eq=False)
class Framework:
    """A consistent partition with its probability table: the unit of valid
    inference about which path a particle took."""

    partition: Partition
    mode: str
    probabilities: Mapping[tuple[frozenset[int], str], float]
    report: ConsistencyReport

    def detected_total(self) -> float:
        return math.fsum(p for (_, branch), p in self.probabilities.items() if branch == DETECTED)


def _check_mode_and_tolerance(mode: str, tolerance: float) -> float:
    if mode not in MODES:
        raise ValueError(f"unknown consistency mode {mode!r}")
    if not (tolerance >= 0.0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    return abs(tolerance)  # -0 passes the test above; report it as 0


def _decide(
    sums: Sequence[complex], counts: Sequence[int], k: int, scale: float, mode: str, tolerance: float
) -> tuple[bool, list[float] | None, float, tuple[int, int] | None, float]:
    """The closed-form decoherence functional of one partition, judged.

    ``sums`` and ``counts`` hold each group's sum of model amplitudes and
    its size; ``k`` is the number of open paths.  The undetected block
    mirrors the detected one and the cross block vanishes, so the worst
    entry is the detected one of the first group pair ``g < h`` maximising
    ``|conj(c_h) * c_g|`` (medium), the product of the two largest moduli
    however ties are paired, or its real part (weak).  The tolerance is
    relative to the largest diagonal value, at least ``1/(2n)``.

    Returns ``(consistent, diagonal, max_violation, pair, tolerance_used)``:
    ``diagonal`` lists the detected then the undetected probabilities of the
    groups, and is None for an inconsistent set; ``pair`` holds the groups of
    the worst entry (None for a single group).
    """
    n = len(sums)
    moduli = [*map(abs, sums)]
    detected = [m * m * scale for m in moduli]
    diagonal = detected + [c / k - d for c, d in zip(counts, detected)]
    tolerance_used = tolerance * max(diagonal)
    pair, violation = None, 0.0
    if n > 1 and mode == MODE_MEDIUM:
        # The largest |c_g| * |c_h| pairs the two largest moduli; the stable
        # sort keeps the first of equal moduli.
        g, h = sorted(range(n), key=moduli.__getitem__, reverse=True)[:2]
        pair, violation = (g, h) if g < h else (h, g), moduli[g] * moduli[h] * scale
    elif n > 1:
        # max keeps the first of equal pairs, in the order of combinations.
        real = lambda gh: abs((sums[gh[1]].conjugate() * sums[gh[0]]).real)
        pair = max(itertools.combinations(range(n), 2), key=real)
        violation = real(pair) * scale
    if violation > tolerance_used:
        return False, None, violation, pair, tolerance_used
    return True, diagonal, violation, pair, tolerance_used


def _history_label(scenario: SlitScenario, group: Iterable[int], branch: str) -> str:
    return "{%s} then %s" % (",".join(scenario.path_label(i) for i in sorted(group)), branch)


def _framework(partition: Partition, mode: str, verdict) -> Framework:
    """Wrap a partition the kernel found consistent with its diagonal."""
    keys = [(group, branch) for branch in BRANCHES for group in partition.groups]
    report = ConsistencyReport(mode, True, verdict[2], None, verdict[4])
    return Framework(partition, mode, dict(zip(keys, verdict[1])), report)


def _verdict(model: ExperimentModel, partition: Partition, mode: str, tolerance: float):
    tolerance = _check_mode_and_tolerance(mode, tolerance)
    _check_covers_open(model.scenario, partition)
    groups = partition.groups
    sums = [_sum_amplitudes(model.amplitudes[i] for i in g) for g in groups]
    counts = [len(g) for g in groups]
    return _decide(sums, counts, model.scenario.n_open, model.scale, mode, tolerance)


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
    consistent, _, violation, pair, tolerance_used = _verdict(model, partition, mode, tolerance)
    offending = None
    if not consistent:
        offending = tuple(_history_label(model.scenario, partition.groups[g], DETECTED) for g in pair)
    return ConsistencyReport(mode, consistent, violation, offending, tolerance_used)
