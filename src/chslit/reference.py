"""The model in explicit Hilbert-space form: the oracle for the closed form.

A history is a chain of projectors, one per time step, and its class
operator ``C_h`` is their time-ordered product.  The decoherence functional
of two histories ``h``, ``h2`` is the inner product of their branch vectors,
``<C_h2 psi | C_h psi>``.  Here the projectors are dense matrices over the
path basis, built from the model's defining rules; ``chslit.engine``
decides every verdict from the closed form instead, and the tests check the
two against each other.

Only this module imports numpy, and no other module of the package imports
this one, so no command loads numpy; the tests import it by name.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

import numpy as np

from .core import Partition, _check_covers_open, _Checked, _Entity
from .engine import BRANCHES, DETECTED, ExperimentModel, _history_label
from .errors import ChslitError


class DimensionMismatch(ChslitError):
    """Projector chains or vectors disagree on Hilbert-space dimension."""


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class History(_Entity, _Checked, namedtuple("History", "chain label")):
    """A chain of projectors, one per time step, earliest first."""

    __slots__ = ()

    def __new__(cls, chain: Iterable[np.ndarray], label: str = "") -> History:
        return super().__new__(cls, tuple(chain), label)


class HistorySet(_Entity, namedtuple("HistorySet", "histories step_families")):
    """Histories sharing a chain length, with the projector family used at
    each time step."""

    __slots__ = ()

    def validate(self, atol: float = 1e-10) -> None:
        """Check each step family sums to the identity and is orthogonal."""
        for step, family in enumerate(self.step_families):
            n = family[0].shape[0]
            total = sum(family[1:], family[0].copy())
            if not np.allclose(total, np.eye(n), atol=atol):
                raise ValueError(f"projector family at step {step} does not sum to identity")
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    if not np.allclose(family[i] @ family[j], 0.0, atol=atol):
                        raise ValueError(f"projectors {i} and {j} at step {step} are not orthogonal")


# -- the dense model ------------------------------------------------------------


def initial_state(model: ExperimentModel) -> np.ndarray:
    """1/sqrt(k) on each of the k open paths."""
    scenario = model.scenario
    psi = np.zeros(scenario.n_paths, dtype=complex)
    psi[list(scenario.open_indices)] = 1.0 / np.sqrt(scenario.n_open)
    return _frozen(psi)


def detector_direction(model: ExperimentModel) -> np.ndarray:
    """conj(A)/|A| over all paths (the model's amplitudes are A rescaled)."""
    amps = np.array(model.amplitudes, dtype=complex)
    return _frozen(amps.conj() / np.linalg.norm(amps))


def branch_projector(model: ExperimentModel, branch: str) -> np.ndarray:
    """The projector onto the detector direction (detected) or onto its
    orthogonal complement (undetected)."""
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    detector = detector_direction(model)
    detected = np.outer(detector, detector.conj())
    undetected = np.eye(len(detector), dtype=complex) - detected
    return _frozen(detected if branch == DETECTED else undetected)


def group_projector(model: ExperimentModel, group: Iterable[int]) -> np.ndarray:
    n = model.scenario.n_paths
    p = np.zeros((n, n), dtype=complex)
    for index in group:
        model.scenario.check_index(index)
        p[index, index] = 1.0
    return _frozen(p)


# -- histories ------------------------------------------------------------------


def class_operator_apply(model: ExperimentModel, history: History, vector: np.ndarray) -> np.ndarray:
    """Apply the history's class operator: earliest projector first."""
    v = np.asarray(vector, dtype=complex)
    for projector in history.chain:
        p = np.asarray(projector)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch(f"projector of shape {p.shape} is not square")
        if p.shape[1] != v.shape[0]:
            raise DimensionMismatch(
                f"projector of shape {p.shape} cannot act on a vector of length {v.shape[0]}"
            )
        v = p @ v
    return v


def decoherence_functional(model: ExperimentModel, h: History, h2: History) -> complex:
    """Decoherence-functional value ``<C_h2 psi | C_h psi>``.

    Hermitian in its arguments; the diagonal is real and non-negative up to
    rounding.
    """
    if len(h.chain) != len(h2.chain):
        raise DimensionMismatch("histories must share a chain length")
    psi = initial_state(model)
    branch, branch2 = (class_operator_apply(model, history, psi) for history in (h, h2))
    return complex(np.vdot(branch2, branch))


def history_set_for_partition(model: ExperimentModel, partition: Partition) -> HistorySet:
    """The 2 * len(partition) histories: each group, then detected or not.

    When some paths are closed, the slit-time projector family is completed
    with the projector onto the closed subspace, so the family stays
    exhaustive; no history uses it, and it carries no initial weight.
    """
    _check_covers_open(model.scenario, partition)
    group_projectors = [group_projector(model, g) for g in partition.groups]
    branch_projectors = tuple(branch_projector(model, branch) for branch in BRANCHES)
    histories = []
    for branch, p_branch in zip(BRANCHES, branch_projectors):
        for g, p_group in zip(partition.groups, group_projectors):
            label = _history_label(model.scenario, g, branch)
            histories.append(History(chain=(p_group, p_branch), label=label))
    slit_family = list(group_projectors)
    closed = frozenset(range(model.scenario.n_paths)) - partition.universe
    if closed:
        slit_family.append(group_projector(model, closed))
    return HistorySet(histories=tuple(histories), step_families=(tuple(slit_family), branch_projectors))
