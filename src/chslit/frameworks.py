"""Framework enumeration, the single-framework query rule, and the
contradiction search over pairs of frameworks.

A framework is a partition of the open paths that passed consistency,
together with its probability table.  Probabilities only mean anything
inside one framework; the query path enforces that, and the contradiction
finder shows what goes wrong when the rule is ignored: different frameworks
can retrodict, with certainty, that a detected particle took disjoint paths.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Partition
from .engine import (
    DETECTED,
    UNDETECTED,
    DEFAULT_TOLERANCE,
    MODE_MEDIUM,
    NULL_CONDITION,
    ExperimentModel,
    Framework,
    _check_mode_and_tolerance,
    _decide,
    _framework,
    history_probabilities,
)
from .errors import (
    ConditionUnsatisfied,
    MeaninglessCombination,
    NotInFramework,
    TooLarge,
)

#: Default cap on open-path count for enumeration: a guard, not a cost
#: model.  The search keeps 2**k subset sums, and an input with few nonzero
#: amplitudes has up to Bell(k) frameworks (Bell(12) = 4,213,597).
DEFAULT_MAX_PATHS = 12

#: An event this close to probability one counts as certain in a record.
CERTAINTY_THRESHOLD = 1.0 - 1e-10

#: An event this close to probability zero counts as null in a record.
NULL_THRESHOLD = 1e-10


@dataclass(frozen=True, eq=False)
class ContradictionRecord:
    """Two frameworks whose certainties cannot be combined.

    ``disjoint-certainty``: both events are certain given detection, yet
    they are disjoint.  ``implication-violation``: the first event is
    certain, sits inside the second, and the second is null.
    """

    kind: str
    framework_a: Framework
    framework_b: Framework
    event_a: frozenset[int]
    event_b: frozenset[int]
    p_a: float
    p_b: float


def _iter_rgs(n: int) -> Iterator[list[int]]:
    """Restricted growth strings of length n in lexicographic order.

    Yields an internal buffer that is mutated between steps; callers must
    copy anything they keep.
    """
    code = [0] * n
    prefix_max = [0] * n  # prefix_max[i] = max(code[:i]), entry 0 unused
    while True:
        yield code
        i = n - 1
        while i > 0 and code[i] == prefix_max[i] + 1:
            i -= 1
        if i == 0:
            return
        code[i] += 1
        new_max = code[i] if code[i] > prefix_max[i] else prefix_max[i]
        for j in range(i + 1, n):
            code[j] = 0
            prefix_max[j] = new_max


def _partition_from_code(code: list[int], items: Sequence[int]) -> Partition:
    """The partition of ``items`` that puts ``items[j]`` in group ``code[j]``."""
    groups: list[list[int]] = []
    for item, g in zip(items, code):
        if g == len(groups):
            groups.append([item])
        else:
            groups[g].append(item)
    return Partition(tuple(frozenset(g) for g in groups))


def enumerate_partitions(n: int, max_n: int = DEFAULT_MAX_PATHS) -> Iterator[Partition]:
    """Stream every set partition of n paths exactly once, coarsest first.

    The count is the n-th Bell number, so the size is capped; raise the cap
    deliberately if you mean it.  Validation happens at the call, not on the
    first draw from the stream.
    """
    if n < 1:
        raise ValueError("partition enumeration needs at least one path")
    if n > max_n:
        raise TooLarge(f"{n} paths exceeds the enumeration cap of {max_n}")
    return (_partition_from_code(code, range(n)) for code in _iter_rgs(n))


def build_framework(
    model: ExperimentModel,
    partition: Partition,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Framework:
    """Check a partition and wrap it with its probability table.

    Raises InconsistentSet when the partition fails consistency.
    """
    return history_probabilities(model, partition, mode=mode, tolerance=tolerance)


def enumerate_consistent_frameworks(
    model: ExperimentModel,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[Framework]:
    """All partitions of the open paths that form consistent sets, in the
    order of :func:`enumerate_partitions`, coarsest first.

    The diagonal is non-negative and sums to 1, so ``tol * max_diag <= tol``:
    in medium mode every group but the largest has ``|c_G|^2 <= |c_1||c_2| <=
    tol``, and in weak mode at most two groups have ``|c_G|^2 > 2 tol``
    (three would lie pairwise more than 60 degrees apart as lines).

    So each candidate is built once, from near-zero subsets plus at most one
    carrier group (two in weak mode) that is not near-zero, and judged by the
    engine's closed-form kernel.  Subset sums are accumulated left to right,
    like every group sum, so the verdicts equal ``check_consistency``'s bit
    for bit.  The cost follows the near-zero subsets and the frameworks
    returned, plus a table of 2**k subset sums.
    """
    _check_mode_and_tolerance(mode, tolerance)
    open_indices = model.open_indices
    k = len(open_indices)
    if k > max_paths:
        raise TooLarge(f"{k} open paths exceeds the enumeration cap of {max_paths}")
    scale = model.scale
    n_carriers = 1 if mode == MODE_MEDIUM else 2
    # sums[S] for the open positions in bit mask S: the sum without the
    # highest position, plus that position's amplitude.
    sums = [0j]
    for i in open_indices:
        amp = model.amplitudes[i]
        sums += [amp, *[s + amp for s in sums[1:]]]
    # The slack absorbs rounding and the floor underflow.  Marking too many
    # subsets near-zero only adds candidates; the kernel still decides.
    bound = n_carriers * tolerance * (1.0 + 1e-9) + 1e-300
    near = [mag * mag * scale <= bound for mag in map(abs, sums)]
    # A partition's restricted growth string, read as a base-k number, sorts
    # the frameworks; a group at slot g adds g times the weights of its
    # positions.  starts[j] lists each near-zero subset whose lowest position
    # is j, with its weight.
    weights = [k ** (k - 1 - j) for j in range(k)]
    starts: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for mask in itertools.compress(range(1, 1 << k), near[1:]):
        weight = sum(w for j, w in enumerate(weights) if mask >> j & 1)
        starts[(mask & -mask).bit_length() - 1].append((mask, weight))

    sum_of = sums.__getitem__

    @functools.cache
    def group_of(mask: int) -> frozenset[int]:
        return frozenset(i for j, i in enumerate(open_indices) if mask >> j & 1)

    found: list[tuple[int, Framework]] = []
    # The groups placed so far as position masks, by lowest position; the
    # carriers sit at the slots listed in ``carriers`` and may still grow.
    slots: list[int] = []
    carriers: list[int] = []

    def extend(rest: int, key: int) -> None:
        """Place the lowest of the unplaced positions ``rest``."""
        if not rest:
            for c in carriers:
                if near[slots[c]]:
                    return  # built elsewhere, with this carrier as a near-zero subset
            sizes = [*map(int.bit_count, slots)]
            verdict = _decide([*map(sum_of, slots)], sizes, len(slots), k, scale, mode, tolerance)
            if verdict[0]:
                partition = Partition(tuple(map(group_of, slots)))
                found.append((key, _framework(partition, mode, verdict)))
            return
        low = rest & -rest
        tail = rest ^ low
        j = low.bit_length() - 1
        for c in carriers:
            slots[c] |= low
            extend(tail, key + c * weights[j])
            slots[c] ^= low
        n = len(slots)
        if len(carriers) < n_carriers:
            carriers.append(n)
            slots.append(low)
            extend(tail, key + n * weights[j])
            slots.pop()
            carriers.pop()
        for subset, weight in starts[j]:
            if subset & rest == subset:
                slots.append(subset)
                extend(rest ^ subset, key + n * weight)
                slots.pop()

    extend((1 << k) - 1, 0)
    del extend  # it refers to itself: free the tables now, not at the next cycle collection
    found.sort(key=lambda item: item[0])
    return [framework for _, framework in found]


def query_event(framework: Framework, event: frozenset[int] | set[int], given_detected: bool = False) -> float:
    """Probability of an event, read inside a single framework.

    The event must be a union of the framework's groups; anything else is
    rejected rather than approximated, the single-framework rule in code.
    """
    event = frozenset(event)
    covered = [g for g in framework.partition.groups if g <= event]
    union = frozenset().union(*covered) if covered else frozenset()
    if union != event:
        raise NotInFramework(
            "event is not a union of this framework's groups; probabilities are "
            "only defined within a single consistent framework"
        )
    detected_sum = sum(framework.probabilities[(g, DETECTED)] for g in covered)
    if not given_detected:
        return detected_sum + sum(framework.probabilities[(g, UNDETECTED)] for g in covered)
    total = framework.detected_total()
    if total <= NULL_CONDITION:
        raise ConditionUnsatisfied("detection has zero probability; conditioning undefined")
    return detected_sum / total


def conditional_probability(
    model: ExperimentModel,
    partition: Partition,
    group: Iterable[int],
    given: str = DETECTED,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """Probability of a group union in the partition's framework, conditioned
    on detection."""
    if given != DETECTED:
        raise ValueError("conditioning is only supported on the detected branch")
    framework = build_framework(model, partition, mode=mode, tolerance=tolerance)
    return query_event(framework, frozenset(group), given_detected=True)


def combine_queries(framework_a: Framework, framework_b: Framework) -> Framework:
    """The common context of two frameworks, when one exists.

    Identical partitions combine to themselves; if one refines the other the
    finer (already consistent) framework is the joint context.  Otherwise no
    joint probability exists and the combination is refused.
    """
    if framework_a.mode != framework_b.mode:
        raise ValueError("frameworks must be built in the same consistency mode")
    if framework_a.partition.universe != framework_b.partition.universe:
        raise ValueError("frameworks must describe the same open paths")
    if framework_a.partition == framework_b.partition:
        return framework_a
    if framework_a.partition.refines(framework_b.partition):
        return framework_a
    if framework_b.partition.refines(framework_a.partition):
        return framework_b
    raise MeaninglessCombination(
        "neither framework refines the other; their probabilities cannot be combined",
        partition_a=framework_a.partition,
        partition_b=framework_b.partition,
    )


def _certain_and_null_events(
    framework: Framework,
) -> tuple[list[tuple[frozenset[int], float]], list[tuple[frozenset[int], float]]] | None:
    """Group-union events with conditional probability ~1 and ~0, or None
    when detection itself is a null event."""
    total = framework.detected_total()
    if total <= NULL_CONDITION:
        return None
    groups = framework.partition.groups
    detected = [framework.probabilities[(g, DETECTED)] for g in groups]
    certain: list[tuple[frozenset[int], float]] = []
    null: list[tuple[frozenset[int], float]] = []
    for r in range(1, len(groups) + 1):
        for combo in itertools.combinations(range(len(groups)), r):
            event = frozenset().union(*(groups[i] for i in combo))
            # Sum first, divide once: the same arithmetic as query_event, so
            # stored probabilities re-verify exactly.
            p = sum(detected[i] for i in combo) / total
            if p >= CERTAINTY_THRESHOLD:
                certain.append((event, p))
            elif p <= NULL_THRESHOLD:
                null.append((event, p))
    return certain, null


def _clashes(kind: str, framework_a: Framework, framework_b: Framework, events_a, events_b, clash) -> list[ContradictionRecord]:
    """A record for each event of ``events_a`` that clashes with one of ``events_b``."""
    return [
        ContradictionRecord(kind, framework_a, framework_b, event_a, event_b, p_a, p_b)
        for event_a, p_a in events_a
        for event_b, p_b in events_b
        if clash(event_a, event_b)
    ]


def find_contradictions(
    model: ExperimentModel,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[ContradictionRecord]:
    """Search all framework pairs for retrodictions that clash.

    Events are unions of groups within each framework (the only events a
    framework can speak about), conditioned on detection.  Emits one record
    per disjoint pair of certainties and one per certain event contained in
    another framework's null event.
    """
    frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance, max_paths=max_paths)
    judged = [(f, events) for f in frameworks if (events := _certain_and_null_events(f)) is not None]
    records: list[ContradictionRecord] = []
    for (fa, (certain_a, null_a)), (fb, (certain_b, null_b)) in itertools.combinations(judged, 2):
        records += _clashes("disjoint-certainty", fa, fb, certain_a, certain_b, frozenset.isdisjoint)
        records += _clashes("implication-violation", fa, fb, certain_a, null_b, frozenset.issubset)
        records += _clashes("implication-violation", fb, fa, certain_b, null_a, frozenset.issubset)
    return records
