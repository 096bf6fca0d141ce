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
import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .core import Partition, _Entity, _sum_amplitudes
from .engine import (
    BRANCHES,
    DETECTED,
    DEFAULT_TOLERANCE,
    MODE_MEDIUM,
    NULL_CONDITION,
    ExperimentModel,
    Framework,
    _EMPTY,
    _check_mode_and_tolerance,
    _entries,
    _fold,
    _framework,
    _group_terms,
    _settle,
    _verdict,
)
from .errors import (
    ConditionUnsatisfied,
    InconsistentSet,
    MeaninglessCombination,
    NotInFramework,
    TooLarge,
)

#: Default cap on open-path count for enumeration: a guard, not a cost
#: model.  An input with few nonzero amplitudes has up to Bell(k)
#: frameworks (Bell(12) = 4,213,597), and weak mode keeps 2**k subset sums.
DEFAULT_MAX_PATHS = 12

#: An event this close to probability one counts as certain in a record.
CERTAINTY_THRESHOLD = 1.0 - 1e-10

#: An event this close to probability zero counts as null in a record.
NULL_THRESHOLD = 1e-10


class ContradictionRecord(
    _Entity, namedtuple("ContradictionRecord", "kind framework_a framework_b event_a event_b p_a p_b")
):
    """Two frameworks whose certainties cannot be combined.

    ``disjoint-certainty``: both events are certain given detection, yet
    they are disjoint.  ``implication-violation``: the first event is
    certain, sits inside the second, and the second is null.

    A record is an immutable tuple with no per-instance dict, so a search
    emitting tens of thousands pays a tuple's cost for each.  Like an
    object, it compares equal only to itself and hashes by identity.
    """

    __slots__ = ()


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

    def place(groups: list[list[int]], path: int) -> Iterator[Partition]:
        # The path joins each open group in turn, then opens a new one: the
        # lexicographic order of the restricted growth strings.
        if path == n:
            yield Partition._trusted(tuple(map(frozenset, groups)))
            return
        for group in groups:
            group.append(path)
            yield from place(groups, path + 1)
            group.pop()
        groups.append([path])
        yield from place(groups, path + 1)
        groups.pop()

    return place([], 0)


def history_probabilities(
    model: ExperimentModel,
    partition: Partition,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Framework:
    """The partition as a framework: its diagonal decoherence values as
    probabilities, keyed by (group, branch), refused with InconsistentSet
    unless the partition passes consistency."""
    terms, (consistent, violation, _, tolerance_used) = _verdict(model, partition, mode, tolerance)
    if not consistent:
        raise InconsistentSet(
            f"partition is not a consistent set in {mode} mode: "
            f"max violation {violation:.3e} exceeds tolerance {tolerance_used:.3e}"
        )
    return _framework(partition, mode, map(_entries, partition.groups, terms), violation, tolerance_used)


build_framework = history_probabilities


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``: a cache whose
    creation costs a dict, where ``functools.cache`` also copies the
    wrapped function's metadata, several microseconds per enumeration."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _subset_sums(amplitudes: list[complex]) -> list[complex]:
    """Every subset's sum, indexed by the bit mask of its positions: the
    sum without the highest position, plus that position's amplitude."""
    sums = [0j]
    for amp in amplitudes:
        sums += [s + amp for s in sums]
    return sums


def _slack(amplitudes: list[complex]) -> float:
    """A bound on how far a sum of some of the amplitudes, added in at most
    ``k - 1`` float additions, lies from the exact sum.  A complex addition
    rounds each component, so it is off by at most 2**-53 of its result, a
    partial sum of modulus at most ``sum |a|``; the factor 2 left over covers
    the rounding of that bound."""
    return len(amplitudes) * 2.0**-52 * math.fsum(map(abs, amplitudes))


def _near_zero(amplitudes: list[complex], bound: float) -> set[int]:
    """The bit masks of the positions whose amplitudes may sum to a modulus
    of at most ``sqrt(bound)``: every mask whose exact sum does, the empty
    one included, and possibly a few more.

    A meet in the middle (Horowitz and Sahni, JACM 21, 277 (1974)): the
    subset sums ``L`` of the low ``h = k // 2`` positions and ``R`` of the
    others are tabulated, and mask ``lo | hi << h`` is kept when
    ``|L + R| <= radius``.  Both half sums are added left to right and
    ``L + R`` adds once more: at most ``k - 1`` additions, so it is off the
    exact sum by at most ``(k - 1) 2**-53 sum |a|``, below :func:`_slack`,
    and ``radius = sqrt(bound) + slack`` keeps every mask the kernel could
    judge near-zero.

    Only pairs whose sort components nearly cancel are tested.  The low sums
    are sorted by one component ``x`` (the real part, or the imaginary part
    when the amplitudes spread more along it), and a high sum with component
    ``y`` is tested against those with ``x`` in ``[-y - window, -y + window]``.
    A kept pair has ``|fl(x + y)| <= radius``, so ``|x + y| <= radius (1 +
    2**-52)``; the window's ends are rounded by at most ``2**-53 (|y| +
    window)``, with ``|y| <= sum |a|``.  ``window = radius (1 + 2**-50) +
    slack`` covers both, so the window drops no pair the test would keep.
    The cost is a sort and two bisections per high sum, O(k 2**(k/2)), plus
    one test per pair in a window, never more than the 2**k of a full table.
    """
    h = len(amplitudes) // 2
    slack = _slack(amplitudes)
    radius = math.sqrt(bound) + slack
    window = radius * (1.0 + 2.0**-50) + slack
    real, imag = operator.attrgetter("real"), operator.attrgetter("imag")
    part = real if sum(map(abs, map(real, amplitudes))) >= sum(map(abs, map(imag, amplitudes))) else imag
    low, high = _subset_sums(amplitudes[:h]), _subset_sums(amplitudes[h:])
    order = sorted(range(len(low)), key=[*map(part, low)].__getitem__)
    keys = [part(low[lo]) for lo in order]
    targets = [-y for y in map(part, high)]
    first = [*map(bisect_left, itertools.repeat(keys), [y - window for y in targets])]
    last = [*map(bisect_right, itertools.repeat(keys), [y + window for y in targets])]
    near = set()
    for hi in itertools.compress(range(len(high)), map(operator.lt, first, last)):
        r, top = high[hi], hi << h
        near.update(top | lo for lo in order[first[hi] : last[hi]] if abs(low[lo] + r) <= radius)
    return near


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
    tol``, and in weak mode at most two groups A, B have ``|c_G|^2 > 2 tol``
    (three would lie pairwise more than 60 degrees apart as lines), with
    ``|Re(conj(c_B) c_A)| <= tol``.  So each candidate is built once, from
    near-zero subsets plus at most one carrier group that is not near-zero,
    in weak mode also split into such an A and B, and judged by the engine's
    kernel on the group sums ``check_consistency`` uses.  What depends on a
    group alone, its sum, its two diagonal terms (the probabilities) and
    its table keys, is computed once per group mask, not once per candidate
    it sits in, and each framework is assembled from those pieces.  The
    verdict is folded along the recursion: each near-zero subset is folded
    into the engine's state (:func:`~chslit.engine._fold`) when it is
    placed, the carrier or its split at the leaf, and the leaf settles the
    state, so a medium-mode candidate is judged in O(1), with the numbers
    ``check_consistency`` reports for its partition, bit for bit.  The
    cost follows the near-zero subsets and frameworks returned, plus the
    2**(k/2)-entry half tables of :func:`_near_zero`; weak mode adds a
    2**k-entry subset-sum table and 2**(r-1) splits per r-path carrier.
    """
    tolerance = _check_mode_and_tolerance(mode, tolerance)
    open_indices = model.scenario.open_indices
    k = len(open_indices)
    if k > max_paths:
        raise TooLarge(f"{k} open paths exceeds the enumeration cap of {max_paths}")
    scale = model.scale
    amplitudes = [model.amplitudes[i] for i in open_indices]
    # The near-zero subsets as bit masks of open positions.  Their sums, and
    # in weak mode the table sums[S] of every subset S, are off the exact
    # sums by less than ``slack``, so the screens widen their bounds by that
    # much (and ``bound`` by a factor for the kernel's own rounding).  Passing
    # too many candidates only costs kernel calls: the kernel decides on the
    # correctly rounded sums in ``terms_of``.
    bound = (1 if mode == MODE_MEDIUM else 2) * tolerance * (1.0 + 1e-9) / scale
    near = _near_zero(amplitudes, bound)
    if mode != MODE_MEDIUM:
        sums, slack = _subset_sums(amplitudes), _slack(amplitudes)
    # A partition's restricted growth string, read as a base-k number, sorts
    # the frameworks; a group at slot g adds g times its weight, the sum of
    # its positions' weights.  starts[j] lists each near-zero subset whose
    # lowest position is j, with its weight.
    weights = [k ** (k - 1 - j) for j in range(k)]
    # Per group mask: the kernel's terms, the group and its table entries.
    exact = lambda mask: _sum_amplitudes(amplitudes[j] for j in range(k) if mask >> j & 1)
    terms_of = _Memo(lambda mask: _group_terms(exact(mask), mask.bit_count(), k, scale))
    group_of = _Memo(lambda mask: frozenset(i for j, i in enumerate(open_indices) if mask >> j & 1))
    entries_of = _Memo(lambda mask: _entries(group_of[mask], terms_of[mask]))
    starts: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for mask in sorted(near - {0}):
        starts[(mask & -mask).bit_length() - 1].append((mask, sum(weights[j] for j in range(k) if mask >> j & 1)))

    found: list[tuple[int, Framework]] = []

    def judge(groups: list[int], key: int, state: tuple) -> None:
        consistent, violation, _, tolerance_used = _settle(state, scale, tolerance, mode)
        if consistent:
            # The groups are disjoint and ordered by lowest position, which
            # orders them by lowest path index too.
            partition = Partition._trusted(tuple(map(group_of.__getitem__, groups)))
            entries = map(entries_of.__getitem__, groups)
            found.append((key, _framework(partition, mode, entries, violation, tolerance_used)))

    # The groups placed so far as position masks, by lowest position; the
    # carrier, at slot ``carrier`` once it is opened, may still grow.  Each
    # group is folded into the verdict's state under the bit of its lowest
    # position, which numbers the groups in partition order: a near-zero
    # subset when it is placed, the carrier (or its split) at the leaf.
    slots: list[int] = []

    def extend(rest: int, key: int, carrier: int | None, state: tuple) -> None:
        """Place the lowest of the unplaced positions ``rest``; ``state``
        has every placed group but the carrier folded in."""
        if not rest:
            whole = 0 if carrier is None else slots[carrier]
            if not whole:
                judge(slots, key, state)
            elif whole not in near:  # else built elsewhere, with the carrier as a near-zero subset
                judge(slots, key, _fold(state, whole & -whole, terms_of[whole], mode))
            # Weak mode splits the carrier into A, which keeps its lowest
            # position, and B, neither near-zero, whose table sums pass
            # |Re(conj(s_B) s_A)| <= bound, widened by the slack of both sums
            # and by 2**-50 |s_A||s_B| for rounding the product.  An empty
            # ``whole`` has no splits.
            others = b = 0 if mode == MODE_MEDIUM else whole & (whole - 1)
            while b:
                a = whole ^ b
                if not (a in near or b in near):
                    m_a, m_b = abs(sums[a]), abs(sums[b])
                    dot = sums[a].real * sums[b].real + sums[a].imag * sums[b].imag
                    if abs(dot) <= bound + slack * (m_a + m_b + slack) + 2.0**-50 * m_a * m_b:
                        groups = sorted([*slots[:carrier], a, b, *slots[carrier + 1 :]], key=lambda m: m & -m)
                        key_ab = sum(g * weights[j] for g, m in enumerate(groups) for j in range(k) if m >> j & 1)
                        judge(groups, key_ab, _fold(_fold(state, a & -a, terms_of[a], mode), b & -b, terms_of[b], mode))
                b = (b - 1) & others
            return
        low = rest & -rest
        j = low.bit_length() - 1
        n = len(slots)
        if carrier is None:
            slots.append(low)
            extend(rest ^ low, key + n * weights[j], n, state)
            slots.pop()
        else:
            slots[carrier] |= low
            extend(rest ^ low, key + carrier * weights[j], carrier, state)
            slots[carrier] ^= low
        for subset, weight in starts[j]:
            if subset & rest == subset:
                slots.append(subset)
                extend(rest ^ subset, key + n * weight, carrier, _fold(state, low, terms_of[subset], mode))
                slots.pop()

    extend((1 << k) - 1, 0, None, _EMPTY[mode])
    del extend  # it refers to itself: free the tables now, not at the next cycle collection
    return [framework for _, framework in sorted(found, key=lambda item: item[0])]


def query_event(framework: Framework, event: frozenset[int] | set[int], given_detected: bool = False) -> float:
    """Probability of an event, read inside a single framework.

    The event must be a union of the framework's groups; anything else is
    rejected rather than approximated, the single-framework rule in code.
    """
    event = frozenset(event)
    covered = [g for g in framework.partition.groups if g <= event]
    if frozenset().union(*covered) != event:
        raise NotInFramework(
            "event is not a union of this framework's groups; probabilities are "
            "only defined within a single consistent framework"
        )
    branches = (DETECTED,) if given_detected else BRANCHES
    event_sum = math.fsum(framework.probabilities[(g, branch)] for branch in branches for g in covered)
    if not given_detected:
        return event_sum
    total = framework.detected_total()
    if total <= NULL_CONDITION:
        raise ConditionUnsatisfied("detection has zero probability; conditioning undefined")
    return event_sum / total


def conditional_probability(
    model: ExperimentModel,
    partition: Partition,
    group: Iterable[int],
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
) -> float:
    """Probability of a group union in the partition's framework, conditioned
    on detection."""
    framework = build_framework(model, partition, mode=mode, tolerance=tolerance)
    return query_event(framework, frozenset(group), given_detected=True)


def combine_queries(framework_a: Framework, framework_b: Framework) -> Framework:
    """The common context of two frameworks, when one exists.

    If one partition refines the other (every partition refines itself),
    the finer, already consistent, framework is the joint context.
    Otherwise no joint probability exists and the combination is refused.
    """
    if framework_a.mode != framework_b.mode:
        raise ValueError("frameworks must be built in the same consistency mode")
    if framework_a.partition.universe != framework_b.partition.universe:
        raise ValueError("frameworks must describe the same open paths")
    if framework_a.partition.refines(framework_b.partition):
        return framework_a
    if framework_b.partition.refines(framework_a.partition):
        return framework_b
    raise MeaninglessCombination(
        "neither framework refines the other; their probabilities cannot be combined",
        partition_a=framework_a.partition,
        partition_b=framework_b.partition,
    )


#: Events of one framework as ``(path mask, event, probability)``.
_Events = list[tuple[int, frozenset[int], float]]


def _clash_summary(framework: Framework, mask_of: Callable[[frozenset[int]], int]):
    """What bounds a framework's certain and null events, or None when
    detection itself is a null event.

    Returns ``(core, span, detected, total, masks)``: ``masks`` holds each
    group as a bit mask of paths (``mask_of``) and ``detected`` its detected
    probability.  An event's conditional probability is the correctly
    rounded sum of its groups' terms, divided once by ``total``, as in
    :func:`query_event`.  Adding a non-negative term to such a sum never
    lowers it, so certain events are closed upward and null events downward.
    Hence every certain event contains ``core``, the paths of the groups G
    for which "every group but G" is not certain, and every null event lies
    inside ``span``, the paths of the groups that are null on their own.
    When the whole universe is not certain, no event is, and ``core`` is the
    universe.  The bounds use the same sums as the events, so they are exact.
    """
    groups = framework.partition.groups
    detected = [framework.probabilities[(g, DETECTED)] for g in groups]
    total = math.fsum(detected)
    if total <= NULL_CONDITION:
        return None
    masks = [*map(mask_of, groups)]
    core = sum(
        m for g, m in enumerate(masks) if math.fsum(detected[:g] + detected[g + 1 :]) / total < CERTAINTY_THRESHOLD
    )
    span = sum(m for m, p in zip(masks, detected) if p / total <= NULL_THRESHOLD)
    return core, span, detected, total, masks


def _clash_events(summary, event: Callable[[int], frozenset[int]]) -> tuple[_Events, _Events]:
    """The certain and the null group-union events of a summarised framework,
    as ``(path mask, event(path mask), probability)`` in the order of the
    unions' group tuples: by size, then lexicographically.  A null event
    carries the complement of its path mask instead, so that a certain event
    lies inside it exactly when their masks are disjoint.

    Certain events are the groups in ``core`` plus any others, null events
    any non-empty union of groups inside ``span``.  Adding the same groups to
    every tuple keeps their order, so both lists are in that order.
    """
    core, span, detected, total, masks = summary

    def unions(fixed: list[int], pool: list[int], keep: Callable[[float], bool]) -> _Events:
        # The empty union is never certain, and no null event.
        found: _Events = []
        for r in range(not fixed, len(pool) + 1):
            for extra in itertools.combinations(pool, r):
                combo = (*fixed, *extra)
                # Sum first, divide once: the same arithmetic as query_event,
                # so stored probabilities re-verify exactly.
                p = math.fsum(detected[g] for g in combo) / total
                if keep(p):
                    found.append((mask := sum(masks[g] for g in combo), event(mask), p))
        return found

    fixed = [g for g, m in enumerate(masks) if m & core]
    free = [g for g, m in enumerate(masks) if not m & core]
    inside = [g for g, m in enumerate(masks) if m & span]
    # Certain events have p >= CERTAINTY_THRESHOLD, null events p <= NULL_THRESHOLD.
    null = [(~mask, e, p) for mask, e, p in unions([], inside, NULL_THRESHOLD.__ge__)]
    return unions(fixed, free, CERTAINTY_THRESHOLD.__le__), null


def _clash_kinds(key_a: tuple[int, int], key_b: tuple[int, int]) -> tuple[bool, bool, bool]:
    """Which records two frameworks with these ``(core, span)`` can give:
    disjoint certainties need disjoint cores, and a certain event of one
    inside a null event of the other needs the one's core inside the other's
    span.  Returns the three tests in record order."""
    (core_a, span_a), (core_b, span_b) = key_a, key_b
    return not core_a & core_b, not core_a & ~span_b, not core_b & ~span_a


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
    another framework's null event.  Records come pair by pair in the order
    of ``itertools.combinations`` over the frameworks; within a pair, the
    disjoint certainties, then a's certainties in b's null events, then b's
    in a's.

    Frameworks are bucketed by the ``(core, span)`` of
    :func:`_clash_summary`, and only pairs from buckets that pass
    :func:`_clash_kinds` are visited, so the cost follows the pairs that can
    clash, not all pairs.  A framework's events are tabulated when it first
    sits in a visited pair; clashes are tested on path masks, and each
    event set is built once per mask.  Each event list also has a floor, the
    AND of its masks: the paths in every certain event, or outside every
    null event.  A certain event that meets the other list's floor meets
    every mask in it, so it is dropped before its inner loop, and the tests
    made follow the certain events that clash.
    """
    frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance, max_paths=max_paths)
    mask_of = functools.cache(lambda group: sum(1 << i for i in group))
    judged = [(f, summary) for f in frameworks if (summary := _clash_summary(f, mask_of)) is not None]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (_, (core, span, *_)) in enumerate(judged):
        buckets.setdefault((core, span), []).append(i)
    # Every pair i < j from buckets that can clash, with the record kinds
    # seen from i's side, in the order of itertools.combinations.
    pairs: list[tuple[int, int, tuple[bool, bool, bool]]] = []
    for key_a, key_b in itertools.combinations_with_replacement(buckets, 2):
        disjoint, a_in_b, b_in_a = kinds = _clash_kinds(key_a, key_b)
        if any(kinds):
            flipped = (disjoint, b_in_a, a_in_b)
            for i in buckets[key_a]:
                for j in buckets[key_b]:
                    if i < j:
                        pairs.append((i, j, kinds))
                    elif key_a != key_b:
                        pairs.append((j, i, flipped))
    pairs.sort()

    event = functools.cache(lambda mask: frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
    # Each event list with its floor: the AND of its masks, -1 when empty.
    floored = lambda es: (es, functools.reduce(operator.and_, [m for m, _, _ in es], -1))
    events = functools.cache(lambda i: [*map(floored, _clash_events(judged[i][1], event))])
    # ContradictionRecord checks nothing (its contract test pins that it has
    # no __new__ of its own): this only skips namedtuple's Python-level __new__.
    new = tuple.__new__
    records: list[ContradictionRecord] = []
    for i, j, kinds in pairs:
        (fa, _), (fb, _) = judged[i], judged[j]
        (certain_a, null_a), (certain_b, null_b) = events(i), events(j)
        jobs = (
            ("disjoint-certainty", fa, fb, certain_a, certain_b),
            ("implication-violation", fa, fb, certain_a, null_b),
            ("implication-violation", fb, fa, certain_b, null_a),
        )
        for kind, f1, f2, (certain, _), (other, floor) in itertools.compress(jobs, kinds):
            records += [
                new(ContradictionRecord, (kind, f1, f2, ea, eb, pa, pb))
                for ma, ea, pa in certain
                if not ma & floor
                for mb, eb, pb in other
                if not ma & mb
            ]
    return records
