"""Framework enumeration, the single-framework query rule, and the
contradiction search over pairs of frameworks.

A framework is a partition of the open paths that passed consistency,
together with its probability table.  Probabilities only mean anything
inside one framework; the query path enforces that, and the contradiction
finder shows what goes wrong when the rule is ignored: different frameworks
can retrodict, with certainty, that a detected particle took disjoint paths.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence

from .core import Partition, _Entity, _sum_amplitudes
from .engine import (
    BRANCHES,
    DETECTED,
    DEFAULT_TOLERANCE,
    MODE_MEDIUM,
    NULL_CONDITION,
    UNDETECTED,
    ExperimentModel,
    Framework,
    _EMPTY,
    _check_mode_and_tolerance,
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
#: frameworks (Bell(12) = 4,213,597).
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
    terms, (consistent, violation, tolerance_used) = _verdict(model, partition, mode, tolerance)
    if not consistent:
        raise InconsistentSet(
            f"partition is not a consistent set in {mode} mode: "
            f"max violation {violation:.3e} exceeds tolerance {tolerance_used:.3e}"
        )
    detected = [((g, DETECTED), t[2]) for g, t in zip(partition.groups, terms)]
    undetected = [((g, UNDETECTED), t[3]) for g, t in zip(partition.groups, terms)]
    return _framework(partition, mode, detected, undetected, violation, tolerance_used)


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


def _near_zero(amplitudes: list[complex], bound: float) -> tuple[set[int], Callable[[int], complex], float]:
    """``(near, sum_of, slack)``: the bit masks of the positions whose
    amplitudes may sum to a modulus of at most ``sqrt(bound)`` (every mask
    whose exact sum does, the empty one included, and possibly a few more),
    and a float sum ``sum_of(mask)`` of any mask, off its exact sum by less
    than ``slack``.

    A meet in the middle (Horowitz and Sahni, JACM 21, 277 (1974)): the
    subset sums ``L`` of the low ``h = k // 2`` positions and ``R`` of the
    others are tabulated, and mask ``lo | hi << h`` sums to ``L + R``: at
    most ``k - 1`` additions, each rounding both components by at most
    2**-53 of a partial sum of modulus at most ``sum |a|``.  So ``slack = k
    2**-52 sum |a|`` bounds the error, with a factor 2 to spare for rounding
    itself, and a mask is kept when ``|L + R| <= radius = sqrt(bound) +
    slack``, as is every mask the kernel could judge near-zero.

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
    slack = len(amplitudes) * 2.0**-52 * math.fsum(map(abs, amplitudes))
    radius = math.sqrt(bound) + slack
    window = radius * (1.0 + 2.0**-50) + slack
    real, imag = operator.attrgetter("real"), operator.attrgetter("imag")
    part = real if sum(map(abs, map(real, amplitudes))) >= sum(map(abs, map(imag, amplitudes))) else imag
    low, high = _subset_sums(amplitudes[:h]), _subset_sums(amplitudes[h:])
    order = sorted(range(len(low)), key=[*map(part, low)].__getitem__)
    keys = [part(low[lo]) for lo in order]
    first = [*map(bisect_left, itertools.repeat(keys), [-y - window for y in map(part, high)])]
    last = [*map(bisect_right, itertools.repeat(keys), [-y + window for y in map(part, high)])]
    near = set()
    for hi in itertools.compress(range(len(high)), map(operator.lt, first, last)):
        r, top = high[hi], hi << h
        near.update(top | lo for lo in order[first[hi] : last[hi]] if abs(low[lo] + r) <= radius)
    below = len(low) - 1
    return near, lambda mask: low[mask & below] + high[mask >> h], slack


#: An accepted candidate: sort key, group masks of open positions by lowest
#: position, max violation and tolerance used.
_Candidate = tuple[int, tuple[int, ...], float, float]


def _census(model: ExperimentModel, mode: str, tolerance: float, max_paths: int) -> tuple[list, _Memo, Callable]:
    """``(candidates, record, assemble)``: the consistent partitions of the open
    paths as compact candidates, last first in :func:`enumerate_partitions`
    order; per mask, its key term and ``(sum, modulus, detected, undetected)``;
    and ``assemble``, which pops a list of candidates into their frameworks.

    The diagonal is non-negative and sums to 1, so ``tol * max_diag <= tol``:
    in medium mode every group but the largest has ``|c_G|^2 <= |c_1||c_2| <=
    tol``, and in weak mode at most two groups A, B have ``|c_G|^2 > 2 tol``
    (three would lie pairwise more than 60 degrees apart as lines), with
    ``|Re(conj(c_B) c_A)| <= tol``.  So each candidate is built once, from
    near-zero subsets plus at most one carrier group that is not near-zero,
    in weak mode also split into such an A and B, and judged by the engine's
    kernel on the group sums ``check_consistency`` uses.  Sort key and
    verdict are folded along the recursion, in any order of the groups:
    each near-zero subset when it is placed, the carrier or its split at
    the leaf, where the state (:func:`~chslit.engine._fold`) is settled, so
    a medium-mode candidate is judged in O(1), with the numbers
    ``check_consistency`` reports for its partition, bit for bit.  A mask's
    record comes from one scan of its positions; ``assemble`` adds, once per
    mask, the group and its two table items, and builds each framework with
    :func:`~chslit.engine._framework`.  The cost follows the near-zero
    subsets and candidates, plus the 2**(k/2)-entry half tables of
    :func:`_near_zero`; weak mode adds 2**(r-1) splits per r-path carrier,
    each screened on their sums.
    """
    tolerance = _check_mode_and_tolerance(mode, tolerance)
    open_indices = model.scenario.open_indices
    k = len(open_indices)
    if k > max_paths:
        raise TooLarge(f"{k} open paths exceeds the enumeration cap of {max_paths}")
    scale = model.scale
    amplitudes = [model.amplitudes[i] for i in open_indices]
    # The near-zero subsets as bit masks of open positions.  Their sums, and
    # in weak mode the sums ``sum_of`` gives any subset, are off the exact
    # sums by less than ``slack``, so the screens widen their bounds by that
    # much (and ``bound`` by a factor for the kernel's own rounding).  Passing
    # too many candidates only costs kernel calls: the kernel decides on the
    # correctly rounded sums in ``record``.
    bound = (1 if mode == MODE_MEDIUM else 2) * tolerance * (1.0 + 1e-9) / scale
    near, sum_of, slack = _near_zero(amplitudes, bound)
    # A partition's leader string, which gives each position the lowest
    # position of its group, read as a base-k number, sorts the frameworks
    # in the order of their restricted growth strings: where two strings
    # first differ, the partitions agree below, and the smaller slot has the
    # smaller leader.  The number sums one term per group, its lowest
    # position times the sum of k**(k - 1 - j) over its positions j.
    weights = [k ** (k - 1 - j) for j in range(k)]

    def scan(mask: int) -> tuple[int, tuple]:
        # A group mask's record, from one scan of its positions: its term of
        # the sort key and the kernel's terms of its correctly rounded sum.
        at = [j for j in range(mask.bit_length()) if mask >> j & 1]
        total = _sum_amplitudes(map(amplitudes.__getitem__, at))
        return at[0] * sum(map(weights.__getitem__, at)), _group_terms(total, len(at), k, scale)

    record = _Memo(scan)
    # starts[j] lists each near-zero subset whose lowest position is j, with
    # its record.
    starts: list[list[tuple[int, int, tuple]]] = [[] for _ in range(k)]
    for mask in sorted(near - {0}):
        starts[(mask & -mask).bit_length() - 1].append((mask, *record[mask]))

    candidates: list[_Candidate] = []

    def judge(masks: tuple[int, ...], key: int, state: tuple) -> None:
        consistent, violation, tolerance_used = _settle(state, scale, tolerance, mode)
        if consistent:
            candidates.append((key, masks, violation, tolerance_used))

    # The groups placed so far as position masks, by lowest position; the
    # carrier, at slot ``carrier`` once it is opened, may still grow.  Each
    # group is folded into the verdict's state, and its term added to the
    # sort key, neither of which depends on the order of the groups: a
    # near-zero subset when it is placed, the carrier (or its split) at the
    # leaf.
    slots: list[int] = []

    def extend(rest: int, key: int, carrier: int | None, state: tuple) -> None:
        """Place the lowest of the unplaced positions ``rest``; ``key`` and
        ``state`` hold every placed group but the carrier."""
        if not rest:
            whole = 0 if carrier is None else slots[carrier]
            if not whole:
                judge(tuple(slots), key, state)
            elif whole not in near:  # else built elsewhere, with the carrier as a near-zero subset
                term, terms = record[whole]
                judge(tuple(slots), key + term, _fold(state, terms, mode))
            # Weak mode splits the carrier into A, which keeps its lowest
            # position, and B, neither near-zero, whose float sums pass
            # |Re(conj(s_B) s_A)| <= bound, widened by the slack of both sums
            # and by 2**-50 |s_A||s_B| for rounding the product.  s_B is
            # ``sum_of(b)`` and s_A = w - s_B, with w the carrier's correctly
            # rounded sum, so s_A is off by at most 2**-53 (|w| + |s_A|) plus
            # the error of s_B, (k + 1) 2**-53 sum |a| in all, within the
            # slack.  An empty ``whole`` has no splits.
            others = b = 0 if mode == MODE_MEDIUM else whole & (whole - 1)
            w = record[whole][1][0] if b else 0j
            while b:
                a = whole ^ b
                if not (a in near or b in near):
                    s_b = sum_of(b)
                    s_a = w - s_b
                    m_a, m_b = abs(s_a), abs(s_b)
                    dot = s_a.real * s_b.real + s_a.imag * s_b.imag
                    if abs(dot) <= bound + slack * (m_a + m_b + slack) + 2.0**-50 * m_a * m_b:
                        masks = tuple(sorted([*slots[:carrier], a, b, *slots[carrier + 1 :]], key=lambda m: m & -m))
                        (term_a, terms_a), (term_b, terms_b) = record[a], record[b]
                        judge(masks, key + term_a + term_b, _fold(_fold(state, terms_a, mode), terms_b, mode))
                b = (b - 1) & others
            return
        low = rest & -rest
        if carrier is None:
            slots.append(low)
            extend(rest ^ low, key, len(slots) - 1, state)
            slots.pop()
        else:
            slots[carrier] |= low
            extend(rest ^ low, key, carrier, state)
            slots[carrier] ^= low
        for subset, term, terms in starts[low.bit_length() - 1]:
            if subset & rest == subset:
                slots.append(subset)
                extend(rest ^ subset, key + term, carrier, _fold(state, terms, mode))
                slots.pop()

    extend((1 << k) - 1, 0, None, _EMPTY[mode])
    del extend  # it refers to itself: free the tables now, not at the next cycle collection

    # The keys are unique, so the sort never compares the masks.  A
    # framework is built from pieces made once per group mask that sits in
    # one: the group, whose members rise with its positions, and its two
    # table items.
    candidates.sort(reverse=True)

    def piece(mask: int) -> tuple[frozenset[int], tuple, tuple]:
        group = frozenset(i for j, i in enumerate(open_indices) if mask >> j & 1)
        _, (_, _, detected, undetected) = record[mask]
        return group, ((group, DETECTED), detected), ((group, UNDETECTED), undetected)

    pieces = _Memo(piece)

    def assemble(chosen: list[_Candidate]) -> list[Framework]:
        # Popping the candidates frees each one as its framework is built,
        # so the two lists are never both whole.  The groups are disjoint and
        # ordered by lowest position, which orders them by lowest path index.
        frameworks = []
        while chosen:
            _, masks, violation, used = chosen.pop()
            groups, detected, undetected = zip(*map(pieces.__getitem__, masks))
            frameworks.append(_framework(Partition._trusted(groups), mode, detected, undetected, violation, used))
        return frameworks

    return candidates, record, assemble


def enumerate_consistent_frameworks(
    model: ExperimentModel,
    mode: str = MODE_MEDIUM,
    tolerance: float = DEFAULT_TOLERANCE,
    max_paths: int = DEFAULT_MAX_PATHS,
) -> list[Framework]:
    """All partitions of the open paths that form consistent sets, coarsest first, in
    the order of :func:`enumerate_partitions`: each :func:`_census` candidate, assembled."""
    candidates, _, assemble = _census(model, mode, tolerance, max_paths)
    return assemble(candidates)


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


def _clash_summary(masks: Sequence[int], detected: Sequence[float]):
    """``(core, span, detected, total, masks)`` for a candidate whose groups
    have path masks ``masks`` and detected terms ``detected`` (the floats of
    its framework's table), or None when detection is a null event.

    An event's conditional probability is the correctly rounded sum of its
    groups' non-negative terms, divided once by ``total``, as in
    :func:`query_event`: it never falls as groups are added, so certain
    events are closed upward and null events downward.  Hence every
    certain event contains ``core``, the paths of the groups G for which
    "every group but G" is not certain (it is when G's term is 0), and every
    null event lies inside ``span``, the paths of the groups null on their
    own.  The bounds use the same sums as the events, so they are exact.
    """
    total = math.fsum(detected)
    if total <= NULL_CONDITION:
        return None
    core = sum(
        m for g, (m, p) in enumerate(zip(masks, detected))
        if p and math.fsum(detected[:g] + detected[g + 1 :]) / total < CERTAINTY_THRESHOLD
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


def _may_clash(key_a: tuple[int, int], key_b: tuple[int, int]) -> bool:
    """Whether frameworks with these ``(core, span)`` can give a record:
    disjoint certainties need disjoint cores, and a certain event of one in
    a null event of the other needs the one's core inside the other's span."""
    (core_a, span_a), (core_b, span_b) = key_a, key_b
    return not (core_a & core_b and core_a & ~span_b and core_b & ~span_a)


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

    The search reads the compact candidates of :func:`_census`, not
    frameworks.  A candidate's :func:`_clash_summary` comes from its group
    masks and their detected terms, candidates are bucketed by its ``(core,
    span)`` key, and only pairs from buckets that pass :func:`_may_clash`
    are visited, so the cost follows the pairs that can clash, not all pairs.
    A candidate's events are tabulated when it first sits in a visited
    pair, its framework is assembled when a record first names it, clashes
    are tested on path masks, and each event set is built once per mask.
    The key also gives each event list its floor, the AND of its masks:
    ``core`` is exactly the paths in every certain event, since for a group
    G outside it "every group but G" is certain, and ``~span`` exactly the
    paths outside every null event, since each group inside it is a null
    event.  A certain event that meets the other list's floor meets every
    mask in it, so it is dropped before its inner loop.
    """
    candidates, record, assemble = _census(model, mode, tolerance, max_paths)
    # A group mask of open positions as its mask of path indices, which
    # differ where a slit is closed, and its detected term.
    open_indices = model.scenario.open_indices
    group = _Memo(lambda mask: (sum(1 << i for j, i in enumerate(open_indices) if mask >> j & 1), record[mask][1][2]))
    judged = []
    buckets: dict[tuple[int, int], list[int]] = {}
    for candidate in reversed(candidates):
        summary = _clash_summary(*zip(*map(group.__getitem__, candidate[1])))
        if summary is not None:
            buckets.setdefault(summary[:2], []).append(len(judged))
            judged.append((candidate, summary))
    # Every pair i < j from buckets, keyed a and b, that can clash, in the
    # order of itertools.combinations.
    pairs: list[tuple[int, int]] = []
    for a, b in itertools.combinations_with_replacement(buckets, 2):
        if _may_clash(a, b):
            pairs += [(i, j) if i < j else (j, i) for i in buckets[a] for j in buckets[b] if i < j or a != b]
    pairs.sort()

    event = _Memo(lambda mask: frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
    # Each visited framework's events, with the floors of the lists tested
    # against them: the AND of its certain masks, core, and of its null
    # events' complemented masks, ~span.
    events = _Memo(lambda i: (*_clash_events(judged[i][1], event.__getitem__), judged[i][1][0], ~judged[i][1][1]))
    # A framework is assembled when a record first names it, and kept in
    # ``built``: a list, as a record reads it more cheaply than a dict.
    built: list[Framework | None] = [None] * len(judged)

    def framework(i: int) -> Framework:
        built[i] = assembled = assemble([judged[i][0]])[0]
        return assembled

    # ContradictionRecord checks nothing (its contract test pins that it has
    # no __new__ of its own): this only skips namedtuple's Python-level __new__.
    new = tuple.__new__
    # A job's floor is the AND of the other list's masks.  A job that cannot
    # clash has the core of its certain side meeting the floor, so the
    # screen drops each of its certain events.
    return [
        new(ContradictionRecord, (kind, built[a] or framework(a), built[b] or framework(b), ea, eb, pa, pb))
        for i, j in pairs
        for (certain_i, null_i, _, outside_i), (certain_j, null_j, core_j, outside_j) in [(events[i], events[j])]
        for kind, a, b, certain, other, floor in (
            ("disjoint-certainty", i, j, certain_i, certain_j, core_j),
            ("implication-violation", i, j, certain_i, null_j, outside_j),
            ("implication-violation", j, i, certain_j, null_i, outside_i),
        )
        for ma, ea, pa in certain
        if not ma & floor
        for mb, eb, pb in other
        if not ma & mb
    ]
