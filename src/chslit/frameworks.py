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


def build_framework(
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


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Every subset's sum, indexed by the bit mask of its positions: the sum
    without the highest position, plus that position's value."""
    sums = [0]
    for value in values:
        sums += [s + value for s in sums]
    return sums


def _near_zero(points: list[tuple[int, int]], bound: int) -> tuple[set[int], Callable[[int], tuple[int, int]]]:
    """``(near, sum_of)``: the masks of the positions whose points sum to
    ``|S|^2 <= bound``, the empty one included, and any mask's sum.

    A meet in the middle (Horowitz and Sahni, JACM 21, 277 (1974)): mask ``lo
    | hi << h`` sums to ``L + R``, from tables of the subset sums of the low
    ``h = k // 2`` positions and of the others.  The low sums are sorted by
    one component ``x`` (the one the points spread more along), and a high
    sum with component ``y`` is tested only against those with ``|x + y| <=
    isqrt(bound)``: O(k 2**(k/2)) for the sort and bisections, plus one test
    per pair in a window, never more than the 2**k of a full table.
    """
    h = len(points) // 2
    radius = math.isqrt(bound)
    xs, ys = zip(*points)
    (lx, hx), (ly, hy) = [(_subset_sums(c[:h]), _subset_sums(c[h:])) for c in (xs, ys)]
    low, high = (lx, hx) if sum(map(abs, xs)) >= sum(map(abs, ys)) else (ly, hy)
    order = sorted(range(len(low)), key=low.__getitem__)
    keys = [low[lo] for lo in order]
    first = [*map(bisect_left, itertools.repeat(keys), [-y - radius for y in high])]
    last = [*map(bisect_right, itertools.repeat(keys), [radius - y for y in high])]
    near = set()
    for hi in itertools.compress(range(len(high)), map(operator.lt, first, last)):
        p, q, top = hx[hi], hy[hi], hi << h
        near.update(top | lo for lo in order[first[hi] : last[hi]] if (lx[lo] + p) ** 2 + (ly[lo] + q) ** 2 <= bound)
    below = len(low) - 1
    return near, lambda mask: (lx[mask & below] + hx[mask >> h], ly[mask & below] + hy[mask >> h])


#: An accepted candidate: sort key, group masks of open positions by lowest
#: position, max violation and tolerance used.
_Candidate = tuple[int, tuple[int, ...], float, float]


def _census(model: ExperimentModel, mode: str, tolerance: float, max_paths: int) -> tuple[list, _Memo, Callable]:
    """``(candidates, record, assemble)``: the consistent partitions of the open
    paths as compact candidates, last first in :func:`enumerate_partitions`
    order; per mask, its key term and :func:`~chslit.engine._group_terms`;
    and ``assemble``, which pops a list of candidates into their frameworks.

    The diagonal is non-negative and sums to 1, so ``tol * max_diag <= tol``:
    in medium mode every group but the largest has ``|c_G|^2 <= |c_1||c_2| <=
    tol``, and in weak mode at most two groups A, B have ``|c_G|^2 > 2 tol``
    (three would lie pairwise more than 60 degrees apart as lines), with
    ``|Re(conj(c_B) c_A)| <= tol``, all integer tests on the points.  So each
    candidate is built once, from
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
    points, norm = model.points, model.norm
    # The near-zero subsets as bit masks of open positions: |S|^2 <= m tol k N,
    # with m = 1 carrier in medium mode, 2 in weak mode, and tol = t / u.
    ratio = t, u = tolerance.as_integer_ratio()
    bound = (1 if mode == MODE_MEDIUM else 2) * t * k * norm // u
    near, sum_of = _near_zero([points[i] for i in open_indices], bound)
    # A partition's leader string, which gives each position the lowest
    # position of its group, read as a base-k number, sorts the frameworks
    # in the order of their restricted growth strings: where two strings
    # first differ, the partitions agree below, and the smaller slot has the
    # smaller leader.  The number sums one term per group, its lowest
    # position times the sum of k**(k - 1 - j) over its positions j.
    weights = [k ** (k - 1 - j) for j in range(k)]

    def scan(mask: int) -> tuple[int, tuple]:
        # A group mask's record, from one scan of its positions: its term of
        # the sort key and the kernel's terms of its correctly rounded and
        # its exact sum.
        at = [j for j in range(mask.bit_length()) if mask >> j & 1]
        total = _sum_amplitudes(map(amplitudes.__getitem__, at))
        return at[0] * sum(map(weights.__getitem__, at)), _group_terms(total, sum_of(mask), len(at), k, scale, norm)

    record = _Memo(scan)
    # starts[j] lists each near-zero subset whose lowest position is j, with
    # its record.
    starts: list[list[tuple[int, int, tuple]]] = [[] for _ in range(k)]
    for mask in sorted(near - {0}):
        starts[(mask & -mask).bit_length() - 1].append((mask, *record[mask]))

    candidates: list[_Candidate] = []

    def judge(masks: tuple[int, ...], key: int, state: tuple) -> None:
        consistent, violation, tolerance_used = _settle(state, scale, tolerance, ratio, mode)
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
            # position, and B, neither near-zero, whose sums pass
            # |Re(conj(S_B) S_A)| <= bound, which is at least tol k N >= tol D.
            # S_B is ``sum_of(b)`` and S_A = W - S_B, with W the carrier's
            # sum.  An empty ``whole`` has no splits.
            others = b = 0 if mode == MODE_MEDIUM else whole & (whole - 1)
            w_p, w_q = sum_of(whole) if b else (0, 0)
            while b:
                a = whole ^ b
                if not (a in near or b in near):
                    p, q = sum_of(b)
                    if abs((w_p - p) * p + (w_q - q) * q) <= bound:
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
        detected, undetected = record[mask][1][2:4]
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


#: Events of one framework as ``(position mask, event, probability)``.
_Events = list[tuple[int, frozenset[int], float]]


def _clash_key(masks: Sequence[int], detected: list[float]) -> tuple[int, int] | None:
    """``(core, span)`` of a candidate whose groups have open-position masks
    ``masks`` and detected terms ``detected`` (the floats of its framework's
    table), or None when detection is a null event.

    An event's conditional probability is the correctly rounded sum of its
    groups' non-negative terms, divided once by their total, as in
    :func:`query_event`: it never falls as groups are added, so certain
    events are closed upward and null events downward.  Hence every
    certain event contains ``core``, the positions of the groups G for which
    "every group but G" is not certain (it is when G's term is 0), and every
    null event lies inside ``span``, the positions of the groups null on
    their own.  The bounds use the same sums as the events, so they are exact.
    """
    total = math.fsum(detected)
    if total <= NULL_CONDITION:
        return None
    core = sum(
        m for g, (m, p) in enumerate(zip(masks, detected))
        if p and math.fsum(detected[:g] + detected[g + 1 :]) / total < CERTAINTY_THRESHOLD
    )
    span = sum(m for m, p in zip(masks, detected) if p / total <= NULL_THRESHOLD)
    return core, span


def _clash_events(masks: Sequence[int], detected: list[float], key: tuple[int, int], event: Callable) -> tuple:
    """``(certain, null, core, ~span)`` of a candidate keyed ``key`` by
    :func:`_clash_key`: its certain and null group-union events as ``(mask,
    event(mask), probability)``, in the order of the unions' group tuples, by
    size, then lexicographically, and each list's floor, the AND of its masks.
    A null event carries its mask's complement, so that a certain event lies
    inside it exactly when their masks are disjoint.

    Certain events are the groups in ``core`` plus any others, null events any
    non-empty union of groups inside ``span``; adding the same groups to every
    tuple keeps their order.  ``core`` is the AND of the certain masks, since
    for a group G outside it "every group but G" is certain, and ``~span`` that
    of the null ones, since each group inside ``span`` is a null event.
    """
    core, span = key
    total = math.fsum(detected)

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
    return unions(fixed, free, CERTAINTY_THRESHOLD.__le__), null, core, ~span


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

    The search reads the compact candidates of :func:`_census` in its own
    terms, group masks of open positions: candidates are bucketed by their
    :func:`_clash_key`, and only pairs from buckets that pass
    :func:`_may_clash` are visited, so the cost follows the pairs that can
    clash.  A candidate's :func:`_clash_events` are tabulated when it first
    sits in a visited pair, and its framework is assembled when a record
    first names it.  Each event's set of path indices is built once per mask.
    A certain event that meets the other list's floor meets every mask in it,
    so it is dropped before its inner loop.
    """
    candidates, record, assemble = _census(model, mode, tolerance, max_paths)
    candidates.reverse()  # into enumeration order
    detected = lambda masks: [record[m][1][2] for m in masks]
    keys = [_clash_key(masks, detected(masks)) for _, masks, _, _ in candidates]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            buckets.setdefault(key, []).append(i)
    # Every pair i < j from buckets, keyed a and b, that can clash, in the
    # order of itertools.combinations.
    pairs: list[tuple[int, int]] = []
    for a, b in itertools.combinations_with_replacement(buckets, 2):
        if _may_clash(a, b):
            pairs += [(i, j) if i < j else (j, i) for i in buckets[a] for j in buckets[b] if i < j or a != b]
    pairs.sort()

    # Path indices differ from open positions where a slit is closed.
    open_indices = model.scenario.open_indices
    event = _Memo(lambda mask: frozenset(i for j, i in enumerate(open_indices) if mask >> j & 1))
    events = _Memo(lambda i: _clash_events(masks := candidates[i][1], detected(masks), keys[i], event.__getitem__))
    # A framework is assembled when a record first names it, and kept in
    # ``built``: a list, as a record reads it more cheaply than a dict.
    built: list[Framework | None] = [None] * len(candidates)

    def framework(i: int) -> Framework:
        built[i] = assembled = assemble([candidates[i]])[0]
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
