"""Shared helpers: scenario factories and brute-force oracles.

The oracles here deliberately avoid the package's fast paths: partitions are
enumerated by recursive insertion rather than restricted growth strings, and
consistency is decided by evaluating the full decoherence-functional matrix
for every partition with no screening.  The contradiction oracle compares
every pair of frameworks on every pair of group-union events.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Sequence

from chslit import (
    BRANCHES,
    DETECTED,
    ContradictionRecord,
    ExperimentModel,
    Partition,
    Slit,
    SlitScenario,
    enumerate_consistent_frameworks,
)
from chslit.engine import NULL_CONDITION
from chslit.frameworks import CERTAINTY_THRESHOLD, NULL_THRESHOLD
from chslit.reference import History, branch_projector, decoherence_functional, group_projector

TOLERANCE_FLOOR = 1e-14


def make_scenario(
    amplitudes: Sequence[complex],
    open_flags: Sequence[bool] | None = None,
    name: str = "test",
) -> SlitScenario:
    if open_flags is None:
        open_flags = [True] * len(amplitudes)
    slits = tuple(
        Slit(f"S{i + 1}", complex(a), is_open=flag)
        for i, (a, flag) in enumerate(zip(amplitudes, open_flags))
    )
    return SlitScenario(name=name, slits=slits)


def brute_partitions(items: Sequence[int]) -> Iterator[list[frozenset[int]]]:
    """Every set partition of ``items``, by recursive insertion."""
    items = list(items)
    if len(items) == 1:
        yield [frozenset(items)]
        return
    first, rest = items[0], items[1:]
    for smaller in brute_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1 :]
        yield smaller + [frozenset([first])]


def partition_gram(model: ExperimentModel, blocks: Sequence[frozenset[int]]) -> list[list[complex]]:
    """Full decoherence-functional matrix over the 2*len(blocks) histories."""
    histories = [
        History(chain=(group_projector(model, block), branch_projector(model, branch)))
        for branch in BRANCHES
        for block in blocks
    ]
    return [[decoherence_functional(model, hi, hj) for hj in histories] for hi in histories]


def brute_consistent_partitions(
    model: ExperimentModel, mode: str = "medium", tolerance: float = 1e-10
) -> list[Partition]:
    """Filter every partition of the open paths through the full matrix."""
    survivors = []
    for blocks in brute_partitions(model.scenario.open_indices):
        gram = partition_gram(model, blocks)
        m = len(gram)
        max_diag = max(gram[i][i].real for i in range(m))
        threshold = tolerance * max_diag if max_diag > 0.0 else TOLERANCE_FLOOR
        worst = 0.0
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                value = gram[i][j]
                violation = abs(value) if mode == "medium" else abs(value.real)
                worst = max(worst, violation)
        if worst <= threshold:
            survivors.append(Partition(tuple(blocks)))
    return survivors


def random_amplitudes(rng: random.Random, n: int) -> list[complex]:
    return [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]


def random_scenario(rng: random.Random, n: int | None = None, kind: str = "generic") -> SlitScenario:
    """Randomized scenarios for property suites.

    ``generic``: dense random amplitudes.  ``planted``: one subset of paths
    sums to zero, so a nontrivial consistent split exists.  ``sparse``: most
    amplitudes are zero.  ``mixed-open``: some slits closed.
    """
    if n is None:
        n = rng.randint(1, 6)
    amps = random_amplitudes(rng, n)
    open_flags = [True] * n
    if kind == "planted" and n >= 2:
        subset = rng.sample(range(n), rng.randint(2, n))
        amps[subset[-1]] = -sum(amps[i] for i in subset[:-1])
    elif kind == "sparse":
        for i in rng.sample(range(n), rng.randint(0, n - 1)):
            amps[i] = 0j
    elif kind == "mixed-open" and n >= 2:
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            open_flags[i] = False
    return make_scenario(amps, open_flags)


def planted_scenario(rng: random.Random, n: int) -> tuple[SlitScenario, Partition | None]:
    """A scenario with a zero-sum subset, plus the two-group split it makes
    consistent (None when the subset covers every open path)."""
    amps = random_amplitudes(rng, n)
    subset = rng.sample(range(n), rng.randint(2, n))
    amps[subset[-1]] = -sum(amps[i] for i in subset[:-1])
    scenario = make_scenario(amps)
    rest = frozenset(range(n)) - frozenset(subset)
    if not rest:
        return scenario, None
    return scenario, Partition((frozenset(subset), rest))


def random_partition(rng: random.Random, items: Sequence[int]) -> Partition:
    groups: list[set[int]] = []
    for item in items:
        if groups and rng.random() < 0.6:
            rng.choice(groups).add(item)
        else:
            groups.append({item})
    return Partition(tuple(frozenset(g) for g in groups))


def _certain_and_null_events(framework):
    """Group-union events with conditional probability ~1 and ~0, or None
    when detection itself is a null event."""
    total = framework.detected_total()
    if total <= NULL_CONDITION:
        return None
    groups = framework.partition.groups
    detected = [framework.probabilities[(g, DETECTED)] for g in groups]
    certain, null = [], []
    for r in range(1, len(groups) + 1):
        for combo in itertools.combinations(range(len(groups)), r):
            event = frozenset().union(*(groups[i] for i in combo))
            p = math.fsum(detected[i] for i in combo) / total
            if p >= CERTAINTY_THRESHOLD:
                certain.append((event, p))
            elif p <= NULL_THRESHOLD:
                null.append((event, p))
    return certain, null


def _clashes(kind, framework_a, framework_b, events_a, events_b, clash):
    return [
        ContradictionRecord(kind, framework_a, framework_b, event_a, event_b, p_a, p_b)
        for event_a, p_a in events_a
        for event_b, p_b in events_b
        if clash(event_a, event_b)
    ]


def brute_contradictions(model: ExperimentModel, mode: str = "medium", tolerance: float = 1e-10) -> list:
    """The contradiction records of every framework pair, in pair order, with
    no pruning: disjoint certainties, then a's certain events inside b's null
    events, then b's inside a's."""
    frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance)
    judged = [(f, events) for f in frameworks if (events := _certain_and_null_events(f)) is not None]
    records = []
    for (fa, (certain_a, null_a)), (fb, (certain_b, null_b)) in itertools.combinations(judged, 2):
        records += _clashes("disjoint-certainty", fa, fb, certain_a, certain_b, frozenset.isdisjoint)
        records += _clashes("implication-violation", fa, fb, certain_a, null_b, frozenset.issubset)
        records += _clashes("implication-violation", fb, fa, certain_b, null_a, frozenset.issubset)
    return records
