"""Reference answers for the benchmark, computed without importing chslit.

Two kinds of reference live here:

* Closed forms for the scenario families whose framework sets are known in
  advance (generic, planted zero-sum, ``(1,0,...,0)``, two nonzero paths).
  On the path-basis model the history probabilities of a group ``G`` are
  ``|A_G|^2 / (k |A|^2)`` detected and ``|G|/k`` minus that undetected.
* A brute-force dense model in plain Python, built the same way as the test
  suite's oracle: every set partition by recursive insertion, the full
  decoherence matrix from explicit projector matrices, no screening.  It
  decides consistency and finds contradiction records for scenarios small
  enough to enumerate this way (at most 7 open paths here).

Partitions and events are compared in canonical form: tuples of sorted
0-based path indices, groups ordered by their smallest member.  Every
scenario the benchmark generates has all of its slits open, so path indices
and open positions coincide.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

DETECTED = "detected"
UNDETECTED = "undetected"
BRANCHES = (DETECTED, UNDETECTED)

TOLERANCE = 1e-10
TOLERANCE_FLOOR = 1e-14
NULL_CONDITION = 1e-14
CERTAIN = 1.0 - 1e-10
NULL = 1e-10

#: Absolute tolerance when comparing probabilities with the program's.
PROB_TOL = 1e-9

DIGEST_MOD = 1 << 64


def bell(n: int) -> int:
    """Number of set partitions of n items (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def set_partitions(items: Sequence[int]) -> Iterator[list[frozenset[int]]]:
    """Every set partition of ``items``, by recursive insertion."""
    items = list(items)
    if len(items) == 1:
        yield [frozenset(items)]
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] | {first}] + smaller[i + 1 :]
        yield smaller + [frozenset([first])]


def canon_partition(groups) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def canon_event(event) -> tuple[int, ...]:
    return tuple(sorted(event))


def partition_text(groups) -> str:
    """1-based partition text as the CLI prints it, e.g. ``1,2|3``."""
    return "|".join(",".join(str(i + 1) for i in g) for g in canon_partition(groups))


def parse_partition_text(text: str) -> tuple[tuple[int, ...], ...]:
    return canon_partition(frozenset(int(t) - 1 for t in g.split(",")) for g in text.split("|"))


# -- closed forms ---------------------------------------------------------------


def closed_form_table(amps: Sequence[complex], groups) -> dict[tuple[tuple[int, ...], str], float]:
    """History probabilities of a partition on the path-basis model."""
    k = len(amps)
    norm_sq = sum(abs(a) ** 2 for a in amps)
    table = {}
    for g in canon_partition(groups):
        detected = abs(sum(amps[i] for i in g)) ** 2 / (k * norm_sq)
        table[(g, DETECTED)] = detected
        table[(g, UNDETECTED)] = len(g) / k - detected
    return table


def tables_match(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(abs(got[key] - want[key]) <= PROB_TOL for key in want)


# -- brute-force dense model ----------------------------------------------------


class DenseModel:
    """The path-basis model with explicit projector matrices.

    Initial state 1/sqrt(k) on each open path; detector direction
    conj(A)/|A|; detected and undetected projectors as full n-by-n matrices.
    """

    def __init__(self, amps: Sequence[complex]):
        self.amps = [complex(a) for a in amps]
        n = len(self.amps)
        self.n = n
        norm = math.sqrt(sum(abs(a) ** 2 for a in self.amps))
        if norm == 0.0:
            raise ValueError("all amplitudes vanish")
        self.psi = [1.0 / math.sqrt(n)] * n
        d = [a.conjugate() / norm for a in self.amps]
        p_det = [[d[i] * d[j].conjugate() for j in range(n)] for i in range(n)]
        p_und = [[(1.0 if i == j else 0.0) - p_det[i][j] for j in range(n)] for i in range(n)]
        self.branch_projectors = {DETECTED: p_det, UNDETECTED: p_und}

    def branch_vector(self, group: frozenset[int], branch: str) -> list[complex]:
        """C_h psi for the history (group, branch): group projector first."""
        v = [self.psi[i] if i in group else 0.0 for i in range(self.n)]
        return [sum(row[j] * v[j] for j in range(self.n)) for row in self.branch_projectors[branch]]

    def gram(self, groups) -> list[list[complex]]:
        """D(h_i, h_j) = <C_j psi | C_i psi> over the 2*len(groups) histories."""
        vectors = [self.branch_vector(g, b) for b in BRANCHES for g in groups]
        return [[sum(x.conjugate() * y for x, y in zip(vj, vi)) for vj in vectors] for vi in vectors]

    def verdict(self, groups, mode: str = "medium", tolerance: float = TOLERANCE) -> tuple[bool, float]:
        """(consistent, largest off-diagonal violation)."""
        gram = self.gram(groups)
        m = len(gram)
        max_diag = max(gram[i][i].real for i in range(m))
        threshold = tolerance * max_diag if max_diag > 0.0 else TOLERANCE_FLOOR
        worst = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                value = gram[i][j]
                worst = max(worst, abs(value) if mode == "medium" else abs(value.real))
        return worst <= threshold, worst

    def table(self, groups) -> dict[tuple[tuple[int, ...], str], float]:
        groups = [frozenset(g) for g in canon_partition(groups)]
        gram = self.gram(groups)
        m = len(groups)
        table = {}
        for b, branch in enumerate(BRANCHES):
            for i, g in enumerate(groups):
                table[(tuple(sorted(g)), branch)] = gram[b * m + i][b * m + i].real
        return table

    def frameworks(self, mode: str = "medium") -> dict[tuple[tuple[int, ...], ...], dict]:
        """Every consistent partition with its probability table."""
        out = {}
        for groups in set_partitions(range(self.n)):
            if self.verdict(groups, mode)[0]:
                out[canon_partition(groups)] = self.table(groups)
        return out


# -- contradiction records ------------------------------------------------------


KINDS = {"disjoint-certainty": 0, "implication-violation": 1}


def record_key(kind: str, part_a, event_a, p_a: float, part_b, event_b, p_b: float) -> tuple:
    """Canonical record, made of numbers only so that its hash does not
    depend on string hashing.  A disjoint-certainty record is symmetric, so
    its two sides are sorted; an implication violation runs from the certain
    side.  Partitions must already be canonical."""
    side_a = (part_a, canon_event(event_a), round(p_a, 6) + 0.0)
    side_b = (part_b, canon_event(event_b), round(p_b, 6) + 0.0)
    if kind == "disjoint-certainty":
        side_a, side_b = sorted((side_a, side_b))
    return (KINDS[kind], side_a, side_b)


class RecordDigest:
    """Order-independent digest of a multiset of records: their count and
    the sum of their hashes, so large record sets need no storage."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0

    def add(self, key: tuple) -> None:
        self.count += 1
        self.total = (self.total + hash(key)) % DIGEST_MOD

    def value(self) -> tuple[int, int]:
        return self.count, self.total


def _events(table: dict):
    """Certain and null group-union events of one framework, given detection."""
    groups = sorted({g for g, _ in table})
    total = sum(table[(g, DETECTED)] for g in groups)
    if total <= NULL_CONDITION:
        return None
    certain, null = [], []
    for mask in range(1, 1 << len(groups)):
        chosen = [groups[i] for i in range(len(groups)) if mask >> i & 1]
        event = frozenset().union(*map(frozenset, chosen))
        p = sum(table[(g, DETECTED)] for g in chosen) / total
        if p >= CERTAIN:
            certain.append((event, p))
        elif p <= NULL:
            null.append((event, p))
    return certain, null


def contradiction_digest(frameworks: dict) -> tuple[int, int]:
    """Digest of every record the contradiction search must emit."""
    digest = RecordDigest()
    items = [(part, _events(table)) for part, table in frameworks.items()]
    items = [(part, ev) for part, ev in items if ev is not None]
    for a, (part_a, (certain_a, _)) in enumerate(items):
        for b, (part_b, (certain_b, null_b)) in enumerate(items):
            if a == b:
                continue
            if a < b:
                for event_a, p_a in certain_a:
                    for event_b, p_b in certain_b:
                        if not event_a & event_b:
                            digest.add(record_key("disjoint-certainty", part_a, event_a, p_a, part_b, event_b, p_b))
            for event_a, p_a in certain_a:
                for event_b, p_b in null_b:
                    if event_a <= event_b:
                        digest.add(record_key("implication-violation", part_a, event_a, p_a, part_b, event_b, p_b))
    return digest.value()


def counting_rate(amps: Sequence[complex], mask) -> float:
    return abs(sum(amps[i] for i in mask)) ** 2
