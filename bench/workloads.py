"""Seeded inputs of the four workloads, with their reference answers.

Nothing here imports chslit: inputs are scenario documents in chslit's JSON
format, and every expected answer comes from ``oracle`` (closed forms, hand
derivations, or the brute-force dense model), never from the code under
test.  A workload is a fixed cycle of cases; the benchmark repeats the cycle.

Why these cases:

* ``cli`` -- every subcommand on the three demos and on seeded files of at
  most 6 paths, including refusals that must exit 2, 3, 4 and 5.  The work
  per call is tiny, so interpreter start and imports dominate.
* ``census-sparse`` -- generic and planted zero-sum scenarios with 9 and 10
  paths.  They return 1 or 2 frameworks, so the Bell(k) screen loop does
  nearly all the work.
* ``census-dense`` -- two-nonzero scenarios with 7 and 8 paths and
  ``(1,0,...,0)`` with 7 paths: 203 or 877 frameworks, where the
  per-survivor dense re-check does most of the work.
* ``contradictions`` -- scenarios with many exact cancellations (alternating
  signs, zero pairs, quarter-turn phases) that emit thousands of records,
  next to ``(1,0,...,0)`` with 6 paths, which has 203 frameworks and no
  record at all.

Operation costs on one host vary by +-25 % from call to call, so each cycle
is weighted to put the median and the tail inside one kind of case rather
than between two: in ``census-sparse`` the median falls on the 9-path cases
and the tail on the 10-path ones.  The larger sizes (11 paths at 3.4 s,
``(1,0,...,0)`` with 8 paths at 2 s) would leave too few operations per run
for a steady tail; the k-sweep in ``sweep.py`` covers them.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle
from oracle import DETECTED, UNDETECTED

WORKLOADS = ("cli", "census-sparse", "census-dense", "contradictions")

PARADOX = [1 + 0j, -1 + 0j, 1 + 0j]

#: Seed of chslit's "generic" demo (recorded in the demo's metadata).
GENERIC_DEMO_SEED = 1643


def scenario_doc(name: str, amps) -> str:
    slits = [
        {"label": f"S{i + 1}", "amplitude": {"re": a.real, "im": a.imag}, "open": True}
        for i, a in enumerate(amps)
    ]
    return json.dumps({"version": 1, "name": name, "slits": slits})


def _amp(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _scale(rng: random.Random) -> complex:
    """A random complex factor; scaling keeps exact cancellations exact."""
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))


def _shuffled(rng: random.Random, amps: list[complex]) -> list[complex]:
    amps = list(amps)
    rng.shuffle(amps)
    return amps


@dataclass
class Case:
    """One input of a workload.

    In-process cases carry a scenario document and a reference; CLI cases
    carry an argument vector, the exit code it must give, and a check of its
    standard output.
    """

    name: str
    amps: list[complex] = field(default_factory=list)
    count: int = 0
    accepts: Callable[[tuple], bool] | None = None
    argv: list[str] = field(default_factory=list)
    exit_code: int = 0
    check_stdout: Callable[[str], str | None] | None = None
    split: tuple = ()
    _digest: tuple[int, int] | None = None

    @property
    def doc(self) -> str:
        return scenario_doc(self.name, self.amps)

    def record_digest(self) -> tuple[int, int]:
        """Reference records from the brute-force finder, computed once."""
        if self._digest is None:
            self._digest = oracle.contradiction_digest(oracle.DenseModel(self.amps).frameworks())
        return self._digest


# -- in-process workloads -------------------------------------------------------


def _generic(rng, k):
    amps = [_amp(rng) for _ in range(k)]
    coarsest = (tuple(range(k)),)
    return Case(f"generic-{k}", amps, count=1, accepts=lambda part: part == coarsest)


def _planted(rng, k):
    amps = [_amp(rng) for _ in range(k)]
    subset = rng.sample(range(k), rng.randint(2, k - 1))
    amps[subset[-1]] = -sum(amps[i] for i in subset[:-1])
    split = oracle.canon_partition([subset, set(range(k)) - set(subset)])
    expected = {(tuple(range(k)),), split}
    return Case(f"planted-{k}", amps, count=2, accepts=lambda part: part in expected, split=split)


def _single_nonzero(rng, k):
    amps = [0j] * k
    amps[rng.randrange(k)] = _scale(rng)
    return Case(f"e1-{k}", amps, count=oracle.bell(k), accepts=lambda part: True)


def _two_nonzero(rng, k):
    amps = [0j] * k
    p, q = rng.sample(range(k), 2)
    amps[p], amps[q] = _scale(rng), _scale(rng)
    return Case(f"two-{k}", amps, count=oracle.bell(k - 1), accepts=lambda part: any(p in g and q in g for g in part))


def _alternating(rng, k):
    c = _scale(rng)
    return Case(f"alternating-{k}", [c * (-1) ** i for i in range(k)])


def _zero_pair(rng, k):
    c, d = _scale(rng), _scale(rng)
    amps = [c * (-1) ** i for i in range(k - 2)] + [d, -d]
    return Case(f"zero-pair-{k}", _shuffled(rng, amps))


def _mixed_phase(rng, k):
    c = _scale(rng)
    return Case(f"mixed-phase-{k}", _shuffled(rng, [c * 1j**i for i in range(k)]))


FAMILIES = {"generic": _generic, "planted": _planted, "e1": _single_nonzero, "alternating": _alternating}

#: Cycle of (factory, paths) per workload, at full and at tiny scale.
CYCLES = {
    "census-sparse": {
        "full": [(_generic, 9), (_planted, 9), (_generic, 9), (_planted, 9), (_generic, 10), (_planted, 10)],
        "tiny": [(_generic, 5), (_planted, 5), (_generic, 6), (_planted, 6)],
    },
    "census-dense": {
        "full": [(_two_nonzero, 7), (_two_nonzero, 8), (_two_nonzero, 8), (_single_nonzero, 7), (_single_nonzero, 7)],
        "tiny": [(_two_nonzero, 4), (_single_nonzero, 4), (_single_nonzero, 5)],
    },
    "contradictions": {
        "full": [(_alternating, 7), (_zero_pair, 7), (_mixed_phase, 7), (_single_nonzero, 6), (_alternating, 7), (_single_nonzero, 6)],
        "tiny": [(_alternating, 5), (_zero_pair, 5), (_mixed_phase, 5), (_single_nonzero, 4)],
    },
}


def make_cases(workload: str, seed: int, scale: str, work_dir: Path | None = None) -> list[Case]:
    """The workload's cycle of cases; the same seed gives the same cases.

    A repeated entry of a cycle is the same case again.  The CLI workload
    writes its scenario files into ``work_dir``.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return _cli_cases(rng, work_dir)
    made: dict[tuple, Case] = {}
    for entry in CYCLES[workload][scale]:
        if entry not in made:
            factory, k = entry
            made[entry] = factory(rng, k)
    return [made[entry] for entry in CYCLES[workload][scale]]


# -- checks of in-process results ----------------------------------------------


def check_frameworks(case: Case, frameworks) -> str | None:
    """Compare chslit frameworks with the case's closed-form reference."""
    got = {}
    for f in frameworks:
        table = {(oracle.canon_event(g), branch): p for (g, branch), p in f.probabilities.items()}
        got[oracle.canon_partition(f.partition.groups)] = table
    if len(got) != len(frameworks):
        return "duplicate frameworks"
    if len(got) != case.count:
        return f"{len(got)} frameworks, expected {case.count}"
    for part, table in got.items():
        if not case.accepts(part):
            return f"unexpected framework {oracle.partition_text(part)}"
        if not oracle.tables_match(table, oracle.closed_form_table(case.amps, part)):
            return f"wrong probabilities in framework {oracle.partition_text(part)}"
    return None


def records_digest(records) -> tuple[int, int]:
    digest = oracle.RecordDigest()
    canon = {}  # id(framework) -> canonical partition; records share frameworks
    for r in records:
        for f in (r.framework_a, r.framework_b):
            if id(f) not in canon:
                canon[id(f)] = oracle.canon_partition(f.partition.groups)
        digest.add(
            oracle.record_key(r.kind, canon[id(r.framework_a)], r.event_a, r.p_a, canon[id(r.framework_b)], r.event_b, r.p_b)
        )
    return digest.value()


def check_records(case: Case, records) -> str | None:
    got, want = records_digest(records), case.record_digest()
    if got != want:
        return f"{got[0]} records with digest {got[1]:x}, expected {want[0]} with {want[1]:x}"
    return None


# -- CLI workload -----------------------------------------------------------------


def _payload(stdout: str) -> dict[str, Any]:
    return json.loads(stdout)["payload"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= oracle.PROB_TOL


def _expect_frameworks(reference: Callable[[], dict]) -> Callable[[str], str | None]:
    reference = functools.cache(reference)

    def check(stdout):
        want = reference()
        payload = _payload(stdout)
        got = {}
        for f in payload["frameworks"]:
            table = {(tuple(p - 1 for p in row["group"]), row["branch"]): row["probability"] for row in f["probabilities"]}
            got[oracle.parse_partition_text(f["partition"])] = table
        if payload["count"] != len(want) or got.keys() != want.keys():
            return f"frameworks {sorted(got)}, expected {sorted(want)}"
        for part, table in want.items():
            if not oracle.tables_match(got[part], table):
                return f"wrong probabilities in framework {oracle.partition_text(part)}"
        return None

    return check


def _expect_frameworks_text(want: dict) -> Callable[[str], str | None]:
    def check(stdout):
        lines = stdout.splitlines()
        listed = {oracle.parse_partition_text(line.split()[1]) for line in lines if line.startswith("framework ")}
        if f"consistent frameworks: {len(want)}" not in lines or listed != set(want):
            return "text output does not list the expected frameworks"
        return None

    return check


def _expect_check(consistent: bool, violation: float) -> Callable[[str], str | None]:
    def check(stdout):
        payload = _payload(stdout)
        if payload["consistent"] is not consistent or abs(payload["max_violation"] - violation) > oracle.PROB_TOL:
            return f"verdict {payload['consistent']} / {payload['max_violation']}, expected {consistent} / {violation}"
        return None

    return check


def _expect_probability(*probabilities: float) -> Callable[[str], str | None]:
    def check(stdout):
        payload = _payload(stdout)
        got = [payload["probability"]]
        if "conjunction" in payload:
            got.append(payload["conjunction"]["probability"])
        if len(got) != len(probabilities) or not all(map(_close, got, probabilities)):
            return f"probabilities {got}, expected {list(probabilities)}"
        return None

    return check


def _expect_records(case: Case) -> Callable[[str], str | None]:
    def check(stdout):
        payload = _payload(stdout)
        digest = oracle.RecordDigest()
        for row in payload["records"]:
            digest.add(
                oracle.record_key(
                    row["kind"],
                    oracle.parse_partition_text(row["framework_a"]),
                    [p - 1 for p in row["event_a"]],
                    row["p_a"],
                    oracle.parse_partition_text(row["framework_b"]),
                    [p - 1 for p in row["event_b"]],
                    row["p_b"],
                )
            )
        if payload["count"] != len(payload["records"]) or digest.value() != case.record_digest():
            return f"{payload['count']} records, expected {case.record_digest()[0]}"
        return None

    return check


def _expect_rates(amps, mask) -> Callable[[str], str | None]:
    singles = [oracle.counting_rate(amps, [i]) for i in range(len(amps))]
    all_open = oracle.counting_rate(amps, range(len(amps)))
    want = [oracle.counting_rate(amps, mask), *singles, all_open, all_open - sum(singles)]

    def check(stdout):
        payload = _payload(stdout)
        got = [payload["rate"], *(s["rate"] for s in payload["singles"]), payload["all_open_rate"], payload["interference_deficit"]]
        if len(got) != len(want) or not all(map(_close, got, want)):
            return f"rates {got}, expected {want}"
        return None

    return check


def _paradox_frameworks() -> dict:
    """Hand-derived: with amplitudes (1,-1,1), k = 3 and |A|^2 = 3, a group
    with amplitude sum s has detected probability |s|^2/9.  Only the
    coarsest partition and the two splits with a zero-sum pair survive."""
    return {
        ((0, 1, 2),): {((0, 1, 2), DETECTED): 1 / 9, ((0, 1, 2), UNDETECTED): 8 / 9},
        ((0, 1), (2,)): {((0, 1), DETECTED): 0.0, ((0, 1), UNDETECTED): 2 / 3, ((2,), DETECTED): 1 / 9, ((2,), UNDETECTED): 2 / 9},
        ((0,), (1, 2)): {((0,), DETECTED): 1 / 9, ((0,), UNDETECTED): 2 / 9, ((1, 2), DETECTED): 0.0, ((1, 2), UNDETECTED): 2 / 3},
    }


def _paradox_records() -> tuple[int, int]:
    """Hand-derived: {3} is certain in 1,2|3 and {1} in 1|2,3 (disjoint), and
    each certainty sits inside a null event of the other framework."""
    a, b = ((0, 1), (2,)), ((0,), (1, 2))
    digest = oracle.RecordDigest()
    digest.add(oracle.record_key("disjoint-certainty", a, {2}, 1.0, b, {0}, 1.0))
    digest.add(oracle.record_key("implication-violation", a, {2}, 1.0, b, {1, 2}, 0.0))
    digest.add(oracle.record_key("implication-violation", b, {0}, 1.0, a, {0, 1}, 0.0))
    return digest.value()


def _positions(indices) -> str:
    return ",".join(str(i + 1) for i in sorted(indices))


def _cli_cases(rng: random.Random, work_dir: Path) -> list[Case]:
    demo = ["--demo", "three-slit-contradiction"]
    json_fmt = ["--format", "json"]
    generic_rng = random.Random(GENERIC_DEMO_SEED)
    generic_demo = [_amp(generic_rng) for _ in range(3)]

    planted = _planted(rng, 6)
    null_group, carrier = sorted(planted.split, key=lambda g: abs(sum(planted.amps[i] for i in g)))
    alternating = _alternating(rng, 5)
    generic = _generic(rng, 6)
    zero_sum = [_amp(rng) for _ in range(3)]
    zero_sum.append(-sum(zero_sum))
    weak_partition = [frozenset(g) for g in oracle.canon_partition(_random_groups(rng, 6))]
    weak_verdict = oracle.DenseModel(generic.amps).verdict(weak_partition, mode="weak")
    mask = rng.sample(range(6), rng.randint(1, 5))

    files = {"planted": planted.amps, "alternating": alternating.amps, "generic": generic.amps, "zero-sum": zero_sum}
    paths = {}
    for name, amps in files.items():
        paths[name] = str(work_dir / f"{name}.json")
        Path(paths[name]).write_text(scenario_doc(name, amps), encoding="utf-8")

    def case(name, argv, exit_code, check=None):
        return Case(name, argv=argv, exit_code=exit_code, check_stdout=check)

    split_text = oracle.partition_text(planted.split)
    return [
        case("check-paradox", ["check", *demo, "--partition", "1,2|3", *json_fmt], 0, _expect_check(True, 0.0)),
        case("check-paradox-finest", ["check", *demo, "--partition", "1|2|3", *json_fmt], 3, _expect_check(False, 1 / 9)),
        case("frameworks-paradox-text", ["frameworks", *demo], 0, _expect_frameworks_text(_paradox_frameworks())),
        case("frameworks-footnote", ["frameworks", "--demo", "two-slit-footnote", *json_fmt], 0, _expect_frameworks(_paradox_frameworks)),
        case("frameworks-generic-demo", ["frameworks", "--demo", "generic", *json_fmt], 0,
             _expect_frameworks(lambda: {((0, 1, 2),): oracle.closed_form_table(generic_demo, [(0, 1, 2)])})),
        case("query-paradox", ["query", *demo, "--framework", "1,2|3", "--event", "3", "--given-detected", *json_fmt], 0,
             _expect_probability(1.0)),
        case("query-paradox-and-refused", ["query", *demo, "--framework", "1,2|3", "--event", "3", "--given-detected",
                                           "--and", "1@1|2,3"], 4),
        case("contradictions-paradox", ["contradictions", *demo, *json_fmt], 0,
             _expect_records(Case("paradox", PARADOX, _digest=_paradox_records()))),
        case("rates-paradox", ["rates", *demo, "--mask", "1,2", "--all-single", *json_fmt], 0, _expect_rates(PARADOX, [0, 1])),
        case("frameworks-planted", ["frameworks", "--file", paths["planted"], *json_fmt], 0,
             _expect_frameworks(oracle.DenseModel(planted.amps).frameworks)),
        case("contradictions-alternating", ["contradictions", "--file", paths["alternating"], *json_fmt], 0,
             _expect_records(alternating)),
        case("check-generic-weak", ["check", "--file", paths["generic"], "--partition", oracle.partition_text(weak_partition),
                                    "--mode", "weak", *json_fmt], 0 if weak_verdict[0] else 3, _expect_check(*weak_verdict)),
        case("query-planted-and", ["query", "--file", paths["planted"], "--framework", split_text, "--event", _positions(carrier),
                                   "--given-detected", "--and", f"{_positions(range(6))}@{_positions(range(6))}", *json_fmt], 0,
             _expect_probability(1.0, 1.0)),
        case("query-planted-not-union", ["query", "--file", paths["planted"], "--framework", split_text,
                                         "--event", str(min(null_group) + 1), "--given-detected"], 4),
        case("query-null-detection", ["query", "--file", paths["zero-sum"], "--framework", "1,2,3,4", "--event", "1,2,3,4",
                                      "--given-detected"], 5),
        case("check-overlapping-groups", ["check", "--file", paths["generic"], "--partition", "1,2|2,3,4,5,6"], 2),
        case("rates-generic", ["rates", "--file", paths["generic"], "--mask", _positions(mask), "--all-single", *json_fmt], 0,
             _expect_rates(generic.amps, mask)),
    ]


def _random_groups(rng: random.Random, k: int) -> list[set[int]]:
    groups: list[set[int]] = []
    for i in range(k):
        if groups and rng.random() < 0.5:
            rng.choice(groups).add(i)
        else:
            groups.append({i})
    return groups
