"""Acceptance suite: one test per release criterion.

Each test prints an ``ACCEPTANCE PASS`` line on success (run with ``-s`` to
see them stream); a failing criterion fails its test.  Expected values are
hand-derived or produced by the brute-force oracles in conftest, never by
the code paths under test.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from chslit import (
    DETECTED,
    UNDETECTED,
    MeaninglessCombination,
    NotInFramework,
    Partition,
    build_experiment,
    build_framework,
    builtin_scenario,
    check_consistency,
    combine_queries,
    conditional_probability,
    counting_rate,
    enumerate_consistent_frameworks,
    enumerate_partitions,
    find_contradictions,
    format_partition,
    group_decoherence_closed_form,
    parse_partition,
    parse_scenario_partition,
    query_event,
)
from chslit.cli import main as cli_main
from chslit.reference import (
    History,
    branch_projector,
    class_operator_apply,
    decoherence_functional,
    group_projector,
    history_set_for_partition,
    initial_state,
)
from conftest import (
    brute_consistent_partitions,
    make_scenario,
    planted_scenario,
    random_amplitudes,
    random_partition,
    random_scenario,
)


def _passed(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def _gram(model, partition):
    histories, psi = history_set_for_partition(model, partition).histories, initial_state(model)
    vectors = [class_operator_apply(model, h, psi) for h in histories]
    m = len(vectors)
    return [[complex(np.vdot(vectors[j], vectors[i])) for j in range(m)] for i in range(m)]


def test_paradox_reproduction():
    """Both pair-splittings are consistent and each retrodicts its path with
    certainty (within 1e-12)."""
    model = build_experiment(builtin_scenario("three-slit-contradiction"))
    split_12_3 = parse_partition("1,2|3", 3)
    split_1_23 = parse_partition("1|2,3", 3)
    assert check_consistency(model, split_12_3, mode="medium").consistent
    assert abs(conditional_probability(model, split_12_3, {2}) - 1.0) <= 1e-12
    assert check_consistency(model, split_1_23, mode="medium").consistent
    assert abs(conditional_probability(model, split_1_23, {0}) - 1.0) <= 1e-12
    _passed("paradox reproduction: P({3}|D) = 1 in 1,2|3 and P({1}|D) = 1 in 1|2,3")


def test_implication_violation():
    """{3} is certain in one framework while its superset {2,3} is null in
    the other, and the finder emits both record kinds."""
    model = build_experiment(builtin_scenario("three-slit-contradiction"))
    assert abs(conditional_probability(model, parse_partition("1|2,3", 3), {1, 2})) <= 1e-12
    assert abs(conditional_probability(model, parse_partition("1,2|3", 3), {2}) - 1.0) <= 1e-12
    records = find_contradictions(model)
    signatures = {
        (r.kind, format_partition(r.framework_a.partition), tuple(sorted(r.event_a)),
         format_partition(r.framework_b.partition), tuple(sorted(r.event_b)))
        for r in records
    }
    assert ("disjoint-certainty", "1,2|3", (2,), "1|2,3", (0,)) in signatures
    assert ("implication-violation", "1,2|3", (2,), "1|2,3", (1, 2)) in signatures
    _passed("implication violation: both contradiction records emitted")


def test_footnote_reproduction():
    """The two-slit variant clashes the same way once the zero-amplitude
    slit is split into cancelling parts."""
    scenario = builtin_scenario("two-slit-footnote")
    model = build_experiment(scenario)
    coarse = parse_scenario_partition(scenario, "1,2|3")   # {S2.upper, S2.lower} | {S3}
    fine = parse_scenario_partition(scenario, "1|2,3")     # {S2.upper} | {S2.lower, S3}
    assert abs(conditional_probability(model, coarse, {3}) - 1.0) <= 1e-12
    assert abs(conditional_probability(model, fine, {1}) - 1.0) <= 1e-12
    _passed("footnote reproduction: P(S3|D) = 1 and P(S2.upper|D) = 1 in their splits")


def test_framework_census():
    """Exactly 3 of 5 partitions survive for (1,-1,1), 1 for generic, 5 for
    (1,0,0); the screened enumeration equals the no-pruning oracle."""
    cases = [
        (builtin_scenario("three-slit-contradiction"), 3),
        (builtin_scenario("generic"), 1),
        (make_scenario([1, 0, 0], name="single-amplitude"), 5),
    ]
    for scenario, expected_count in cases:
        model = build_experiment(scenario)
        frameworks = enumerate_consistent_frameworks(model, mode="medium")
        oracle = brute_consistent_partitions(model, mode="medium")
        assert len(frameworks) == expected_count, scenario.name
        assert {f.partition.groups for f in frameworks} == {p.groups for p in oracle}, scenario.name
    _passed("framework census: 3 / 1 / 5 survivors, equal to the brute-force oracle")


def test_interference_inequality():
    """Counting rates: all slits open gives 1, per-slit rates give 3."""
    scenario = builtin_scenario("three-slit-contradiction")
    assert counting_rate(scenario, {0, 1, 2}) == 1.0
    singles = sum(counting_rate(scenario, {i}) for i in range(3))
    assert singles == 3.0
    _passed("interference inequality: rate(all) = 1 while singles sum to 3")


def test_property_suites():
    """1000 seeded random scenarios (n <= 6): hermiticity and positivity to
    1e-12, normalization and additivity and closed-form equivalence to
    1e-10, and scale invariance of verdicts and conditionals."""
    rng = random.Random(20260810)
    kinds = ["generic", "planted", "sparse", "mixed-open"]
    additivity_checked = 0
    scenarios_checked = 0
    for case in range(1000):
        kind = kinds[case % 4]
        planted_split = None
        if kind == "planted":
            scenario, planted_split = planted_scenario(rng, rng.randint(2, 6))
        else:
            scenario = random_scenario(rng, n=rng.randint(1, 6), kind=kind)
        scenarios_checked += 1
        model = build_experiment(scenario)
        open_paths = scenario.open_indices
        partitions = [Partition((frozenset(open_paths),))]
        partitions += [random_partition(rng, open_paths) for _ in range(2)]
        if planted_split is not None:
            partitions.append(planted_split)

        for partition in partitions:
            gram = _gram(model, partition)
            m = len(gram)
            for i in range(m):
                assert gram[i][i].real >= -1e-12
                assert abs(gram[i][i].imag) <= 1e-12
                for j in range(m):
                    assert abs(gram[i][j] - gram[j][i].conjugate()) <= 1e-12
            total = sum(gram[i][j] for i in range(m) for j in range(m))
            assert abs(total - 1.0) <= 1e-10

        # Coarse-graining additivity on weakly consistent multi-group partitions.
        for partition in partitions:
            if len(partition) < 2:
                continue
            if not check_consistency(model, partition, mode="weak").consistent:
                continue
            fine = build_framework(model, partition, mode="weak").probabilities
            i, j = rng.sample(range(len(partition)), 2)
            merged_group = partition.groups[i] | partition.groups[j]
            merged = Partition(
                tuple(g for idx, g in enumerate(partition.groups) if idx not in (i, j)) + (merged_group,)
            )
            coarse = build_framework(model, merged, mode="weak").probabilities
            # Diagonal values of a weakly consistent set behave as probabilities.
            assert abs(sum(fine.values()) - 1.0) <= 1e-10
            for branch in (DETECTED, UNDETECTED):
                split_sum = fine[(partition.groups[i], branch)] + fine[(partition.groups[j], branch)]
                assert abs(coarse[(merged_group, branch)] - split_sum) <= 1e-10
            additivity_checked += 1

        # Closed form against the explicit model on sampled (G, G2, branch) triples.
        for _ in range(4):
            g1 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            g2 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            branch = rng.choice([DETECTED, UNDETECTED])
            h1 = History(chain=(group_projector(model, g1), branch_projector(model, branch)))
            h2 = History(chain=(group_projector(model, g2), branch_projector(model, branch)))
            want = decoherence_functional(model, h1, h2)
            got = group_decoherence_closed_form(scenario, g1, g2, branch)
            assert abs(got - want) <= 1e-10

        # Scale invariance of verdicts and conditional probabilities.
        scale = 0j
        while abs(scale) < 0.1:
            scale = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        scaled_scenario = make_scenario(
            [a * scale for a in scenario.amplitudes],
            open_flags=[p.is_open for p in scenario.paths],
        )
        scaled_model = build_experiment(scaled_scenario)
        for partition in partitions:
            for mode in ("medium", "weak"):
                before = check_consistency(model, partition, mode=mode).consistent
                after = check_consistency(scaled_model, partition, mode=mode).consistent
                assert before == after
            if check_consistency(model, partition).consistent:
                table = build_framework(model, partition)
                if table.detected_total() > 1e-12:
                    for group in partition.groups:
                        p_before = conditional_probability(model, partition, group)
                        p_after = conditional_probability(scaled_model, partition, group)
                        assert abs(p_before - p_after) <= 1e-10
    assert scenarios_checked == 1000
    assert additivity_checked >= 100  # the additivity clause must not be vacuous
    _passed(f"property suites: 1000 scenarios, additivity exercised {additivity_checked} times")


def test_enumeration_correctness_and_performance():
    """Bell counts through n = 8, and the Bell(10) = 115,975 sweep of a
    random 10-path scenario finishes in under 10 seconds."""
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]  # B(0)..B(8)
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_partitions(n)) == bell[n]
    rng = random.Random(1010)
    scenario = make_scenario(random_amplitudes(rng, 10), name="ten-path")
    model = build_experiment(scenario)
    started = time.perf_counter()
    frameworks = enumerate_consistent_frameworks(model, mode="medium")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    assert [f.partition for f in frameworks] == [Partition((frozenset(range(10)),))]
    _passed(f"enumeration: Bell counts match and the 10-path sweep took {elapsed:.2f}s")


def test_single_framework_rule():
    """Cross-framework moves are refused in the library and exit 4 in the CLI."""
    model = build_experiment(builtin_scenario("three-slit-contradiction"))
    split_12_3 = build_framework(model, parse_partition("1,2|3", 3))
    split_1_23 = build_framework(model, parse_partition("1|2,3", 3))
    with pytest.raises(NotInFramework):
        query_event(split_12_3, {0}, given_detected=True)
    with pytest.raises(MeaninglessCombination):
        combine_queries(split_12_3, split_1_23)
    demo = ["--demo", "three-slit-contradiction"]
    assert cli_main(["query", *demo, "--framework", "1,2|3", "--event", "1", "--given-detected"]) == 4
    assert (
        cli_main(
            ["query", *demo, "--framework", "1,2|3", "--event", "3", "--given-detected",
             "--and", "1@1|2,3"]
        )
        == 4
    )
    _passed("single-framework rule: NotInFramework and MeaninglessCombination, CLI exit 4")
