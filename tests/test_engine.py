"""Hilbert-space model, decoherence functional, consistency and probabilities.

The inline oracle below rebuilds the model from its defining rules with raw
numpy, so the engine's answers are checked against an implementation that
shares none of its code.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from chslit import (
    BadIndex,
    ConditionUnsatisfied,
    DegenerateDetector,
    DETECTED,
    InconsistentSet,
    NoOpenPaths,
    NotInFramework,
    Partition,
    UNDETECTED,
    build_experiment,
    build_framework,
    check_consistency,
    conditional_probability,
    group_decoherence_closed_form,
    parse_partition,
)
from chslit.engine import _EMPTY, _fold, _group_terms, _settle
from chslit.reference import (
    DimensionMismatch,
    History,
    HistorySet,
    branch_projector,
    class_operator_apply,
    decoherence_functional,
    detector_direction,
    group_projector,
    history_set_for_partition,
    initial_state,
)
from conftest import make_scenario, random_partition, random_scenario
from chslit import enumerate_consistent_frameworks, find_contradictions, format_partition
from conftest import partition_gram

THREE_SLIT = make_scenario([1, -1, 1])
SPLIT_12_3 = parse_partition("1,2|3", 3)
SPLIT_1_23 = parse_partition("1|2,3", 3)
SPLIT_13_2 = parse_partition("1,3|2", 3)
FINEST = parse_partition("1|2|3", 3)


def inline_decoherence(scenario, group_a, branch_a, group_b, branch_b):
    """Decoherence value computed from scratch: equal-weight initial state
    over open paths, detector along conj(A)/|A|, identity dynamics."""
    amps = np.array(scenario.amplitudes, dtype=complex)
    n = len(amps)
    open_idx = list(scenario.open_indices)
    psi = np.zeros(n, dtype=complex)
    psi[open_idx] = 1.0 / np.sqrt(len(open_idx))
    d = amps.conj() / np.linalg.norm(amps)
    projector = {
        DETECTED: np.outer(d, d.conj()),
        UNDETECTED: np.eye(n) - np.outer(d, d.conj()),
    }

    def branch_vector(group, branch):
        p = np.zeros((n, n), dtype=complex)
        for i in group:
            p[i, i] = 1.0
        return projector[branch] @ (p @ psi)

    return complex(np.vdot(branch_vector(group_b, branch_b), branch_vector(group_a, branch_a)))


def model_history(model, group, branch):
    return History(chain=(group_projector(model, group), branch_projector(model, branch)))


# -- build_experiment ---------------------------------------------------------


def test_build_three_slit_model_by_hand():
    model = build_experiment(THREE_SLIT)
    np.testing.assert_allclose(initial_state(model), np.full(3, 1 / np.sqrt(3)), atol=1e-15)
    np.testing.assert_allclose(detector_direction(model), np.array([1, -1, 1]) / np.sqrt(3), atol=1e-15)


def test_build_single_open_path_aligns_detector():
    scenario = make_scenario([1, 0, 0], open_flags=[True, False, False])
    model = build_experiment(scenario)
    np.testing.assert_array_equal(initial_state(model), np.array([1, 0, 0], dtype=complex))
    np.testing.assert_array_equal(detector_direction(model), np.array([1, 0, 0], dtype=complex))


def test_build_degenerate_detector():
    with pytest.raises(DegenerateDetector):
        build_experiment(make_scenario([0, 0, 0]))


def test_build_no_open_paths():
    with pytest.raises(NoOpenPaths):
        build_experiment(make_scenario([1, 1], open_flags=[False, False]))


def test_model_invariants():
    rng = random.Random(11)
    for _ in range(30):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "mixed-open", "sparse"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        n = scenario.n_paths
        amps = np.array(scenario.amplitudes)
        norm = np.linalg.norm(amps)
        assert abs(np.linalg.norm(initial_state(model)) - 1.0) < 1e-12
        # Per-path detection amplitude is A_i / |A|.
        for i in range(n):
            e_i = np.zeros(n, dtype=complex)
            e_i[i] = 1.0
            assert abs(np.vdot(detector_direction(model), e_i) - amps[i] / norm) < 1e-12
        # The detection pair sums to the identity exactly and projects.
        detected, undetected = branch_projector(model, DETECTED), branch_projector(model, UNDETECTED)
        np.testing.assert_array_equal(detected + undetected, np.eye(n, dtype=complex))
        for p in (detected, undetected):
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p - p.conj().T)) < 1e-12


def test_model_arrays_are_immutable():
    model = build_experiment(THREE_SLIT)
    with pytest.raises(ValueError):
        initial_state(model)[0] = 99.0


# -- class operators ----------------------------------------------------------


def test_class_operator_slit_then_detection_by_hand():
    # P_3 psi = e_3/sqrt(3); projecting onto the detector leaves d/3.
    model = build_experiment(THREE_SLIT)
    h = model_history(model, frozenset({2}), DETECTED)
    out = class_operator_apply(model, h, initial_state(model))
    np.testing.assert_allclose(out, detector_direction(model) / 3.0, atol=1e-15)


def test_histories_are_entities_that_hold_their_chain_as_a_tuple():
    p = np.eye(3, dtype=complex)
    h = History(chain=[p], label="x")
    assert type(h.chain) is tuple and h.chain[0] is p and History([p]).label == ""
    assert type(h._replace(chain=[p, p]).chain) is tuple
    # Equal only to themselves and hashed by identity, however alike.
    twin = History(chain=[p], label="x")
    assert h == h and h != twin and hash(h) != hash(twin)
    family = HistorySet(histories=(h,), step_families=((p,),))
    assert family == family and family != HistorySet(histories=(h,), step_families=((p,),))
    with pytest.raises(AttributeError):
        h.label = "y"


def test_class_operator_empty_chain_is_identity():
    model = build_experiment(THREE_SLIT)
    out = class_operator_apply(model, History(chain=()), initial_state(model))
    np.testing.assert_array_equal(out, initial_state(model))


def test_class_operator_projector_idempotence():
    model = build_experiment(THREE_SLIT)
    p1 = group_projector(model, (0,))
    rng = np.random.default_rng(3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    once = class_operator_apply(model, History(chain=(p1,)), v)
    twice = class_operator_apply(model, History(chain=(p1, p1)), v)
    np.testing.assert_array_equal(once, twice)


def test_class_operator_supports_longer_chains():
    model = build_experiment(THREE_SLIT)
    p12 = group_projector(model, frozenset({0, 1}))
    three_step = History(chain=(p12, p12, branch_projector(model, DETECTED)))
    two_step = History(chain=(p12, branch_projector(model, DETECTED)))
    np.testing.assert_allclose(
        class_operator_apply(model, three_step, initial_state(model)),
        class_operator_apply(model, two_step, initial_state(model)),
        atol=1e-15,
    )


def test_class_operator_dimension_mismatch():
    model = build_experiment(THREE_SLIT)
    bad = History(chain=(np.eye(2, dtype=complex),))
    with pytest.raises(DimensionMismatch):
        class_operator_apply(model, bad, initial_state(model))


def test_class_operator_rejects_a_non_square_projector():
    model = build_experiment(THREE_SLIT)
    bad = History(chain=(np.ones((3, 2), dtype=complex),))
    with pytest.raises(DimensionMismatch, match=r"\(3, 2\) is not square"):
        class_operator_apply(model, bad, initial_state(model))


def test_branch_projector_rejects_an_unknown_branch():
    model = build_experiment(THREE_SLIT)
    with pytest.raises(ValueError, match="'sideways'"):
        branch_projector(model, "sideways")


def test_decoherence_rejects_chain_length_mismatch():
    model = build_experiment(THREE_SLIT)
    h = model_history(model, frozenset({2}), DETECTED)
    with pytest.raises(DimensionMismatch):
        decoherence_functional(model, h, History(chain=()))


# -- decoherence functional -----------------------------------------------------


def test_decoherence_cancelling_group_pair_vanishes():
    model = build_experiment(THREE_SLIT)
    h = model_history(model, frozenset({0, 1}), DETECTED)
    h2 = model_history(model, frozenset({2}), DETECTED)
    assert abs(decoherence_functional(model, h, h2)) < 1e-15


def test_decoherence_diagonal_by_hand():
    # c_{3} = A_3 / (sqrt(3) * sqrt(3)) = 1/3, so the diagonal is 1/9.
    model = build_experiment(THREE_SLIT)
    h = model_history(model, frozenset({2}), DETECTED)
    assert decoherence_functional(model, h, h) == pytest.approx(1 / 9, abs=1e-15)


def test_decoherence_hermitian():
    rng = random.Random(23)
    for _ in range(20):
        scenario = random_scenario(rng)
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        open_paths = list(scenario.open_indices)
        for _ in range(5):
            g1 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            g2 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            b1, b2 = rng.choice([DETECTED, UNDETECTED]), rng.choice([DETECTED, UNDETECTED])
            h1, h2 = model_history(model, g1, b1), model_history(model, g2, b2)
            d12 = decoherence_functional(model, h1, h2)
            d21 = decoherence_functional(model, h2, h1)
            assert abs(d12 - d21.conjugate()) < 1e-12


def test_engine_matches_inline_oracle():
    rng = random.Random(101)
    for _ in range(25):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        open_paths = list(scenario.open_indices)
        for _ in range(6):
            g1 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            g2 = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
            b1, b2 = rng.choice([DETECTED, UNDETECTED]), rng.choice([DETECTED, UNDETECTED])
            got = decoherence_functional(model, model_history(model, g1, b1), model_history(model, g2, b2))
            want = inline_decoherence(scenario, g1, b1, g2, b2)
            assert abs(got - want) < 1e-12


# -- closed form ------------------------------------------------------------------


def test_closed_form_three_slit_values():
    assert group_decoherence_closed_form(THREE_SLIT, {0, 1}, {2}, DETECTED) == 0j
    assert group_decoherence_closed_form(THREE_SLIT, {2}, {2}, DETECTED) == pytest.approx(1 / 9)
    # conj(c_{2}) * c_{1,3} = (-1/3) * (2/3)
    assert group_decoherence_closed_form(THREE_SLIT, {0, 2}, {1}, DETECTED) == pytest.approx(-2 / 9)


def _subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_closed_form_matches_explicit_model_on_every_triple():
    rng = random.Random(4242)
    for trial in range(12):
        n = rng.randint(1, 4)
        scenario = random_scenario(rng, n=n, kind=rng.choice(["generic", "planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        open_paths = list(scenario.open_indices)
        for ga in _subsets(open_paths):
            for gb in _subsets(open_paths):
                for branch in (DETECTED, UNDETECTED):
                    got = group_decoherence_closed_form(scenario, ga, gb, branch)
                    want = decoherence_functional(
                        model,
                        model_history(model, frozenset(ga), branch),
                        model_history(model, frozenset(gb), branch),
                    )
                    assert abs(got - want) < 1e-10


def test_closed_form_rejects_unknown_branch():
    with pytest.raises(ValueError):
        group_decoherence_closed_form(THREE_SLIT, {0}, {1}, "sideways")


# -- consistency ------------------------------------------------------------------


def test_cancelling_split_is_consistent():
    model = build_experiment(THREE_SLIT)
    report = check_consistency(model, SPLIT_12_3, mode="medium")
    assert report.consistent
    assert report.offending_pair is None


def test_non_cancelling_split_violation_by_hand():
    # |conj(c_{2}) c_{1,3}| = (1/3)(2/3) = 2/9.
    model = build_experiment(THREE_SLIT)
    report = check_consistency(model, SPLIT_13_2, mode="medium")
    assert not report.consistent
    assert report.max_violation == pytest.approx(2 / 9, abs=1e-12)
    assert report.offending_pair is not None


def test_finest_partition_fails_weak_mode():
    # Re[conj(A_1) A_2] / 9 = -1/9 on the detected branch.
    model = build_experiment(THREE_SLIT)
    report = check_consistency(model, FINEST, mode="weak")
    assert not report.consistent
    assert report.max_violation == pytest.approx(1 / 9, abs=1e-12)


@pytest.mark.parametrize(
    "amplitudes, mode, pair",
    [
        ((1, 2, 2), "medium", ("S2", "S3")),
        ((2, 1, 2), "medium", ("S1", "S3")),
        ((2, 2, 2), "medium", ("S1", "S2")),
        ((2, 2, 2), "weak", ("S1", "S2")),
        ((1, 2, -2), "weak", ("S2", "S3")),
        ((3, 1, 1, 1), "medium", ("S1", "S2")),
        ((1, 3, 1, 3), "medium", ("S2", "S4")),
        ((0, 0, 1, 1), "medium", ("S3", "S4")),
        # Pairs (S1, S4) and (S2, S3) tie.  Taken by their second group, S2, S3
        # comes first; in the order of combinations, S1, S4 does.
        ((1, 1j, 1j, 1), "weak", ("S1", "S4")),
    ],
)
def test_the_first_of_equal_worst_pairs_is_reported(amplitudes, mode, pair):
    # With equal moduli, the report names the first group pair, in the order
    # of combinations over the groups, that reaches the largest violation.
    finest = parse_partition("|".join(map(str, range(1, len(amplitudes) + 1))), len(amplitudes))
    report = check_consistency(build_experiment(make_scenario(amplitudes)), finest, mode=mode)
    assert not report.consistent
    assert report.offending_pair == tuple(f"{{{label}}} then detected" for label in pair)


def test_the_first_of_equal_worst_pairs_is_reported_in_a_seeded_sweep():
    # Gaussian-integer amplitudes give exact group sums and many ties.  The
    # brute rule compares every pair's detected entry exactly, as integers:
    # |conj(s_h) s_g|^2 in medium mode, |Re(conj(s_h) s_g)| in weak mode.
    rng = random.Random(18)
    values = (0, 1, -1, 2, -2, 1j, -1j)
    checked = 0
    for _ in range(300):
        k = rng.randint(2, 6)
        amplitudes = [rng.choice(values) for _ in range(k)]
        if not any(amplitudes):
            continue
        model = build_experiment(make_scenario(amplitudes))
        finest = Partition(tuple(frozenset([i]) for i in range(k)))
        for partition in (finest, random_partition(rng, range(k))):
            sums = [sum(amplitudes[i] for i in g) for g in partition.groups]
            parts = [(int(s.real), int(s.imag)) for s in map(complex, sums)]
            norms = [re * re + im * im for re, im in parts]
            medium = lambda p: norms[p[0]] * norms[p[1]]
            weak = lambda p: abs(parts[p[0]][0] * parts[p[1]][0] + parts[p[0]][1] * parts[p[1]][1])
            pairs = list(combinations(range(len(sums)), 2))
            for mode, entry in (("medium", medium), ("weak", weak)):
                report = check_consistency(model, partition, mode=mode, tolerance=0.0)
                worst = max(map(entry, pairs), default=0)
                assert report.consistent == (worst == 0), (amplitudes, partition, mode)
                if worst:
                    g, h = next(p for p in pairs if entry(p) == worst)
                    labels = [",".join(f"S{i + 1}" for i in sorted(partition.groups[j])) for j in (g, h)]
                    assert report.offending_pair == tuple(f"{{{label}}} then detected" for label in labels), mode
                    checked += 1
                else:
                    assert report.offending_pair is None
    assert checked > 800


@pytest.mark.parametrize("amplitudes", [(3, 1, 1, 1), (1, 3, 1, 3), (0, 0, 1, 1), (1, 1j, 1j, 1), (2, -1, 1j, -2j)])
def test_the_folded_verdict_does_not_depend_on_the_order_of_the_groups(amplitudes):
    # The enumeration folds groups in the order it places them, not in
    # partition order; every order must settle to the in-order verdict, and
    # that is check_consistency's, bit for bit.
    model = build_experiment(make_scenario(amplitudes))
    k = len(amplitudes)
    points, norm = model.points, model.norm
    terms = [_group_terms(a, points[i], 1, k, model.scale, norm) for i, a in enumerate(model.amplitudes)]
    finest = Partition(tuple(frozenset([i]) for i in range(k)))

    def settle(order, mode):
        state = _EMPTY[mode]
        for index in order:
            state = _fold(state, terms[index], mode)
        consistent, violation, tolerance_used = _settle(state, model.scale, 0.0, (0, 1), mode)
        return consistent, violation.hex(), tolerance_used.hex()

    for mode in ("medium", "weak"):
        want = settle(range(k), mode)
        report = check_consistency(model, finest, mode=mode, tolerance=0.0)
        assert want == (report.consistent, report.max_violation.hex(), report.tolerance_used.hex()), mode
        for order in permutations(range(k)):
            assert settle(order, mode) == want, (mode, order)


def test_medium_verdict_read_off_bit_lengths_equals_the_products():
    # Sizes X >= Y, the largest diagonal D and tolerance t / u, as integers
    # of 8 to 4,000 bits; half the draws put (t D)^2 within a few units of
    # X Y u^2, the others put the two sides' bit lengths within 8 of each
    # other, and some have t = 0.
    rng = random.Random(4000)
    bits = lambda n: rng.getrandbits(n) | 1 << (n - 1)
    for _ in range(20_000):
        y, x, u = sorted(bits(rng.randint(8, 4000)) for _ in range(2)) + [bits(rng.randint(8, 4000))]
        t = 0 if rng.random() < 0.02 else bits(rng.randint(8, 4000))
        if t and rng.random() < 0.5:
            d = max(1, math.isqrt(x * y * u * u) // t + rng.randint(-2, 2))
        else:
            a = x.bit_length() + y.bit_length() + 2 * u.bit_length()
            d = bits(max(1, (a + rng.randint(-8, 8)) // 2 - t.bit_length()))
        consistent, _, _ = _settle(((d, 1.0), (x, 1.0), (y, 1.0)), 1.0, 1.0, (t, u), "medium")
        assert consistent == (x * y * u * u <= (t * d) ** 2), (x, y, u, t, d)


def test_medium_consistency_implies_weak():
    rng = random.Random(77)
    for _ in range(40):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "sparse"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        partition = random_partition(rng, scenario.open_indices)
        if check_consistency(model, partition, mode="medium").consistent:
            assert check_consistency(model, partition, mode="weak").consistent


def test_consistency_report_tolerance_semantics():
    model = build_experiment(THREE_SLIT)
    report = check_consistency(model, SPLIT_13_2, mode="medium", tolerance=1e-10)
    assert report.consistent == (report.max_violation <= report.tolerance_used)
    # A sloppy tolerance can bless the same partition.
    lax = check_consistency(model, SPLIT_13_2, mode="medium", tolerance=1.0)
    assert lax.consistent


def test_check_rejects_unknown_mode_and_bad_partition():
    model = build_experiment(THREE_SLIT)
    with pytest.raises(ValueError):
        check_consistency(model, SPLIT_12_3, mode="strong")
    with pytest.raises(BadIndex):
        check_consistency(model, parse_partition("1|2", 2), mode="medium")


def test_history_set_families_sum_to_identity_and_are_orthogonal():
    rng = random.Random(31)
    for _ in range(15):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        hs = history_set_for_partition(model, random_partition(rng, scenario.open_indices))
        hs.validate(atol=1e-10)


def test_history_set_refuses_a_partition_that_does_not_cover_the_open_paths():
    model = build_experiment(make_scenario([1, 1, 1], open_flags=[True, False, True]))
    # Paths 1 and 3 are open: one misses path 3, the other adds closed path 2.
    for partition in (parse_partition("1", 1), parse_partition("1|2,3", 3)):
        with pytest.raises(BadIndex):
            history_set_for_partition(model, partition)


def test_history_set_validate_names_the_failing_family():
    model = build_experiment(THREE_SLIT)
    p1, p2, p12, p23 = (group_projector(model, g) for g in ({0}, {1}, {0, 1}, {1, 2}))
    detection = tuple(branch_projector(model, branch) for branch in (DETECTED, UNDETECTED))
    # {1} and {1,2} miss path 3 and add path 1 twice; {1} and {2,3} are fine.
    short = HistorySet(histories=(), step_families=((p1, p23), (p1, p12)))
    with pytest.raises(ValueError, match="step 1 does not sum to identity"):
        short.validate()
    # {1,2}, {2,3} and minus {2} sum to the identity, but {1,2} and {2,3} overlap.
    overlapping = HistorySet(histories=(), step_families=(detection, (p12, p23, -p2)))
    with pytest.raises(ValueError, match="projectors 0 and 1 at step 1 are not orthogonal"):
        overlapping.validate()


def test_full_gram_sums_to_one():
    rng = random.Random(59)
    for _ in range(25):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        histories = history_set_for_partition(model, random_partition(rng, scenario.open_indices)).histories
        total = sum(
            decoherence_functional(model, hi, hj) for hi in histories for hj in histories
        )
        assert abs(total - 1.0) < 1e-10


def test_concurrent_checks_match_sequential():
    scenario = make_scenario([1, -1, 1, 0.5 + 0.5j, -0.5j])
    model = build_experiment(scenario)
    from chslit import enumerate_partitions

    partitions = list(enumerate_partitions(5))
    sequential = [check_consistency(model, p) for p in partitions]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda p: check_consistency(model, p), partitions))
    for a, b in zip(sequential, threaded):
        assert (a.consistent, a.max_violation, a.tolerance_used) == (
            b.consistent,
            b.max_violation,
            b.tolerance_used,
        )


# -- probabilities ------------------------------------------------------------------


def test_probability_table_for_cancelling_split():
    model = build_experiment(THREE_SLIT)
    table = build_framework(model, SPLIT_12_3).probabilities
    g12, g3 = frozenset({0, 1}), frozenset({2})
    assert table[(g12, DETECTED)] == pytest.approx(0.0, abs=1e-15)
    assert table[(g3, DETECTED)] == pytest.approx(1 / 9, abs=1e-12)
    assert table[(g12, UNDETECTED)] == pytest.approx(2 / 3, abs=1e-12)
    assert table[(g3, UNDETECTED)] == pytest.approx(2 / 9, abs=1e-12)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)


def test_probability_table_single_open_path():
    scenario = make_scenario([1, 0, 0], open_flags=[True, False, False])
    model = build_experiment(scenario)
    table = build_framework(model, Partition((frozenset({0}),))).probabilities
    assert table[(frozenset({0}), DETECTED)] == pytest.approx(1.0, abs=1e-12)
    assert table[(frozenset({0}), UNDETECTED)] == pytest.approx(0.0, abs=1e-12)


def test_probabilities_refused_for_inconsistent_partition():
    model = build_experiment(THREE_SLIT)
    with pytest.raises(InconsistentSet):
        build_framework(model, SPLIT_13_2)


def test_probability_table_records_its_report():
    model = build_experiment(THREE_SLIT)
    result = build_framework(model, SPLIT_12_3)
    assert result.report.consistent
    assert result.report.mode == "medium"


def test_detection_marginal_matches_counting_rate_proportionality():
    rng = random.Random(87)
    for _ in range(30):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "sparse"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        k = scenario.n_open
        norm_sq = sum(abs(a) ** 2 for a in scenario.amplitudes)
        open_sum = sum(scenario.amplitudes[i] for i in scenario.open_indices)
        expected = abs(open_sum) ** 2 / (k * norm_sq)
        coarsest = Partition((frozenset(scenario.open_indices),))
        table = build_framework(model, coarsest)
        assert abs(table.detected_total() - expected) < 1e-10
        # Any consistent refinement shares the same detection marginal.
        partition = random_partition(rng, scenario.open_indices)
        if check_consistency(model, partition).consistent:
            refined = build_framework(model, partition)
            assert abs(refined.detected_total() - expected) < 1e-10


def test_diagonal_sum_is_one_for_weakly_consistent_partitions():
    rng = random.Random(29)
    for _ in range(25):
        scenario = random_scenario(rng, kind=rng.choice(["planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        partition = random_partition(rng, scenario.open_indices)
        if not check_consistency(model, partition, mode="weak").consistent:
            continue
        table = build_framework(model, partition, mode="weak")
        assert abs(sum(table.probabilities.values()) - 1.0) < 1e-10


def test_class_operators_never_grow_state_norm():
    rng = random.Random(41)
    for _ in range(20):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        open_paths = list(scenario.open_indices)
        group = frozenset(rng.sample(open_paths, rng.randint(0, len(open_paths))))
        branch = rng.choice([DETECTED, UNDETECTED])
        chain = (group_projector(model, group), branch_projector(model, branch))
        vector = class_operator_apply(model, History(chain=chain), initial_state(model))
        assert np.linalg.norm(vector) <= 1.0 + 1e-12


def test_conditional_probabilities_of_the_retrodiction_pair():
    model = build_experiment(THREE_SLIT)
    assert conditional_probability(model, SPLIT_12_3, {2}) == pytest.approx(1.0, abs=1e-12)
    assert conditional_probability(model, SPLIT_1_23, {0}) == pytest.approx(1.0, abs=1e-12)
    assert conditional_probability(model, SPLIT_1_23, {1, 2}) == pytest.approx(0.0, abs=1e-12)


def test_conditional_probability_union_of_groups():
    model = build_experiment(THREE_SLIT)
    assert conditional_probability(model, SPLIT_12_3, {0, 1, 2}) == pytest.approx(1.0, abs=1e-12)


def test_conditional_probability_event_not_in_partition():
    model = build_experiment(THREE_SLIT)
    with pytest.raises(NotInFramework):
        conditional_probability(model, SPLIT_12_3, {0})


def test_conditional_probability_null_condition():
    # Open amplitudes cancel detection entirely; only a closed slit carries weight.
    scenario = make_scenario([1, 0, 0], open_flags=[False, True, True])
    model = build_experiment(scenario)
    partition = Partition((frozenset({1}), frozenset({2})))
    with pytest.raises(ConditionUnsatisfied):
        conditional_probability(model, partition, {1})


def test_coarse_graining_additivity_on_weakly_consistent_partitions():
    rng = random.Random(6021)
    checked = 0
    while checked < 20:
        scenario = random_scenario(rng, n=rng.randint(3, 6), kind=rng.choice(["planted", "sparse"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        partition = random_partition(rng, scenario.open_indices)
        if len(partition) < 2 or not check_consistency(model, partition, mode="weak").consistent:
            continue
        fine = build_framework(model, partition, mode="weak").probabilities
        i, j = rng.sample(range(len(partition)), 2)
        merged_group = partition.groups[i] | partition.groups[j]
        merged = Partition(
            tuple(g for idx, g in enumerate(partition.groups) if idx not in (i, j)) + (merged_group,)
        )
        coarse = build_framework(model, merged, mode="weak").probabilities
        for branch in (DETECTED, UNDETECTED):
            merged_p = coarse[(merged_group, branch)]
            split_p = fine[(partition.groups[i], branch)] + fine[(partition.groups[j], branch)]
            assert abs(merged_p - split_p) < 1e-10
        checked += 1


# -- the closed-form kernel against the dense model -------------------------------------


def test_kernel_numbers_equal_the_dense_gram_matrix():
    rng = random.Random(1984)
    for _ in range(60):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        partition = random_partition(rng, scenario.open_indices)
        gram = partition_gram(model, partition.groups)
        m = len(gram)
        max_diag = max(gram[i][i].real for i in range(m))
        labels = [h.label for h in history_set_for_partition(model, partition).histories]
        for mode in ("medium", "weak"):
            off = {
                (labels[i], labels[j]): abs(gram[i][j]) if mode == "medium" else abs(gram[i][j].real)
                for i in range(m)
                for j in range(i + 1, m)
            }
            worst = max(off.values(), default=0.0)
            report = check_consistency(model, partition, mode=mode)
            assert abs(report.max_violation - worst) < 1e-12
            assert abs(report.tolerance_used - 1e-10 * max_diag) < 1e-20
            assert report.consistent == (worst <= 1e-10 * max_diag)
            if not report.consistent:
                assert abs(off[report.offending_pair] - worst) < 1e-12
                continue
            table = build_framework(model, partition, mode=mode).probabilities
            keys = [(g, branch) for branch in (DETECTED, UNDETECTED) for g in partition.groups]
            for i, key in enumerate(keys):
                assert abs(table[key] - gram[i][i].real) < 1e-12


# -- the tolerance contract and the amplitude range --------------------------------------


def test_zero_tolerance_keeps_exact_cancellations():
    # The dense model leaves ~4e-17 in the analytically zero cross entries.
    model = build_experiment(THREE_SLIT)
    frameworks = enumerate_consistent_frameworks(model, tolerance=0.0)
    assert [format_partition(f.partition) for f in frameworks] == ["1,2,3", "1,2|3", "1|2,3"]
    report = check_consistency(model, parse_partition("1,2,3", 3), tolerance=0.0)
    assert report.consistent and report.max_violation == 0.0


@pytest.mark.parametrize(
    "tolerance",
    [
        float("nan"), -1e-12, float("inf"),
        # An int beyond the double range, a bool and a string are no tolerance
        # either, and get the same message, not an OverflowError, a silent 1
        # or a TypeError.
        pytest.param(10**400, id="int-beyond-doubles"),
        pytest.param(True, id="bool"),
        pytest.param("1e-3", id="string"),
        pytest.param(None, id="none"),
        # Comparing a Decimal NaN raises InvalidOperation instead of giving False.
        pytest.param(Decimal("NaN"), id="decimal-nan"),
        pytest.param(Decimal("sNaN"), id="decimal-snan"),
        # An array with axes is no number, however many elements it holds.
        pytest.param(np.array([1e-3]), id="array-one"),
        pytest.param(np.array([1e-3, 1e-3]), id="array-two"),
        pytest.param(np.array([]), id="array-empty"),
    ],
)
def test_tolerance_must_be_finite_and_non_negative(tolerance):
    model = build_experiment(THREE_SLIT)
    message = "tolerance must be finite and non-negative"
    with pytest.raises(ValueError, match=message):
        check_consistency(model, SPLIT_12_3, tolerance=tolerance)
    with pytest.raises(ValueError, match=message):
        build_framework(model, SPLIT_12_3, tolerance=tolerance)
    with pytest.raises(ValueError, match=message):
        enumerate_consistent_frameworks(model, tolerance=tolerance)
    with pytest.raises(ValueError, match=message):
        find_contradictions(model, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [Fraction(1, 10**12), Decimal("1e-10")], ids=["fraction", "decimal"])
def test_exact_number_types_are_tolerances(tolerance):
    model = build_experiment(THREE_SLIT)
    report = check_consistency(model, SPLIT_12_3, tolerance=tolerance)
    assert tuple(report) == tuple(check_consistency(model, SPLIT_12_3, tolerance=float(tolerance)))
    assert len(enumerate_consistent_frameworks(model, tolerance=tolerance)) == 3


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300, complex(0.6, -0.8) * 1e250])
def test_results_hold_across_the_double_range(scale):
    rng = random.Random(31337)
    for _ in range(10):
        scenario = random_scenario(rng, n=rng.randint(2, 5), kind=rng.choice(["generic", "planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        scaled = make_scenario(
            [a * scale for a in scenario.amplitudes], open_flags=[p.is_open for p in scenario.paths]
        )
        model, scaled_model = build_experiment(scenario), build_experiment(scaled)
        for mode in ("medium", "weak"):
            original = enumerate_consistent_frameworks(model, mode=mode)
            rescaled = enumerate_consistent_frameworks(scaled_model, mode=mode)
            assert [f.partition for f in original] == [f.partition for f in rescaled]
            for fa, fb in zip(original, rescaled):
                for key, p in fa.probabilities.items():
                    assert abs(fb.probabilities[key] - p) < 1e-12
        signature = lambda r: (r.kind, r.framework_a.partition, r.event_a, r.framework_b.partition, r.event_b)
        assert {signature(r) for r in find_contradictions(model)} == {
            signature(r) for r in find_contradictions(scaled_model)
        }


def test_tiny_amplitudes_are_not_degenerate():
    model = build_experiment(make_scenario([5e-324, -5e-324, 5e-324]))
    assert check_consistency(model, SPLIT_12_3, tolerance=0.0).consistent
    assert conditional_probability(model, SPLIT_12_3, {2}) == 1.0
