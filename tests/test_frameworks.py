"""Partition enumeration, framework census, queries and contradictions."""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from itertools import islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import chslit.frameworks
from chslit import (
    ConditionUnsatisfied,
    ConsistencyReport,
    ContradictionRecord,
    Framework,
    InconsistentSet,
    MeaninglessCombination,
    NotInFramework,
    Partition,
    TooLarge,
    build_experiment,
    build_framework,
    check_consistency,
    combine_queries,
    enumerate_consistent_frameworks,
    enumerate_partitions,
    find_contradictions,
    format_partition,
    parse_partition,
    partition_on_paths,
    query_event,
)
from conftest import (
    brute_consistent_partitions,
    brute_partitions,
    brute_contradictions,
    make_scenario,
    random_amplitudes,
    random_scenario,
)

THREE_SLIT = make_scenario([1, -1, 1])

# Bell numbers B(1)..B(8).
BELL = [1, 2, 5, 15, 52, 203, 877, 4140]


# -- enumeration --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_counts_match_bell_numbers(n):
    partitions = list(enumerate_partitions(n))
    assert len(partitions) == BELL[n - 1]
    assert len({p.groups for p in partitions}) == BELL[n - 1]
    for p in partitions:
        assert p.universe == frozenset(range(n))


def test_enumeration_order_is_canonical_for_three_paths():
    texts = [format_partition(p) for p in enumerate_partitions(3)]
    assert texts == ["1,2,3", "1,2|3", "1,3|2", "1|2,3", "1|2|3"]


def _growth_string(groups, n):
    """Each path's group number, groups numbered by their smallest member."""
    number = {i: g for g, group in enumerate(sorted(groups, key=min)) for i in group}
    return tuple(number[i] for i in range(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_lists_growth_strings_in_sorted_order(n):
    expected = sorted(_growth_string(blocks, n) for blocks in brute_partitions(range(n)))
    assert [_growth_string(p.groups, n) for p in enumerate_partitions(n)] == expected


def test_enumeration_streams_from_coarsest_to_finest():
    stream = enumerate_partitions(6)
    assert next(stream) == Partition((frozenset(range(6)),))
    last = None
    for last in stream:
        pass
    assert last == Partition(tuple(frozenset({i}) for i in range(6)))


def test_enumeration_cap():
    # The cap trips at the call, before anything is drawn from the stream.
    with pytest.raises(TooLarge):
        enumerate_partitions(13)
    # Raising the cap deliberately is allowed.
    assert next(islice(enumerate_partitions(13, max_n=13), 1)) is not None
    with pytest.raises(ValueError):
        enumerate_partitions(0)


# -- census ------------------------------------------------------------------


def test_three_slit_census_and_partitions():
    model = build_experiment(THREE_SLIT)
    frameworks = enumerate_consistent_frameworks(model, mode="medium")
    texts = [format_partition(f.partition) for f in frameworks]
    assert texts == ["1,2,3", "1,2|3", "1|2,3"]
    oracle = {p.groups for p in brute_consistent_partitions(model, mode="medium")}
    assert {f.partition.groups for f in frameworks} == oracle


def test_single_amplitude_census_every_partition_survives():
    model = build_experiment(make_scenario([1, 0, 0]))
    frameworks = enumerate_consistent_frameworks(model, mode="medium")
    assert len(frameworks) == 5
    oracle = brute_consistent_partitions(model, mode="medium")
    assert {f.partition.groups for f in frameworks} == {p.groups for p in oracle}


def test_generic_census_only_coarsest_survives():
    rng = random.Random(99)
    for _ in range(5):
        scenario = random_scenario(rng, n=rng.randint(2, 5), kind="generic")
        model = build_experiment(scenario)
        frameworks = enumerate_consistent_frameworks(model, mode="medium")
        assert [f.partition for f in frameworks] == [Partition((frozenset(scenario.open_indices),))]


def test_screened_enumeration_equals_brute_force():
    rng = random.Random(4096)
    for trial in range(14):
        kind = ["generic", "planted", "sparse", "mixed-open"][trial % 4]
        scenario = random_scenario(rng, n=rng.randint(1, 6), kind=kind)
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        for mode in ("medium", "weak"):
            screened = {f.partition.groups for f in enumerate_consistent_frameworks(model, mode=mode)}
            brute = {p.groups for p in brute_consistent_partitions(model, mode=mode)}
            assert screened == brute


def _family_scenario(rng: random.Random, kind: str, n: int):
    """A random scenario of a conftest family, or ``c * (-1)**j`` for
    ``alternating``, ``c * i**j`` for ``quarter-turn``, one nonzero amplitude
    for ``e1``, two for ``two-nonzero``, alternating amplitudes plus a pair
    ``d, -d`` for ``zero-pair`` (the last three shuffled), and alternating
    amplitudes with relative noise of 1e-6..1e-4.5, which puts group
    probabilities near the certainty and null thresholds, for
    ``near-alternating``, and quarter-turn amplitudes with relative noise
    below a level of 1e-11..1e-1, which puts the real parts of orthogonal
    weak-mode group pairs on both sides of the tolerance, for
    ``near-quarter-turn``."""
    if kind == "near-quarter-turn":
        c = random_amplitudes(rng, 1)[0]
        level = 10 ** rng.uniform(-11, -1)
        noise = [cmath.rect(level * rng.random(), rng.uniform(-3.2, 3.2)) for _ in range(n)]
        return make_scenario([c * 1j**j * (1 + e) for j, e in enumerate(noise)])
    if kind == "near-alternating":
        c = random_amplitudes(rng, 1)[0]
        noise = [cmath.rect(abs(c) * 10 ** rng.uniform(-6, -4.5), rng.uniform(-3.2, 3.2)) for _ in range(n)]
        return make_scenario([c * (-1) ** j + e for j, e in enumerate(noise)])
    if kind in ("e1", "two-nonzero", "zero-pair"):
        c, d = random_amplitudes(rng, 2)
        amps = {
            "e1": [c] + [0j] * (n - 1),
            "two-nonzero": [c, d][:n] + [0j] * (n - 2),
            "zero-pair": [c * (-1) ** j for j in range(n - 2)] + [d, -d][: n],
        }[kind]
        rng.shuffle(amps)
        return make_scenario(amps)
    if kind == "alternating":
        c = random_amplitudes(rng, 1)[0]
        return make_scenario([c * (-1) ** j for j in range(n)])
    if kind == "quarter-turn":
        c = random_amplitudes(rng, 1)[0]
        return make_scenario([c * 1j**j for j in range(n)])
    return random_scenario(rng, n=n, kind=kind)


def _walk(model, mode, tolerance):
    """The frameworks found by judging every partition, in stream order."""
    frameworks = []
    for positions in enumerate_partitions(model.scenario.n_open):
        partition = partition_on_paths(model.scenario, positions)
        try:
            frameworks.append(build_framework(model, partition, mode=mode, tolerance=tolerance))
        except InconsistentSet:
            pass
    return frameworks


def _summary(framework):
    report = framework.report
    items = list(framework.probabilities.items())
    return framework.partition, framework.mode, items, report.consistent, report.max_violation, report.tolerance_used


_WALK_SIZES = {"quarter-turn": (2, 4, 8), "near-quarter-turn": (2, 6, 6, 6, 6, 6, 7, 7)}
_WALK_FAMILIES = ["generic", "planted", "sparse", "mixed-open", "alternating", "quarter-turn", "near-quarter-turn"]


@pytest.mark.parametrize("kind", _WALK_FAMILIES)
def test_enumeration_equals_a_walk_over_every_partition(kind):
    # Same list, order, probabilities and reports, bit for bit.
    rng = random.Random(f"walk:{kind}")
    for n in _WALK_SIZES.get(kind, (1, 2, 3, 4, 5, 6, 7)):
        scenario = _family_scenario(rng, kind, n)
        model = build_experiment(scenario)
        for mode in ("medium", "weak"):
            for tolerance in (0.0, 1e-10, 1e-3, 0.3):
                got = [_summary(f) for f in enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance)]
                want = [_summary(f) for f in _walk(model, mode, tolerance)]
                assert got == want, (kind, n, mode, tolerance)


def _assert_canonical(partition):
    # The enumeration builds its partitions without Partition's checks; the
    # checked constructor must give back the same groups, in the same order.
    checked = Partition(partition.groups)
    assert checked == partition and hash(checked) == hash(partition)
    assert checked.groups == partition.groups, partition


@pytest.mark.parametrize("kind", _WALK_FAMILIES)
def test_enumerated_frameworks_have_canonical_partitions(kind):
    rng = random.Random(f"walk:{kind}")
    for n in _WALK_SIZES.get(kind, (1, 2, 3, 4, 5, 6, 7)):
        model = build_experiment(_family_scenario(rng, kind, n))
        for mode in ("medium", "weak"):
            for tolerance in (0.0, 1e-10, 1e-3, 0.3):
                for framework in enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance):
                    _assert_canonical(framework.partition)


def test_enumerated_partitions_are_canonical():
    for n in range(1, 8):
        for partition in enumerate_partitions(n):
            _assert_canonical(partition)


def test_weak_enumeration_keeps_three_small_groups_sixty_degrees_apart():
    # Each of the three groups has |c_G|^2 = 1.05 tol, between tol and the
    # 2 tol bound, and the pairwise real parts stay under tol * max_diag.
    r = (7 * 4 * 1.05e-3 / (1 - 21 * 1.05e-3)) ** 0.5
    scenario = make_scenario([r, 1, -1, 1, -1, r * cmath.exp(1j * cmath.pi / 3), r * cmath.exp(2j * cmath.pi / 3)])
    model = build_experiment(scenario)
    split = parse_partition("1,2,3,4,5|6|7", 7)
    weak = enumerate_consistent_frameworks(model, mode="weak", tolerance=1e-3)
    assert split in [f.partition for f in weak]
    assert [_summary(f) for f in weak] == [_summary(f) for f in _walk(model, "weak", 1e-3)]
    assert split not in [f.partition for f in enumerate_consistent_frameworks(model, tolerance=1e-3)]


def test_generic_enumeration_makes_at_most_k_kernel_calls(monkeypatch):
    # The walk over all partitions made Bell(12) = 4,213,597 calls here.  A
    # candidate is judged by settling the verdict folded along the search,
    # so the calls counted are those of the settle step.
    calls = []
    settle = chslit.frameworks._settle

    def counting(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(chslit.frameworks, "_settle", counting)
    model = build_experiment(random_scenario(random.Random(12), n=12, kind="generic"))
    # Weak mode once judged every split into two groups: 2**11 = 2,048 calls.
    for mode in ("medium", "weak"):
        calls.clear()
        frameworks = enumerate_consistent_frameworks(model, mode=mode)
        assert [f.partition for f in frameworks] == [Partition((frozenset(range(12)),))]
        assert 1 <= len(calls) <= 12, mode
    # At 22 paths a table of every subset sum would hold 2**22 entries.  A
    # generic scenario gives the coarsest framework alone; one with a planted
    # zero-sum subset also gives the split into that subset and the rest.
    rng = random.Random(22)
    amplitudes = random_amplitudes(rng, 22)
    subset = sorted(rng.sample(range(22), 7))
    planted = amplitudes[:]
    planted[subset[-1]] = -sum(amplitudes[i] for i in subset[:-1])
    everything = frozenset(range(22))
    split = Partition((frozenset(subset), everything - frozenset(subset)))
    for amps, want in ((amplitudes, [Partition((everything,))]), (planted, [Partition((everything,)), split])):
        calls.clear()
        frameworks = enumerate_consistent_frameworks(build_experiment(make_scenario(amps)), max_paths=22)
        assert [f.partition for f in frameworks] == want
        assert 1 <= len(calls) <= 22
    # One nonzero amplitude among 7 paths: every partition is a candidate,
    # judged once, and every one is a framework.
    calls.clear()
    frameworks = enumerate_consistent_frameworks(build_experiment(make_scenario([0, 0, 1, 0, 0, 0, 0])))
    assert len(calls) == len(frameworks) == BELL[6] == 877


def test_enumeration_assembles_each_framework_once_and_sums_each_group_once(monkeypatch):
    # The search keeps each accepted candidate as a compact tuple and builds
    # its framework once, after the sort, so the assembler runs once per
    # framework returned, never for a candidate the kernel refuses.  Each
    # group mask's correctly rounded sum is made once, however many
    # candidates the group sits in.  A summed mask is told by the identity
    # of the model's amplitude objects, which the search passes through.
    assembled, summed = [], []
    framework, sum_amplitudes = chslit.frameworks._framework, chslit.frameworks._sum_amplitudes

    def counting_sum(amplitudes):
        amplitudes = list(amplitudes)
        summed.append(frozenset(map(id, amplitudes)))
        return sum_amplitudes(amplitudes)

    monkeypatch.setattr(chslit.frameworks, "_framework", lambda *a: assembled.append(a) or framework(*a))
    monkeypatch.setattr(chslit.frameworks, "_sum_amplitudes", counting_sum)
    cases = (
        (make_scenario([1, 0, 0, 0, 0, 0, 0]), BELL[6]),
        # Medium mode keeps the two nonzero paths in one group, and weak mode
        # too when their amplitudes are not orthogonal: Bell(7) partitions.
        (_family_scenario(random.Random("assembly:two-nonzero"), "two-nonzero", 8), BELL[6]),
        (random_scenario(random.Random(12), n=12, kind="generic"), 1),
    )
    for scenario, count in cases:
        model = build_experiment(scenario)
        assert len(set(map(id, model.amplitudes))) == scenario.n_open
        for mode in ("medium", "weak"):
            assembled.clear()
            summed.clear()
            frameworks = enumerate_consistent_frameworks(model, mode=mode)
            assert len(assembled) == len(frameworks) == count, (scenario.n_open, mode)
            assert summed and len(set(summed)) == len(summed), (scenario.n_open, mode)


@pytest.mark.parametrize("kind", ["e1", "two-nonzero"])
def test_each_enumerated_report_equals_the_check_of_its_partition(kind):
    # The enumeration judges a verdict folded along its search; checking the
    # partition on its own must give the same numbers, bit for bit.  These
    # are the census-dense families at 8 paths, past the walk's sizes.
    model = build_experiment(_family_scenario(random.Random(f"reports:{kind}"), kind, 8))
    for mode in ("medium", "weak"):
        for tolerance in (0.0, 1e-10, 1e-3):
            frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance)
            assert len(frameworks) >= BELL[6], (mode, tolerance)
            for framework in frameworks:
                got, want = framework.report, check_consistency(model, framework.partition, mode, tolerance)
                assert (got.mode, got.consistent, got.offending_pair) == (mode, True, None)
                assert want.consistent and want.offending_pair is None
                assert got.max_violation.hex() == want.max_violation.hex(), framework.partition
                assert got.tolerance_used.hex() == want.tolerance_used.hex(), framework.partition


def test_frameworks_and_reports_have_no_constructor_for_the_search_to_skip():
    # The enumeration builds both with tuple.__new__, past namedtuple's
    # __new__, so neither type may have a constructor of its own to skip.
    for kind in (Framework, ConsistencyReport):
        assert "__new__" not in vars(kind) and not issubclass(kind, chslit.core._Checked)
    model = build_experiment(make_scenario([1, -1, 1]))
    for framework in enumerate_consistent_frameworks(model):
        for record, kind in ((framework, Framework), (framework.report, ConsistencyReport)):
            assert type(record) is kind and not hasattr(record, "__dict__")
            assert record == record and record != kind(*record) and hash(record) == object.__hash__(record)
            assert repr(kind(*record)) == repr(record)
        replaced = framework._replace(mode="weak")
        assert type(replaced) is Framework and tuple(replaced) == (framework.partition, "weak", *framework[2:])


def _join_amplitudes(rng: random.Random, kind: str, k: int) -> list[complex]:
    """Amplitudes for the near-zero join: ``generic``; a zero-sum subset
    planted, in float arithmetic, inside the low half (``planted-low``), the
    high half (``planted-high``) or across both (``planted-across``); the
    ``e1``, ``alternating`` and ``near-quarter-turn`` walk families; and
    ``wide`` components of +-m * 2**e with e in [-500, 500], with exactly
    cancelling pairs x, -x."""
    h = k // 2
    amps = random_amplitudes(rng, k)
    if kind.startswith("planted"):
        pool = {"planted-low": range(h), "planted-high": range(h, k), "planted-across": range(k)}[kind]
        if len(pool) >= 2:
            subset = rng.sample(pool, rng.randint(2, len(pool)))
            amps[subset[-1]] = -sum(amps[i] for i in subset[:-1])
    elif kind == "wide":
        component = lambda: rng.choice((-1, 1)) * math.ldexp(rng.randint(1, 2**20), rng.randint(-500, 500))
        amps = [complex(component(), component()) for _ in range(k)]
        for _ in range(k // 3):
            i, j = rng.sample(range(k), 2)
            amps[j] = -amps[i]
    elif kind != "generic":
        amps = [*_family_scenario(rng, kind, k).amplitudes]
    return amps


_JOIN_FAMILIES = ["generic", "planted-low", "planted-high", "planted-across", "e1", "alternating",
                  "near-quarter-turn", "wide"]


@pytest.mark.parametrize("kind", _JOIN_FAMILIES)
def test_near_zero_join_keeps_every_subset_the_kernel_could_accept(kind):
    # The join must hold exactly the masks whose exact sum has |S|^2 <= bound,
    # the census's near-zero test, as a test of every subset would find, and
    # hand back each mask's exact sum.
    near_zero = chslit.frameworks._near_zero
    rng = random.Random(f"join:{kind}")
    for k in range(1, 13):
        model = build_experiment(make_scenario(_join_amplitudes(rng, kind, k)))
        points, norm = model.points, model.norm
        exact = [(sum(p for j, (p, _) in enumerate(points) if mask >> j & 1),
                  sum(q for j, (_, q) in enumerate(points) if mask >> j & 1)) for mask in range(1 << k)]
        for factor, tolerance in product((1, 2), (0.0, 1e-10, 1e-3, 0.3)):
            t, u = tolerance.as_integer_ratio()
            bound = factor * t * k * norm // u
            near, sum_of = near_zero([*points], bound)
            assert near == {mask for mask, (p, q) in enumerate(exact) if p * p + q * q <= bound}, (k, factor, tolerance)
        assert [*map(sum_of, range(1 << k))] == exact, k


def test_near_zero_join_keeps_a_pair_whose_sum_lies_on_the_radius():
    # The low sums are 0 and 5 and the high sums 0 and -10, so mask 0b11
    # sums to -5: its low sum sits on the end of the window [5, 15] of
    # isqrt(25) = 5 around 10, and |S|^2 = 25 is on the bound.
    near, sum_of = chslit.frameworks._near_zero([(5, 0), (-10, 0)], 25)
    assert near == {0b00, 0b01, 0b11} and sum_of(0b11) == (-5, 0)
    assert chslit.frameworks._near_zero([(5, 0), (-10, 0)], 24)[0] == {0b00}


def test_no_table_of_every_subset_sum_is_built(monkeypatch):
    # Both modes tabulate only the two halves of the meet in the middle; the
    # weak split screen reads its sums from them, not from a 2**k table.
    lengths = []
    subset_sums = chslit.frameworks._subset_sums
    monkeypatch.setattr(chslit.frameworks, "_subset_sums", lambda amps: lengths.append(len(amps)) or subset_sums(amps))
    for k in (12, 16):
        model = build_experiment(make_scenario(random_amplitudes(random.Random(f"halves:{k}"), k)))
        for mode in ("medium", "weak"):
            lengths.clear()
            assert len(enumerate_consistent_frameworks(model, mode=mode, max_paths=k)) == 1
            assert lengths and max(lengths) <= k - k // 2, (k, mode, lengths)


def test_coarsest_partition_always_consistent():
    rng = random.Random(314)
    for _ in range(20):
        scenario = random_scenario(rng, kind=rng.choice(["generic", "planted", "sparse", "mixed-open"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        frameworks = enumerate_consistent_frameworks(model)
        assert Partition((frozenset(scenario.open_indices),)) in [f.partition for f in frameworks]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False), st.booleans()),
        min_size=1,
        max_size=8,
    )
)
def test_coarsest_partition_is_consistent_at_zero_tolerance(slits):
    assume(any(a and is_open for a, is_open in slits))
    scenario = make_scenario([a for a, _ in slits], open_flags=[is_open for _, is_open in slits])
    model = build_experiment(scenario)
    coarsest = Partition((frozenset(scenario.open_indices),))
    assume(build_framework(model, coarsest).detected_total() > 0)
    for mode in ("medium", "weak"):
        assert check_consistency(model, coarsest, mode=mode, tolerance=0.0).consistent
        frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=0.0)
        assert coarsest in [f.partition for f in frameworks]


def test_weak_and_medium_disagree_on_orthogonal_phases():
    # Off-diagonal value conj(1) * i is purely imaginary: the finest split
    # passes the real-part condition but fails the full complex one.
    model = build_experiment(make_scenario([1, 1j]))
    medium = enumerate_consistent_frameworks(model, mode="medium")
    weak = enumerate_consistent_frameworks(model, mode="weak")
    assert [format_partition(f.partition) for f in medium] == ["1,2"]
    assert [format_partition(f.partition) for f in weak] == ["1,2", "1|2"]
    for mode, expected in (("medium", medium), ("weak", weak)):
        oracle = brute_consistent_partitions(model, mode=mode)
        assert {f.partition.groups for f in expected} == {p.groups for p in oracle}
    finest = weak[1]
    assert query_event(finest, frozenset({0}), given_detected=True) == pytest.approx(0.5, abs=1e-12)


def test_single_open_path_among_closed_ones():
    model = build_experiment(make_scenario([0.5, 2.0], open_flags=[True, False]))
    frameworks = enumerate_consistent_frameworks(model)
    assert len(frameworks) == 1
    only = frameworks[0]
    assert only.partition == Partition((frozenset({0}),))
    assert query_event(only, {0}, given_detected=True) == pytest.approx(1.0, abs=1e-12)
    assert find_contradictions(model) == []


def test_enumeration_respects_open_path_cap():
    model = build_experiment(make_scenario([1] * 4))
    with pytest.raises(TooLarge):
        enumerate_consistent_frameworks(model, max_paths=3)


def test_framework_invariant_reports_consistent():
    model = build_experiment(THREE_SLIT)
    for framework in enumerate_consistent_frameworks(model):
        assert framework.report.consistent
        assert framework.mode == "medium"


# -- queries -------------------------------------------------------------------


def _framework(text: str, mode: str = "medium"):
    model = build_experiment(THREE_SLIT)
    return build_framework(model, parse_partition(text, 3), mode=mode)


def test_query_certain_event_in_cancelling_split():
    assert query_event(_framework("1,2|3"), {2}, given_detected=True) == pytest.approx(1.0, abs=1e-12)


def test_query_rejects_event_outside_framework():
    with pytest.raises(NotInFramework):
        query_event(_framework("1,2|3"), {0}, given_detected=True)


def test_query_null_event_in_other_split():
    assert query_event(_framework("1|2,3"), {1, 2}, given_detected=True) == pytest.approx(0.0, abs=1e-12)


def test_query_unconditional_probabilities_sum_over_branches():
    framework = _framework("1,2|3")
    # Unconditioned: p(G, detected) + p(G, undetected).
    assert query_event(framework, {2}) == pytest.approx(1 / 9 + 2 / 9, abs=1e-12)
    assert query_event(framework, {0, 1, 2}) == pytest.approx(1.0, abs=1e-10)


def test_query_additive_over_group_unions():
    rng = random.Random(222)
    for _ in range(10):
        scenario = random_scenario(rng, n=rng.randint(2, 6), kind="sparse")
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        model = build_experiment(scenario)
        frameworks = enumerate_consistent_frameworks(model)
        framework = rng.choice(frameworks)
        groups = framework.partition.groups
        if len(groups) < 2:
            continue
        union = groups[0] | groups[1]
        for given in (False, True):
            if given and framework.detected_total() <= 1e-14:
                continue
            whole = query_event(framework, union, given_detected=given)
            parts = query_event(framework, groups[0], given_detected=given) + query_event(
                framework, groups[1], given_detected=given
            )
            assert abs(whole - parts) < 1e-10


def test_query_conditioning_on_null_detection():
    scenario = make_scenario([1, 0, 0], open_flags=[False, True, True])
    model = build_experiment(scenario)
    framework = build_framework(model, Partition((frozenset({1}), frozenset({2}))))
    with pytest.raises(ConditionUnsatisfied):
        query_event(framework, {1}, given_detected=True)


# -- combination ----------------------------------------------------------------


def test_combine_identical_frameworks():
    a = _framework("1,2|3")
    assert combine_queries(a, a) is a


def test_combine_incompatible_frameworks_is_refused():
    a = _framework("1,2|3")
    b = _framework("1|2,3")
    with pytest.raises(MeaninglessCombination) as excinfo:
        combine_queries(a, b)
    assert excinfo.value.partition_a == a.partition
    assert excinfo.value.partition_b == b.partition


def test_combine_with_refinement_returns_the_finer_context():
    coarsest = _framework("1,2,3")
    finer = _framework("1,2|3")
    assert combine_queries(coarsest, finer) is finer
    assert combine_queries(finer, coarsest) is finer


def test_combine_requires_matching_mode_and_universe():
    with pytest.raises(ValueError):
        combine_queries(_framework("1,2|3", mode="medium"), _framework("1,2|3", mode="weak"))
    other_model = build_experiment(make_scenario([1, 1]))
    other = build_framework(other_model, parse_partition("1,2", 2))
    with pytest.raises(ValueError):
        combine_queries(_framework("1,2|3"), other)


# -- contradictions ---------------------------------------------------------------


def _record_signature(record):
    return (
        record.kind,
        format_partition(record.framework_a.partition),
        tuple(sorted(record.event_a)),
        format_partition(record.framework_b.partition),
        tuple(sorted(record.event_b)),
    )


def test_contradiction_record_is_an_immutable_tuple_compared_by_identity():
    fields = ("kind", "framework_a", "framework_b", "event_a", "event_b", "p_a", "p_b")
    assert ContradictionRecord._fields == fields
    values = ("disjoint-certainty", None, None, frozenset({2}), frozenset({0}), 1.0, 1.0)
    record = ContradictionRecord(*values)
    assert tuple(record) == values
    by_keyword = ContradictionRecord(**dict(zip(fields, values)))
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 0
    # Equal fields do not make equal records: a record is itself alone.
    assert record == record and not record != record
    assert record != by_keyword and not record == by_keyword
    assert len({record, by_keyword, record}) == 2 and hash(record) == object.__hash__(record)
    # No per-instance dict: the record costs what its tuple costs.
    assert not hasattr(record, "__dict__")
    # The search builds its records with tuple.__new__, past namedtuple's
    # __new__, so the type must have no constructor of its own to skip.
    assert "__new__" not in vars(ContradictionRecord) and not issubclass(ContradictionRecord, chslit.core._Checked)
    found = find_contradictions(build_experiment(make_scenario([1, -1, 1, -1, 1])))
    for record in found:
        assert type(record) is ContradictionRecord and not hasattr(record, "__dict__")
    first, second = found[:2]
    assert first == first and first != second and hash(first) == object.__hash__(first)
    assert ContradictionRecord(*first) != first and len({first, ContradictionRecord(*first)}) == 2
    replaced = first._replace(p_a=0.5)
    assert type(replaced) is ContradictionRecord and tuple(replaced) == (*first[:5], 0.5, first.p_b)
    assert first._asdict() == dict(zip(fields, first))


def test_three_slit_contradictions():
    model = build_experiment(THREE_SLIT)
    records = find_contradictions(model)
    signatures = {_record_signature(r) for r in records}
    assert ("disjoint-certainty", "1,2|3", (2,), "1|2,3", (0,)) in signatures
    assert ("implication-violation", "1,2|3", (2,), "1|2,3", (1, 2)) in signatures
    # The mirror implication is just as real: {1} certain, {1,2} null.
    assert ("implication-violation", "1|2,3", (0,), "1,2|3", (0, 1)) in signatures
    assert len(records) == 3


def test_contradiction_records_verify_through_query_event():
    model = build_experiment(THREE_SLIT)
    for record in find_contradictions(model):
        assert query_event(record.framework_a, record.event_a, given_detected=True) == record.p_a
        assert query_event(record.framework_b, record.event_b, given_detected=True) == record.p_b
        assert record.p_a >= 1 - 1e-10
        if record.kind == "disjoint-certainty":
            assert not record.event_a & record.event_b
            assert record.p_b >= 1 - 1e-10
        else:
            assert record.event_a <= record.event_b
            assert record.p_b <= 1e-10


def test_alternating_amplitudes_records_reverify_exactly():
    # Five paths at (1,-1,1,-1,1): any split into zero-sum groups plus one
    # remainder is consistent, so certainties clash all over the place.
    model = build_experiment(make_scenario([1, -1, 1, -1, 1]))
    records = find_contradictions(model)
    assert len(records) == 243
    multi_group_events = 0
    for record in records:
        assert query_event(record.framework_a, record.event_a, given_detected=True) == record.p_a
        assert query_event(record.framework_b, record.event_b, given_detected=True) == record.p_b
        if sum(g <= record.event_a for g in record.framework_a.partition.groups) > 1:
            multi_group_events += 1
    assert multi_group_events == 51


def test_generic_scenario_has_no_contradictions():
    rng = random.Random(500)
    scenario = random_scenario(rng, n=4, kind="generic")
    assert find_contradictions(build_experiment(scenario)) == []


def test_contradictions_skip_null_detection_frameworks():
    scenario = make_scenario([1, 0, 0], open_flags=[False, True, True])
    assert find_contradictions(build_experiment(scenario)) == []


def _record_fields(record):
    return (
        record.kind,
        record.framework_a.partition,
        record.framework_b.partition,
        record.event_a,
        record.event_b,
        record.p_a,
        record.p_b,
    )


_CLASH_FAMILIES = [
    "generic", "planted", "mixed-open", "e1", "two-nonzero",
    "alternating", "zero-pair", "quarter-turn", "near-alternating",
]


@pytest.mark.parametrize("kind", _CLASH_FAMILIES)
def test_contradictions_equal_the_all_pairs_search(kind):
    # Same records in the same order, probabilities bit for bit.
    rng = random.Random(f"clash:{kind}")
    for n in range(1, 7):
        model = build_experiment(_family_scenario(rng, kind, n))
        for mode in ("medium", "weak"):
            for tolerance in (0.0, 1e-10, 1e-3, 0.3):
                got = [_record_fields(r) for r in find_contradictions(model, mode=mode, tolerance=tolerance)]
                want = [_record_fields(r) for r in brute_contradictions(model, mode, tolerance)]
                assert got == want, (kind, n, mode, tolerance)


def test_contradictions_equal_the_all_pairs_search_when_a_group_is_neither_certain_nor_null(monkeypatch):
    # Alone, the last path has P = 1.00000004e-10 given detection: above the
    # null threshold, yet every group but it is still certain.  Such a group
    # is in neither the core nor the span of its framework, so a pair can
    # clash one way and not the other.  No group of 1,2,3|4,5,6 is null, so
    # that framework's null list is empty and the AND of its masks is -1.
    tabulated = []
    clash_events = chslit.frameworks._clash_events
    record = lambda *a: tabulated.append(clash_events(*a)) or tabulated[-1]
    monkeypatch.setattr(chslit.frameworks, "_clash_events", record)
    model = build_experiment(make_scenario([1, -1, 1, -1, 1, 1.00000002e-5]))
    for mode in ("medium", "weak"):
        for tolerance in (1e-3, 0.3):
            tabulated.clear()
            got = [_record_fields(r) for r in find_contradictions(model, mode=mode, tolerance=tolerance)]
            assert got and any(not null for _, null, _, _ in tabulated)
            assert got == [_record_fields(r) for r in brute_contradictions(model, mode, tolerance)]


# Each family's tolerances, each with whether its 7-path scenario has records
# there in both modes.
_SEVEN_PATH_RUNS = {
    "alternating": {1e-10: True}, "zero-pair": {1e-10: True}, "quarter-turn": {1e-10: True},
    "near-alternating": {1e-3: False, 0.3: True}, "mixed-open": {1e-3: False, 0.3: False},
}


@pytest.mark.parametrize("kind", _SEVEN_PATH_RUNS)
def test_contradictions_equal_the_all_pairs_search_on_seven_paths(kind):
    # The size the contradictions benchmark runs: thousands of records per
    # scenario.  Same records in the same order, probabilities bit for bit.
    # At 1e-3 and 0.3 some groups are neither certain nor null, so the AND
    # of a framework's certain events need not be one of them; mixed-open
    # amplitudes are generic on the open paths and give no records.
    model = build_experiment(_family_scenario(random.Random(f"clash-7:{kind}"), kind, 7))
    for mode in ("medium", "weak"):
        for tolerance, has_records in _SEVEN_PATH_RUNS[kind].items():
            got = [
                (*_record_fields(r)[:5], r.p_a.hex(), r.p_b.hex())
                for r in find_contradictions(model, mode=mode, tolerance=tolerance)
            ]
            want = [
                (*_record_fields(r)[:5], r.p_a.hex(), r.p_b.hex())
                for r in brute_contradictions(model, mode, tolerance)
            ]
            assert bool(got) == has_records and got == want, (kind, mode, tolerance)


@pytest.mark.parametrize("kind", _CLASH_FAMILIES)
def test_clash_floors_are_the_bucket_key(kind):
    # The search screens each certain event by the AND of the other list's
    # masks and reads that AND off the (core, span) key: certain events are
    # closed upward and null events downward, so the AND of the certain
    # masks is core and the AND of the complemented null masks is ~span.
    # The key reads a census candidate: its groups' open-position masks and
    # the per-mask detected terms, the floats its framework's table holds.
    frameworks = chslit.frameworks
    clash_key, clash_events = frameworks._clash_key, frameworks._clash_events
    event = lambda mask: mask
    models = [build_experiment(_family_scenario(random.Random(f"clash:{kind}"), kind, n)) for n in range(1, 7)]
    runs = [(model, mode, tolerance) for model in models
            for mode, tolerance in product(("medium", "weak"), (0.0, 1e-10, 1e-3, 0.3))]
    if kind in _SEVEN_PATH_RUNS:
        model = build_experiment(_family_scenario(random.Random(f"clash-7:{kind}"), kind, 7))
        runs += [(model, mode, tolerance) for mode, tolerance in product(("medium", "weak"), _SEVEN_PATH_RUNS[kind])]
    checked = 0
    for model, mode, tolerance in runs:
        candidates, record, assemble = frameworks._census(model, mode, tolerance, frameworks.DEFAULT_MAX_PATHS)
        for candidate in candidates:
            framework, = assemble([candidate])
            groups = framework.partition.groups
            detected = [record[m][1][2] for m in candidate[1]]
            assert detected == [framework.probabilities[(g, "detected")] for g in groups]
            key = clash_key(candidate[1], detected)
            if key is None:
                continue
            core, span = key
            certain, null, *floors = clash_events(candidate[1], detected, key, event)
            assert floors == [core, ~span]
            assert functools.reduce(operator.and_, [m for m, _, _ in certain]) == core, (mode, tolerance)
            assert functools.reduce(operator.and_, [m for m, _, _ in null], -1) == ~span, (mode, tolerance)
            checked += 1
    assert checked


def test_contradiction_search_screens_each_certain_event_by_the_floor(monkeypatch):
    # Each event list counts the items the search draws from it: the screen
    # tests plus the event-pair tests.  A certain event that meets the other
    # list's floor is dropped before its inner loop; without that screen the
    # same records take 1,384 items on 5 alternating paths and 252,556 on 7.
    drawn = [0]
    clash_events = chslit.frameworks._clash_events

    class Counted(list):
        def __iter__(self):
            for item in super().__iter__():
                drawn[0] += 1
                yield item

    def counted(*args):
        certain, null, *floors = clash_events(*args)
        return Counted(certain), Counted(null), *floors

    monkeypatch.setattr(chslit.frameworks, "_clash_events", counted)
    for k, records, items in ((5, 243, 876), (7, 33_750, 49_012 + 92_638)):
        drawn[0] = 0
        model = build_experiment(make_scenario([(-1) ** j for j in range(k)]))
        assert len(find_contradictions(model)) == records
        assert drawn[0] == items, k


def test_single_nonzero_contradiction_search_visits_no_framework_pair(monkeypatch):
    # Every partition of (1,0,...,0) is a framework, and every certain event
    # holds path 1 while no null event does.  The frameworks fall into one
    # bucket per carrier, and no two buckets can clash.
    tabulated, bucket_pairs = [], []
    clash_events, may_clash = chslit.frameworks._clash_events, chslit.frameworks._may_clash
    monkeypatch.setattr(chslit.frameworks, "_clash_events", lambda *a: tabulated.append(a) or clash_events(*a))
    monkeypatch.setattr(chslit.frameworks, "_may_clash", lambda *a: bucket_pairs.append(a) or may_clash(*a))
    for k in (6, 8):
        tabulated.clear()
        bucket_pairs.clear()
        model = build_experiment(make_scenario([1] + [0] * (k - 1)))
        assert len(enumerate_consistent_frameworks(model)) == BELL[k - 1]
        assert find_contradictions(model) == []
        assert tabulated == []
        carriers = 2 ** (k - 1)
        assert len(bucket_pairs) == carriers * (carriers + 1) // 2
    assert len(find_contradictions(build_experiment(make_scenario([1, -1, 1, -1, 1])))) == 243
    assert tabulated


def test_contradiction_search_assembles_only_the_frameworks_its_records_name(monkeypatch):
    # The search reads the census's compact candidates and assembles a
    # framework once, when a record first names it: not for a candidate in
    # no visited pair, nor for one whose events it tabulates in visited
    # pairs that give no record (48 of 71 on near-alternating-7 at 1e-3).
    assembled, tabulated = [], []
    framework, clash_events = chslit.frameworks._framework, chslit.frameworks._clash_events
    monkeypatch.setattr(chslit.frameworks, "_framework", lambda *a: assembled.append(a) or framework(*a))
    monkeypatch.setattr(chslit.frameworks, "_clash_events", lambda *a: tabulated.append(a) or clash_events(*a))
    alternating = lambda k: make_scenario([(-1) ** j for j in range(k)])
    near_alternating = _family_scenario(random.Random("clash:near-alternating"), "near-alternating", 7)
    # Per mode: frameworks the records name, frameworks visited, frameworks.
    cases = (
        (THREE_SLIT, 1e-10, {"medium": (2, 2, 3), "weak": (2, 2, 3)}),
        (alternating(5), 1e-10, {"medium": (15, 15, 16), "weak": (15, 15, 16)}),
        (alternating(7), 1e-10, {"medium": (130, 130, 131), "weak": (130, 130, 131)}),
        (make_scenario([1j**j for j in range(6)]), 1e-10, {"medium": (8, 8, 13), "weak": (16, 16, 42)}),
        (make_scenario([1, 0, 0, 0, 0, 0]), 1e-10, {"medium": (0, 0, 203), "weak": (0, 0, 203)}),
        (near_alternating, 1e-3, {"medium": (23, 71, 131), "weak": (23, 71, 131)}),
    )
    for scenario, tolerance, counts in cases:
        model = build_experiment(scenario)
        for mode, (named, visited, total) in counts.items():
            assembled.clear()
            tabulated.clear()
            records = find_contradictions(model, mode=mode, tolerance=tolerance)
            assert len(assembled) == len({id(f) for r in records for f in r[1:3]}) == named, (scenario.n_open, mode)
            assert len(tabulated) == visited, (scenario.n_open, mode)
            assert len(enumerate_consistent_frameworks(model, mode=mode, tolerance=tolerance)) == total


# -- scale invariance ---------------------------------------------------------------


def test_scale_invariance_of_verdicts_conditionals_and_records():
    rng = random.Random(8080)
    for _ in range(8):
        n = rng.randint(2, 5)
        scenario = random_scenario(rng, n=n, kind=rng.choice(["generic", "planted", "sparse"]))
        if not scenario.open_indices or all(a == 0 for a in scenario.amplitudes):
            continue
        scale = 0j
        while abs(scale) < 0.1:
            scale = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        scaled = make_scenario([a * scale for a in scenario.amplitudes])
        model, scaled_model = build_experiment(scenario), build_experiment(scaled)
        for mode in ("medium", "weak"):
            original = enumerate_consistent_frameworks(model, mode=mode)
            rescaled = enumerate_consistent_frameworks(scaled_model, mode=mode)
            assert [f.partition for f in original] == [f.partition for f in rescaled]
            for fa, fb in zip(original, rescaled):
                if fa.detected_total() <= 1e-14:
                    continue
                for group in fa.partition.groups:
                    pa = query_event(fa, group, given_detected=True)
                    pb = query_event(fb, group, given_detected=True)
                    assert abs(pa - pb) < 1e-10
        records = {_record_signature(r) for r in find_contradictions(model)}
        scaled_records = {_record_signature(r) for r in find_contradictions(scaled_model)}
        assert records == scaled_records


_SCALED_FAMILIES = {
    "alternating": lambda c, n: [c * (-1) ** j for j in range(n)],
    "quarter-turn": lambda c, n: [c * 1j**j for j in range(n)],
    "zero-pair": lambda c, n: [c * (-1) ** j for j in range(n - 2)] + [0.5 * c, -0.5 * c],
    "single-nonzero": lambda c, n: [c] + [0j] * (n - 1),
    "two-nonzero": lambda c, n: [0j] * (n - 2) + [c, 1j * c + c],
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_SCALED_FAMILIES)),
    st.integers(2, 6),
    st.floats(0.1, 2.0),
    st.floats(-3.2, 3.2),
    st.floats(-150.0, 150.0),
    st.floats(-3.2, 3.2),
)
def test_framework_lists_of_structured_families_are_scale_invariant(kind, n, size, phase, exponent, turn):
    amps = _SCALED_FAMILIES[kind](cmath.rect(size, phase), n)
    factor = cmath.rect(10.0**exponent, turn)
    model = build_experiment(make_scenario(amps))
    scaled_model = build_experiment(make_scenario([a * factor for a in amps]))
    for mode in ("medium", "weak"):
        original = [f.partition for f in enumerate_consistent_frameworks(model, mode=mode)]
        rescaled = [f.partition for f in enumerate_consistent_frameworks(scaled_model, mode=mode)]
        assert original == rescaled


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(_SCALED_FAMILIES)),
    st.integers(2, 6),
    st.floats(0.1, 2.0),
    st.floats(-3.2, 3.2),
    st.floats(-150.0, 150.0),
    st.floats(-3.2, 3.2),
)
def test_contradiction_records_of_structured_families_are_scale_invariant(kind, n, size, phase, exponent, turn):
    amps = _SCALED_FAMILIES[kind](cmath.rect(size, phase), n)
    factor = cmath.rect(10.0**exponent, turn)
    model = build_experiment(make_scenario(amps))
    scaled_model = build_experiment(make_scenario([a * factor for a in amps]))
    for mode in ("medium", "weak"):
        original = [_record_signature(r) for r in find_contradictions(model, mode=mode)]
        rescaled = [_record_signature(r) for r in find_contradictions(scaled_model, mode=mode)]
        assert original == rescaled
