"""Verdicts are exact and reported sums are correctly rounded, so nothing
depends on the slit order.

Verdicts are decided on the amplitudes' exact binary values, as Gaussian
integers; every reported amplitude sum goes through one ``math.fsum``-based
helper and every probability sum through ``math.fsum``.  Neither depends on
the order of the terms, so exact cancellations hold at ``--tol 0`` however
the slits are listed, and verdicts, probabilities and violations are the
same bits under any permutation of the slits.  Entries below the double
range, sums that floats round, and amplitudes far below the largest are
judged exactly too.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import chslit.engine
import chslit.frameworks
from chslit import (
    BRANCHES,
    DEFAULT_TOLERANCE,
    DETECTED,
    Framework,
    PartSumMismatch,
    Partition,
    Slit,
    SlitPart,
    build_experiment,
    build_framework,
    check_consistency,
    enumerate_consistent_frameworks,
    enumerate_partitions,
    format_partition,
    group_amplitude,
    parse_partition,
    query_event,
)
from chslit.cli import main
from chslit.engine import MODES
from conftest import make_scenario

CANCELLING = [1e16, 1, -1e16, 3]


def _partitions(amplitudes):
    model = build_experiment(make_scenario(amplitudes))
    return [format_partition(f.partition) for f in enumerate_consistent_frameworks(model, tolerance=0.0)]


def _bits(frameworks, original):
    """Each framework with paths renamed through ``original``, keyed by its
    partition, with every float as its exact bits."""
    out = {}
    for framework in frameworks:
        rename = {g: frozenset(original[i] for i in g) for g in framework.partition.groups}
        report = framework.report
        out[Partition(tuple(rename.values()))] = (
            sorted((sorted(rename[g]), branch, p.hex()) for (g, branch), p in framework.probabilities.items()),
            report.max_violation.hex(),
            report.tolerance_used.hex(),
        )
    assert len(out) == len(frameworks)
    return out


# -- the cancelling group of four slits ----------------------------------------


def test_a_cancelling_group_is_judged_on_its_exact_sum():
    # Left to right, 1e16 + 1 - 1e16 is 0; exactly, it is 1.
    scenario = make_scenario(CANCELLING)
    assert group_amplitude(scenario, {0, 1, 2}) == 1
    assert _partitions(CANCELLING) == ["1,2,3,4", "1,3|2,4"]
    model = build_experiment(scenario)
    assert not check_consistency(model, parse_partition("1,2,3|4", 4), tolerance=0.0).consistent
    assert check_consistency(model, parse_partition("1,3|2,4", 4), tolerance=0.0).consistent


def test_a_weak_split_orthogonal_only_on_exact_sums_is_kept_at_zero_tolerance():
    # The split screen reads float sums, so its bound must let through
    # splits orthogonal only on exact sums.  First: in floats, group {1,2,3}
    # sums to 1 - (1 + 2**-52)i; exactly, to (1 + 2**-52)(1 - i), whose real
    # product with group {4} = 1 + i is 0; the rounding of the product
    # covers the gap.  Second: 2**53 + 1 rounds to 2**53, so the half
    # tables sum group {2,3,4} to 2**20 (1 + i), exactly 2**20 + 1 + 2**20 i,
    # orthogonal to group {1}.  The real product of the float sums is
    # -2**20, and only the slack of both sums lets the split through.
    for amplitudes, split in (
        ([1 - (1 + 2**-52) * 1j, 2**-53, 2**-53, 1 + 1j], "1,2,3|4"),
        ([2**21 - (2**21 + 2) * 1j, -(2**53) + 2**20 + 2**20 * 1j, 2**53, 1], "1|2,3,4"),
    ):
        model = build_experiment(make_scenario(amplitudes))
        split = parse_partition(split, 4)
        assert check_consistency(model, split, mode="weak", tolerance=0.0).consistent
        frameworks = enumerate_consistent_frameworks(model, mode="weak", tolerance=0.0)
        assert split in [f.partition for f in frameworks], amplitudes


def test_listing_the_cancelling_slits_in_another_order_changes_no_bit():
    # (1e16, -1e16, 1, 3) lists the slits in the order 1, 3, 2, 4.
    order = [0, 2, 1, 3]
    for tolerance in (0.0, DEFAULT_TOLERANCE):
        listed = enumerate_consistent_frameworks(build_experiment(make_scenario(CANCELLING)), tolerance=tolerance)
        moved = build_experiment(make_scenario([CANCELLING[i] for i in order]))
        assert _bits(enumerate_consistent_frameworks(moved, tolerance=tolerance), order) == _bits(listed, range(4))


def _file(tmp_path, name, amplitudes):
    """A scenario file of open slits S1, S2, ... with these amplitudes."""
    slits = [{"label": f"S{i + 1}", "amplitude": {"re": a.real, "im": a.imag}, "open": True}
             for i, a in enumerate(map(complex, amplitudes))]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"version": 1, "name": name, "slits": slits}))
    return str(path)


def _listed(capsys, *argv):
    """The partitions ``frameworks`` lists, in order."""
    assert main(["frameworks", *argv, "--format", "json"]) == 0
    return [f["partition"] for f in json.loads(capsys.readouterr().out)["payload"]["frameworks"]]


def test_cli_judges_the_cancelling_group_exactly(capsys, tmp_path):
    path = _file(tmp_path, "cancel", CANCELLING)
    assert _listed(capsys, "--file", path, "--tol", "0") == ["1,2,3,4", "1,3|2,4"]
    assert main(["check", "--file", path, "--partition", "1,2,3|4", "--tol", "0"]) == 3
    assert "consistent: no" in capsys.readouterr().out


def test_the_screen_keeps_a_group_whose_table_sum_is_off_by_rounding():
    # Group {1,3,4,5} cancels exactly, but left to right the subset table
    # adds 7.6e-6 + 9.4e20 - 9.4e20 - 7.6e-6 to -7.6e-6.  The group only
    # counts as near-zero because the screen is widened by the table's
    # rounding bound.
    amplitudes = [7.62939453125e-06, 6.821179377501088e23 - 0.875j, 9.395434552897212e20 + 3.0517578125e-05j,
                  -9.395434552897212e20 - 3.0517578125e-05j, -7.62939453125e-06]
    model = build_experiment(make_scenario(amplitudes))
    walked = [
        format_partition(p) for p in enumerate_partitions(5) if check_consistency(model, p, tolerance=0.0).consistent
    ]
    assert "1,3,4,5|2" in walked
    assert _partitions(amplitudes) == walked


# -- permuting the slits changes no bit ----------------------------------------


_COMPONENT = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m, e: sign * math.ldexp(m, e),
              st.sampled_from((-1, 1)), st.integers(1, 2**20), st.integers(-60, 60)),
)


@st.composite
def _cancelling_amplitudes(draw):
    """Up to 7 amplitudes with components of +-m * 2**e over 120 binades, with
    planted cancellations x, -x and -(x + y)."""
    k = draw(st.integers(2, 7))
    amplitudes = draw(st.lists(st.builds(complex, _COMPONENT, _COMPONENT), min_size=k, max_size=k))
    index = st.integers(0, k - 1)
    for i, j, l in draw(st.lists(st.tuples(index, index, index), max_size=3)):
        if i != j:
            amplitudes[j] = -amplitudes[i]
            if l not in (i, j):
                amplitudes[l] = -(amplitudes[i] + amplitudes[(l + 1) % k])
    return amplitudes


@settings(max_examples=150, deadline=None)
@given(amplitudes=_cancelling_amplitudes(), data=st.data())
def test_permuting_the_slits_changes_no_framework_bit(amplitudes, data):
    if not any(amplitudes):
        return
    order = data.draw(st.permutations(range(len(amplitudes))))
    model = build_experiment(make_scenario(amplitudes))
    permuted = build_experiment(make_scenario([amplitudes[i] for i in order]))
    for mode in MODES:
        for tolerance in (0.0, DEFAULT_TOLERANCE):
            listed = enumerate_consistent_frameworks(model, mode, tolerance)
            moved = enumerate_consistent_frameworks(permuted, mode, tolerance)
            assert _bits(moved, order) == _bits(listed, range(len(amplitudes))), (mode, tolerance)


def test_equal_moduli_give_the_same_violation_in_any_order():
    # In framework 1,3|2,4|5,6, groups {1,3} and {2,4} have sums of equal
    # modulus but different phase.  Whichever of them the kernel pairs with
    # {5,6}, the violation must be the same bits.
    amplitudes = [-1.1781821740441956e-08 - 2.886260986328125j, -48873275392, 48873275392, -1.3337678184122126e-11,
                  1.8822337076872847e23 + 1.4149021401570345e18j, 1.1781821740441956e-08 + 2.886260986328125j]
    order = [3, 4, 5, 2, 1, 0]
    listed = enumerate_consistent_frameworks(build_experiment(make_scenario(amplitudes)))
    moved = enumerate_consistent_frameworks(build_experiment(make_scenario([amplitudes[i] for i in order])))
    assert _bits(moved, order) == _bits(listed, range(len(amplitudes)))


def _compensated_sum(values, start=0):
    # Neumaier's summation, the way Python 3.12's builtin sum adds floats.
    total, compensation = start, 0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def test_probability_sums_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001; correctly
    # rounded, and compensated, it is 0.6.
    groups = [frozenset({i}) for i in range(3)]
    probabilities = {(g, branch): p for g, p in zip(groups, (0.1, 0.2, 0.3)) for branch in BRANCHES}
    framework = Framework(Partition(tuple(groups)), "medium", probabilities, None)

    def answers():
        return [framework.detected_total(), query_event(framework, {0, 1, 2}),
                query_event(framework, {1, 2}, given_detected=True)]

    plain = answers()
    assert plain[0] == 0.6 and plain[1] == 1.2
    for module in (chslit.engine, chslit.frameworks):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert answers() == plain


# -- parts, tolerance sign ------------------------------------------------------


def test_parts_whose_running_sum_overflows_still_sum_to_the_slit():
    slit = Slit("S1", 1e308, parts=(SlitPart("a", 1e308), SlitPart("b", 1e308), SlitPart("c", -1e308)))
    assert [p.amplitude for p in slit.parts] == [1e308, 1e308, -1e308]
    with pytest.raises(PartSumMismatch):
        Slit("S1", 1e308, parts=(SlitPart("a", 1e308), SlitPart("b", 1e308)))


def test_negative_zero_tolerance_is_reported_as_zero():
    scenario = make_scenario([1, -1, 1])
    model = build_experiment(scenario)
    partition = parse_partition("1,2|3", 3)
    used = [
        check_consistency(model, partition, tolerance=-0.0).tolerance_used,
        build_framework(model, partition, tolerance=-0.0).report.tolerance_used,
        *(f.report.tolerance_used for f in enumerate_consistent_frameworks(model, tolerance=-0.0)),
    ]
    assert len(used) > 2
    assert all(value == 0.0 and math.copysign(1.0, value) == 1.0 for value in used)


# -- products of group sums, judged exactly ---------------------------------


ENTRY_BELOW_RANGE = [1, -1, 1e-200, 1e-200]


def test_an_off_diagonal_entry_below_the_double_range_still_breaks_consistency():
    # Exactly, {3} and {4} each sum to 1e-200, so conj(c_4) c_3 is about
    # 1e-400 times the scale, not 0; only {1,2} cancels, leaving 1,2,3,4 and
    # 1,2|3,4.
    scenario = make_scenario(ENTRY_BELOW_RANGE)
    model = build_experiment(scenario)
    for mode in MODES:
        assert not check_consistency(model, parse_partition("1,2|3|4", 4), mode=mode, tolerance=0.0).consistent
        frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=0.0)
        assert [format_partition(f.partition) for f in frameworks] == ["1,2,3,4", "1,2|3,4"]


ROUNDED_SUMS = [2.0**53, 1, 1j, 2.0**53 - 1, -(2.0**106) * 1j, 1j]


def test_a_weak_split_orthogonal_only_on_exact_sums_is_consistent_at_zero_tolerance():
    # Exactly, {1,2,3} sums to (2^53 + 1) + 1i and {4,5,6} to (2^53 - 1) +
    # (1 - 2^106)i, so Re(conj(s_B) s_A) = (2^106 - 1) + (1 - 2^106) = 0.
    scenario = make_scenario(ROUNDED_SUMS)
    model = build_experiment(scenario)
    partition = parse_partition("1,2,3|4,5,6", 6)
    assert check_consistency(model, partition, mode="weak", tolerance=0.0).consistent
    frameworks = enumerate_consistent_frameworks(model, mode="weak", tolerance=0.0)
    assert partition in [f.partition for f in frameworks]


# -- amplitudes far below the largest ------------------------------------------


FAR_BELOW = [1e308, 1e-300, -1e-300]


def test_amplitudes_far_below_the_largest_still_break_consistency():
    # Exactly, group {3} sums to -1e-300 and {1,2} to 1e308 + 1e-300, so their
    # product is nonzero; only {2,3} cancels, leaving 1,2,3 and 1|2,3.
    scenario = make_scenario(FAR_BELOW)
    model = build_experiment(scenario)
    for mode in MODES:
        assert not check_consistency(model, parse_partition("1,2|3", 3), mode=mode, tolerance=0.0).consistent
        frameworks = enumerate_consistent_frameworks(model, mode=mode, tolerance=0.0)
        assert [format_partition(f.partition) for f in frameworks] == ["1,2,3", "1|2,3"]


# -- the same three through the CLI ---------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_cli_judges_an_entry_below_the_double_range(capsys, tmp_path, mode):
    path = _file(tmp_path, "below", ENTRY_BELOW_RANGE)
    assert main(["check", "--file", path, "--partition", "1,2|3|4", "--mode", mode, "--tol", "0"]) == 3
    assert "consistent: no" in capsys.readouterr().out
    assert _listed(capsys, "--file", path, "--mode", mode, "--tol", "0") == ["1,2,3,4", "1,2|3,4"]


def test_cli_judges_a_weak_split_on_its_exact_sums(capsys, tmp_path):
    path = _file(tmp_path, "rounded", ROUNDED_SUMS)
    assert main(["check", "--file", path, "--partition", "1,2,3|4,5,6", "--mode", "weak", "--tol", "0"]) == 0
    assert "consistent: yes" in capsys.readouterr().out
    assert "1,2,3|4,5,6" in _listed(capsys, "--file", path, "--mode", "weak", "--tol", "0")


@pytest.mark.parametrize("mode", MODES)
def test_cli_judges_amplitudes_far_below_the_largest(capsys, tmp_path, mode):
    path = _file(tmp_path, "far", FAR_BELOW)
    assert main(["check", "--file", path, "--partition", "1,2|3", "--mode", mode, "--tol", "0"]) == 3
    assert "consistent: no" in capsys.readouterr().out
    assert _listed(capsys, "--file", path, "--mode", mode, "--tol", "0") == ["1,2,3", "1|2,3"]


def test_a_violation_below_the_double_range_is_reported_above_the_tolerance(capsys, tmp_path):
    # Exactly, the entry of {3} and {4} is about 1e-400: nonzero, but 0 as a
    # float.  It is reported as the next float above the tolerance used, here
    # the least positive double, never as 0 beside an inconsistent verdict.
    path = _file(tmp_path, "below", ENTRY_BELOW_RANGE)
    assert main(["check", "--file", path, "--partition", "1,2|3|4", "--tol", "0", "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["consistent"] is False
    assert (payload["max_violation"], payload["tolerance_used"]) == (5e-324, 0.0)
    assert main(["check", "--file", path, "--partition", "1,2|3|4", "--tol", "0"]) == 3
    assert "max violation: 4.94065645841e-324" in capsys.readouterr().out.splitlines()
    assert main(["query", "--file", path, "--framework", "1,2|3|4", "--event", "3", "--tol", "0"]) == 2
    assert capsys.readouterr().err == ("chslit: error: partition is not a consistent set in medium mode: "
                                       "max violation 4.941e-324 exceeds tolerance 0.000e+00\n")


# -- reported probabilities, rounded once from the exact sums --------------------


def _exact_probability(amplitudes, group, branch) -> Fraction:
    """A table entry on rationals: ``|A_G|^2 / (k |A|^2)`` detected, and
    ``|G|/k`` minus that undetected."""
    parts = [(Fraction(a.real), Fraction(a.imag)) for a in map(complex, amplitudes)]
    k, norm = len(parts), sum(x * x + y * y for x, y in parts)
    x, y = sum(parts[i][0] for i in group), sum(parts[i][1] for i in group)
    detected = (x * x + y * y) / (k * norm)
    return detected if branch == DETECTED else Fraction(len(group), k) - detected


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="table floats come from float sums, not from the exact sums rounded once (ROADMAP item 11)")
def test_every_table_probability_is_the_exact_value_rounded_once():
    # On slits (1, 0, 0) the undetected probability of {1,2,3} is exactly 2/3,
    # which rounds to 0.6666666666666666.  Small dyadic amplitudes make
    # groups cancel, so that many frameworks survive.
    rng = random.Random(11)
    cases = [[1, 0, 0]] + [[complex(rng.randint(-4, 4), rng.randint(-4, 4)) / 4 for _ in range(rng.randint(2, 6))]
                           for _ in range(100)]
    wrong = []
    for amplitudes in filter(any, cases):
        for framework in enumerate_consistent_frameworks(build_experiment(make_scenario(amplitudes))):
            for (group, branch), probability in framework.probabilities.items():
                if probability != float(_exact_probability(amplitudes, group, branch)):
                    wrong.append((amplitudes, format_partition(framework.partition), branch, probability))
    assert not wrong
