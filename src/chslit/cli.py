"""Command-line interface: check analyses, enumerate frameworks, query
events, list contradictions, and print counting rates.

Exit codes are stable: 0 success, 2 input error, 3 inconsistent verdict,
4 single-framework-rule violation, 5 conditioning on a null event.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from collections.abc import Callable, Iterator, Sequence

from .core import (
    SlitScenario,
    _parse_indices,
    counting_rate,
    format_scenario_partition,
    parse_scenario_partition,
)
from .engine import (
    DEFAULT_TOLERANCE,
    MODE_MEDIUM,
    MODES,
    _check_mode_and_tolerance,
    build_experiment,
    check_consistency,
)
from .errors import (
    BadIndex,
    ChslitError,
    ConditionUnsatisfied,
    MeaninglessCombination,
    NotInFramework,
)
from .frameworks import (
    DEFAULT_MAX_PATHS,
    ContradictionRecord,
    Framework,
    build_framework,
    combine_queries,
    enumerate_consistent_frameworks,
    find_contradictions,
    query_event,
)
from .scenarios import BUILTIN_SCENARIOS, builtin_scenario, load_scenario

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONSISTENT = 3
EXIT_FRAMEWORK_RULE = 4
EXIT_NULL_CONDITION = 5

MAX_PATHS_ENV = "CH_MAX_PATHS"


def _fmt(x: float) -> str:
    """Probabilities and violations with 12 significant digits, so exact
    zeros and ones print as such."""
    return format(float(x), ".12g")


def _braces(items: Sequence[object]) -> str:
    return "{%s}" % ",".join(map(str, items))


def _fail(message: str) -> None:
    print(f"chslit: error: {message}", file=sys.stderr)


def _parsed(flag: str, parse: Callable[..., object], *args: object) -> object:
    """``parse(*args)``, naming the offending flag in any parse error."""
    try:
        return parse(*args)
    except BadIndex as exc:
        raise BadIndex(f"{flag}: {exc}") from None


def _event(scenario: SlitScenario, text: str, flag: str) -> frozenset[int]:
    """The paths at the comma-separated 1-based open positions in ``text``."""
    return frozenset(scenario.open_indices[j] for j in _parsed(flag, _parse_indices, text, scenario.n_open))


def _namers(scenario: SlitScenario) -> tuple[Callable, Callable]:
    """A framework's partition tag, and an event's 1-based open positions and
    path labels, each computed once per command from one open-position map."""
    position = {index: j + 1 for j, index in enumerate(scenario.open_indices)}

    @functools.cache
    def describe(event: frozenset[int]) -> tuple[list[int], list[str]]:
        ordered = sorted(event)
        return [position[i] for i in ordered], [scenario.path_label(i) for i in ordered]

    return functools.cache(functools.partial(format_scenario_partition, scenario)), describe


def _tolerance(text: str) -> float:
    # The engine owns the rule; unparsable text gets the out-of-range message.
    try:
        return _check_mode_and_tolerance(MODE_MEDIUM, float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text!r}") from None


def _path_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # rejected below, with the out-of-range message
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def _max_paths(args: argparse.Namespace) -> int:
    if args.max_n is not None:
        return args.max_n
    raw = os.environ.get(MAX_PATHS_ENV, str(DEFAULT_MAX_PATHS))
    try:
        return _path_cap(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"{MAX_PATHS_ENV} must be an integer of at least 1, got {raw!r}") from None


# -- command handlers: each returns its exit code and its JSON payload --------


def _cmd_check(args: argparse.Namespace, scenario: SlitScenario) -> tuple[int, dict[str, object]]:
    model = build_experiment(scenario)
    partition = _parsed("--partition", parse_scenario_partition, scenario, args.partition)
    report = check_consistency(model, partition, mode=args.mode, tolerance=args.tol)
    payload = {
        "partition": format_scenario_partition(scenario, partition),
        "consistent": report.consistent,
        "max_violation": report.max_violation,
        "tolerance_used": report.tolerance_used,
        "offending_pair": None if report.offending_pair is None else list(report.offending_pair),
    }
    return (EXIT_OK if report.consistent else EXIT_INCONSISTENT), payload


def _cmd_frameworks(args: argparse.Namespace, scenario: SlitScenario) -> tuple[int, dict[str, object]]:
    model = build_experiment(scenario)
    frameworks = enumerate_consistent_frameworks(
        model, mode=args.mode, tolerance=args.tol, max_paths=_max_paths(args)
    )
    tag, describe = _namers(scenario)

    def row(framework: Framework) -> dict[str, object]:
        probabilities = []
        for (group, branch), probability in framework.probabilities.items():
            positions, labels = describe(group)
            probabilities.append({"group": positions, "labels": labels, "branch": branch, "probability": probability})
        return {
            "partition": tag(framework.partition),
            "detected_probability": framework.detected_total(),
            "probabilities": probabilities,
        }

    return EXIT_OK, {"count": len(frameworks), "frameworks": map(row, frameworks)}


def _cmd_query(args: argparse.Namespace, scenario: SlitScenario) -> tuple[int, dict[str, object]]:
    model = build_experiment(scenario)
    tag, describe = _namers(scenario)

    # ``given`` places the first answer's given_detected flag before its
    # probability, the JSON key order of that answer.
    def answer(framework: Framework, event: frozenset[int], **given: bool) -> dict[str, object]:
        probability = query_event(framework, event, given_detected=args.given_detected)
        positions, labels = describe(event)
        return {"framework": tag(framework.partition), "event": positions, "labels": labels,
                **given, "probability": probability}

    partition = _parsed("--framework", parse_scenario_partition, scenario, args.framework)
    framework = build_framework(model, partition, mode=args.mode, tolerance=args.tol)
    event = _event(scenario, args.event, "--event")
    payload = answer(framework, event, given_detected=args.given_detected)
    if args.and_query is not None:
        if "@" not in args.and_query:
            raise ValueError("--and expects EVENT@PARTITION, e.g. '2,3@1|2,3'")
        event_text, partition_text = args.and_query.split("@", 1)
        other_partition = _parsed("--and", parse_scenario_partition, scenario, partition_text)
        other = build_framework(model, other_partition, mode=args.mode, tolerance=args.tol)
        other_event = _event(scenario, event_text, "--and")
        payload["and"] = answer(other, other_event)
        # Raises MeaninglessCombination (exit 4) unless one analysis refines the other.
        payload["conjunction"] = answer(combine_queries(framework, other), event & other_event)
    return EXIT_OK, payload


def _cmd_contradictions(args: argparse.Namespace, scenario: SlitScenario) -> tuple[int, dict[str, object]]:
    model = build_experiment(scenario)
    records = find_contradictions(model, mode=args.mode, tolerance=args.tol, max_paths=_max_paths(args))
    tag, describe = _namers(scenario)

    def row(record: ContradictionRecord) -> dict[str, object]:
        event_a, labels_a = describe(record.event_a)
        event_b, labels_b = describe(record.event_b)
        return {
            "kind": record.kind,
            "framework_a": tag(record.framework_a.partition),
            "event_a": event_a,
            "labels_a": labels_a,
            "p_a": record.p_a,
            "framework_b": tag(record.framework_b.partition),
            "event_b": event_b,
            "labels_b": labels_b,
            "p_b": record.p_b,
        }

    return EXIT_OK, {"count": len(records), "records": map(row, records)}


def _cmd_rates(args: argparse.Namespace, scenario: SlitScenario) -> tuple[int, dict[str, object]]:
    if args.mask is None and not args.all_single:
        raise ValueError("rates needs --mask and/or --all-single")
    payload: dict[str, object] = {}
    if args.mask is not None:
        mask = sorted(_parsed("--mask", _parse_indices, args.mask, scenario.n_paths))
        payload["mask"] = [i + 1 for i in mask]
        payload["mask_labels"] = [scenario.path_label(i) for i in mask]
        payload["rate"] = counting_rate(scenario, mask)
    if args.all_single:
        singles = [
            {"path": index + 1, "label": scenario.path_label(index), "rate": counting_rate(scenario, {index})}
            for index in scenario.open_indices
        ]
        try:
            total = math.fsum(single["rate"] for single in singles)
        except OverflowError:
            raise ValueError("sum of single-path rates is too large for a float") from None
        all_open_rate = counting_rate(scenario, scenario.open_indices)
        payload["singles"] = singles
        payload["singles_total"] = total
        payload["all_open_rate"] = all_open_rate
        payload["interference_deficit"] = all_open_rate - total
    return EXIT_OK, payload


# -- text renderers: each yields the lines of what its command's payload holds --


def _check_text(payload: dict[str, object], scenario: SlitScenario, mode: str | None) -> Iterator[str]:
    yield from (
        f"scenario: {scenario.name}",
        f"partition: {payload['partition']}",
        f"mode: {mode}",
        f"consistent: {'yes' if payload['consistent'] else 'no'}",
        f"max violation: {_fmt(payload['max_violation'])}",
        f"tolerance used: {_fmt(payload['tolerance_used'])}",
    )
    if payload["offending_pair"] is not None:
        yield "offending pair: %s / %s" % tuple(payload["offending_pair"])


def _frameworks_text(payload: dict[str, object], scenario: SlitScenario, mode: str | None) -> Iterator[str]:
    legend = " ".join(
        f"{j + 1}={scenario.path_label(index)}" for j, index in enumerate(scenario.open_indices)
    )
    yield from (
        f"scenario: {scenario.name}",
        f"mode: {mode}",
        f"open paths: {legend}",
        f"consistent frameworks: {payload['count']}",
    )
    for framework in payload["frameworks"]:
        yield f"framework {framework['partition']}"
        for row in framework["probabilities"]:
            yield f"  P({_braces(row['group'])}, {row['branch']}) = {_fmt(row['probability'])}"


def _query_text(payload: dict[str, object], scenario: SlitScenario, mode: str | None) -> Iterator[str]:
    condition = " | detected" if payload["given_detected"] else ""
    answers = [("In", payload), ("In", payload.get("and")), ("conjunction in", payload.get("conjunction"))]
    return (
        f"{prefix} analysis {answer['framework']}: "
        f"P(went through {_braces(answer['event'])}{condition}) = {_fmt(answer['probability'])}"
        for prefix, answer in answers
        if answer is not None
    )


def _contradictions_text(payload: dict[str, object], scenario: SlitScenario, mode: str | None) -> Iterator[str]:
    yield from (f"scenario: {scenario.name}", f"mode: {mode}")
    for record in payload["records"]:
        joiner = "vs" if record["kind"] == "disjoint-certainty" else "but"
        yield (
            f"{record['kind']}: P({_braces(record['event_a'])} | detected) = {_fmt(record['p_a'])} "
            f"in analysis {record['framework_a']} {joiner} P({_braces(record['event_b'])} | detected) = "
            f"{_fmt(record['p_b'])} in analysis {record['framework_b']}"
        )
        yield f"  paths {_braces(record['labels_a'])} {joiner} {_braces(record['labels_b'])}"
    if not payload["count"]:
        yield "no contradictions found"


def _rates_text(payload: dict[str, object], scenario: SlitScenario, mode: str | None) -> Iterator[str]:
    yield f"scenario: {scenario.name}"
    if "mask" in payload:
        yield f"rate({','.join(map(str, payload['mask']))}) = {_fmt(payload['rate'])}"
    if "singles" in payload:
        yield "single-path rates:"
        for single in payload["singles"]:
            yield f"  {single['label']} (path {single['path']}): {_fmt(single['rate'])}"
        yield f"sum of singles: {_fmt(payload['singles_total'])}"
        yield f"all-open rate: {_fmt(payload['all_open_rate'])}"
        yield f"interference deficit: {_fmt(payload['interference_deficit'])}"


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument on one line, like every other input error."""

    def error(self, message: str):
        _fail(message)
        raise SystemExit(EXIT_INPUT_ERROR)

    def _check_value(self, action, value):
        # Worded here: CPython 3.12.8 and 3.13.1 stopped quoting the choices.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def _add_command(commands, name: str, handler: Callable, render: Callable, kind: str, options: dict[str, dict],
                 enumerates: bool = False, judges: bool = True, **about: str) -> None:
    """Declare a subcommand: --file/--demo, ``options`` in order, --max-n if it
    enumerates, --mode and --tol if it judges (else both are None), --format."""
    parser = commands.add_parser(name, **about)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="path to a scenario JSON document")
    source.add_argument("--demo", choices=BUILTIN_SCENARIOS, help="built-in scenario")
    for flag, settings in options.items():
        parser.add_argument(flag, **settings)
    if enumerates:
        parser.add_argument("--max-n", type=_path_cap, default=None,
                            help=f"enumeration cap on open paths (default {DEFAULT_MAX_PATHS}, or ${MAX_PATHS_ENV})")
    if judges:
        parser.add_argument("--mode", choices=MODES, default=MODE_MEDIUM,
                            help="consistency condition: full off-diagonal (medium) or real part only (weak)")
        parser.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                            help="relative consistency tolerance, finite and non-negative (default 1e-10)")
    else:
        parser.set_defaults(mode=None, tol=None)
    parser.add_argument("--format", choices=["text", "json"], default="text", help="output format")
    parser.set_defaults(handler=handler, render=render, kind=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chslit",
        description="Consistent-histories analysis of multi-slit scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "check", _cmd_check, _check_text, "consistency", {
        "--partition": dict(required=True, help="groups of 1-based open-path positions, e.g. '1,2|3'"),
    }, help="check one partition for consistency")
    _add_command(sub, "frameworks", _cmd_frameworks, _frameworks_text, "frameworks", {}, enumerates=True,
                 help="enumerate all consistent frameworks")
    _add_command(sub, "query", _cmd_query, _query_text, "query", {
        "--framework": dict(required=True, help="partition text defining the analysis"),
        "--event": dict(required=True, help="comma-separated 1-based open-path positions, e.g. '2,3'"),
        "--given-detected": dict(action="store_true", help="condition on the detector firing"),
        "--and": dict(dest="and_query", metavar="EVENT@PARTITION",
                      help="second framework-tagged query; the conjunction is answered only "
                           "when the two frameworks share a context"),
    }, help="probability of a path event within one framework", description=(
        "Ask for the probability of a path event inside a single consistent "
        "framework. Answers are relative to the chosen analysis: different "
        "frameworks may assign different certainties to a detected particle's "
        "path, and the tool will not say which path was 'really' taken or "
        "combine answers across incompatible frameworks."
    ))
    _add_command(sub, "contradictions", _cmd_contradictions, _contradictions_text, "contradictions", {},
                 enumerates=True, help="search framework pairs for clashing certainties")
    _add_command(sub, "rates", _cmd_rates, _rates_text, "rates", {
        "--mask": dict(help="comma-separated 1-based path indices to hold open, e.g. '1,2,3'"),
        "--all-single": dict(action="store_true", help="also print each single-path rate and the interference deficit"),
    }, judges=False, help="counting rates for hypothetical open masks")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        scenario = load_scenario(Path(args.file).read_bytes()) if args.demo is None else builtin_scenario(args.demo)
        code, payload = args.handler(args, scenario)
        if args.format == "json":
            # Rows come as iterators, made as they are printed.  The JSON
            # encoder walks a list directly, so they become lists here.
            rows = {key: list(value) for key, value in payload.items() if isinstance(value, Iterator)}
            report = {"kind": args.kind, "scenario": scenario.name, "mode": args.mode,
                      "tolerance": args.tol, "payload": {**payload, **rows}}
            print(json.dumps(report, indent=2))
        else:
            print("\n".join(args.render(payload, scenario, args.mode)))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): that is not an input error.
        # Point stdout at the null device so that the interpreter's final
        # flush of what is still buffered does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (NotInFramework, MeaninglessCombination) as exc:
        _fail(f"single-framework rule: {exc}")
        return EXIT_FRAMEWORK_RULE
    except ConditionUnsatisfied as exc:
        _fail(str(exc))
        return EXIT_NULL_CONDITION
    except (ChslitError, OSError, ValueError) as exc:
        _fail(str(exc))
        return EXIT_INPUT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
