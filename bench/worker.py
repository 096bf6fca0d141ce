"""One workload process: set up, then time (and optionally trace) the cycle.

Started by ``run.py``; prints ``READY`` once set-up is done (the parent times
set-up from spawn to that line), then one JSON line with the samples.  With
``--setup-only`` it exits after ``READY``.

Set-up covers importing chslit from the checkout's ``src``, generating the
seeded inputs, writing the CLI workload's scenario files, and one warm-up
operation.  Reference answers are computed after ``READY`` and outside every
timed region; so are the checks of each output and the host-speed probe
timed after each operation (see ``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (the bench directory is on sys.path as the script's own)
import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402

CLI_TIMEOUT_S = 60
PROBE_REPEATS = 7
FINEST_SIZES = (3, 6, 9, 12)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_chslit():
    sys.path.insert(0, str(SRC))
    import chslit
    import chslit.cli  # noqa: F401  (registers the module the tracer wraps)

    if not Path(chslit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"chslit was imported from {chslit.__file__}, not from {SRC}")
    return chslit


class Workload:
    """The operation and the output check of one workload."""

    def __init__(self, name: str, chslit, cases, in_process_cli: bool) -> None:
        self.name = name
        self.chslit = chslit
        self.cases = cases
        self.in_process_cli = in_process_cli
        self.docs = [case.doc for case in cases]
        self.env = cli_env()

    def run(self, index: int):
        case = self.cases[index]
        if self.name == "cli":
            if self.in_process_cli:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = sys.modules["chslit.cli"].main(case.argv)
                return code, out.getvalue(), err.getvalue()
            proc = subprocess.run(
                [sys.executable, "-m", "chslit.cli", *case.argv],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout, proc.stderr
        ch = self.chslit
        model = ch.build_experiment(ch.load_scenario(self.docs[index]))
        if self.name == "contradictions":
            return ch.find_contradictions(model)
        return ch.enumerate_consistent_frameworks(model)

    def check(self, index: int, result) -> str | None:
        case = self.cases[index]
        if self.name == "cli":
            code, stdout, stderr = result
            if code != case.exit_code:
                return f"exit {code}, expected {case.exit_code}: {stderr.strip()[-200:]}"
            if code in (2, 4, 5) and (stdout or not stderr.startswith("chslit: error:")):
                return "a refusal must print one error line on stderr and nothing on stdout"
            return case.check_stdout(stdout) if case.check_stdout else None
        if self.name == "contradictions":
            return workloads.check_records(case, result)
        return workloads.check_frameworks(case, result)

    def warm_up(self) -> None:
        if self.name == "cli":
            self.run(0)
        else:
            ch = self.chslit
            model = ch.build_experiment(ch.load_scenario(workloads.scenario_doc("warm-up", workloads.PARADOX)))
            ch.find_contradictions(model)

    def cycles(self, seconds: float, tracer=None) -> dict:
        """Whole cycles of the cases, starting another only while it is
        expected to end within ``seconds``; always at least one.

        CLI processes are the exception: their cases cost about the same, so
        they run until ``seconds`` are up, wherever in the cycle that falls.
        """
        samples, probe, failures = [], [], []
        spawned = self.name == "cli" and not self.in_process_cli
        probe_ms = hostspeed.start_ms if spawned else hostspeed.kernel_ms
        begin = time.perf_counter()
        cycles = 0
        while True:
            cycle_begin = time.perf_counter()
            for index in range(len(self.cases)):
                if tracer is not None:
                    tracer.op_id += 1
                t0 = time.perf_counter()
                try:
                    result = self.run(index)
                except Exception as exc:  # an operation that raises is a failed operation
                    problem = f"raised {exc!r}"
                else:
                    problem = None
                samples.append(time.perf_counter() - t0)
                if problem is None:
                    try:
                        problem = self.check(index, result)
                    except (ValueError, KeyError, TypeError, IndexError) as exc:
                        problem = f"output not understood: {exc!r}"
                    del result  # so that the probe below does not run next to the output's objects
                probe.append(probe_ms())
                if problem:
                    failures.append(f"{self.cases[index].name}: {problem}")
                if spawned and time.perf_counter() - begin > seconds:
                    return {"samples": samples, "probe_ms": probe, "failures": failures, "cycles": cycles}
            cycles += 1
            now = time.perf_counter()
            if not spawned and now - begin + (now - cycle_begin) > seconds:
                break
        return {"samples": samples, "probe_ms": probe, "failures": failures, "cycles": cycles}


# -- probes of the traced run -------------------------------------------------------


def best_ms(argv, env) -> float:
    """Best wall time of a few runs of a process: the probes are controls, and
    the minimum is the estimate least disturbed by other load."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def import_times_ms(env) -> tuple[float, float]:
    """Cumulative import time of numpy and of chslit (with everything it
    imports), from ``-X importtime`` on ``import chslit.cli``; best of a few."""
    numpy_ms, chslit_ms = [], []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import chslit.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S,
        )
        numpy_us = chslit_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[1].strip().isdigit():
                continue
            cumulative, package = int(fields[1]), fields[2]
            if package.strip() == "numpy" and not numpy_us:
                numpy_us = cumulative
            if package.startswith(" chslit"):  # top level: one space after the bar
                chslit_us += cumulative
        numpy_ms.append(numpy_us / 1e3)
        chslit_ms.append(chslit_us / 1e3)
    return min(numpy_ms), min(chslit_ms)


def best_call_us(fn) -> float:
    """Best time per call, as ``timeit`` measures it."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(PROBE_REPEATS, number)) / number * 1e6


def finest_check_us(chslit, k: int) -> float:
    """check_consistency on the finest partition of k generic paths."""
    rng = random.Random(f"finest:{k}")
    amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(k)]
    model = chslit.build_experiment(chslit.load_scenario(workloads.scenario_doc("finest", amps)))
    partition = chslit.parse_partition("|".join(str(i + 1) for i in range(k)), k)
    return best_call_us(lambda: chslit.check_consistency(model, partition))


def layer_metrics(tracer, cycles: int) -> dict[str, float]:
    """Per-layer numbers from the spans, per cycle of the workload."""
    spans = tracer.per_name()

    def stat(name):
        entry = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = entry["calls"]
        return {
            "calls": calls / cycles,
            "self_s": entry["self_s"] / cycles,
            "self_us": entry["self_s"] / calls * 1e6 if calls else 0.0,
            "us_per_call": entry["total_s"] / calls * 1e6 if calls else 0.0,
        }

    out = {}
    main = stat("cli.main")
    out["cli.main_ms"] = main["us_per_call"] / 1e3
    out["cli.main.self_ms"] = main["self_us"] / 1e3
    wanted = {
        "scenarios.load_scenario": ("calls", "self_us"),
        "scenarios.builtin_scenario": ("self_us",),
        "core.parse_scenario_partition": ("self_us",),
        "core.format_scenario_partition": ("calls", "self_us"),
        "core.counting_rate": ("self_us",),
        "engine.build_experiment": ("self_us",),
        "engine.check_consistency": ("calls", "self_s", "us_per_call"),
        "engine.history_probabilities": ("calls", "self_s"),
        "frameworks.enumerate_consistent_frameworks": ("calls", "self_s"),
        "frameworks.build_framework": ("calls", "self_s"),
        "frameworks.find_contradictions": ("calls", "self_s"),
        "frameworks.query_event": ("self_us",),
        "frameworks.combine_queries": ("self_us",),
    }
    for name, keys in wanted.items():
        values = stat(name)
        for key in keys:
            out[f"{name}.{key}"] = values[key]
    counts = {key: value / cycles for key, value in tracer.counts.items()}
    enum = "frameworks.enumerate_consistent_frameworks"
    out[f"{enum}.partitions_decided"] = counts["partitions_decided"]
    out[f"{enum}.frameworks_returned"] = counts["frameworks_returned"]
    out[f"{enum}.yield"] = counts["frameworks_returned"] / counts["partitions_decided"] if counts["partitions_decided"] else 0.0
    search = "frameworks.find_contradictions"
    out[f"{search}.framework_pairs"] = counts["framework_pairs"]
    out[f"{search}.records"] = counts["records"]
    out[f"{search}.records_per_pair"] = counts["records"] / counts["framework_pairs"] if counts["framework_pairs"] else 0.0
    return out


def traced_run(workload: Workload, chslit, seconds: float, spans_path: str | None) -> dict:
    """The probes, then untraced and traced cycles in alternation, so that
    drift of the host shows in both sides of the tracing overhead alike."""
    layers = {}
    env = cli_env()
    layers["cli.interp_ms"] = best_ms([sys.executable, "-c", "pass"], env)
    layers["cli.import_numpy_ms"], layers["cli.import_chslit_ms"] = import_times_ms(env)
    for k in FINEST_SIZES:
        layers[f"engine.check_consistency.finest_us.k{k}"] = finest_check_us(chslit, k)
    tracer = Tracer(chslit)
    runs = {"untraced": [], "traced": []}
    begin = time.perf_counter()
    while True:
        pair_begin = time.perf_counter()
        runs["untraced"].append(workload.cycles(0))
        tracer.install()
        try:
            runs["traced"].append(workload.cycles(0, tracer))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - begin + (now - pair_begin) > seconds:
            break
    layers.update(layer_metrics(tracer, len(runs["traced"])))
    for side, cycles in runs.items():
        samples = [t for c in cycles for t in c["samples"]]
        layers[f"trace.{side}_ops_per_s"] = len(samples) / sum(samples)
    layers["trace.overhead_pct"] = (layers["trace.untraced_ops_per_s"] / layers["trace.traced_ops_per_s"] - 1.0) * 100.0
    if spans_path:
        tracer.write(spans_path)
    every = runs["untraced"] + runs["traced"]
    layers["host.kernel_ms"] = statistics.median(hostspeed.kernel_ms() for _ in range(PROBE_REPEATS))
    return {
        "samples": [t for c in every for t in c["samples"]],
        "probe_ms": [t for c in every for t in c["probe_ms"]],
        "failures": [f for c in every for f in c["failures"]],
        "cycles": len(every),
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    chslit = import_chslit()
    work_dir = None
    if args.workload == "cli":
        work_dir = ROOT / ".bench_work" / f"cli-{os.getpid()}"
        work_dir.mkdir(parents=True)
    try:
        cases = workloads.make_cases(args.workload, args.seed, args.scale, work_dir)
        workload = Workload(args.workload, chslit, cases, in_process_cli=bool(args.trace))
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.workload == "contradictions":
            for case in cases:
                case.record_digest()
        if args.trace:
            result = traced_run(workload, chslit, args.seconds, args.spans)
        else:
            result = workload.cycles(args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        print(json.dumps(result), flush=True)
    finally:
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
