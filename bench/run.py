"""chslit benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload cli --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``cli`` (one
``python -m chslit.cli`` process per operation), ``census-sparse`` and
``census-dense`` (in-process ``enumerate_consistent_frameworks``) and
``contradictions`` (in-process ``find_contradictions``).  Each is a closed
loop: one client, one operation at a time, cycles of seeded cases.
The checkout's ``src`` is put on the path, so the code measured is the code
in this tree.  Every output is checked against a reference that does not
come from chslit (``oracle.py``).

With ``--trace 0`` the metrics are end to end.  Operation times are scaled
to a reference host speed by a probe timed after every operation (see
``hostspeed.py``), because a shared host drifts by up to a third over
minutes; the unscaled figures are printed too.  ``setup_s`` is scaled like
CLI calls, by a process that imports numpy timed right before each set-up:
set-up is mostly interpreter start and imports too.

* ``setup_s`` -- spawn of a fresh workload process until it is ready
  (imports, input generation, scenario files, one warm-up operation);
  median of seven.
* ``ops_per_s`` -- operations per second of operation time, where an
  operation is one CLI process or one scenario loaded, modelled and
  analysed.
* ``op_ms.p50`` and ``op_ms.tail`` -- per-operation wall time; the tail is
  the highest whole percentile with at least 10 operations beyond it, and is
  printed with its percentile and the sample count.
* ``peak_rss_mb`` -- peak resident set of the workload process, or of the
  largest CLI child for ``cli``.
* ``ok_ratio`` -- operations that neither raised, exited wrongly nor gave a
  wrong answer, over operations attempted: 1 - failed_ratio (the result line
  also carries ``attempted`` and ``failed``).

With ``--trace 1`` the run alternates untraced and traced cycles (spans
around every public function of chslit's modules, installed from
``tracing.py``), and the metrics are per layer; see ``worker.layer_metrics``.
Totals and counts are per cycle of the workload's cases, ``self_us`` and
``us_per_call`` are per call.  The report lines before the final JSON line
give the run's metadata, the tail percentile and the failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json declares them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in config["end_to_end"]}, {m["name"]: m["unit"] for m in config["per_layer"]})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_metadata(**run) -> dict:
    """The code measured, the run's settings and the machine it ran on."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        **run,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": os.getloadavg(),
    }


def spawn(args, setup_only: bool) -> tuple[float, dict | None]:
    """Run one workload process; return its set-up time and its result."""
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
    ]
    if setup_only:
        argv.append("--setup-only")
    if args.spans:
        argv += ["--spans", args.spans]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    code = proc.returncode
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError(f"workload process exited with code {code}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples beyond it (nearest
    rank); the median when there are too few samples for a tail."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span to this CSV file")
    args = parser.parse_args()
    if not (SRC / "chslit" / "__init__.py").is_file():
        print(f"bench: no chslit package under {SRC}", file=sys.stderr)
        return 2

    end_to_end_units, per_layer_units = metric_units()
    meta = run_metadata(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, scale=args.scale)
    setups, setup_probes = [], []
    try:
        for i in range(1 if args.trace else SETUP_RUNS):
            setup_probes.append(hostspeed.start_ms())
            setup_s, result = spawn(args, setup_only=i < SETUP_RUNS - 1 and not args.trace)
            setups.append(setup_s)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_after"] = os.getloadavg()

    samples = result["samples"]
    attempted = len(samples)
    failed = len(result["failures"])
    print(json.dumps({"meta": meta}))
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {attempted} operations in {result['cycles']} cycles, {failed} failed "
          f"(failed_ratio {failed / attempted:.6g})")
    if args.trace:
        values = result["layers"]
        units = per_layer_units
    else:
        if args.workload == "cli":
            reference, average = hostspeed.START_REFERENCE_MS, statistics.median
        else:
            reference, average = hostspeed.KERNEL_REFERENCE_MS, statistics.mean
        scaled = [t * f for t, f in zip(samples, hostspeed.scales(result["probe_ms"], reference, average))]
        percentile, tail_s = tail(scaled)
        values = {
            "setup_s": statistics.median(t * hostspeed.START_REFERENCE_MS / c for t, c in zip(setups, setup_probes)),
            "ops_per_s": attempted / sum(scaled),
            "op_ms.p50": statistics.median(scaled) * 1e3,
            "op_ms.tail": tail_s * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = end_to_end_units
        print(f"op_ms.tail is p{percentile} of {attempted} operations; "
              f"setup_s is the median of {[round(s, 4) for s in setups]} unscaled, with probes "
              f"{[round(c, 1) for c in setup_probes]} ms")
        print(f"host probe {statistics.median(result['probe_ms']):.4g} ms (reference {reference} ms); "
              f"unscaled: ops_per_s {attempted / sum(samples):.4g}, op_ms.p50 {statistics.median(samples) * 1e3:.4g}, "
              f"op_ms.tail {tail(samples)[1] * 1e3:.4g}")
    if values.keys() != units.keys():
        print(f"bench: metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
