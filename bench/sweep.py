"""k-sweep of chslit's layers: the baseline table, reproducible from one command.

    python3 bench/sweep.py --out bench/BENCH_1.json

Measures, on the checkout's ``src``:

* ``cli_ms`` -- wall time of each CLI command on each demo, next to bare
  ``python`` and import-only baselines (min and median of 5 processes);
* ``layers_3path_us`` -- one call of each layer on the 3-path paradox demo
  (best of 7 ``timeit`` autoranges);
* ``finest_check_us`` -- ``check_consistency`` on the finest partition of
  k = 3, 6, 9, 12 generic paths;
* ``enumeration`` -- ``enumerate_consistent_frameworks`` on generic and
  planted zero-sum scenarios with k = 8..11 and on ``(1,0,...,0)`` with
  k = 8, 9, with the traced split between the screen (the enumeration's self
  time) and the dense re-check (its ``build_framework`` children);
* ``contradictions`` -- ``find_contradictions`` on alternating +-1 with
  k = 3, 5, 7 (k = 9 emits 8.1 M records and is left out).

``(1,0,...,0)`` stops at k = 9: k = 10 has 115,975 frameworks and takes
minutes.  The result is merged into ``--out`` under ``"sweep"``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads
import worker
from tracing import Tracer

DEMOS = ("three-slit-contradiction", "two-slit-footnote", "generic")
COMMANDS = {
    "check": ["--partition", "1,2|3"],
    "frameworks": [],
    "query": ["--framework", "1,2|3", "--event", "3", "--given-detected"],
    "contradictions": [],
    "rates": ["--mask", "1,2", "--all-single"],
}
REPEATS = 5


def process_ms(argv, env) -> dict:
    times, code = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        code = subprocess.run(argv, env=env, cwd=worker.ROOT, capture_output=True).returncode
        times.append((time.perf_counter() - t0) * 1e3)
    return {"min": min(times), "median": statistics.median(times), "exit": code}


def enumeration_row(chslit, case) -> dict:
    model = chslit.build_experiment(chslit.load_scenario(case.doc))
    t0 = time.perf_counter()
    frameworks = chslit.enumerate_consistent_frameworks(model)
    row = {"k": len(case.amps), "seconds": time.perf_counter() - t0, "frameworks": len(frameworks)}
    error = workloads.check_frameworks(case, frameworks)
    if error:
        raise SystemExit(f"{case.name}: {error}")
    tracer = Tracer(chslit)
    tracer.install()
    try:
        chslit.enumerate_consistent_frameworks(model)
    finally:
        tracer.uninstall()
    spans = tracer.per_name()
    enum = spans["frameworks.enumerate_consistent_frameworks"]
    row["traced_seconds"] = enum["total_s"]
    row["screen_share"] = enum["self_s"] / enum["total_s"]
    row["recheck_share"] = spans["frameworks.build_framework"]["total_s"] / enum["total_s"]
    return row


def sweep(chslit) -> dict:
    env = worker.cli_env()
    py = sys.executable
    out = {"cli_ms": {
        "python -c pass": process_ms([py, "-c", "pass"], env),
        "import numpy": process_ms([py, "-c", "import numpy"], env),
        "import chslit.cli": process_ms([py, "-c", "import chslit.cli"], env),
    }}
    for demo in DEMOS:
        for command, extra in COMMANDS.items():
            out["cli_ms"][f"{command} --demo {demo}"] = process_ms([py, "-m", "chslit.cli", command, "--demo", demo, *extra], env)

    scenario = chslit.builtin_scenario("three-slit-contradiction")
    doc = chslit.save_scenario(scenario)
    model = chslit.build_experiment(scenario)
    partition = chslit.parse_scenario_partition(scenario, "1,2|3")
    out["layers_3path_us"] = {
        "load_scenario": worker.best_call_us(lambda: chslit.load_scenario(doc)),
        "build_experiment": worker.best_call_us(lambda: chslit.build_experiment(scenario)),
        "check_consistency": worker.best_call_us(lambda: chslit.check_consistency(model, partition)),
        "enumerate_consistent_frameworks": worker.best_call_us(lambda: chslit.enumerate_consistent_frameworks(model)),
        "find_contradictions": worker.best_call_us(lambda: chslit.find_contradictions(model)),
    }
    out["finest_check_us"] = {f"k{k}": worker.finest_check_us(chslit, k) for k in worker.FINEST_SIZES}

    rng = random.Random("sweep")
    sizes = {"generic": range(8, 12), "planted": range(8, 12), "e1": range(8, 10)}
    out["enumeration"] = {
        family: [enumeration_row(chslit, workloads.FAMILIES[family](rng, k)) for k in ks]
        for family, ks in sizes.items()
    }
    out["contradictions"] = []
    for k in (3, 5, 7):
        case = workloads.FAMILIES["alternating"](rng, k)
        model = chslit.build_experiment(chslit.load_scenario(case.doc))
        t0 = time.perf_counter()
        records = chslit.find_contradictions(model)
        seconds = time.perf_counter() - t0
        error = workloads.check_records(case, records)
        if error:
            raise SystemExit(f"alternating-{k}: {error}")
        out["contradictions"].append({"k": k, "seconds": seconds, "records": len(records)})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None, help="JSON file to merge the sweep into (default: print it)")
    args = parser.parse_args()
    meta = run.run_metadata(run="sweep")
    chslit = worker.import_chslit()
    result = {"meta": meta, **sweep(chslit)}
    meta["loadavg_after"] = os.getloadavg()
    if args.out is None:
        print(json.dumps(result, indent=2))
        return 0
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["sweep"] = result
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
