"""Run the benchmark over several seeds and report the spread of each metric.

    python3 bench/stability.py --workloads cli contradictions --seeds 1-10

For every end-to-end metric it prints the median and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from ``BENCHMARK.json``; a metric
whose spread exceeds its bound is not resolved by the benchmark.  With
``--out FILE`` the medians and quartiles, with every run's metadata, are
merged into that JSON file under ``"end_to_end"`` (``--trace 1`` merges the
per-layer medians under ``"per_layer"``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary, run_meta = {}, {}
    all_ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        run_meta[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            run_meta[workload].append(json.loads(lines[0])["meta"])
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
                all_ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER")
            bound_text = "" if bound is None else f"bound {bound:<5}"
            print(f"{workload:<15} {name:<58} median {median:<12.6g} spread {spread:7.4f} {bound_text} {flag}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vals)}")
            if bound is not None and name != "setup_s" and spread > bound:
                all_ok = False

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        for workload, metrics in summary.items():
            section[workload] = {
                "metrics": {name: {k: v for k, v in m.items() if k != "runs"} for name, m in metrics.items()},
                "runs": run_meta[workload],
            }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
