"""Run every workload over several seeds and print all eight end-to-end
metrics per workload, with medians, quartiles and run-to-run spread.

    python3 benchmarks/suite.py --seeds 1-10 --out .bench_out/suite.json

Each run is a fresh process of run.py for BENCHMARK.json's run_seconds
(seed-major order, so a slow spell of the machine hits every workload
alike).  The result file holds every run record and is what compare.py
diffs; benchmarks/baseline.json is one.  A spread above a metric's bound
marks the workload unsteady for it; setup_s is exempt, its bound applies
to medians only, and a metric without a bound is shown for information.
Exit code 1 when a run is incorrect or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from compare import spread  # noqa: E402
from run import OUT, ROOT, _machine, metric_specs  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="'1-10' or '3,5,8'")
    parser.add_argument("--out", type=Path, default=OUT / "suite.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = metric_specs()
    workloads = [w["name"] for w in bench["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    walls: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            record = OUT / f"suite-{workload}-seed{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0", "--out", str(record)]
            start = time.perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=600)
            walls[workload].append(time.perf_counter() - start)
            runs[workload].append(json.loads(record.read_text()))
            record.unlink()
            print(f"seed {seed} {workload}: {walls[workload][-1]:.1f} s",
                  file=sys.stderr)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seconds": seconds, "seeds": args.seeds,
         "machine": _machine(), "runs": runs}, indent=1, sort_keys=True) + "\n")

    failed = False
    for workload in workloads:
        recs = runs[workload]
        bad = sum(not r["correct"] for r in recs)
        failed |= bad > 0
        print(f"{workload}: {len(recs)} runs, {bad} incorrect, "
              f"{sum(r['failed'] for r in recs)}/{sum(r['attempted'] for r in recs)} "
              f"operations failed, max wall {max(walls[workload]):.1f} s")
        for name in recs[0]["end_to_end"]:
            spec = specs[name]
            bound = spec.get("bound")
            vals = [r["end_to_end"][name]["value"] for r in recs]
            s = spread(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            note = ""
            if bound is not None and name != "setup_s" and (s is None or s > bound):
                failed, note = True, "  UNSTEADY"
            shown = "-" if s is None else f"{100 * s:.1f}%"
            limit = "no bound" if bound is None else f"bound {100 * bound:g}%"
            print(f"  {name:16s} {statistics.median(vals):12.5g} {spec['unit']:6s} "
                  f"q1 {q[0]:12.5g} q3 {q[2]:12.5g} spread {shown:>7s} "
                  f"({limit}){note}")
    print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
