"""Diff two benchmark result files, one row per workload.

    python3 benchmarks/compare.py benchmarks/baseline.json NEW.json

A result file is a set written by suite.py (several seeds per workload)
or a single run record written by run.py.  Each cell gives the change of
the new median against the old one for one end-to-end metric of the
records, flagged:

  ok          within the metric's bound
  WORSE       worse than the old median by more than the bound
  better      better by more than the bound
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, and the new runs do not all
              read better than every old run
  info        BENCHMARK.json gives the metric no bound
  n/a         the metric is zero on this workload (no slots simulated)

Names, units and bounds come from BENCHMARK.json.  error_frac counts
failed operations and has no bound: any increase of it is WORSE.
Exit code 1 when some cell is WORSE, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import metric_specs  # noqa: E402


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> run records, from a suite file or one run record."""
    doc = json.loads(Path(path).read_text())
    if "runs" in doc:
        return doc["runs"]
    return {doc["workload"]: [doc]}


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in runs]


def spread(vals: list[float]) -> float | None:
    """Quartile distance over the median, as statistics.quantiles gives it."""
    if len(vals) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2 if q2 else None


def verdict(name: str, spec: dict, old: list[float],
            new: list[float]) -> tuple[str, str]:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    if name == "error_frac":
        text = f"{m_new - m_old:+.3g}"
        return text, "WORSE" if sign * (m_new - m_old) < 0 else "ok"
    if m_old == 0.0:
        return "-", "n/a"
    change = (m_new - m_old) / m_old
    text = f"{100 * change:+.1f}%"
    bound = spec.get("bound")
    if bound is None:
        return text, "info"
    if any(s is None or s > bound for s in (spread(old), spread(new))):
        if all(sign * (n - o) > 0 for n in new for o in old):
            return text, "better"
        return text, "unresolved"
    if sign * change < -bound:
        return text, "WORSE"
    if sign * change > bound:
        return text, "better"
    return text, "ok"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load_runs(Path(args[0])), load_runs(Path(args[1]))
    shared = [w for w in old if w in new]
    if not shared:
        print("no workload in both files", file=sys.stderr)
        return 2
    specs = metric_specs()
    width = max(len(w) for w in shared)
    worse = False
    for name in old[shared[0]][0]["end_to_end"]:
        spec = specs[name]
        bound = spec.get("bound")
        print(f"{name} ({spec['unit']}, {spec['better']} is better, "
              f"{'no bound' if bound is None else f'bound {bound:g}'})")
        for workload in shared:
            a, b = values(old[workload], name), values(new[workload], name)
            text, flag = verdict(name, spec, a, b)
            worse |= flag == "WORSE"
            print(f"  {workload:{width}s} {statistics.median(a):12.5g} -> "
                  f"{statistics.median(b):12.5g} {text:>8s}  {flag}  "
                  f"(runs {len(a)} -> {len(b)})")
    missing = sorted(set(old) ^ set(new))
    if missing:
        print(f"workloads in one file only: {', '.join(missing)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
