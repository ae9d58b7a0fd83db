"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 benchmarks/smoke.py

Checks, for every workload, untraced and traced: the run exits 0, its
last stdout line is the result object with exactly the metrics and units
BENCHMARK.json names, the run record carries all eight end-to-end
metrics with their units, error_frac is failed / attempted, and outputs
are correct.  Also checks that compare.py diffs two records, and that
run.py exits non-zero without printing a result where there is no
package source.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import OUT, ROOT, _import_package, metric_specs  # noqa: E402

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=300)


def check_benchmark_file() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]]
          == list(_import_package().WORKLOADS),
          "BENCHMARK.json workloads differ from the harness's")
    return bench


def check_run(bench: dict, workload: str, trace: int, scratch: Path) -> Path:
    record_path = scratch / f"{workload}-{trace}.json"
    done = run([str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "0", "--trace", str(trace), "--tiny",
                "--out", str(record_path)], ROOT)
    where = f"{workload} trace {trace}"
    check(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}")
    if done.returncode:
        return record_path
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    check({n: m["unit"] for n, m in result["metrics"].items()}
          == {m["name"]: m["unit"] for m in wanted},
          f"{where}: metric names or units differ from BENCHMARK.json")
    check(result["correct"] is True, f"{where}: outputs incorrect")
    check(result["attempted"] >= 1, f"{where}: nothing attempted")
    record = json.loads(record_path.read_text())
    specs = metric_specs()
    check(len(record["end_to_end"]) == 8
          and all(m["unit"] == specs[n]["unit"]
                  for n, m in record["end_to_end"].items()),
          f"{where}: record lacks an end-to-end metric or its unit")
    if not trace:
        frac = record["end_to_end"]["error_frac"]["value"]
        check(frac == result["failed"] / result["attempted"],
              f"{where}: error_frac {frac} is not failed / attempted")
        for name, m in result["metrics"].items():
            check(m["value"] > 0, f"{where}: {name} is 0")
    for key in ("nproc", "cpu", "python", "numpy", "commit"):
        check(key in record["machine"], f"{where}: machine lacks {key}")
    check(record["seed"] == 3 and len(record["inputs"]["round0_sha256"]) == 64,
          f"{where}: inputs not recorded")
    return record_path


def main() -> int:
    scratch = OUT / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        bench = check_benchmark_file()
        records = [check_run(bench, w["name"], t, scratch)
                   for w in bench["workloads"] for t in (0, 1)]
        done = run([str(HERE / "compare.py"), str(records[0]), str(records[0])],
                   ROOT)
        check(done.returncode == 0 and "WORSE" not in done.stdout,
              f"compare.py on identical records: exit {done.returncode}\n"
              f"{done.stdout}{done.stderr}")

        bare = scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run([str(Path(HERE.name) / "run.py"), "--workload", "sim-long",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        check(done.returncode != 0 and '"metrics"' not in done.stdout,
              "run.py without package source must fail without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
