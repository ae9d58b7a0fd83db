"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 benchmarks/run.py --workload oracle-verify --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload until --seconds have passed, checks
every output, and prints a summary followed by one JSON line, the last
line of stdout, holding the metrics BENCHMARK.json names: the end-to-end
ones with --trace 0, the per-layer ones with --trace 1.  The full record
(all eight end-to-end metrics, machine, inputs) is written to --out.

Timings are scaled to a reference machine speed.  After every round the
run times a fixed loop that does not touch the package (the reference);
a round's rates and latencies are scaled by how long the reference took
around it against REFERENCE_S.  A shared virtual machine can swing in
speed by up to 2x over minutes; the reference swings with it, so the
scaled figures stay put while a change to the package still moves them.
Raw wall figures are kept in the record.

A traced run first measures untraced, exactly like --trace 0, then
replays its first rounds untraced and under the tracer, checks that both
replays reproduce every output, and reports per-layer metrics from the
traced one.
The package is imported from ``src/`` next to this directory; without it
the run exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6  # extra cold set-ups in fresh processes; setup_s is the median
REFERENCE_S = 0.04  # reference-loop time of the machine timings are scaled to


def metric_specs() -> dict[str, dict]:
    """Every metric of BENCHMARK.json by name: unit, better and, for the
    end-to-end ones, bound."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="full record (default .bench_out/<workload>-"
                             "seed<seed>-trace<trace>.json)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _reference_s() -> float:
    """Wall time of a fixed loop outside the package: interpreted calls,
    dict and float work, small and large numpy operations, like the mix
    the workloads run."""
    import numpy as np  # here, so that setup_s counts its import

    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40_000):
        x = (i * 0.618) % 1.0
        table[i & 255] = x
        acc += x * x - table.get((i + 7) & 255, 0.0)
    small = np.arange(64, dtype=float)
    for _ in range(2_000):
        acc += float(small @ small)
    rng = np.random.default_rng(5)
    p_busy = rng.random(100_000)
    for _ in range(2):
        busy = rng.binomial(4, p_busy)
        acc += float(np.where(rng.random(100_000) < 0.4, busy, 0).sum())
    draws = rng.random(400_000)
    for _ in range(3):
        acc += float((draws < 0.3).sum())
    if not acc:  # keeps the loop's work live
        raise AssertionError
    return time.perf_counter() - start


def _import_package():
    """Import coopsense from this checkout's src/ and the workload module."""
    if not (SRC / "coopsense" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'coopsense'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import coopsense
    import workloads

    if Path(coopsense.__file__).resolve().parent != SRC / "coopsense":
        raise SystemExit(f"coopsense imported from {coopsense.__file__}, "
                         f"not from {SRC}")
    return workloads


def _set_up(args, workdir: Path):
    """Import the package and generate round 0 (what setup_s measures),
    then time the reference to scale it."""
    start = time.perf_counter()
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    first = workloads.make_round(workload, args.seed, 0, size, workdir)
    wall = time.perf_counter() - start
    reference = min(_reference_s() for _ in range(3))
    return wall, reference, workloads, workload, size, first


def _probe_setups(args) -> list[tuple[float, float]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"] + (["--tiny"] if args.tiny else [])
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        wall, reference = done.stdout.strip().splitlines()[-1].split()
        probes.append((float(wall), float(reference)))
    return probes


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout's git repository, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclasses.dataclass
class Round:
    inputs: list
    outcomes: list
    wall: float
    scale: float = 1.0  # reference time around the round / REFERENCE_S


def _run_rounds(workloads, workload, rounds_inputs, workdir, tracer=None):
    rounds = []
    for index, inputs in rounds_inputs:
        start = time.perf_counter()
        outcomes = []
        for j, instance in enumerate(inputs):
            if tracer is not None:
                tracer.instance = index * 1000 + j
            outcomes.append(workloads.run_instance(workload, instance, workdir))
        rounds.append(Round(inputs, outcomes, time.perf_counter() - start))
    return rounds


def _measure(args, workloads, workload, size, first, workdir) -> list[Round]:
    """Rounds until --seconds have passed, each scaled by the mean of the
    reference times just before and just after it."""
    rounds: list[Round] = []
    inputs, index = first, 0
    before = _reference_s()
    start = time.perf_counter()
    while True:
        [done] = _run_rounds(workloads, workload, [(index, inputs)], workdir)
        after = _reference_s()
        done.scale = (before + after) / 2 / REFERENCE_S
        rounds.append(done)
        before = after
        if time.perf_counter() - start >= args.seconds:
            return rounds
        index += 1
        inputs = workloads.make_round(workload, args.seed, index, size, workdir)


def _end_to_end(rounds: list[Round], setups: list[tuple[float, float]]
                ) -> tuple[dict, dict]:
    outcomes = [(o, r.scale) for r in rounds for o in r.outcomes]
    ok_ms = [o.ms / scale for o, scale in outcomes if not o.failed]
    all_ms = ok_ms or [o.ms / scale for o, scale in outcomes]
    # throughputs are totals over the run, which average the inputs' cost
    # over every round; medians of per-round rates spread more between seeds
    done = sum(not o.failed for o, _ in outcomes)

    def slot_rate(i: int) -> float:
        slots = sum(o.slots[i] for o, _ in outcomes)
        return slots / max(sum(o.sim_s[i] / scale for o, scale in outcomes), 1e-12)

    values = {
        "instances_per_s": done / sum(r.wall / r.scale for r in rounds),
        "instance_ms_p50": statistics.median(all_ms),
        "setup_s": statistics.median(
            wall * REFERENCE_S / reference for wall, reference in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slots_per_s": slot_rate(0),
        "slots_per_s_w2": slot_rate(1),
        "instance_ms_p90": (statistics.quantiles(all_ms, n=10, method="inclusive")[8]
                            if len(all_ms) > 1 else all_ms[0]),
        "error_frac": (len(outcomes) - done) / len(outcomes),
    }
    samples = {"rounds": len(rounds), "instances": len(outcomes),
               "round_walls_s": [r.wall for r in rounds],
               "round_scales": [r.scale for r in rounds],
               "wall_instances_per_s": done / sum(r.wall for r in rounds),
               "setup_walls_s": [wall for wall, _ in setups],
               "latency_samples": len(all_ms), "setup_samples": len(setups)}
    return values, samples


def _traced_replay(workloads, workload, rounds, workdir, spans_path):
    """Replay the first rounds untraced and then traced, each from a cold
    posterior cache as the measured run started; per-layer metrics, and
    the replayed outputs that differ from the measured run's."""
    from coopsense import posterior
    from tracer import Tracer

    replay = rounds[:workload.traced_rounds]
    inputs = list(enumerate(r.inputs for r in replay))
    cache = posterior._posterior_idle
    cache.cache_clear()
    plain = _run_rounds(workloads, workload, inputs, workdir)
    cache.cache_clear()
    with Tracer() as tracer:
        traced = _run_rounds(workloads, workload, inputs, workdir, tracer)
    info = cache.cache_info()
    tracer.write(spans_path)
    mismatches = [f"round {i} instance {j}"
                  for again in (plain, traced)
                  for i, (a, b) in enumerate(zip(replay, again))
                  for j, (x, y) in enumerate(zip(a.outcomes, b.outcomes))
                  if x.fingerprint != y.fingerprint]
    oracle_calls = tracer.calls("direct.direct_threshold_oracle")
    slots = tracer.counts["sim.slots"]
    run_s = (tracer.total_s("sim.run_experiment")
             - tracer.total_s("sim.build_policy_tables"))
    lookups = info.hits + info.misses
    metrics = {
        "posterior.calls": tracer.layer_calls("posterior"),
        "posterior.self_s": tracer.self_s("posterior"),
        "posterior.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "oneshot.best_response.calls": tracer.calls("oneshot.best_response"),
        "oneshot.evaluate_profile.calls": tracer.calls("oneshot.evaluate_profile"),
        "oneshot.self_s": tracer.self_s("oneshot"),
        "direct.oracle.calls": oracle_calls,
        "direct.oracle.scans_per_call":
            tracer.counts["direct.oracle.scans"] / oracle_calls if oracle_calls else 0.0,
        "direct.self_s": tracer.self_s("direct"),
        "indirect.lr_dishonest.calls": tracer.calls("indirect.lr_dishonest"),
        "indirect.self_s": tracer.self_s("indirect"),
        "mdp.build_s": tracer.total_s("mdp.build_mdp"),
        "mdp.solve_s": (tracer.total_s("mdp.value_iteration")
                        + tracer.total_s("mdp.policy_value")),
        "mdp.bellman_sweeps": tracer.calls("mdp.bellman_backup"),
        "mdp.policy_value.calls": tracer.calls("mdp.policy_value"),
        "sim.tables_s": tracer.total_s("sim.build_policy_tables"),
        "sim.run_s": run_s,
        "sim.ns_per_slot": run_s * 1e9 / slots if slots else 0.0,
        "sim.replications": tracer.counts["sim.replications"],
        "cli.self_s": tracer.self_s("cli"),
        "cli.bytes_written": sum(o.bytes_written for r in traced for o in r.outcomes),
        "trace.overhead_ratio": (sum(r.wall for r in traced)
                                 / sum(r.wall for r in plain)),
    }
    extra = {"traced_rounds": len(traced),
             "traced_instances": sum(len(r.outcomes) for r in traced),
             "cache_hits": info.hits, "cache_misses": info.misses}
    return plain + traced, metrics, mismatches, extra


def _metric_block(values: dict, names, specs: dict) -> dict:
    return {name: {"value": values[name], "unit": specs[name]["unit"]}
            for name in names}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = metric_specs()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        own_setup, reference, workloads, workload, size, first = _set_up(
            args, workdir)
        if args.probe_setup:
            print(f"{own_setup!r} {reference!r}")
            return 0
        setups = [(own_setup, reference), *_probe_setups(args)]
        rounds = _measure(args, workloads, workload, size, first, workdir)
        values, samples = _end_to_end(rounds, setups)
        all_rounds = rounds
        errors = [o.error for r in rounds for o in r.outcomes if o.failed]
        per_layer, trace_extra, mismatches = {}, None, []
        if args.trace:
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
            replayed, per_layer, mismatches, trace_extra = _traced_replay(
                workloads, workload, rounds, workdir, spans_path)
            all_rounds = rounds + replayed
            errors += [f"traced output differs at {m}" for m in mismatches]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for r in all_rounds for o in r.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not mismatches and not any(o.wrong for o in outcomes)
    # round 0 is the same for a seed whatever the machine's speed
    digest = hashlib.sha256(json.dumps(
        [workloads.describe(i) for i in rounds[0].inputs],
        sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "machine": _machine(),
        "inputs": {"round0_sha256": digest, **samples},
        "reference": {"nominal_s": REFERENCE_S, "setup_s": reference},
        "correct": correct, "attempted": attempted, "failed": failed,
        "errors": sorted(set(errors))[:10],
        "end_to_end": _metric_block(values, values, specs),
    }
    chosen = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if args.trace:
        # the untraced end-to-end figures BENCHMARK.json lists as per-layer
        record["per_layer"] = _metric_block({**values, **per_layer}, chosen, specs)
        record["traced_replay"] = trace_extra
    out = args.out or OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    shown = record.get("per_layer", record["end_to_end"])
    print(f"{args.workload} seed {args.seed}: {samples['rounds']} rounds, "
          f"{attempted} instances, {failed} failed, correct={correct}")
    for err in record["errors"]:
        print(f"  failure: {err}")
    for name, m in {**record["end_to_end"], **shown}.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: shown[n] for n in chosen}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
