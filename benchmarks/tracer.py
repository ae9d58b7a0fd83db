"""Call tracing for the benchmark's traced run.

Entering a Tracer replaces every public function of the layer modules with a
wrapper that times the call.  Calls from one package module to another go
through module attributes (``oneshot.best_response``,
``posterior.posterior_idle``, ``bellman_backup`` inside ``value_iteration``),
so the wrappers see intra-package calls as well as the benchmark's own.

Spans (name, start, end, parent, instance id) stay in memory until
write().  Hot leaf functions only aggregate count and time: an
oracle-verify instance calls ``posterior_idle`` about 12k times.  Every
wrapped call, span or not, keeps its own and its children's time, so a
layer's self time is its span time minus the time of wrapped calls made
inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("posterior", "oneshot", "direct", "indirect", "mdp", "sim", "cli")

# called thousands of times per instance (every posterior function too)
AGGREGATED = frozenset({
    "oneshot.best_response", "oneshot.evaluate_profile",
    "oneshot.honest_equivalent_profile", "mdp.bellman_backup",
    "indirect.lr_honest", "indirect.lr_dishonest",
})


def _count_scan(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    # the oracle's best-response scans all start at sensing state (0, 0)
    state = args[0] if args else kwargs["state"]
    if (state.honest_busy == 0 and state.attacker_busy == 0
            and any(f[2] == "direct.direct_threshold_oracle"
                    for f in tracer._frames())):
        tracer.counts["direct.oracle.scans"] += 1


def _count_slots(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    config = args[0] if args else kwargs["config"]
    tracer.counts["sim.slots"] += config.horizon * config.replications
    tracer.counts["sim.replications"] += config.replications


_HOOKS = {"oneshot.best_response": _count_scan,
          "sim.run_experiment": _count_slots}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start ns, end ns, parent id, instance)
        self.instance: int | None = None
        self._next_id = 0
        self._local = threading.local()
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            module = importlib.import_module(f"coopsense.{layer}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, f"{layer}.{attr}"))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
        self._saved.clear()

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, [0, 0, 0])
        record = not (name in AGGREGATED or name.startswith("posterior."))
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            frames = tracer._frames()
            parent = frames[-1][1] if frames else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent  # children attach to the nearest span
            frame = [0, span_id, name]  # child ns, span id, name
            frames.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                frames.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if record:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.instance))

        return wrapper

    # -- readouts ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items()
                   if n.startswith(layer + ".")) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(s[0] for n, s in self.stats.items()
                   if n.startswith(layer + "."))

    def write(self, path: Path) -> None:
        doc = {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent",
                            "instance"],
            "spans": self.spans,
            "aggregates": {n: {"calls": s[0], "total_s": s[1] / 1e9,
                               "self_s": s[2] / 1e9}
                           for n, s in sorted(self.stats.items()) if s[0]},
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))
