"""In-memory span recorder wrapped around odlisim's public layer functions.

Spans are (name, start, end, parent span, context) rows kept in flat
arrays, so a traced cohort of hundreds of thousands of stepper calls costs
a few bytes per call.  Every traced function is replaced in each module
namespace that holds it -- ``engine.axis_step`` and ``reach.axis_step`` are
wrapped where they are looked up, not only in ``core`` -- and restored by
``uninstall``.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from benchlib import summarize

# Layer -> public functions whose calls become spans.  Work a span's
# function delegates to unwrapped helpers is that layer's self time.
TRACED = {
    "core": ("axis_step",),
    "scenario": ("pov_state_at",),
    "policies": ("policy_control",),
    "engine": ("rollout", "run_cohort", "classify_outcome"),
    "io": ("save_trajectory_log", "load_trajectory_log"),
    "responses": ("analyze_run", "build_sequence_graph", "window_for"),
    "reach": ("drivable_timeline", "compute_drivable_area", "propagate_step",
              "pov_occupancy", "aggregate_prevalence", "compute_reachable_set"),
    "oracle": ("sample_trajectories", "containment_check"),
}
LAYERS = tuple(TRACED) + ("cli",)
# Spans the benchmark opens around each ``odlisim.cli.main`` call.
CLI_COMMANDS = ("simulate", "analyze_responses", "analyze_sequence",
                "reach_aggregate", "oracle_verify")
STATS_SPAN = "trace.stats"


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap
    each other and their summed durations are the covered time.
    """
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.contexts: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.ctx = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._ctx = -1
        self._patched: list[tuple[object, str, object]] = []
        self.counters = {
            "rollout_steps": 0, "save_bytes": 0, "load_bytes": 0,
            "areas": 0, "areas_exist": 0, "areas_envelope": 0,
            "sv_layers": 0, "sv_layers_empty": 0,
            "sv_cells": 0, "sv_window_cells": 0,
            "pov_cells": 0, "pov_window_cells": 0,
            "states_checked": 0, "containment_min": 1.0,
        }

    # -- recording -------------------------------------------------------

    def set_context(self, label: str) -> None:
        """Tag the spans that follow with a workload/IL label."""
        self.contexts.append(label)
        self._ctx = len(self.contexts) - 1

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ctx.append(self._ctx)
        self.start.append(0.0)
        self.end.append(0.0)
        return sid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name`` and return its result."""
        sid = self._open(name)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def _wrap(self, qualname: str, fn):
        hook = getattr(self, "_stats_" + qualname.split(".", 1)[1], None)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            result = self.span(qualname, fn, *args, **kwargs)
            if hook is not None:
                self.span(STATS_SPAN, hook, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- per-call counters, each run inside a trace.stats span -----------

    def _stats_rollout(self, args, log):
        self.counters["rollout_steps"] += len(log.t)

    @staticmethod
    def _log_bytes(path) -> int:
        path = Path(path)
        return path.stat().st_size + Path(str(path) + ".meta.json").stat().st_size

    def _stats_save_trajectory_log(self, args, _):
        self.counters["save_bytes"] += self._log_bytes(args["path"])

    def _stats_load_trajectory_log(self, args, _):
        self.counters["load_bytes"] += self._log_bytes(args["path"])

    def _stats_compute_drivable_area(self, args, area):
        c = self.counters
        c["areas"] += 1
        c["areas_exist"] += bool(area.exists)
        c["areas_envelope"] += args.get("mode") == "kinematic-envelope"
        for layer in area.layers:
            cells = np.count_nonzero(layer.mask)
            c["sv_layers"] += 1
            c["sv_layers_empty"] += layer.x_hull is None or cells == 0
            c["sv_cells"] += cells
            c["sv_window_cells"] += layer.mask.size
        for layer in area.pov_layers:
            c["pov_cells"] += np.count_nonzero(layer.mask)
            c["pov_window_cells"] += layer.mask.size

    def _stats_containment_check(self, args, report):
        self.counters["states_checked"] += report.n_checked
        self.counters["containment_min"] = min(self.counters["containment_min"],
                                               report.fraction)

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every odlisim namespace holding it."""
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"odlisim.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "odlisim" and not modname.startswith("odlisim."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (views would pin the arrays' size)."""
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "ctx": np.frombuffer(self.ctx, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            contexts=np.array(self.contexts), **self.arrays())

    def layer_metrics(self, n_passes: int) -> dict[str, float]:
        """Per-layer counts, inclusive and self seconds and work ratios, per pass."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_t = self_times(a["start"], a["end"], a["parent"])
        by_name = {n: a["name"] == i for i, n in enumerate(self.names)}

        def calls(n):
            return int(by_name[n].sum()) / n_passes if n in by_name else 0

        def secs(n):
            return float(dur[by_name[n]].sum()) / n_passes if n in by_name else 0.0

        m: dict[str, float] = {}
        for layer, names in TRACED.items():
            for name in names:
                m[f"{layer}.{name}.calls"] = calls(f"{layer}.{name}")
                m[f"{layer}.{name}.s"] = secs(f"{layer}.{name}")
        for layer in LAYERS:
            mask = np.zeros(len(dur), dtype=bool)
            for n, sel in by_name.items():
                if n.startswith(layer + "."):
                    mask |= sel
            m[f"{layer}.self_s"] = float(self_t[mask].sum()) / n_passes
        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = secs(f"cli.{command}")

        c = self.counters
        steps = c["rollout_steps"] / n_passes
        m["engine.rollout.steps"] = steps
        m["engine.rollout.us_per_step"] = m["engine.rollout.s"] / steps * 1e6 if steps else 0.0
        m["io.save_trajectory_log.bytes"] = c["save_bytes"] / n_passes
        m["io.load_trajectory_log.bytes"] = c["load_bytes"] / n_passes

        area_sel = by_name.get("reach.compute_drivable_area")
        area_ms = dur[area_sel] * 1e3 if area_sel is not None else np.zeros(0)
        tail = summarize(area_ms.tolist())
        m["reach.compute_drivable_area.p50_ms"] = tail["median"]
        m["reach.compute_drivable_area.tail_ms"] = tail["tail"]
        m["reach.compute_drivable_area.tail_pct"] = tail["tail_pct"]

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        m["reach.exists_frac"] = frac("areas_exist", "areas")
        m["reach.envelope_mode_frac"] = frac("areas_envelope", "areas")
        m["reach.sv_empty_layer_frac"] = frac("sv_layers_empty", "sv_layers")
        m["reach.sv_window_fill"] = frac("sv_cells", "sv_window_cells")
        m["reach.pov_window_fill"] = frac("pov_cells", "pov_window_cells")
        m["oracle.states_checked"] = c["states_checked"] / n_passes
        m["oracle.containment_min"] = c["containment_min"]
        m["trace.stats_s"] = secs(STATS_SPAN)
        return m
