import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import odlisim
from odlisim import reach
from odlisim.core import axis_limits
from odlisim.engine import TrajectoryLog
from odlisim.reach import Layer, Timeline
from odlisim.spec import SV_LIMITS, ScenarioTiming, make_scenario


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(odlisim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def make_log(dt=0.01, duration=8.0, t_trigger=1.0, incursion_level=0.0,
             sv=None, pov=None, controls=None, collided=False, t_collision=None):
    """Synthetic trajectory log with constant channels unless overridden.

    ``sv`` / ``pov`` / ``controls`` map channel names to scalars, arrays, or
    callables of the time array.
    """
    scenario = make_scenario(incursion_level)
    timing = ScenarioTiming(t_trigger, t_trigger + scenario.time_gap_trigger)
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt

    def channels(defaults, overrides):
        out = {}
        overrides = overrides or {}
        for key, default in defaults.items():
            v = overrides.get(key, default)
            if callable(v):
                out[key] = np.asarray(v(t), dtype=float)
            elif np.isscalar(v):
                out[key] = np.full(n, float(v))
            else:
                out[key] = np.asarray(v, dtype=float)
        return out

    w = scenario.road.lane_width
    sv_defaults = {"x": lambda tt: 17.88 * tt, "y": -w / 2, "vx": 17.88,
                   "vy": 0.0, "ax": 0.0, "ay": 0.0}
    pov_defaults = {"x": lambda tt: 300.0 - 17.88 * tt, "y": w / 2,
                    "vx": -17.88, "vy": 0.0, "ax": 0.0, "ay": 0.0}
    ctl_defaults = {"accel_pct": 6.0, "brake_pct": 0.0, "steer_deg": 0.0}
    return TrajectoryLog(dt=dt, t=t,
                         sv=channels(sv_defaults, sv),
                         pov=channels(pov_defaults, pov),
                         controls=channels(ctl_defaults, controls),
                         scenario=scenario, timing=timing,
                         collided=collided, t_collision=t_collision)


def make_timeline(exists, eval_step=0.1, t_begin=1.4, t_trigger=1.0):
    """Existence timeline over anchors eval_step apart from t_begin."""
    exists = np.asarray(exists, dtype=bool)
    t = t_begin + eval_step * np.arange(len(exists))
    return Timeline(t=t, rel_t=t - t_trigger, exists=exists,
                    mode=["kinematic-envelope"] * len(exists))


def rect_cells(rects):
    """The world cells (ix, iy) of half-open world-cell rectangles (i0, i1, j0, j1)."""
    return {(i, j) for i0, i1, j0, j1 in rects for i in range(i0, i1) for j in range(j0, j1)}


def make_layer(tau, dx, dy, rects, x_hull, y_hull):
    """The reach layer of the cells of world-cell rectangles ``rects``, among them empty,
    nested or repeated ones, as the kernel makes it: a batch of one member holding them
    as a cut leaves its pieces, untidy, and read as a layer, which makes them a set."""
    batch = reach._Batch.of_layers([Layer(tau, dx, dy, tuple(rects), x_hull, y_hull)],
                                   [axis_limits(SV_LIMITS, 1)])
    batch.untidy = True
    return batch.layers(tau)[0]


def world_cells(layer):
    """The world cells (ix, iy) of a reach layer."""
    return rect_cells(layer.rects)


def bounding_box(layer):
    """``(ox, oy, (nx, ny))``: the bounding box of a reach layer's cells, 0x0 when empty.

    Box cell ``[i, j]`` is world cell ``(ox + i, oy + j)``, as in ``layer.mask``.
    """
    if not layer.rects:
        return 0, 0, (0, 0)
    i0, i1, j0, j1 = zip(*layer.rects)
    return min(i0), min(j0), (max(i1) - min(i0), max(j1) - min(j0))


def cloud_states(cloud):
    """float [n_traj, n_steps + 1, 6]: copies of a cloud's step rows, stacked."""
    return np.stack([rows[:, 0].copy() for rows in cloud.walk([cloud])]).transpose(2, 0, 1)


@dataclass
class RowsCloud:
    """A cloud that yields given states ``[n_traj, n_steps + 1, 6]``, for hand-made
    or perturbed samples; ``containment_checks`` reads nothing else of a cloud."""

    t0: float
    dt: float
    states: np.ndarray

    @property
    def n_traj(self):
        return self.states.shape[0]

    @property
    def n_steps(self):
        return self.states.shape[1] - 1

    @staticmethod
    def walk(clouds):
        """Each step's ``(6, V, n_traj)`` rows, as ``SampleCloud.walk`` yields them."""
        return iter(np.stack([cloud.states for cloud in clouds], axis=1).transpose(2, 3, 1, 0))


def load_table(path):
    """(header, units, rows) of a table written by ``io.write_table``."""
    lines = Path(path).read_text().splitlines()
    assert len(lines) >= 2, "table needs a header and a units row"
    return lines[0].split(","), lines[1].split(","), [l.split(",") for l in lines[2:]]


@pytest.fixture
def synthetic_log():
    return make_log()
