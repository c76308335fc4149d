"""Brute-force verification of the reachable-set propagation.

Monte Carlo rollouts of jerk-bounded control sequences use the exact same
discrete stepper as the propagation, so a sound implementation must
contain every sampled state bit-for-bit.  A separate continuous-time
bang-bang integrator quantifies how far the discrete extremes sit from
the true 1D reachable interval.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (AxisLimits, KinematicLimits, VehicleState, check_numbers,
                   stacked_axis_limits, step_count, step_state)
from .reach import Layer, ReachableSet


# Trajectories per chunk of the random draw: one chunk of a 40-step draw
# is 160 KiB, and larger chunks run no faster.
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class SampleCloud:
    """Jerk-sampled trajectories, stepped as they are read.

    The cloud holds the start state (x, y, vx, vy, ax, ay), the step-major
    jerks ``[n_steps, 2, n_traj]`` and the stacked axis limits (see
    `core.stacked_axis_limits`).  The first four trajectories are the
    constant corner-jerk (bang-bang) ones, the rest draw per-step jerks
    uniformly from the admissible box, all from one random stream (see
    `sample_trajectories`).  No ``[n_steps + 1, 6, n_traj]`` array of
    states ever exists: `steps` steps two buffers through `core.step_state`.
    """

    t0: float
    dt: float
    start: np.ndarray  # float [6]
    jerks: np.ndarray  # float [n_steps, 2, n_traj]
    lim: AxisLimits

    @property
    def n_steps(self) -> int:
        return self.jerks.shape[0]

    @property
    def n_traj(self) -> int:
        return self.jerks.shape[2]

    def steps(self) -> Iterator[np.ndarray]:
        """Each step's ``(6, n_traj)`` rows, in step order.

        A row array may be overwritten once the next step is drawn.
        """
        cur, nxt = np.empty((2, 3, 2, self.n_traj))
        cur[...] = self.start.reshape(3, 2, 1)
        yield cur.reshape(6, -1)
        for jerk in self.jerks:
            step_state(cur, jerk, self.lim, self.dt, nxt)
            yield nxt.reshape(6, -1)
            cur, nxt = nxt, cur


def _draw_jerks(rng: np.random.Generator, j_lo: np.ndarray, j_hi: np.ndarray,
                out: np.ndarray) -> None:
    """Fill ``out[2 * n_steps, n]`` with uniform jerks from ``rng``.

    ``out`` is the step-major jerks with step and axis merged: row 2k + c is
    axis c at step k.  Trajectory i takes the i-th contiguous
    ``[n_steps, 2]`` stretch of the stream, as in one
    ``rng.random((n, n_steps, 2))`` block: the generator hands out one
    double per number in order, so drawing that block in chunks of
    `_DRAW_BLOCK` trajectories yields the same numbers.  Each
    ``[chunk, 2 * n_steps]`` chunk is scaled as ``lo + (hi - lo) * u``, with
    the per-axis bounds tiled over the steps, and written into ``out`` as
    one 2-D transposed copy, so no second full-size copy of the jerks is
    ever held.
    """
    n_rows, n = out.shape
    span = np.tile(j_hi - j_lo, n_rows // 2)
    lo = np.tile(j_lo, n_rows // 2)
    buf = np.empty((min(n, _DRAW_BLOCK), n_rows))
    for start in range(0, n, _DRAW_BLOCK):
        chunk = buf[:min(_DRAW_BLOCK, n - start)]
        rng.random(out=chunk)
        chunk *= span
        chunk += lo
        out[:, start:start + len(chunk)] = chunk.T


def sample_trajectories(initial: VehicleState, limits: KinematicLimits,
                        horizon: float = 4.0, dt: float = 0.1,
                        n: int = 1000, seed: int = 0) -> SampleCloud:
    """n random jerk-sequence rollouts plus the four constant corner ones.

    The random jerks come from one ``default_rng(seed)`` stream, with the
    numbers of a single [n, n_steps, 2] uniform block over the per-axis
    jerk box, so trajectory 4 + i takes the i-th contiguous stretch of the
    stream.  The cloud is reproducible for a given (seed, n) and
    prefix-stable in n: the rows for n = 100 equal the first rows for
    n = 1000.  Only the jerks are drawn here, within the limits of
    `core.stacked_axis_limits`; the cloud steps them as it is read (see
    `SampleCloud`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_numbers("> 0", dt=dt)
    check_numbers(">= 0", horizon=horizon)
    n_steps = step_count(horizon, dt, "horizon / dt")
    lim = stacked_axis_limits(limits, initial.heading_sign)
    j_lo, j_hi = lim.j_lo[:, 0], lim.j_hi[:, 0]

    # Step-major (steps, axis, trajectory), so every per-step jerk is one
    # contiguous row.
    jerks = np.empty((n_steps, 2, n + 4))
    jerks[:, 0, :4] = (j_lo[0], j_lo[0], j_hi[0], j_hi[0])
    jerks[:, 1, :4] = (j_lo[1], j_hi[1], j_lo[1], j_hi[1])
    _draw_jerks(np.random.default_rng(seed), j_lo, j_hi,
                jerks.reshape(2 * n_steps, n + 4)[:, 4:])
    start = np.array([initial.x, initial.y, initial.vx, initial.vy,
                      initial.ax, initial.ay])
    return SampleCloud(initial.t, dt, start, jerks, lim)


def _smallest_positive_root(a2: float, a1: float, a0: float) -> float | None:
    """Smallest root > 1e-12 of a2 s^2 + a1 s + a0 = 0."""
    if abs(a2) < 1e-15:
        if abs(a1) < 1e-15:
            return None
        r = -a0 / a1
        return r if r > 1e-12 else None
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    roots = sorted(((-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)))
    for r in roots:
        if r > 1e-12:
            return r
    return None


def _push_extreme(p0: float, v0: float, a0: float, j: float,
                  a_lo: float, a_hi: float, v_lo: float, v_hi: float,
                  tau: float) -> tuple[float, float]:
    """Continuous-time (p, v) at tau under constant jerk with clamped a and v.

    Event-driven exact integration: within a segment the acceleration is
    linear, velocity quadratic, position cubic; segments break at
    acceleration saturation, velocity cap hits, and cap releases.
    """
    t = 0.0
    p, v, a = p0, min(max(v0, v_lo), v_hi), min(max(a0, a_lo), a_hi)
    pinned: str | None = None
    for _ in range(40):
        # Pin to a velocity cap when sitting on it and being pushed outward
        # (zero acceleration counts only if the jerk keeps it outward);
        # release as soon as the acceleration points back inward.
        if pinned is None:
            if v >= v_hi - 1e-12 and (a > 0 or (a >= -1e-15 and j >= 0)):
                v, pinned = v_hi, "hi"
            elif v <= v_lo + 1e-12 and (a < 0 or (a <= 1e-15 and j <= 0)):
                v, pinned = v_lo, "lo"
        elif pinned == "hi" and (a < -1e-15 or (abs(a) <= 1e-15 and j < 0)):
            pinned = None
        elif pinned == "lo" and (a > 1e-15 or (abs(a) <= 1e-15 and j > 0)):
            pinned = None
        if t >= tau - 1e-15:
            break

        at_hi_cap = a >= a_hi - 1e-15 and j > 0
        at_lo_cap = a <= a_lo + 1e-15 and j < 0
        j_eff = 0.0 if (at_hi_cap or at_lo_cap) else j

        candidates = [tau - t]
        if j_eff > 0:
            candidates.append((a_hi - a) / j_eff)
        elif j_eff < 0:
            candidates.append((a_lo - a) / j_eff)
        if pinned is None:
            for cap in (v_hi, v_lo):
                r = _smallest_positive_root(j_eff / 2.0, a, v - cap)
                if r is not None:
                    candidates.append(r)
        elif j_eff != 0.0:
            r = -a / j_eff  # cap release when acceleration crosses zero
            if r > 1e-15:
                candidates.append(r)
        dt = min(c for c in candidates if c > 1e-15)
        dt = min(dt, tau - t)

        if pinned is None:
            p += v * dt + a * dt * dt / 2.0 + j_eff * dt**3 / 6.0
            v += a * dt + j_eff * dt * dt / 2.0
            v = min(max(v, v_lo), v_hi)
        else:
            p += v * dt
        a = min(max(a + j_eff * dt, a_lo), a_hi)
        t += dt
    return p, v


def analytic_1d_bounds(p0: float, v0: float, a0: float, lim: AxisLimits,
                       tau: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact continuous-time extremal ([p_lo, p_hi], [v_lo, v_hi]) at tau.

    The upper trajectory holds the maximum jerk until acceleration
    saturates, then rides the acceleration cap with the velocity clamped;
    the lower bound is the mirror image.  For this monotone triple
    integrator these two trajectories bound every admissible one.
    """
    check_numbers(">= 0", tau=tau)
    p_hi, v_hi = _push_extreme(p0, v0, a0, lim.j_hi, lim.a_lo, lim.a_hi,
                               lim.v_lo, lim.v_hi, tau)
    p_neg, v_neg = _push_extreme(-p0, -v0, -a0, -lim.j_lo, -lim.a_hi, -lim.a_lo,
                                 -lim.v_hi, -lim.v_lo, tau)
    return (-p_neg, p_hi), (-v_neg, v_hi)


@dataclass
class ContainmentReport:
    fraction: float
    n_checked: int
    n_violations: int
    first_violation: dict | None  # step/trajectory/reason of the first miss


def _contained(s: np.ndarray, layer: Layer) -> tuple[np.ndarray, np.ndarray]:
    """(contained, cell occupied) per trajectory for one step's ``(6, n)`` rows."""
    n = s.shape[1]
    ix = np.floor(s[0] / layer.dx)
    iy = np.floor(s[1] / layer.dy)
    occupied = np.zeros(n, dtype=bool)
    for i0, i1, j0, j1 in layer.rects:
        occupied |= (i0 <= ix) & (ix < i1) & (j0 <= iy) & (iy < j1)

    xh, yh = layer.x_hull, layer.y_hull
    ok = occupied.copy()
    tmp = np.empty(n, dtype=bool)
    for c, lo, hi in ((2, xh.v_lo, xh.v_hi), (3, yh.v_lo, yh.v_hi),
                      (4, xh.a_lo, xh.a_hi), (5, yh.a_lo, yh.a_hi)):
        ok &= np.greater_equal(s[c], lo, out=tmp)
        ok &= np.less_equal(s[c], hi, out=tmp)
    return ok, occupied


def containment_check(cloud: SampleCloud, rset: ReachableSet) -> ContainmentReport:
    """Fraction of sampled states inside the occupied cells and their hulls.

    Position must land in an occupied cell and velocity/acceleration inside
    the layer's intervals (closed bounds, no tolerance).  Each position is
    floored to its cell indices once per layer, and the cell is occupied
    when the indices fall inside any of the layer's half-open rectangles.
    The check walks `SampleCloud.steps` layer by layer, so the cloud is
    stepped as it is checked and only one step's rows are held.  The
    first violation is the first step
    with a miss, then the first trajectory at that step.  1.0 certifies
    soundness of the propagation for these samples.
    """
    if abs(cloud.dt - rset.tau_step) > 1e-12:
        raise ValueError(f"clock mismatch: cloud dt {cloud.dt} vs tau_step {rset.tau_step}")
    if abs(cloud.t0 - rset.t) > 1e-9:
        raise ValueError(f"anchor mismatch: cloud t0 {cloud.t0} vs set t {rset.t}")
    if cloud.n_steps + 1 != len(rset.layers):
        raise ValueError(f"step mismatch: cloud has {cloud.n_steps} steps "
                         f"vs {len(rset.layers) - 1} in the set")

    n = cloud.n_traj
    n_checked = n * len(rset.layers)
    n_bad = 0
    first: dict | None = None
    for k, (layer, s) in enumerate(zip(rset.layers, cloud.steps())):
        if layer.empty:
            n_bad += n
            if first is None:
                first = {"step": k, "trajectory": 0, "reason": "empty layer"}
            continue
        ok, occupied = _contained(s, layer)
        n_bad_k = n - int(np.count_nonzero(ok))
        n_bad += n_bad_k
        if n_bad_k and first is None:
            i = int(np.argmin(ok))  # the first False
            reason = "cell unoccupied" if not occupied[i] else "outside hull intervals"
            first = {"step": k, "trajectory": i, "reason": reason,
                     "state": [float(v) for v in s[:, i]]}
    return ContainmentReport(fraction=1.0 - n_bad / max(n_checked, 1),
                             n_checked=n_checked, n_violations=n_bad,
                             first_violation=first)
