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

from .core import AxisLimits, stacked_axis_limits, stacked_states, step_state
from .reach import Layer, ReachableSet
from .spec import KinematicLimits, VehicleState, check_numbers, step_count


# Doubles of the random stream from one step's draw to the next: step k
# draws doubles [k * _STRIDE, k * _STRIDE + 2n) of the stream.
_STRIDE = 2**40
# Trajectories per block of the jerk scaling: two 32 KiB blocks of bounds.
_SCALE_BLOCK = 2048


@dataclass(frozen=True)
class SampleCloud:
    """Jerk-sampled trajectories, drawn and stepped as they are read.

    The cloud holds the start state (a one-vehicle `core.stacked_states`),
    the stacked axis limits (see `core.stacked_axis_limits`), and the seed,
    ``n`` and ``n_steps`` of its random jerks; no jerks and no states are
    stored.  The first four trajectories are the constant corner-jerk
    (bang-bang) ones, the other ``n`` draw per-step jerks uniformly from the
    admissible box (see `sample_trajectories` for the stream).
    """

    t0: float
    dt: float
    start: np.ndarray  # float [3, 2, 1]
    lim: AxisLimits
    seed: int
    n: int
    n_steps: int

    @property
    def n_traj(self) -> int:
        return self.n + 4

    def steps(self) -> Iterator[np.ndarray]:
        """Each step's ``(6, n_traj)`` rows, in step order.

        Each step's jerks are drawn into one reused ``(n_traj, 2)`` buffer
        just before `core.step_state` steps one of two state buffers into the
        other, so the walk holds O(n) memory whatever ``n_steps`` is.  A row
        array may be overwritten once the next step is drawn.
        """
        cur, nxt = np.empty((2, 3, 2, self.n_traj))
        cur[...] = self.start
        yield cur.reshape(6, -1)
        j_lo, j_hi = self.lim.j_lo[:, 0], self.lim.j_hi[:, 0]
        jerk = np.empty((self.n_traj, 2))
        jerk[:4] = [(j_lo[0], j_lo[1]), (j_lo[0], j_hi[1]),
                    (j_hi[0], j_lo[1]), (j_hi[0], j_hi[1])]
        # Scaled in flat blocks against bounds tiled to one block: a length-2
        # bound broadcast over the (n, 2) rows runs about 2x slower, and
        # bounds tiled to the whole draw would add 2 * 16n bytes.
        drawn = jerk[4:].reshape(-1)
        span, lo = np.tile(j_hi - j_lo, _SCALE_BLOCK), np.tile(j_lo, _SCALE_BLOCK)
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_steps):
            rng.random(out=drawn)
            for a in range(0, drawn.size, span.size):
                block = drawn[a:a + span.size]
                block *= span[:block.size]
                block += lo[:block.size]
            rng.bit_generator.advance(_STRIDE - drawn.size)
            step_state(cur, jerk.T, self.lim, self.dt, nxt)
            yield nxt.reshape(6, -1)
            cur, nxt = nxt, cur


def sample_trajectories(initial: VehicleState, limits: KinematicLimits,
                        horizon: float = 4.0, dt: float = 0.1,
                        n: int = 1000, seed: int = 0) -> SampleCloud:
    """n random jerk-sequence rollouts plus the four constant corner ones.

    The random jerks come from one ``PCG64(seed)`` stream.  Step k takes
    doubles ``[k * S, k * S + 2n)`` of it, with the fixed stride
    ``S = 2**40``: trajectory 4 + i takes double ``k * S + 2i`` for x and
    ``k * S + 2i + 1`` for y, each scaled over its axis's jerk box as
    ``lo + (hi - lo) * u``.  One generator draws a step and then advances
    past the rest of its stride with ``PCG64.advance``.  So the cloud is
    reproducible for a given (seed, n) and prefix-stable in n: the rows for
    n = 100 equal the first rows for n = 1000.  Nothing is drawn here: the
    cloud draws and steps each step's jerks as it is read (see
    `SampleCloud`), within the limits of `core.stacked_axis_limits`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n + 4 > _STRIDE // 2:
        raise ValueError(f"n must be at most {_STRIDE // 2 - 4}, got {n}")
    check_numbers("> 0", dt=dt)
    check_numbers(">= 0", horizon=horizon)
    n_steps = step_count(horizon, dt, "horizon / dt")
    return SampleCloud(initial.t, dt, stacked_states([initial]),
                       stacked_axis_limits(limits, initial.heading_sign), seed, n, n_steps)


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
    drawn and stepped as it is checked and only one step's jerks and rows
    are held.  The first violation is the first step with a miss, then the
    first trajectory at that step.  1.0 certifies
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
