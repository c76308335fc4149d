"""Brute-force verification of the reachable-set propagation.

Monte Carlo rollouts of jerk-bounded control sequences use the exact same
discrete stepper as the propagation, so a sound implementation must
contain every sampled state bit-for-bit.  A separate continuous-time
bang-bang integrator quantifies how far the discrete extremes sit from
the true 1D reachable interval.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .core import AxisLimits, stacked_axis_limits, stacked_states, step_state
from .reach import ReachableSet
from .spec import KinematicLimits, VehicleState, check_numbers, step_count


# Doubles of the random stream from one step's draw to the next: step k
# draws doubles [k * _STRIDE, k * _STRIDE + 2n) of the stream.
_STRIDE = 2**40
# The sign bit of a double as an int64, and the keys of -inf and inf (see `_ordered`).
_SIGN_BIT = np.int64(-2**63)
_KEY_NEG_INF, _KEY_INF = -np.int64(0x7FF0_0000_0000_0000), np.int64(0x7FF0_0000_0000_0000)


@dataclass(frozen=True)
class SampleCloud:
    """Jerk-sampled trajectories, drawn and stepped as they are read.

    The cloud holds the start state (a one-vehicle `core.stacked_states`),
    the stacked axis limits (see `core.stacked_axis_limits`), and the seed,
    ``n`` and ``n_steps`` of its random jerks; no jerks and no states are
    stored.  The first four trajectories are the constant corner-jerk
    (bang-bang) ones, the other ``n`` draw per-step jerks uniformly from the
    admissible box (see `sample_trajectories` for the stream).  Clouds that
    share ``seed``, ``n``, ``dt`` and ``n_steps`` can be walked together
    (`walk`): each step's uniforms are drawn once and scaled into every
    cloud's own jerk box, so each cloud's states are those it has alone.
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
        """Each step's ``(6, n_traj)`` rows, in step order: the `walk` of this
        cloud alone.  A row array may be overwritten once the next step is drawn."""
        return (rows[:, 0] for rows in self.walk([self]))

    @staticmethod
    def walk(clouds: Sequence[SampleCloud]) -> Iterator[np.ndarray]:
        """Each step's ``(6, V, n_traj)`` rows of the V ``clouds``, stepped in lockstep.

        The clouds must share ``seed``, ``n``, ``dt`` and ``n_steps`` (else
        ValueError, naming the field); their start states and limits may
        differ.  Each step draws its ``2n`` doubles of the stream once and
        scales them into every cloud's jerk box, then one `core.step_state`
        call steps one ``(3, 2, V, n_traj)`` state buffer into another, so the
        walk holds O(V n) memory whatever ``n_steps`` is.  A row array may be
        overwritten once the next step is drawn.
        """
        first = clouds[0]
        for name in ("seed", "n", "dt", "n_steps"):
            for cloud in clouds[1:]:
                if getattr(cloud, name) != getattr(first, name):
                    raise ValueError(f"clouds walked together must share {name}: "
                                     f"{getattr(first, name)} vs {getattr(cloud, name)}")
        return _walk(clouds)


def _walk(clouds: Sequence[SampleCloud]) -> Iterator[np.ndarray]:
    """The rows of `SampleCloud.walk`, for clouds it has checked."""
    first, v, n = clouds[0], len(clouds), clouds[0].n_traj
    cur, nxt = np.empty((2, 3, 2, v, n))
    cur[...] = np.stack([cloud.start for cloud in clouds], axis=2)
    yield cur.reshape(6, v, n)
    # [axis, cloud, 1] for each field
    lim = AxisLimits(*(np.stack([getattr(cloud.lim, f.name) for cloud in clouds], axis=1)
                       for f in fields(AxisLimits)))
    jerk = np.empty((2, v, n))  # [axis, cloud, trajectory]
    corner = np.stack([lim.j_lo, lim.j_hi])[..., 0]  # [lo/hi, axis, cloud]
    jerk[0, :, :4] = corner[[0, 0, 1, 1], 0].T
    jerk[1, :, :4] = corner[[0, 1, 0, 1], 1].T
    span, lo = lim.j_hi - lim.j_lo, lim.j_lo
    # Trajectory 4 + i takes doubles 2i (x) and 2i + 1 (y) of the step's draw.
    drawn = np.empty(2 * first.n)
    uniform = drawn.reshape(-1, 2).T[:, None]  # [axis, 1, i]
    rng = np.random.default_rng(first.seed)
    for _ in range(first.n_steps):
        rng.random(out=drawn)
        rng.bit_generator.advance(_STRIDE - drawn.size)
        scaled = np.multiply(uniform, span, out=jerk[:, :, 4:])
        scaled += lo
        step_state(cur, jerk, lim, first.dt, nxt)
        yield nxt.reshape(6, v, n)
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
    `SampleCloud`), within the limits of `core.stacked_axis_limits`.  Clouds
    of one seed, n, dt and horizon take the same uniforms, each scaled into
    its own jerk box; `SampleCloud.walk` steps several of them on one draw
    per step, as `oracle verify` does with each anchor's SV and POV clouds.
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


def _ordered(bits: np.ndarray) -> np.ndarray:
    """The int64 bit patterns of doubles to keys in the doubles' order, and back.

    Non-negative doubles keep their bits; a negative one's key is minus its
    magnitude's bits, so both zeros have key 0 (which maps back to +0.0).
    """
    return np.where(bits < 0, _SIGN_BIT - bits, bits)


def _cell_starts(edges: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The least double x with ``fl(x / cell) >= edge``, elementwise, for integer-valued
    float ``edges`` and positive finite ``cell`` sizes.

    Correctly rounded division by a positive number is monotone in x, so the
    doubles x with ``fl(x / cell) >= i`` are those at or above this start: for
    an integer i, ``floor(x / cell) >= i`` holds iff ``x >= start(i)``, and
    ``floor(x / cell) < i`` iff ``x < start(i)``.  The start is bisected over
    the doubles in order: between the fourth doubles below and above
    ``fl(i * cell)``, which hold it unless the quotient underflows or
    overflows (for i = 0, ``fl(x / cell)`` is -0.0, so not below 0, for every
    negative x down to about ``-2**-1075 * cell``), and else between -inf and inf.
    """
    def fits(key):
        return _ordered(key).view(np.float64) / cell >= edges

    guess = _ordered((edges * cell).view(np.int64))
    lo, hi = guess - 4, guess + 4  # fits(lo) is False and fits(hi) True
    wide = fits(lo) | ~fits(hi)
    lo[wide], hi[wide] = _KEY_NEG_INF, _KEY_INF
    while np.count_nonzero(lo + 1 < hi):
        mid = (lo & hi) + ((lo ^ hi) >> 1)  # their floored mean, without overflow
        up = fits(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return _ordered(hi).view(np.float64)


def _bounds(rsets: Sequence[ReachableSet]) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, each ``(n_layers, 6, V, R, 1)``: member v's state rows ``s`` of step
    k lie in its layer's rectangle r and hull intervals iff ``lo[k, :, v, r] <= s <=
    hi[k, :, v, r]`` in all six rows.

    A rectangle's half-open cell range ``i0 <= floor(x / dx) < i1`` is the closed
    float range ``[start(i0), nextafter(start(i1), -inf)]`` (see `_cell_starts`).
    Members whose layer holds fewer than R rectangles are padded with empty ones,
    ``lo = inf`` and ``hi = -inf``, which hold no state; an empty layer is all padding.
    """
    layers = [layer for step in zip(*(rset.layers for rset in rsets)) for layer in step]
    count = np.array([len(layer.rects) for layer in layers])
    r = max(int(count.max()), 1)
    lo = np.full((len(layers), r, 6), np.inf)
    hi = np.full((len(layers), r, 6), -np.inf)
    filled = np.arange(r) < count[:, None]
    edges = np.array([rect for layer in layers for rect in layer.rects],
                     dtype=float).reshape(-1, 4)
    cell = np.repeat([(layer.dx, layer.dx, layer.dy, layer.dy) for layer in layers],
                     count, axis=0).reshape(-1, 4)
    starts = _cell_starts(edges, cell)
    lo[filled, :2] = starts[:, [0, 2]]
    hi[filled, :2] = np.nextafter(starts[:, [1, 3]], -np.inf)
    hulls = np.array([(x.v_lo, y.v_lo, x.a_lo, y.a_lo, x.v_hi, y.v_hi, x.a_hi, y.a_hi)
                      for x, y in ((layer.x_hull, layer.y_hull)
                                   for layer in layers if not layer.empty)]).reshape(-1, 2, 4)
    lo[count > 0, :, 2:] = hulls[:, None, 0]
    hi[count > 0, :, 2:] = hulls[:, None, 1]
    shape = (-1, len(rsets), r, 6)
    return (lo.reshape(shape).transpose(0, 3, 1, 2)[..., None],
            hi.reshape(shape).transpose(0, 3, 1, 2)[..., None])


def containment_checks(clouds: Sequence[SampleCloud],
                       rsets: Sequence[ReachableSet]) -> list[ContainmentReport]:
    """Each cloud's fraction of sampled states inside its set's occupied cells and hulls.

    ``clouds[v]`` is checked against ``rsets[v]``; all the clouds are walked
    together (`SampleCloud.walk`), so they must share seed, ``n``, ``dt`` and
    step count, and each step's uniforms are drawn once for all of them.  A
    state is contained when its position lies in one of its layer's half-open
    cell rectangles and its velocity and acceleration in the layer's hull
    intervals (closed bounds, no tolerance).  The cell test is a float
    comparison against exact cell bounds (see `_bounds`), which holds exactly
    when the floored cell index ``floor(x / dx)`` falls inside the rectangle,
    because correctly rounded division is monotone in x.  Every step compares
    all V clouds' ``(6, V, n_traj)`` rows with their layers' bounds at once, as
    soon as the step is drawn, so the check holds one step's jerks, rows and
    comparisons: O(V n) memory, whatever the step count.  The first violation
    is the first step with a miss, then the first trajectory at that step.
    1.0 certifies soundness of the propagation for these samples.
    """
    if len(clouds) != len(rsets):
        raise ValueError(f"{len(clouds)} clouds vs {len(rsets)} reachable sets")
    # The clouds' type walks them (a test walks given states).
    walk = type(clouds[0]).walk(clouds)
    for cloud, rset in zip(clouds, rsets):
        if abs(cloud.dt - rset.tau_step) > 1e-12:
            raise ValueError(f"clock mismatch: cloud dt {cloud.dt} vs tau_step {rset.tau_step}")
        if abs(cloud.t0 - rset.t) > 1e-9:
            raise ValueError(f"anchor mismatch: cloud t0 {cloud.t0} vs set t {rset.t}")
        if cloud.n_steps + 1 != len(rset.layers):
            raise ValueError(f"step mismatch: cloud has {cloud.n_steps} steps "
                             f"vs {len(rset.layers) - 1} in the set")

    lo, hi = _bounds(rsets)
    n = clouds[0].n_traj
    n_bad = np.zeros(len(clouds), dtype=np.int64)
    first: list[dict | None] = [None] * len(clouds)
    inside = above = None
    for k, rows in enumerate(walk):
        s = rows[:, :, None]  # [row, cloud, 1, trajectory]
        inside = np.less_equal(lo[k], s, out=inside)
        above = np.less_equal(s, hi[k], out=above)
        inside &= above
        ok = inside.all(axis=0).any(axis=1)  # [cloud, trajectory]
        bad = n - np.count_nonzero(ok, axis=1)
        n_bad += bad
        for v in np.flatnonzero(bad):
            if first[v] is not None:
                continue
            layer = rsets[v].layers[k]
            if layer.empty:
                first[v] = {"step": k, "trajectory": 0, "reason": "empty layer"}
                continue
            i = int(np.argmin(ok[v]))  # the first False
            occupied = inside[:2, v, :, i].all(axis=0).any()
            first[v] = {"step": k, "trajectory": i,
                        "reason": "outside hull intervals" if occupied else "cell unoccupied",
                        "state": [float(x) for x in rows[:, v, i]]}
    n_checked = n * (clouds[0].n_steps + 1)
    return [ContainmentReport(fraction=1.0 - int(b) / max(n_checked, 1), n_checked=n_checked,
                              n_violations=int(b), first_violation=f)
            for b, f in zip(n_bad, first)]


def containment_check(cloud: SampleCloud, rset: ReachableSet) -> ContainmentReport:
    """`containment_checks` of one cloud against one set."""
    return containment_checks([cloud], [rset])[0]
