"""Orbit integration for both model kinds.

The dynamical vector field of a phase structure is an ordinary ODE on
the 7-dimensional phase chart (four spacetime coordinates plus three
observed velocities).  This module integrates it with a fixed-step
classical Runge-Kutta scheme and reports, alongside the trajectory, a
per-step residual of the second-order law of motion obtained by central
differencing the stored samples.  The residual is the product's own
certificate: it measures how well the returned points satisfy the law,
independently of how they were produced.

The right-hand side is the dynamical vector field, compiled once per
orbit into one function of the 7 state floats (the phase's
`dynamical_fn`).  The RK4 step is straight-line code over 7 named floats
that calls it through its `rhs` argument, a hook the benchmark's tracer
wraps to count steps and RHS calls.  The residual evaluates the fields
over the interior samples, a block of them to a `Batch` (more samples to
a block where the fields' DAG is small), and reduces with whole array
operations.  Both give the floats of `Field.value` at each point, a
one-row batch whose float operations the compiled code repeats.  A
Galilei residual does not fail: each interior sample began an RK4 step,
whose first right-hand side evaluated the same fields there.  An
Einstein residual reads its velocities from finite differences, so a
sample may fail; the first failing sample raises the class the compiled
right-hand side raises there.

Galilei trajectories are parametrized by the absolute time x^0, so the
first state component advances linearly.  Einstein trajectories are
parametrized by proper time and the pace of x^0 is c alpha0.
"""

import array
import math
import sys
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .modelspec import Model, dag_size
from .galilei import GalileiPhase
from .smooth import field_values
from .einstein import EinsteinPhase


# the most RK4 steps one orbit may take; more is refused before the
# trajectory is allocated
MAX_ORBIT_STEPS = 1_000_000

# how far outside the chart box a point still counts in
BOX_SLACK = 1e-9

# samples per law-residual batch: a batch holds an array over its rows for
# every node of the fields' DAG, so a whole trajectory at once would raise
# the peak memory by megabytes.  A batch takes BATCH_ROWS samples, or more
# where the DAG is small: as many as BATCH_CELLS array elements allow
BATCH_ROWS = 256
BATCH_CELLS = 256 * 256


class BoxExit(RuntimeError):
    """The trajectory left the model's declared coordinate box."""


@dataclass
class OrbitResult:
    times: np.ndarray          # parameter values, shape (n,)
    states: np.ndarray         # phase states, shape (n, 7)
    law_residuals: np.ndarray  # per-step residuals, shape (n,), ends NaN

    @property
    def max_law_residual(self) -> float:
        """The worst interior residual; NaN (a failure) when there is no
        interior sample."""
        interior = self.law_residuals[1:-1]
        return float(np.max(interior)) if len(interior) else math.nan


def step_count(duration: float, step: float) -> int:
    """The number of RK4 steps of an orbit, round(duration / step).

    Raises ValueError for a duration or step that is not positive and
    finite, a step whose square underflows, or fewer than 2 (the law
    residual needs an interior sample) or more than MAX_ORBIT_STEPS steps.
    """
    if not (0.0 < duration < math.inf and 0.0 < step < math.inf):
        raise ValueError("duration and step must be positive and finite")
    # the quotient may be infinite, which round() cannot take
    if duration / step > MAX_ORBIT_STEPS + 0.5:
        raise ValueError("duration / step asks for more than %d steps"
                         % MAX_ORBIT_STEPS)
    nsteps = int(round(duration / step))
    if nsteps < 2:
        raise ValueError("duration / step asks for %d steps; an orbit "
                         "takes at least 2" % nsteps)
    if step * step < sys.float_info.min:
        raise ValueError("step %r is too small: its square underflows" % step)
    return nsteps


def initial_state(model: Model, x0, v0) -> List[float]:
    """The initial phase state, x0 then v0, as 7 floats.

    Raises ValueError for a state that is not 4 position and 3 velocity
    components, a component that is not finite, or a position outside
    the model box widened by BOX_SLACK, the box every later step is
    tested against.
    """
    state = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    if state.shape != (7,):
        raise ValueError("need 4 position and 3 velocity components")
    if not np.all(np.isfinite(state)):
        raise ValueError("initial position and velocity must be finite")
    if np.any(state[:4] < model.box_lo - BOX_SLACK) \
            or np.any(state[:4] > model.box_hi + BOX_SLACK):
        raise ValueError("initial position lies outside the model box")
    return state.tolist()


def _check_box(state: List[float], lo: List[float], hi: List[float]) -> None:
    if not all(map(math.isfinite, state)):
        raise BoxExit("trajectory reached a non-finite state %s" % (state,))
    for v, low, high in zip(state, lo, hi):
        if v < low or v > high:
            raise BoxExit("trajectory left the declared box at x = %s"
                          % ([round(x, 6) for x in state[:4]],))


def _rk4(rhs: Callable[[List[float]], List[float]], state: List[float],
         h: float) -> List[float]:
    # each component in the order of the numpy form s + 0.5 * h * k1 and
    # s + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), so the trajectory has its bits;
    # one rhs call per stage, which the benchmark's tracer counts here (a
    # step fused into one compiled function was measured no faster)
    s0, s1, s2, s3, s4, s5, s6 = state
    half = 0.5 * h
    a0, a1, a2, a3, a4, a5, a6 = rhs(state)
    b0, b1, b2, b3, b4, b5, b6 = rhs([
        s0 + half * a0, s1 + half * a1, s2 + half * a2, s3 + half * a3,
        s4 + half * a4, s5 + half * a5, s6 + half * a6])
    c0, c1, c2, c3, c4, c5, c6 = rhs([
        s0 + half * b0, s1 + half * b1, s2 + half * b2, s3 + half * b3,
        s4 + half * b4, s5 + half * b5, s6 + half * b6])
    d0, d1, d2, d3, d4, d5, d6 = rhs([
        s0 + h * c0, s1 + h * c1, s2 + h * c2, s3 + h * c3,
        s4 + h * c4, s5 + h * c5, s6 + h * c6])
    sixth = h / 6.0
    return [s0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            s1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            s2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            s3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            s4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
            s5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
            s6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)]


def _blockwise(block: Callable[[np.ndarray], np.ndarray],
               states: np.ndarray, fields) -> np.ndarray:
    """Per-sample residuals, NaN at both ends: block(window) gives the
    residuals of a window's interior samples, for windows of at most
    max(BATCH_ROWS, BATCH_CELLS // the DAG size of the fields block
    evaluates) interior samples plus one neighbour on each side, in
    order, so the first sample to fail is in the first block that fails.
    """
    rows = max(BATCH_ROWS, BATCH_CELLS // dag_size(fields))
    n = len(states)
    out = np.full(n, np.nan)
    for lo in range(1, n - 1, rows):
        hi = min(lo + rows, n - 1)
        out[lo:hi] = block(states[lo - 1:hi + 1])
    return out


def _galilei_residuals(phase: GalileiPhase, states: np.ndarray,
                       h: float) -> np.ndarray:
    fields = [phase.gamma(i) for i in range(1, 4)]

    def block(s: np.ndarray) -> np.ndarray:
        inner = s[1:-1]
        force = np.stack(field_values(fields, inner), axis=1)
        vdot = (s[2:, 4:7] - s[:-2, 4:7]) / (2.0 * h)
        xdot = (s[2:, 1:4] - s[:-2, 1:4]) / (2.0 * h)
        return np.maximum(np.max(np.abs(vdot - force), axis=1),
                          np.max(np.abs(xdot - inner[:, 4:7]), axis=1))

    return _blockwise(block, states, fields)


def _einstein_residuals(phase: EinsteinPhase, states: np.ndarray,
                        h: float) -> np.ndarray:
    def block(s: np.ndarray) -> np.ndarray:
        xs = s[:, :4]
        xdot = (xs[2:] - xs[:-2]) / (2.0 * h)
        xddot = (xs[2:] - 2.0 * xs[1:-1] + xs[:-2]) / h ** 2
        return np.max(np.abs(phase.law_residual(xs[1:-1], xdot, xddot)),
                      axis=1)

    # the fields law_residual evaluates: the radicand, and the pace and
    # the force of the dynamical vector
    comps = phase.dynamical_vector().comps
    fields = [phase.radicand(), comps[0], *comps[4:]]
    return _blockwise(block, states, fields)


def integrate_orbit(model: Model, x0, v0, duration: float,
                    step: float = 1e-3) -> OrbitResult:
    """Integrate the dynamical flow from initial position x0, velocity v0.

    The phase structure and the law residual are those of `model.kind`.
    Raises ValueError for initial data that `initial_state` refuses and
    for a step count `step_count` refuses; BoxExit when the trajectory
    leaves the declared box or reaches a non-finite state and, for
    Einstein models, LightconeViolation when the velocity stops being
    timelike.
    """
    state = initial_state(model, x0, v0)
    nsteps = step_count(duration, step)

    lo = [v - BOX_SLACK for v in model.box_lo.tolist()]
    hi = [v + BOX_SLACK for v in model.box_hi.tolist()]

    galilei = model.kind == "galilei"
    phase = (GalileiPhase if galilei else EinsteinPhase)(model)
    rhs = phase.dynamical_fn()
    # the states one after another, as raw doubles: 8 bytes a float
    flat = array.array("d", state)
    lo0, lo1, lo2, lo3 = lo
    hi0, hi1, hi2, hi3 = hi
    inf = math.inf
    for _ in range(nsteps):
        state = _rk4(rhs, state, step)
        s0, s1, s2, s3, s4, s5, s6 = state
        # false for a NaN too; then _check_box raises its message
        if not (lo0 <= s0 <= hi0 and lo1 <= s1 <= hi1
                and lo2 <= s2 <= hi2 and lo3 <= s3 <= hi3
                and -inf < s4 < inf and -inf < s5 < inf
                and -inf < s6 < inf):
            _check_box(state, lo, hi)
        flat.extend(state)
    states = np.frombuffer(flat).reshape(nsteps + 1, 7)
    times = step * np.arange(nsteps + 1)

    if galilei:
        resid = _galilei_residuals(phase, states, step)
    else:
        resid = _einstein_residuals(phase, states, step)
    return OrbitResult(times, states, resid)
