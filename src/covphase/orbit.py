"""Orbit integration for both frameworks.

The dynamical vector field of a phase structure is an ordinary ODE on
the 7-dimensional phase chart (four spacetime coordinates plus three
observed velocities).  This module integrates it with a fixed-step
classical Runge-Kutta scheme and reports, alongside the trajectory, a
per-step residual of the second-order law of motion obtained by central
differencing the stored samples.  The residual is the product's own
certificate: it measures how well the returned points satisfy the law,
independently of how they were produced.

The step runs on lists of 7 Python floats, and the right-hand side reads
the dynamical fields through one function compiled by
`modelspec.compile_fields` once per orbit.  The residual evaluates the
fields over the interior samples, BATCH_ROWS samples to a `Batch`, and
reduces with whole array operations.  Both return the floats of
`Field.value` at each point, which runs the same compiled code; where a
sample fails, the first failing sample raises what `Field.value` raises
there.

Galilei trajectories are parametrized by the absolute time x^0, so the
first state component advances linearly.  Einstein trajectories are
parametrized by proper time and the pace of x^0 is c alpha0.
"""

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .modelspec import Model
from .galilei import GalileiPhase
from .smooth import BOX_SLACK, field_values
from .einstein import EinsteinPhase


# the most RK4 steps one orbit may take; more is refused before the
# trajectory is allocated
MAX_ORBIT_STEPS = 1_000_000

# samples per law-residual batch: a batch holds an array over its rows for
# every node of the fields' DAG, so a whole trajectory at once would raise
# the peak memory by megabytes
BATCH_ROWS = 256


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
    finite, for fewer than 2 steps (the law-of-motion residual needs an
    interior sample) and for more than MAX_ORBIT_STEPS.
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
    return nsteps


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
    # s + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), so the trajectory has its bits
    half = 0.5 * h
    k1 = rhs(state)
    k2 = rhs([s + half * k for s, k in zip(state, k1)])
    k3 = rhs([s + half * k for s, k in zip(state, k2)])
    k4 = rhs([s + h * k for s, k in zip(state, k3)])
    sixth = h / 6.0
    return [s + sixth * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _galilei_rhs(phase: GalileiPhase) -> Callable[[List[float]], List[float]]:
    gammas = phase.gamma_fn()

    def rhs(state: List[float]) -> List[float]:
        return [1.0, state[4], state[5], state[6], *gammas(state)]

    return rhs


def _blockwise(block: Callable[[np.ndarray], np.ndarray],
               states: np.ndarray) -> np.ndarray:
    """Per-sample residuals, NaN at both ends: block(window) gives the
    residuals of a window's interior samples, for windows of at most
    BATCH_ROWS interior samples plus one neighbour on each side, in
    order, so the first sample to fail is in the first block that fails.
    """
    n = len(states)
    out = np.full(n, np.nan)
    for lo in range(1, n - 1, BATCH_ROWS):
        hi = min(lo + BATCH_ROWS, n - 1)
        out[lo:hi] = block(states[lo - 1:hi + 1])
    return out


def _galilei_residuals(phase: GalileiPhase, states: np.ndarray,
                       h: float) -> np.ndarray:
    fields = [phase.gamma(i) for i in range(1, 4)]

    def block(s: np.ndarray) -> np.ndarray:
        inner = s[1:-1]
        try:
            force = np.stack(field_values(fields, inner), axis=1)
        except (ValueError, ArithmeticError):
            # the batch raises the first failing row of the first field
            # that fails; the point function raises at the first failing
            # sample
            gammas = phase.gamma_fn()
            for q in inner.tolist():
                gammas(q)
            raise
        vdot = (s[2:, 4:7] - s[:-2, 4:7]) / (2.0 * h)
        xdot = (s[2:, 1:4] - s[:-2, 1:4]) / (2.0 * h)
        return np.maximum(np.max(np.abs(vdot - force), axis=1),
                          np.max(np.abs(xdot - inner[:, 4:7]), axis=1))

    return _blockwise(block, states)


def _einstein_residuals(phase: EinsteinPhase, states: np.ndarray,
                        h: float) -> np.ndarray:
    def block(s: np.ndarray) -> np.ndarray:
        xs = s[:, :4]
        xdot = (xs[2:] - xs[:-2]) / (2.0 * h)
        xddot = (xs[2:] - 2.0 * xs[1:-1] + xs[:-2]) / h ** 2
        return np.max(np.abs(phase.law_residual(xs[1:-1], xdot, xddot)),
                      axis=1)

    return _blockwise(block, states)


def integrate_orbit(model: Model, framework: str, x0, v0,
                    duration: float, step: float = 1e-3) -> OrbitResult:
    """Integrate the dynamical flow from initial position x0, velocity v0.

    framework is "galilei" or "einstein" (or their initials) and must
    match the model kind.  Raises BoxExit when the trajectory leaves the
    declared box or reaches a non-finite state and, for Einstein models,
    LightconeViolation when the velocity stops being timelike; raises
    ValueError for a step count `step_count` refuses.
    """
    fw = {"g": "galilei", "e": "einstein"}.get(framework, framework)
    if fw != model.kind:
        raise ValueError("framework %r does not match model kind %r"
                         % (framework, model.kind))
    nsteps = step_count(duration, step)

    state = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    if state.shape != (7,):
        raise ValueError("need 4 position and 3 velocity components")
    state = state.tolist()
    # widened by the slack `smooth.BoxedField` allows the model's fields
    lo = [v - BOX_SLACK for v in model.box_lo.tolist()]
    hi = [v + BOX_SLACK for v in model.box_hi.tolist()]
    _check_box(state, lo, hi)

    if fw == "galilei":
        phase = GalileiPhase(model)
        rhs = _galilei_rhs(phase)
    else:
        phase = EinsteinPhase(model)
        phase.require_timelike(state)
        rhs = phase.orbit_rhs

    states = np.empty((nsteps + 1, 7))
    states[0] = state
    for k in range(nsteps):
        state = _rk4(rhs, state, step)
        _check_box(state, lo, hi)
        states[k + 1] = state
    times = step * np.arange(nsteps + 1)

    if fw == "galilei":
        resid = _galilei_residuals(phase, states, step)
    else:
        resid = _einstein_residuals(phase, states, step)
    return OrbitResult(times, states, resid)
