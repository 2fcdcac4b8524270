"""Orbit integration for both frameworks.

The dynamical vector field of a phase structure is an ordinary ODE on
the 7-dimensional phase chart (four spacetime coordinates plus three
observed velocities).  This module integrates it with a fixed-step
classical Runge-Kutta scheme and reports, alongside the trajectory, a
per-step residual of the second-order law of motion obtained by central
differencing the stored samples.  The residual is the product's own
certificate: it measures how well the returned points satisfy the law,
independently of how they were produced.  Both the right-hand side and
the residual read the dynamical fields through one function compiled by
`modelspec.compile_fields` once per orbit, which returns the same floats
as evaluating each field with `Field.value`.

Galilei trajectories are parametrized by the absolute time x^0, so the
first state component advances linearly.  Einstein trajectories are
parametrized by proper time and the pace of x^0 is c alpha0.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modelspec import Model
from .galilei import GalileiPhase
from .einstein import EinsteinPhase


# the most RK4 steps one orbit may take; more is refused before the
# trajectory is allocated
MAX_ORBIT_STEPS = 1_000_000


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


def _check_box(model: Model, state: np.ndarray) -> None:
    if not np.all(np.isfinite(state)):
        raise BoxExit("trajectory reached a non-finite state %s"
                      % ([float(v) for v in state],))
    x = state[:4]
    if np.any(x < model.box_lo) or np.any(x > model.box_hi):
        raise BoxExit("trajectory left the declared box at x = %s"
                      % ([round(float(v), 6) for v in x],))


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], state: np.ndarray,
         h: float) -> np.ndarray:
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _galilei_rhs(phase: GalileiPhase) -> Callable[[np.ndarray], np.ndarray]:
    gammas = phase.gamma_fn()

    def rhs(state: np.ndarray) -> np.ndarray:
        out = np.empty(7)
        out[0] = 1.0
        out[1:4] = state[4:7]
        out[4:7] = gammas(state)
        return out

    return rhs


def _galilei_residuals(phase: GalileiPhase, states: np.ndarray,
                       h: float) -> np.ndarray:
    gammas = phase.gamma_fn()
    n = len(states)
    out = np.full(n, np.nan)
    for k in range(1, n - 1):
        vdot = (states[k + 1, 4:7] - states[k - 1, 4:7]) / (2.0 * h)
        xdot = (states[k + 1, 1:4] - states[k - 1, 1:4]) / (2.0 * h)
        force = np.array(gammas(states[k]))
        out[k] = max(np.max(np.abs(vdot - force)),
                     np.max(np.abs(xdot - states[k, 4:7])))
    return out


def _einstein_residuals(phase: EinsteinPhase, states: np.ndarray,
                        h: float) -> np.ndarray:
    n = len(states)
    out = np.full(n, np.nan)
    xs = states[:, :4]
    for k in range(1, n - 1):
        xdot = (xs[k + 1] - xs[k - 1]) / (2.0 * h)
        xddot = (xs[k + 1] - 2.0 * xs[k] + xs[k - 1]) / h ** 2
        out[k] = np.max(np.abs(phase.law_residual(xs[k], xdot, xddot)))
    return out


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
    _check_box(model, state)

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
        _check_box(model, state)
        states[k + 1] = state
    times = step * np.arange(nsteps + 1)

    if fw == "galilei":
        resid = _galilei_residuals(phase, states, step)
    else:
        resid = _einstein_residuals(phase, states, step)
    return OrbitResult(times, states, resid)
