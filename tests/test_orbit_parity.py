"""Parity fence for the orbit integrator.

`integrate_orbit` steps lists of floats and reduces each law residual over
the whole trajectory in one batch.  The reference functions below are the
numpy step and the per-sample residual loops it replaced; the trajectory,
its times and its residuals must equal theirs bit for bit, and the first
failure must raise the same exception with the same message; an Einstein
field's error adds the failing sample's phase point, as the Galilei
residual's does.  The one departure is a NaN state component, which
`integrate_orbit` never stores (see the last test).
"""

import functools
import math

import numpy as np
import pytest

from covphase import orbit
from covphase.einstein import EinsteinPhase, LightconeViolation
from covphase.galilei import GalileiPhase
from covphase.modelspec import (
    available_models, compile_fields, dag_size, load_builtin,
    parse_model_text,
)
from covphase.orbit import BOX_SLACK, BoxExit, integrate_orbit


# --- reference: the numpy step and the per-sample residual loops -----------

def ref_check_box(model, state):
    if not np.all(np.isfinite(state)):
        raise BoxExit("trajectory reached a non-finite state %s"
                      % ([float(v) for v in state],))
    x = state[:4]
    # with the slack integrate_orbit allows beyond each bound
    if np.any(x < model.box_lo - BOX_SLACK) \
            or np.any(x > model.box_hi + BOX_SLACK):
        raise BoxExit("trajectory left the declared box at x = %s"
                      % ([round(float(v), 6) for v in x],))


def ref_rk4(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.cache
def gamma_fn(phase):
    """gamma^1..3 compiled into one point function."""
    return compile_fields([phase.gamma(i) for i in range(1, 4)])


@functools.cache
def motion_fn(phase):
    """alpha0 and gamma-bar^1..3 compiled into one point function."""
    return compile_fields([phase.alpha0()]
                          + [phase.gamma_bar(i) for i in range(1, 4)])


def ref_galilei_rhs(phase):
    gammas = gamma_fn(phase)

    def rhs(state):
        out = np.empty(7)
        out[0] = 1.0
        out[1:4] = state[4:7]
        out[4:7] = gammas(state)
        return out

    return rhs


def ref_einstein_rhs(phase):
    def rhs(state):
        phase.require_timelike(state)
        alpha0, *gbar = motion_fn(phase)(state)
        pace = alpha0 * phase.c
        out = np.empty(7)
        out[0] = pace
        for i in range(1, 4):
            out[i] = pace * state[3 + i]
            out[3 + i] = pace * gbar[i - 1]
        return out

    return rhs


def ref_galilei_residuals(phase, states, h):
    gammas = gamma_fn(phase)
    n = len(states)
    out = np.full(n, np.nan)
    for k in range(1, n - 1):
        vdot = (states[k + 1, 4:7] - states[k - 1, 4:7]) / (2.0 * h)
        xdot = (states[k + 1, 1:4] - states[k - 1, 1:4]) / (2.0 * h)
        force = np.array(gammas(states[k]))
        out[k] = max(np.max(np.abs(vdot - force)),
                     np.max(np.abs(xdot - states[k, 4:7])))
    return out


def ref_law_residual(phase, x, xdot, xddot):
    vel = xdot[1:] / xdot[0]
    p = np.concatenate([x, vel])
    phase.require_timelike(p)
    alpha0, *gbar = motion_fn(phase)(p)
    pace = alpha0 * phase.c
    out = np.empty(4)
    out[0] = xdot[0] - pace
    for i in range(1, 4):
        accel = (xddot[i] * xdot[0] - xdot[i] * xddot[0]) / xdot[0] ** 2
        out[i] = accel - pace * gbar[i - 1]
    return out


def ref_einstein_residuals(phase, states, h):
    n = len(states)
    out = np.full(n, np.nan)
    xs = states[:, :4]
    for k in range(1, n - 1):
        xdot = (xs[k + 1] - xs[k - 1]) / (2.0 * h)
        xddot = (xs[k + 1] - 2.0 * xs[k] + xs[k - 1]) / h ** 2
        out[k] = np.max(np.abs(ref_law_residual(phase, xs[k], xdot, xddot)))
    return out


def ref_integrate(model, x0, v0, duration, step):
    nsteps = orbit.step_count(duration, step)
    state = np.concatenate([np.asarray(x0, float), np.asarray(v0, float)])
    ref_check_box(model, state)
    if model.kind == "galilei":
        phase = GalileiPhase(model)
        rhs = ref_galilei_rhs(phase)
    else:
        phase = EinsteinPhase(model)
        phase.require_timelike(state)
        rhs = ref_einstein_rhs(phase)
    states = np.empty((nsteps + 1, 7))
    states[0] = state
    for k in range(nsteps):
        state = ref_rk4(rhs, state, step)
        ref_check_box(model, state)
        states[k + 1] = state
    times = step * np.arange(nsteps + 1)
    if model.kind == "galilei":
        resid = ref_galilei_residuals(phase, states, step)
    else:
        resid = ref_einstein_residuals(phase, states, step)
    return times, states, resid


# --- the fence ---------------------------------------------------------------

X0 = [0.1, 0.2, -0.15, 0.05]
V0 = [0.3, -0.2, 0.25]
DURATION = 0.4
STEP = 2e-3


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", available_models())
def test_orbit_bit_identical_to_reference(name):
    model = load_builtin(name)
    assert model.kind in ("galilei", "einstein")
    times, states, resid = ref_integrate(model, X0, V0, DURATION, STEP)
    res = integrate_orbit(model, X0, V0, DURATION, STEP)
    assert _same_bits(res.times, times)
    assert _same_bits(res.states, states)
    assert _same_bits(res.law_residuals, resid)
    assert math.isfinite(res.max_law_residual)


@pytest.mark.parametrize("x0, v0", [
    ([0.0, 1.5, 0.0, 0.0], [1.0, 0.0, 0.0]),     # leaves the box
    ([0.0, 0.0, 0.0, 0.0], [1e308, 1e308, 0.0]),  # overflows to inf
])
def test_box_exit_same_message(x0, v0):
    model = load_builtin("flat-free")
    with pytest.raises(BoxExit) as want, np.errstate(over="ignore"):
        ref_integrate(model, x0, v0, 1.0, 1e-2)
    with pytest.raises(BoxExit) as got:
        integrate_orbit(model, x0, v0, 1.0, 1e-2)
    assert str(got.value) == str(want.value)


def _land_on(monkeypatch, state):
    """integrate_orbit on flat-free (box [-2, 2]^4), with an RK4 step
    that lands on state at the second of three steps: what it raises, or
    the states it stored."""
    steps = iter([[0.0] * 7, list(state), [0.0] * 7])
    monkeypatch.setattr(orbit, "_rk4", lambda rhs, s, h: next(steps))
    try:
        return integrate_orbit(load_builtin("flat-free"), [0.0] * 4,
                               [0.0] * 3, 0.03, 0.01).states
    except BoxExit as exc:
        return exc


def _check_box_text(state):
    """The text _check_box raises for state on flat-free's widened box."""
    lo, hi = [-2.0 - BOX_SLACK] * 4, [2.0 + BOX_SLACK] * 4
    with pytest.raises(BoxExit) as info:
        orbit._check_box(list(state), lo, hi)
    return str(info.value)


def _moved(k, v):
    state = [0.5, -0.25, 0.125, 0.0, 0.1, 0.2, 0.3]
    state[k] = v
    return state


EDGES = {"lo": -2.0 - BOX_SLACK, "hi": 2.0 + BOX_SLACK}
OUTWARD = {"lo": -math.inf, "hi": math.inf}


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("k", range(4))
def test_step_beyond_each_box_side_exits(monkeypatch, k, side):
    state = _moved(k, math.nextafter(EDGES[side], OUTWARD[side]))
    got = _land_on(monkeypatch, state)
    assert isinstance(got, BoxExit)
    assert str(got) == _check_box_text(state)
    assert "left the declared box" in str(got)


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("k", range(4))
def test_step_on_each_widened_box_edge_stays(monkeypatch, k, side):
    # exactly lo - BOX_SLACK (or hi + BOX_SLACK) is inside
    state = _moved(k, EDGES[side])
    got = _land_on(monkeypatch, state)
    assert isinstance(got, np.ndarray)
    assert got[2].tolist() == state


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(4, 7))
def test_step_to_a_non_finite_velocity_exits(monkeypatch, k, v):
    state = _moved(k, v)
    got = _land_on(monkeypatch, state)
    assert isinstance(got, BoxExit)
    assert str(got) == _check_box_text(state)
    assert "non-finite state" in str(got)


@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("k", range(4))
def test_initial_point_beyond_each_widened_box_side_is_a_value_error(k, side):
    # the initial point is tested against the box of every later step,
    # once, by orbit.initial_state: on the widened edge it is inside
    model = load_builtin("flat-free")
    state = _moved(k, EDGES[side])
    assert orbit.initial_state(model, state[:4], state[4:]) == state
    state[k] = math.nextafter(EDGES[side], OUTWARD[side])
    with pytest.raises(ValueError) as info:
        integrate_orbit(model, state[:4], state[4:], 0.03, 0.01)
    assert str(info.value) == "initial position lies outside the model box"


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(7))
def test_non_finite_initial_data_is_a_value_error(k, v):
    # an infinite position is outside the box too: the finite test is first
    state = _moved(k, v)
    with pytest.raises(ValueError) as info:
        integrate_orbit(load_builtin("flat-free"), state[:4], state[4:],
                        0.03, 0.01)
    assert str(info.value) == "initial position and velocity must be finite"


@pytest.mark.parametrize("x", [math.nan, 5.0])
def test_non_finite_state_message_comes_first(monkeypatch, x):
    # a position outside the box (or NaN) and an infinite velocity: the
    # non-finite message wins, as in _check_box
    state = _moved(6, math.inf)
    state[1] = x
    got = _land_on(monkeypatch, state)
    assert str(got) == _check_box_text(state)
    assert "non-finite state" in str(got)


def _planted(name, bad):
    """A uniform-e trajectory whose sample rows `bad` are moved so the
    central difference around them is not timelike."""
    model = load_builtin(name)
    res = integrate_orbit(model, [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                          0.1, 1e-2)
    states = res.states.copy()
    for k in bad:
        # x^1 runs ahead of x^0 across sample k
        states[k + 1, 1] += 10.0 * (states[k + 1, 0] - states[k - 1, 0])
    return EinsteinPhase(model), states


@pytest.mark.parametrize("bad", [(4,), (6, 3), (1,), (8,)])
def test_planted_lightcone_violation_first_sample(bad):
    phase, states = _planted("uniform-e", bad)
    with pytest.raises(LightconeViolation) as want:
        ref_einstein_residuals(phase, states, 1e-2)
    with pytest.raises(LightconeViolation) as got:
        orbit._einstein_residuals(phase, states, 1e-2)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_planted_rows_alone_agree_before_the_violation():
    # the same rows, cut before the planted sample: no error, same bits
    phase, states = _planted("uniform-e", (6,))
    head = states[:6]
    assert _same_bits(orbit._einstein_residuals(phase, head, 1e-2),
                      ref_einstein_residuals(phase, head, 1e-2))


# alpha0 and the radicand read no potential, but gamma-bar reads
# d/dx1 sqrt(x1), which fails where x1 <= 0
ROOTS_EINSTEIN = """
[model]
kind = einstein
name = roots-e

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M
c = 1.0 T^-1 L

[box]
lo = -9, -9, -9, -9
hi = 9, 9, 9, 9

[metric]
g00 = -1
g11 = 1
g22 = 1
g33 = 1

[potential]
A0 = sqrt(x1)
"""


def _sample_point(states, h, k):
    """The phase point of the Einstein residual at sample k."""
    xs = states[:, :4]
    xdot = (xs[k + 1] - xs[k - 1]) / (2.0 * h)
    return np.concatenate([xs[k], xdot[1:] / xdot[0]]).tolist()


def _field_error_text(exc, states, h, k):
    """The text the batched Einstein residual raises where the point loop
    raised exc at sample k: a LightconeViolation keeps its bare text, and
    a field's error names the sample's phase point, as the Galilei
    residual's does."""
    if type(exc) is LightconeViolation:
        return str(exc)
    return "%s at point %s" % (exc, _sample_point(states, h, k))


@pytest.mark.parametrize("violation", [None, 2, 5, 7])
def test_einstein_first_failure_of_either_kind(violation):
    # x1 falls through 0 between samples 4 and 5 at speed 1/4, so the
    # point loop fails on gamma-bar at sample 5 unless a planted
    # non-timelike sample comes first, or at the same sample, where the
    # timelike check runs first
    phase = EinsteinPhase(parse_model_text(ROOTS_EINSTEIN))
    states = np.zeros((10, 7))
    states[:, 0] = np.arange(10.0)
    states[:, 1] = 0.25 * (4.5 - np.arange(10.0))
    if violation is not None:
        states[violation + 1, 2] += 3.0
    with pytest.raises((ValueError, ArithmeticError)) as want:
        ref_einstein_residuals(phase, states, 1.0)
    with pytest.raises((ValueError, ArithmeticError)) as got:
        orbit._einstein_residuals(phase, states, 1.0)
    assert type(got.value) is type(want.value)
    assert str(got.value) == _field_error_text(want.value, states, 1.0, 5)
    assert (type(want.value) is LightconeViolation) == (violation in (2, 5))


@pytest.mark.parametrize("row", [3, 5, 7])
def test_einstein_radicand_error_comes_first(row):
    # the radicand reads (x2 + 1)^(1/2), which fails from sample `row` on,
    # and gamma-bar fails from sample 5 on, as above: the lower sample
    # raises, and at the same sample the radicand's error wins
    text = ROOTS_EINSTEIN.replace("g00 = -1",
                                  "g00 = -1 + 1e-9 * (x2 + 1)^(1/2)")
    phase = EinsteinPhase(parse_model_text(text))
    states = np.zeros((10, 7))
    states[:, 0] = np.arange(10.0)
    states[:, 1] = 0.25 * (4.5 - np.arange(10.0))
    states[:, 2] = -1.0 + 0.1 * (row - np.arange(10.0)) - 0.05
    with pytest.raises(ValueError) as want:
        ref_einstein_residuals(phase, states, 1.0)
    with pytest.raises(ValueError) as got:
        orbit._einstein_residuals(phase, states, 1.0)
    assert type(got.value) is type(want.value)
    if row <= 5:
        # require_timelike's error, which names the point already
        assert str(got.value) == str(want.value) == (
            "fractional power of non-positive base at point %s"
            % _sample_point(states, 1.0, row))
    else:
        assert str(got.value) == _field_error_text(want.value, states, 1.0,
                                                   5)
        assert str(got.value).startswith("sqrt of non-positive value")


# gamma^1 reads d/dx1 sqrt(x1), which fails where x1 <= 0, and gamma^2 reads
# d/dx2 sqrt(x2); a batch over gamma^1..3 meets gamma^1's failures first
ROOTS_MODEL = """
[model]
kind = galilei
name = roots

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M

[box]
lo = -2, -2, -2, -2
hi = 2, 2, 2, 2

[metric]
g11 = 1
g22 = 1
g33 = 1

[potential]
A0 = sqrt(x1) + sqrt(x2)
"""


@pytest.mark.parametrize("bad1, bad2", [(5, 2), (2, 5), (3, 3), (6, None)])
def test_galilei_residuals_first_error_matches_point_loop(bad1, bad2):
    # states no orbit yields: each interior sample of an orbit began an RK4
    # step, whose right-hand side evaluated gamma^1..3 there.  So the
    # residual has no point loop to fall back on: it raises the batch's
    # error, the point function's class and text at the first failing row
    # of gamma^1, the first field that fails, with the row's point
    phase = GalileiPhase(parse_model_text(ROOTS_MODEL))
    states = np.full((9, 7), 0.5)
    states[:, 0] = np.linspace(0.0, 0.08, 9)
    states[bad1, 1] = -0.5
    if bad2 is not None:
        states[bad2, 2] = -0.5
    with pytest.raises((ValueError, ArithmeticError)) as want:
        gamma_fn(phase)(states[bad1].tolist())
    with pytest.raises((ValueError, ArithmeticError)) as got:
        orbit._galilei_residuals(phase, states, 1e-2)
    assert type(got.value) is type(want.value)
    assert str(got.value) == "%s at point %s" % (want.value,
                                                 states[bad1].tolist())


def test_galilei_residuals_without_error_match_point_loop():
    phase = GalileiPhase(parse_model_text(ROOTS_MODEL))
    rng = np.random.default_rng(3)
    states = rng.uniform(0.2, 0.9, (12, 7))
    assert _same_bits(orbit._galilei_residuals(phase, states, 1e-2),
                      ref_galilei_residuals(phase, states, 1e-2))


def test_galilei_nan_velocity_is_a_nan_residual():
    # the one departure from the reference: the point loop's builtin
    # max(a, nan) returned a, so a NaN velocity at a sample of a force-free
    # model read as a pass there
    phase = GalileiPhase(load_builtin("flat-free"))
    t = np.linspace(0.0, 0.08, 9)
    states = np.zeros((9, 7))
    states[:, 0] = t
    states[:, 1] = 0.5 * t
    states[:, 4] = 0.5
    states[3, 4] = math.nan
    got = orbit._galilei_residuals(phase, states, 1e-2)
    want = ref_galilei_residuals(phase, states, 1e-2)
    assert math.isnan(got[3]) and not math.isnan(want[3])
    rows = [1, 2, 4, 5, 6, 7]
    assert got[rows].tobytes() == want[rows].tobytes()


def _block_rows(monkeypatch):
    """The list of the interior samples of each law-residual block, in
    the order they run, from now on."""
    rows = []
    blockwise = orbit._blockwise

    def recorded(block, states, fields):
        def counted(window):
            rows.append(len(window) - 2)
            return block(window)
        return blockwise(counted, states, fields)

    monkeypatch.setattr(orbit, "_blockwise", recorded)
    return rows


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_residual_blocks_join_without_seams(monkeypatch, rows):
    # the residuals are batched some samples at a time; every block size
    # gives the reference's bits and its first failure.  With no cell
    # budget, a block takes exactly BATCH_ROWS samples
    monkeypatch.setattr(orbit, "BATCH_ROWS", rows)
    monkeypatch.setattr(orbit, "BATCH_CELLS", 0)
    sizes = _block_rows(monkeypatch)
    for name in ("curved-galilei", "curved-einstein"):
        model = load_builtin(name)
        times, states, resid = ref_integrate(model, X0, V0, DURATION, STEP)
        sizes.clear()
        res = integrate_orbit(model, X0, V0, DURATION, STEP)
        assert _same_bits(res.law_residuals, resid)
        full, rest = divmod(199, rows)  # 199 interior samples
        assert sizes == [rows] * full + [rest] * (rest > 0)
    phase, states = _planted("uniform-e", (8, 5))
    with pytest.raises(LightconeViolation):
        orbit._einstein_residuals(phase, states, 1e-2)
    phase = EinsteinPhase(parse_model_text(ROOTS_EINSTEIN))
    states = np.zeros((10, 7))
    states[:, 0] = np.arange(10.0)
    states[:, 1] = 0.25 * (4.5 - np.arange(10.0))
    states[8, 2] += 3.0
    with pytest.raises((ValueError, ArithmeticError)) as want:
        ref_einstein_residuals(phase, states, 1.0)
    with pytest.raises((ValueError, ArithmeticError)) as got:
        orbit._einstein_residuals(phase, states, 1.0)
    assert str(got.value) == _field_error_text(want.value, states, 1.0, 5)


def test_residual_blocks_are_sized_by_the_dag(monkeypatch):
    # a block takes BATCH_CELLS // (the DAG size of its fields) samples,
    # and at least BATCH_ROWS: uniform-b's force has 19 nodes, so the
    # README cyclotron's 3,141 interior samples are one block, while
    # curved-einstein's residual fields have 296 nodes and keep 256
    sizes = _block_rows(monkeypatch)
    phase = GalileiPhase(load_builtin("uniform-b"))
    assert dag_size([phase.gamma(i) for i in range(1, 4)]) == 19
    integrate_orbit(load_builtin("uniform-b"), [0.0] * 4, [0.5, 0.0, 0.0],
                    3.1416, 1e-3)
    assert sizes == [3141]
    phase = EinsteinPhase(load_builtin("curved-einstein"))
    comps = phase.dynamical_vector().comps
    assert dag_size([phase.radicand(), comps[0], *comps[4:]]) == 296
    sizes.clear()
    integrate_orbit(load_builtin("curved-einstein"), X0, V0, 0.6, 1e-3)
    assert sizes == [256, 256, 87]


def _count_rk4(monkeypatch):
    """Wrap orbit._rk4 and its rhs the way the benchmark's tracer does
    (perfbench/tracing.py, `Tracer._counted_rk4`), counting steps and RHS
    calls."""
    counts = {"steps": 0, "rhs": 0}
    rk4 = orbit._rk4

    def step(rhs, state, h):
        def counted_rhs(s):
            counts["rhs"] += 1
            return rhs(s)
        counts["steps"] += 1
        return rk4(counted_rhs, state, h)

    monkeypatch.setattr(orbit, "_rk4", step)
    return counts


# orbits that fail inside the step loop, after their first step: x1 falls
# through 0 where the fields read sqrt(x1), or a step too large for the
# field carries the velocity past the lightcone at an RK4 stage
STEP_FAILURES = {
    "galilei-roots": (lambda: parse_model_text(ROOTS_MODEL),
                      [0.0, 0.05, 0.5, 0.5], [-1.0, 0.0, 0.0], 0.2, 1e-2,
                      ValueError),
    "einstein-roots": (lambda: parse_model_text(ROOTS_EINSTEIN),
                       [0.0, 0.2, 0.0, 0.0], [-0.9, 0.0, 0.0], 0.4, 1e-2,
                       ValueError),
    "einstein-lightcone": (lambda: load_builtin("uniform-e"),
                           [-3.5, 0.0, 0.0, 0.0], [0.6, 0.0, 0.0], 6.0, 1.5,
                           LightconeViolation),
}


@pytest.mark.parametrize("case", sorted(STEP_FAILURES))
def test_step_loop_failure_same_error(monkeypatch, case):
    load, x0, v0, duration, step, cls = STEP_FAILURES[case]
    model = load()
    with pytest.raises((ValueError, ArithmeticError)) as want:
        ref_integrate(model, x0, v0, duration, step)
    counts = _count_rk4(monkeypatch)
    with pytest.raises((ValueError, ArithmeticError)) as got:
        integrate_orbit(model, x0, v0, duration, step)
    assert type(want.value) is cls
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    # the failure comes in a later step than the first
    assert 1 < counts["steps"] < orbit.step_count(duration, step)


@pytest.mark.parametrize("name", ["curved-galilei", "curved-einstein"])
def test_rk4_hook_sees_every_step_and_rhs_call(monkeypatch, name):
    # the benchmark counts steps and RHS calls through this hook, so each
    # step is one _rk4 call that calls its rhs 4 times
    model = load_builtin(name)
    plain = integrate_orbit(model, X0, V0, DURATION, STEP)
    counts = _count_rk4(monkeypatch)
    res = integrate_orbit(model, X0, V0, DURATION, STEP)
    nsteps = len(res.states) - 1
    assert nsteps == 200
    assert counts == {"steps": nsteps, "rhs": 4 * nsteps}
    assert _same_bits(res.states, plain.states)


def _outcome(rhs, p):
    """The bytes of rhs(p), or the class and text of what it raises."""
    try:
        return np.asarray(rhs(p), dtype=float).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", available_models())
def test_dynamical_fn_matches_reference_rhs(name):
    # the compiled dynamical field against the right-hand side the orbit
    # stepped before: [1, v, gamma] for Galilei, and c alpha0 [1, v,
    # gamma-bar] after the timelike check for Einstein
    model = load_builtin(name)
    if model.kind == "galilei":
        phase = GalileiPhase(model)
        ref = ref_galilei_rhs(phase)
    else:
        phase = EinsteinPhase(model)
        ref = ref_einstein_rhs(phase)
    rhs = phase.dynamical_fn()
    rng = np.random.default_rng(1607)
    n = 500
    points = np.concatenate([rng.uniform(model.box_lo, model.box_hi, (n, 4)),
                             rng.uniform(-0.7, 0.7, (n, 3))], axis=1)
    raised = 0
    for p in points:
        want = _outcome(ref, p)
        assert _outcome(rhs, p.tolist()) == want
        raised += isinstance(want, tuple)
    if model.kind == "galilei":
        assert raised == 0
        return
    # some velocities of up to 0.7 c a component are not timelike
    assert 0 < raised < n
    # a radicand that is positive, zero or NaN fails the check before
    # alpha0 takes the square root of its absolute value
    for v in ([5.0, 0.0, 0.0], [math.nan, 0.0, 0.0]):
        p = [0.0, 0.0, 0.0, 0.0] + v
        with pytest.raises(LightconeViolation) as got:
            rhs(p)
        assert _outcome(ref, np.array(p)) == (LightconeViolation,
                                               str(got.value))
    if name == "minkowski":
        assert phase.radicand().value([0.0] * 4 + [1.0, 0.0, 0.0]) == 0.0
        with pytest.raises(LightconeViolation):
            rhs([0.0] * 4 + [1.0, 0.0, 0.0])
