"""Workloads of the covphase benchmark and the correctness gate of each op.

An operation ("op") is one command line exactly as a user types it after
`covphase`, run in-process through `covphase.cli.main`.  Every op carries
its own gate: a function from (exit code, captured stdout) to an error
message, or None when the output is correct.

The inputs are a pure function of the seed: the seed feeds every
`verify --seed`, and the initial velocity of each orbit that has a closed
form to check it against.  See README.md for why each workload exists.
"""

import json
import math
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

CURVED_MODELS = ("curved-galilei", "curved-gravity", "curved-einstein",
                 "schwarzschild-like")
FLAT_MODELS = ("flat-free", "uniform-b", "minkowski", "uniform-e")
MODEL_KINDS = {
    "flat-free": "galilei", "uniform-b": "galilei",
    "curved-gravity": "galilei", "curved-galilei": "galilei",
    "minkowski": "einstein", "uniform-e": "einstein",
    "schwarzschild-like": "einstein", "curved-einstein": "einstein",
}
KIND_SUITES = {
    "galilei": ("galilei-core", "galilei-brackets", "galilei-quantum"),
    "einstein": ("einstein-identities", "einstein-brackets",
                 "einstein-quantum"),
}
# Pinned so that a suite which silently loses a check fails the gate
# instead of reading as a speed-up.  The `orbits` suite is not run: it
# integrates the same oracle orbits as the orbit workload and would double
# that workload's pass time.
SUITE_CHECKS = {
    "galilei-core": 9, "galilei-brackets": 4, "galilei-quantum": 2,
    "einstein-identities": 9, "einstein-brackets": 6, "einstein-quantum": 2,
    "section1-general": 5,
}
PASS_STRIDE = 1000
CURVED_POINTS = 1
FLAT_POINTS = 30

# orbit oracles compare against values printed with 8 decimals
ORBIT_STATE_TOL = 1e-6
ORBIT_LAW_TOL = 1e-5

Gate = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    name: str
    argv: Tuple[str, ...]
    gate: Gate


@dataclass(frozen=True)
class Workload:
    name: str
    models: Tuple[str, ...]   # loaded and validated once during set-up
    ops: Tuple[Op, ...]


# ---------------------------------------------------------------------------
# verify ops

def _verify_gate(model: str, suite: str, points: int, seed: int) -> Gate:
    def gate(code: int, out: str) -> Optional[str]:
        if code != 0:
            return "exit code %d" % code
        try:
            rep = json.loads(out)
        except ValueError:
            return "stdout is not one JSON report"
        want = {"model": model, "suite": suite, "points": points,
                "seed": seed}
        for key, val in want.items():
            if rep.get(key) != val:
                return "report %s is %r, expected %r" % (key, rep.get(key),
                                                         val)
        checks = rep.get("checks", [])
        if len(checks) != SUITE_CHECKS[suite]:
            return "%d checks reported, expected %d" % (
                len(checks), SUITE_CHECKS[suite])
        for rec in checks:
            resid, tol = rec["max_residual"], rec["tolerance"]
            # witnesses report required/observed and may be inf when the
            # observed quantity vanishes; every other residual is finite
            witness = "required/observed" in rec["law"]
            if not witness and not math.isfinite(resid):
                return "check %s residual %r is not finite" % (rec["name"],
                                                               resid)
            if not (rec["pass"] and resid <= tol):
                return "check %s failed: %r > %r" % (rec["name"], resid, tol)
        if rep.get("all_pass") is not True:
            return "report all_pass is not true"
        return None
    return gate


def verify_op(model: str, suite: str, points: int, seed: int,
              extra: Tuple[str, ...] = ()) -> Op:
    argv = ("verify", "--model", model, "--suite", suite,
            "--points", str(points), "--seed", str(seed),
            "--report", "json") + tuple(extra)
    return Op("verify %s/%s" % (model, suite), argv,
              _verify_gate(model, suite, points, seed))


# ---------------------------------------------------------------------------
# orbit ops

_FLOAT_LIST = re.compile(r"\[([^\]]*)\]")


def parse_orbit_output(out: str) -> dict:
    """Fields of the summary `covphase orbit` prints; raises ValueError."""
    fields = {}
    for line in out.splitlines():
        key, sep, rest = line.partition(":")
        if not sep:
            continue
        if key == "steps":
            steps, _, span = rest.partition("parameter span:")
            fields["steps"] = int(steps)
            fields["span"] = float(span)
        elif key in ("final position", "final velocity"):
            m = _FLOAT_LIST.search(rest)
            if m is None:
                raise ValueError("no vector on %r" % line)
            vec = np.array([float(v) for v in m.group(1).split()])
            if vec.shape != ((4,) if key == "final position" else (3,)):
                raise ValueError("malformed %s: %r" % (key, line))
            fields[key] = vec
        elif key == "max law-of-motion residual":
            fields["law"] = float(rest)
    missing = {"steps", "span", "final position", "final velocity",
               "law"} - set(fields)
    if missing:
        raise ValueError("orbit summary lacks %s" % sorted(missing))
    return fields


def _orbit_gate(steps: int, oracle: Callable[[float], np.ndarray]) -> Gate:
    """oracle(parameter) -> the expected 7-state (position, velocity)."""
    def gate(code: int, out: str) -> Optional[str]:
        if code != 0:
            return "exit code %d" % code
        try:
            got = parse_orbit_output(out)
        except ValueError as exc:
            return str(exc)
        if got["steps"] != steps:
            return "%d steps, expected %d" % (got["steps"], steps)
        if not (math.isfinite(got["law"]) and got["law"] <= ORBIT_LAW_TOL):
            return "law-of-motion residual %r" % got["law"]
        state = np.concatenate([got["final position"],
                                got["final velocity"]])
        err = np.max(np.abs(state - oracle(got["span"])))
        if not err <= ORBIT_STATE_TOL:
            return "final state misses its oracle by %.3e" % err
        return None
    return gate


def _orbit_argv(model, fw, x0, v, duration, step) -> Tuple[str, ...]:
    return (("orbit", "--model", model, "--framework", fw, "--x0")
            + tuple("%.6f" % c for c in x0) + ("--v",)
            + tuple("%.6f" % c for c in v)
            + ("--duration", repr(duration), "--step", repr(step)))


def cyclotron_op(rng: np.random.Generator) -> Op:
    """README uniform-b orbit with a seeded initial velocity.

    uniform-b has m = q = 1 and B = 2 along x3, so the velocity turns
    clockwise at omega = qB/m on a circle of radius m v/(qB).
    """
    speed = rng.uniform(0.4, 0.6)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    v = np.round([speed * math.cos(angle), speed * math.sin(angle), 0.0], 6)
    omega, duration, step = 2.0, 3.1416, 0.001

    def oracle(t):
        a, b = v[0], v[1]
        c, s = math.cos(omega * t), math.sin(omega * t)
        return np.array([t, (a * s + b * (1.0 - c)) / omega,
                         (a * (c - 1.0) + b * s) / omega, 0.0,
                         a * c + b * s, -a * s + b * c, 0.0])
    return Op("orbit uniform-b cyclotron",
              _orbit_argv("uniform-b", "g", (0, 0, 0, 0), v, duration, step),
              _orbit_gate(round(duration / step), oracle))


def hyperbola_op(rng: np.random.Generator, duration: float = 2.0) -> Op:
    """README uniform-e orbit with a seeded velocity along the field.

    uniform-e has m = q = c = 1 and E = 0.5 along x1; with proper time s
    and initial rapidity phi = atanh(v) the worldline is
    x0 = (sinh(E s + phi) - sinh phi)/E, x1 = (cosh(E s + phi) - cosh phi)/E.
    """
    vel = round(rng.uniform(-0.3, 0.3), 6)
    e_field, step = 0.5, 0.001
    phi = math.atanh(vel)

    def oracle(s):
        r = e_field * s + phi
        return np.array([(math.sinh(r) - math.sinh(phi)) / e_field,
                         (math.cosh(r) - math.cosh(phi)) / e_field, 0.0, 0.0,
                         math.tanh(r), 0.0, 0.0])
    return Op("orbit uniform-e hyperbola",
              _orbit_argv("uniform-e", "e", (0, 0, 0, 0), (vel, 0, 0),
                          duration, step),
              _orbit_gate(round(duration / step), oracle))


# curved-galilei has no closed form; its final state is pinned to the value
# this RK4 integration gives, which the state tolerance leaves room around
CURVED_ORBIT_FINAL = np.array([-0.6, 0.06033938, 0.02899252, -0.00090259,
                               0.20205181, 0.09387421, -0.0060251])


def curved_orbit_op() -> Op:
    duration, step = 0.3, 0.001
    return Op("orbit curved-galilei",
              _orbit_argv("curved-galilei", "g", (-0.9, 0, 0, 0),
                          (0.2, 0.1, 0.0), duration, step),
              _orbit_gate(round(duration / step),
                          lambda t: CURVED_ORBIT_FINAL))


# ---------------------------------------------------------------------------
# workloads

def _suites_on(models, points: int, seed: int) -> List[Op]:
    return [verify_op(m, s, points, seed)
            for m in models for s in KIND_SUITES[MODEL_KINDS[m]]]


def build(name: str, seed: int, pass_index: int = 0) -> Workload:
    """The named workload for pass `pass_index` of a run with `seed`;
    raises KeyError for a bad name.  Each pass has its own verify seed,
    seed * PASS_STRIDE + pass_index, and its own orbit velocities."""
    seed = seed * PASS_STRIDE + pass_index
    if name == "verify-curved":
        return Workload(name, CURVED_MODELS,
                        tuple(_suites_on(CURVED_MODELS, CURVED_POINTS, seed)))
    if name == "verify-flat":
        ops = _suites_on(FLAT_MODELS, FLAT_POINTS, seed)
        ops.append(verify_op("flat-free", "section1-general", FLAT_POINTS,
                             seed))
        return Workload(name, FLAT_MODELS, tuple(ops))
    if name == "orbit":
        rng = np.random.default_rng([seed, 0x0b17])
        ops = (cyclotron_op(rng), hyperbola_op(rng), curved_orbit_op())
        return Workload(name, ("uniform-b", "uniform-e", "curved-galilei"),
                        ops)
    raise KeyError(name)


WORKLOADS = ("verify-curved", "verify-flat", "orbit")
