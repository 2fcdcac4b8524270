"""Named verification suites over the phase-structure modules.

Every structural law the package claims is registered here as a named
check: a law string, a default tolerance, and a runner that returns the
worst residual observed at the sampled phase points.  Checks are grouped
into fixed suites (galilei-core, galilei-brackets, galilei-quantum,
einstein-identities, einstein-brackets, einstein-quantum,
section1-general, orbits).

Residual conventions.  For ordinary checks the runner returns a maximum
absolute residual and the check passes when it is at or below the
tolerance.  A few checks are witnesses, where some quantity must be
visibly NONZERO (a volume scalar, a deliberately broken identity).  For
those the runner returns required/observed, the tolerance is 1.0, and
the same pass rule applies; the law string says so.

Determinism.  All sampling comes from counter-based Philox generators
keyed on the user seed plus a per-check tag, so reports are reproducible
bit-for-bit regardless of check execution order.
"""

import gc
import math
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .modelspec import BinOp, ExprField, Model, Num, Var, ValidationError, \
    _FLOAT_ERRORS, _binop, _num, _var, constant, load_builtin, resolve_model
from .smooth import Batch, PForm, VectorField, contract, directional, \
    exterior_derivative, field_values, lie_bracket, total, wedge
from .smooth import worst as _worst
from .galilei import GalileiPhase, Observer, SpecialFunction
from .einstein import EinsteinPhase, ESpecialFunction
from . import quantum as qt
from . import orbit as orb
from .report import CheckRecord, SuiteReport


# Einstein sample points are drawn by rejection; a model whose radicand
# stays above the threshold on the sampled box fails after this many draws
# per requested point instead of looping forever.
MAX_DRAWS_PER_POINT = 200

# the most sample points one run may ask for; a larger request is a usage
# error, refused before anything is allocated
MAX_POINTS = 10_000


# the cycle collector's young-generation threshold (threshold0) while a
# suite runs.  Expression nodes, their partials and batches form no
# reference cycles and are freed by reference counting, so a collection
# during a run scans thousands of them and frees none.  CPython's default,
# 700, collected about 125 times a verify-curved benchmark pass; from
# 50,000 up, none ran inside a run on either verify workload.
_GC_THRESHOLD0 = 50_000


class UnknownSuiteError(ValueError):
    pass


class FrameworkMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sampling and shared context

def _poly(rng, nvars=4) -> ExprField:
    # numpy's uniform(-1, 1) is -1 + 2 * random(): the same bits and draws
    node = _num(-1.0 + 2.0 * rng.random())
    for _ in range(int(rng.integers(1, 4))):
        term = _num(-1.0 + 2.0 * rng.random())
        for _ in range(int(rng.integers(1, 3))):
            term = _binop("*", term, _var(int(rng.integers(0, nvars))))
        node = _binop("+", node, term)
    return node


def _random_gspecial(rng) -> SpecialFunction:
    return SpecialFunction(_poly(rng), [_poly(rng) for _ in range(3)],
                           _poly(rng), Observer.chart())


def _random_especial(rng) -> ESpecialFunction:
    return ESpecialFunction([_poly(rng) for _ in range(4)], _poly(rng))


class _Ctx:
    """Per-run context: the model, lazy phase object, lazy sample points."""

    def __init__(self, model: Model, npoints: int, seed: int):
        self.model = model
        self.npoints = npoints
        self.seed = seed
        self.cache: Dict[str, object] = {}
        self._phase = None
        self._points = None
        self._error = None  # the class and text of a draw that raised

    def rng(self, tag: str) -> np.random.Generator:
        key = zlib.crc32(tag.encode("ascii"))
        seq = np.random.SeedSequence([self.seed, key])
        return np.random.Generator(np.random.Philox(seq))

    @property
    def phase(self):
        if self._phase is None:
            if self.model.kind == "galilei":
                self._phase = GalileiPhase(self.model)
            else:
                self._phase = EinsteinPhase(self.model)
        return self._phase

    @property
    def points(self) -> np.ndarray:
        """N phase points (x^lam, x^i_0) admissible for the framework.
        A draw that raised is not drawn again: each later check raises
        a new error of its class and text."""
        if self._error is not None:
            exc, text = self._error
            raise exc(text)
        if self._points is None:
            try:
                self._points = self._draw()
            except _FLOAT_ERRORS as exc:
                self._error = type(exc), str(exc)
                raise
        return self._points

    def _draw(self) -> np.ndarray:
        rng = self.rng("phase-points")
        n = self.npoints
        lo, hi = self.model.box_lo, self.model.box_hi
        span = hi - lo
        low, high = lo + 0.05 * span, hi - 0.05 * span
        if self.model.kind == "galilei":
            return np.hstack([rng.uniform(low, high, size=(n, 4)),
                              rng.uniform(-2.0, 2.0, size=(n, 3))])
        # blocks of n candidates: the doubles of n one-candidate draws
        low, high = np.r_[low, [-0.25] * 3], np.r_[high, [0.25] * 3]
        rad = self.phase.radicand()
        out = np.empty((0, 7))
        for _ in range(MAX_DRAWS_PER_POINT):
            batch = Batch(rng.uniform(low, high, size=(n, 7)))
            ok = (rad._values(batch) < -0.1) & ~batch.failed
            keep = np.flatnonzero(ok)[:n - len(out)]
            out = np.concatenate([out, batch.P[keep]])
            # a failing candidate raises unless n were kept before it
            if batch.errors and (len(out) < n
                                 or min(batch.errors) < keep[-1]):
                batch.raise_first()
            if len(out) == n:
                return out
        raise ValidationError(
            "no timelike sample point found: %d of %d draws had "
            "radicand < -0.1" % (len(out), MAX_DRAWS_PER_POINT * n))

    def cube_points(self, tag: str, n: int) -> np.ndarray:
        """n model-independent sample points in [-1, 1]^4."""
        return self.rng(tag).uniform(-1.0, 1.0, size=(n, 4))


@dataclass(frozen=True)
class Check:
    name: str
    law: str
    tolerance: float
    runner: Callable[[_Ctx], float]


@dataclass(frozen=True)
class Suite:
    name: str
    framework: str                 # "galilei", "einstein" or "any"
    checks: Tuple[Check, ...]


# ---------------------------------------------------------------------------
# batch helpers

def _gap(lhs: List, rhs: List, points: np.ndarray) -> np.ndarray:
    """|lhs[k] - rhs[k]| at every point, an array [len(lhs), N]; all the
    fields are evaluated in one batch."""
    vals = field_values(list(lhs) + list(rhs), points)
    return np.abs(np.array(vals[:len(lhs)]) - np.array(vals[len(lhs):]))


def _size(fields: List, points: np.ndarray) -> np.ndarray:
    """|f| for each field at every point, [len(fields), N], one batch."""
    return np.abs(np.array(field_values(list(fields), points)))


def _parts(y) -> List:
    """The scalar and vector components of a Hermitian field."""
    return [y.b] + list(y.X.comps)


# ---------------------------------------------------------------------------
# galilei-core runners

def _g_time_normalization(ctx: _Ctx) -> float:
    gam = ctx.phase.dynamical_vector()
    return _worst(np.abs(gam.values(ctx.points)[:, 0] - 1.0))


def _contact_kernel(ctx: _Ctx) -> float:
    ig = contract(ctx.phase.dynamical_vector(), ctx.phase.cosymplectic())
    comps = [ig.component((k,)) for k in range(7)]
    return _worst(0.0, _size(comps, ctx.points))


def _g_time_parallel(ctx: _Ctx) -> float:
    ph = ctx.phase
    return _worst(0.0, _size([ph.K(lam, 0, mu) for lam in range(4)
                              for mu in range(4)], ctx.points))


def _metric_parallel(ctx: _Ctx, points: np.ndarray, idx: range) -> float:
    # d_lam G_nu_mu + K_lam^rho_nu G_rho_mu + K_lam^rho_mu G_rho_nu
    # (symmetrized in nu <= mu, both running over idx)
    ph = ctx.phase
    val = Batch(points).values
    worst = 0.0
    for lam in range(4):
        for nu in idx:
            for mu in idx[idx.index(nu):]:
                r = val(ph.metric(nu, mu).partial(lam))
                for rho in idx:
                    r = r + val(ph.K(lam, rho, nu)) * val(ph.metric(rho, mu))
                    r = r + val(ph.K(lam, rho, mu)) * val(ph.metric(rho, nu))
                worst = _worst(worst, np.abs(r))
    return worst


def _torsion_free(ctx: _Ctx, upper: range) -> float:
    ph = ctx.phase
    pairs = [(lam, nu, mu) for nu in upper for lam in range(4)
             for mu in range(lam + 1, 4)]
    return _worst(0.0, _gap([ph.K(lam, nu, mu) for lam, nu, mu in pairs],
                            [ph.K(mu, nu, lam) for lam, nu, mu in pairs],
                            ctx.points))


def _closed_two_form(ctx: _Ctx) -> float:
    dom = exterior_derivative(ctx.phase.cosymplectic())
    return _worst(0.0, _size(dom.comps.values(), ctx.points))


def _volume_witness(ctx: _Ctx, one_form: PForm, required: float) -> float:
    top = wedge(wedge(wedge(one_form, ctx.phase.cosymplectic()),
                      ctx.phase.cosymplectic()), ctx.phase.cosymplectic())
    pts = ctx.points
    basis = [np.broadcast_to(e, (len(pts), 7)) for e in np.eye(7)]
    observed = _worst(np.abs(top.values(pts, *basis)), pick=min)
    return np.inf if observed == 0.0 else required / observed


def _g_volume(ctx: _Ctx) -> float:
    dt = PForm(7, 1, {(0,): constant(1.0)})
    return _volume_witness(ctx, dt, 1e-6)


def _fibre_variants(points: np.ndarray, rng, bound: float) -> np.ndarray:
    """Four copies of each point with new velocities, [N * 4, 7]."""
    out = np.repeat(points, 4, axis=0)
    out[:, 4:7] = rng.uniform(-bound, bound, (len(out), 3))
    return out


def _fibre_spread(comps, points: np.ndarray, rng) -> np.ndarray:
    """Per point, the largest spread of the fields over its four fibre
    variants."""
    vals = VectorField(comps).values(_fibre_variants(points, rng, 2.0))
    vals = vals.reshape(len(points), 4, len(comps))
    return np.max(vals.max(1) - vals.min(1), axis=1)


def _g_lift_projectable(ctx: _Ctx) -> float:
    ph = ctx.phase
    rng = ctx.rng("lift-projectable")
    worst = 0.0
    for _ in range(3):
        lift = ph.hamiltonian_lift(_random_gspecial(rng))
        worst = _worst(worst, _fibre_spread(lift.comps[:4], ctx.points[:8],
                                            rng))
    return worst


def _g_lift_witness(ctx: _Ctx) -> float:
    # sigma = 0 lift of the non-special cube of a velocity coordinate:
    # X^a = Lambda^{ab} d_b f with f = (x^1_0)^3
    ph = ctx.phase
    lam_form = ph.poisson_bivector()
    f = BinOp("*", BinOp("*", Var(4), Var(4)), Var(4))
    comps = [total(lam_form.component((a, b)) * f.partial(b)
                   for b in range(7)) for a in range(4)]
    rng = ctx.rng("lift-witness")
    observed = _worst(0.0, _fibre_spread(comps, ctx.points[:8], rng))
    return np.inf if observed == 0.0 else 1e-3 / observed


# ---------------------------------------------------------------------------
# bracket runners of both frameworks; special(rng) draws a special function

def _bracket_routes(ctx: _Ctx, special) -> float:
    ph = ctx.phase
    rng = ctx.rng("bracket-routes")
    worst = 0.0
    for _ in range(3):
        f, g = special(rng), special(rng)
        closed = ph.special_value(ph.special_bracket(f, g))
        defin = ph.definitional_bracket_value(f, g)
        worst = _worst(worst, _gap([closed], [defin], ctx.points))
    return worst


def _tangent_morphism(ctx: _Ctx, special) -> float:
    ph = ctx.phase
    rng = ctx.rng("tangent-morphism")
    worst = 0.0
    for _ in range(3):
        f, g = special(rng), special(rng)
        lhs = ph.tangent_projection(ph.special_bracket(f, g))
        rhs = lie_bracket(ph.tangent_projection(f), ph.tangent_projection(g))
        worst = _worst(worst, _gap(lhs.comps, rhs.comps, ctx.points[:, :4]))
    return worst


def _bracket_jacobi(ctx: _Ctx, special) -> float:
    ph = ctx.phase
    rng = ctx.rng("bracket-jacobi")
    f, g, h = (special(rng) for _ in range(3))
    cycle = total(
        ph.special_value(ph.special_bracket(a, ph.special_bracket(b, c)))
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)))
    return _worst(_size([cycle], ctx.points))


# ---------------------------------------------------------------------------
# galilei-brackets runners

def _g_bracket_observer(ctx: _Ctx) -> float:
    ph = ctx.phase
    rng = ctx.rng("bracket-observer")
    boost = Observer([_poly(rng) for _ in range(3)])
    worst = 0.0
    for _ in range(3):
        f, g = _random_gspecial(rng), _random_gspecial(rng)
        plain = ph.special_value(ph.special_bracket(f, g))
        moved = ph.special_value(
            ph.special_bracket(ph.change_observer(f, boost),
                               ph.change_observer(g, boost)))
        worst = _worst(worst, _gap([plain], [moved], ctx.points))
    return worst


# ---------------------------------------------------------------------------
# quantum runners of both frameworks; represent(ctx, sf) is F of the framework

def _g_potential(ctx: _Ctx) -> List:
    if "gpot" not in ctx.cache:
        ctx.cache["gpot"] = ctx.phase.observed_potential()
    return ctx.cache["gpot"]


def _map_isomorphism(ctx: _Ctx, special, represent) -> float:
    ph = ctx.phase
    rng = ctx.rng("map-isomorphism")
    worst = 0.0
    for _ in range(3):
        f, g = special(rng), special(rng)
        lhs = qt.hermitian_bracket(represent(ctx, f), represent(ctx, g))
        rhs = represent(ctx, ph.special_bracket(f, g))
        worst = _worst(worst, _gap(_parts(lhs), _parts(rhs),
                                   ctx.points[:, :4]))
    return worst


def _g_represent(ctx: _Ctx, sf: SpecialFunction) -> qt.HermitianVF:
    return qt.galilei_map(ctx.phase, sf, potential=_g_potential(ctx))


def _e_represent(ctx: _Ctx, sf: ESpecialFunction) -> qt.HermitianVF:
    return qt.einstein_map(ctx.phase, sf)


# ---------------------------------------------------------------------------
# galilei-quantum runners

def _gq_observer(ctx: _Ctx) -> float:
    ph, pot = ctx.phase, _g_potential(ctx)
    rng = ctx.rng("map-observer")
    boost = Observer([_poly(rng) for _ in range(3)])
    potb = qt.boosted_potential(ph, pot, Observer.chart(), boost)
    worst = 0.0
    for _ in range(3):
        sf = _random_gspecial(rng)
        fa = qt.galilei_map(ph, sf, potential=pot)
        fb = qt.galilei_map(ph, sf, observer=boost, potential=potb)
        worst = _worst(worst, _gap(_parts(fa), _parts(fb), ctx.points[:, :4]))
    return worst


# ---------------------------------------------------------------------------
# einstein-identities runners

def _e_identity_arrays(ctx: _Ctx) -> Dict[str, np.ndarray]:
    if "idres" not in ctx.cache:
        ctx.cache["idres"] = ctx.phase.identity_residuals(ctx.points)
    return ctx.cache["idres"]


def _e_identity_suite(ctx: _Ctx) -> float:
    return _worst(*_e_identity_arrays(ctx).values())


def _e_velocity_normalization(ctx: _Ctx) -> float:
    res = _e_identity_arrays(ctx)
    return _worst(0.0, res["contact-norm"], res["time-normalization"])


def _e_time_scale(ctx: _Ctx) -> float:
    ph = ctx.phase
    gam = ph.dynamical_vector()
    val = Batch(ctx.points).values
    tg = sum(val(ph.tau(lam)) * val(gam.comps[lam]) for lam in range(4))
    return _worst(0.0, np.abs(tg - 1.0))


def _e_volume(ctx: _Ctx) -> float:
    theta = PForm(7, 1, {(lam,): ctx.phase.theta(lam) for lam in range(4)})
    return _volume_witness(ctx, theta, 1e-6)


def _e_potential_derivative(ctx: _Ctx) -> float:
    ph = ctx.phase
    aup = ph.horizontal_potential()
    da = exterior_derivative(PForm(7, 1, {(lam,): aup[lam]
                                          for lam in range(4)}))
    om = ph.cosymplectic()
    keys = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    return _worst(0.0, _gap([da.component(k) for k in keys],
                            [om.component(k) for k in keys], ctx.points))


# ---------------------------------------------------------------------------
# einstein-brackets runners

def _e_pair_form(ctx: _Ctx) -> float:
    # fbar part of the bracket is X1.g2 - X2.g1 + (q/hbar) F(X1, X2)
    ph = ctx.phase
    rng = ctx.rng("pair-form")
    worst = 0.0
    for _ in range(3):
        f, g = _random_especial(rng), _random_especial(rng)
        br = ph.special_bracket(f, g)
        xf, xg = ph.tangent_projection(f), ph.tangent_projection(g)
        want = directional(xf, g.fbar) - directional(xg, f.fbar) \
            + qt.two_form_on(ph.faraday(), xf, xg) * ph.coupling
        worst = _worst(worst, _gap([br.fbar], [want], ctx.points[:, :4]))
    return worst


def _e_poisson_antisymmetry(ctx: _Ctx) -> float:
    ph = ctx.phase
    rng = ctx.rng("poisson-antisym")
    f, g = _poly(rng, 7), _poly(rng, 7)
    sym = ph.poisson(f, g) + ph.poisson(g, f)
    return _worst(_size([sym], ctx.points))


def _e_poisson_bivector(ctx: _Ctx) -> float:
    ph = ctx.phase
    lam_form = ph.poisson_bivector()
    rng = ctx.rng("poisson-bivector")
    worst = 0.0
    for _ in range(3):
        f, g = _poly(rng, 7), _poly(rng, 7)
        pois = ph.poisson(f, g)
        pts = ctx.points
        df = VectorField([f.partial(k) for k in range(7)]).values(pts)
        dg = VectorField([g.partial(k) for k in range(7)]).values(pts)
        worst = _worst(worst, np.abs(lam_form.values(pts, df, dg)
                                     - pois.values(pts)))
    return worst


# ---------------------------------------------------------------------------
# einstein-quantum runners

def _eq_observed_route(ctx: _Ctx) -> float:
    ph = ctx.phase
    rng = ctx.rng("observed-route")
    obs = [constant(0.1), BinOp("*", Num(0.05), Var(1)), constant(-0.08)]
    worst = 0.0
    for _ in range(3):
        sf = _random_especial(rng)
        fa = qt.einstein_map(ph, sf)
        fo = qt.einstein_observed_map(ph, sf, obs)
        worst = _worst(worst, _gap([fa.b], [fo.b], ctx.points[:, :4]))
    return worst


# ---------------------------------------------------------------------------
# section1-general runners (model-independent gauge algebra)

def _s1_intertwining(ctx: _Ctx) -> float:
    rng = ctx.rng("intertwining")
    pts = ctx.cube_points("intertwining-points", min(ctx.npoints, 50))
    worst = 0.0
    for _ in range(3):
        A = [_poly(rng) for _ in range(4)]
        phi = qt.curvature_phi(A)
        for _ in range(3):
            p1 = qt.GaugePair(VectorField([_poly(rng) for _ in range(4)]),
                              _poly(rng))
            p2 = qt.GaugePair(VectorField([_poly(rng) for _ in range(4)]),
                              _poly(rng))
            lhs = qt.hermitian_bracket(qt.classify_j(A, p1),
                                       qt.classify_j(A, p2))
            rhs = qt.classify_j(A, qt.pair_bracket(phi, p1, p2))
            worst = _worst(worst, _gap(_parts(lhs), _parts(rhs), pts))
    return worst


def _s1_jacobi(ctx: _Ctx) -> float:
    rng = ctx.rng("pair-jacobi")
    pts = ctx.cube_points("pair-jacobi-points", min(ctx.npoints, 50))
    A = [_poly(rng) for _ in range(4)]
    phi = qt.curvature_phi(A)
    trips = [qt.GaugePair(VectorField([_poly(rng) for _ in range(4)]),
                          _poly(rng)) for _ in range(3)]
    cyc = qt.jacobi_cycle(phi, *trips)
    return _worst(0.0, _size([cyc.bbar] + cyc.X.comps, pts))


def _s1_jacobi_witness(ctx: _Ctx) -> float:
    # twist x^0 d1^d2 is not closed; translations see the defect d(twist)
    phi = PForm(4, 2, {(1, 2): Var(0)})
    trips = [qt.GaugePair(VectorField([constant(1.0 if k == m else 0.0)
                                       for k in range(4)]), constant(0.0))
             for m in range(3)]
    cyc = qt.jacobi_cycle(phi, *trips)
    pts = ctx.cube_points("jacobi-witness", 8)
    observed = _worst(_size([cyc.bbar], pts))
    return np.inf if observed == 0.0 else 1e-3 / observed


def _s1_central_extension(ctx: _Ctx) -> float:
    rng = ctx.rng("central-extension")
    pts = ctx.cube_points("central-extension-points", min(ctx.npoints, 50))
    A = [_poly(rng) for _ in range(4)]
    y = qt.HermitianVF(VectorField([_poly(rng) for _ in range(4)]),
                       _poly(rng))
    pair = qt.classify_h(A, y)
    zero = VectorField([constant(0.0)] * 4)
    m1 = qt.HermitianVF(zero, _poly(rng))
    m2 = qt.HermitianVF(zero, _poly(rng))
    kernel_br = qt.hermitian_bracket(m1, m2)
    ideal_br = qt.hermitian_bracket(y, m1)
    drift = directional(y.X, m1.b)
    return _worst(0.0, _gap(pair.X.comps, y.X.comps, pts),
                  _size(_parts(kernel_br) + ideal_br.X.comps, pts),
                  _gap([ideal_br.b], [drift], pts))


def _s1_complex_linearity(ctx: _Ctx) -> float:
    rng = ctx.rng("complex-linearity")
    pts = ctx.cube_points("complex-linearity-points", min(ctx.npoints, 100))
    worst = 0.0
    for _ in range(3):
        y = qt.HermitianVF(VectorField([_poly(rng) for _ in range(4)]),
                           _poly(rng))
        enc = qt.to_linear_field(y)
        _, resid = qt.is_hermitian(enc, pts)
        worst = _worst(worst, resid)
        back = qt.to_hermitian_field(enc)
        worst = _worst(worst, _gap([back.b], [y.b], pts[:10]))
    return worst


# ---------------------------------------------------------------------------
# orbits runners: fixed scenarios on the shipped oracle models flat-free,
# uniform-b and uniform-e, whatever model the run was given.  The suite
# accepts any model and its report names that model, but no runner reads
# it.

def _orbit_straight_line(ctx: _Ctx) -> float:
    model = load_builtin("flat-free")
    x0 = [0.0, -0.5, 0.0, 0.0]
    v0 = [0.6, 0.0, 0.0]
    res = orb.integrate_orbit(model, x0, v0, 1.5, 1e-3)
    line = np.array(x0) + np.outer(res.times, [1.0, 0.6, 0.0, 0.0])
    dev = np.max(np.abs(res.states[:, :4] - line))
    vdev = np.max(np.abs(res.states[:, 4:7] - np.array(v0)))
    return _worst(dev, vdev, res.max_law_residual)


def _orbit_cyclotron(ctx: _Ctx) -> float:
    model = load_builtin("uniform-b")
    b_strength = model.params["B"]
    speed = 0.5
    radius = model.mass * speed / (model.charge * b_strength)
    period = 2.0 * np.pi * model.mass / (model.charge * b_strength)
    res = orb.integrate_orbit(model, [0.0, 0.0, 0.0, 0.0],
                              [speed, 0.0, 0.0], period, 1e-3)
    worst = 0.0
    for i in (1, 2):
        spread = res.states[:, i].max() - res.states[:, i].min()
        worst = _worst(worst, abs(spread / 2.0 - radius) / radius)
    return worst


def _orbit_hyperbolic(ctx: _Ctx) -> float:
    model = load_builtin("uniform-e")
    e_strength = model.params["E"]
    res = orb.integrate_orbit(model, [0.0, 0.0, 0.0, 0.0],
                              [0.0, 0.0, 0.0], 2.0, 1e-3)
    s = res.times
    want0 = np.sinh(e_strength * s) / e_strength
    want1 = (np.cosh(e_strength * s) - 1.0) / e_strength
    dev0 = np.max(np.abs(res.states[:, 0] - want0))
    dev1 = np.max(np.abs(res.states[:, 1] - want1))
    rest = np.max(np.abs(res.states[:, (2, 3)]))
    return _worst(dev0, dev1, rest)


# ---------------------------------------------------------------------------
# registry

SUITES: Dict[str, Suite] = {}


def _suite(name, framework, checks):
    SUITES[name] = Suite(name, framework, tuple(checks))


_suite("galilei-core", "galilei", [
    Check("contact-time-normalization", "i(gamma) dt = 1",
          1e-9, _g_time_normalization),
    Check("contact-kernel", "i(gamma) Omega = 0", 1e-9, _contact_kernel),
    Check("connection-time-parallel", "nabla dt = 0 for the joined connection",
          1e-8, _g_time_parallel),
    Check("connection-metric-parallel", "nabla g = 0 (symmetrized in i, j)",
          1e-8, lambda ctx: _metric_parallel(ctx, ctx.points, range(1, 4))),
    Check("connection-torsion-free", "K_lam^i_mu = K_mu^i_lam", 1e-8,
          lambda ctx: _torsion_free(ctx, range(1, 4))),
    Check("cosymplectic-closed", "d Omega = 0", 1e-7, _closed_two_form),
    Check("cosymplectic-volume",
          "dt ^ Omega^3 nondegenerate (reported as required/observed)",
          1.0, _g_volume),
    Check("lift-projectable",
          "hamiltonian lift of a special function pushes down to spacetime",
          1e-9, _g_lift_projectable),
    Check("lift-witness-not-projectable",
          "lift of (x^1_0)^3 stays fibre-dependent (required/observed)",
          1.0, _g_lift_witness),
])

_suite("galilei-brackets", "galilei", [
    Check("bracket-closed-vs-definitional",
          "closed-form [[f,g]] = {f,g} + sigma-corrected drift terms",
          1e-8, lambda ctx: _bracket_routes(ctx, _random_gspecial)),
    Check("bracket-tangent-morphism", "X[[f,g]] = [X f, X g]", 1e-8,
          lambda ctx: _tangent_morphism(ctx, _random_gspecial)),
    Check("bracket-jacobi", "cyclic sum [[f,[g,h]]] = 0", 1e-7,
          lambda ctx: _bracket_jacobi(ctx, _random_gspecial)),
    Check("bracket-observer-independence",
          "bracket value is unchanged under observer re-representation",
          1e-8, _g_bracket_observer),
])

_suite("galilei-quantum", "galilei", [
    Check("quantum-map-isomorphism",
          "[F f, F g] = F [[f,g]] for the represented Hermitian fields", 1e-8,
          lambda ctx: _map_isomorphism(ctx, _random_gspecial, _g_represent)),
    Check("quantum-observer-independence",
          "F computed against a boosted observer and gauge is unchanged",
          1e-8, _gq_observer),
])

_suite("einstein-identities", "einstein", [
    Check("phase-identity-suite",
          "alpha0 / tau / d contraction and derivative identity suite",
          1e-8, _e_identity_suite),
    Check("velocity-normalization", "g(d, d) = -c^2 and tau(d) = 1",
          1e-9, _e_velocity_normalization),
    Check("contact-time-normalization", "tau(gamma) = 1", 1e-9, _e_time_scale),
    Check("contact-kernel", "i(gamma) Omega = 0", 1e-8, _contact_kernel),
    Check("connection-metric-parallel", "nabla g = 0", 1e-8,
          lambda ctx: _metric_parallel(ctx, ctx.points[:24], range(4))),
    Check("connection-torsion-free", "K_lam^nu_mu = K_mu^nu_lam", 1e-8,
          lambda ctx: _torsion_free(ctx, range(4))),
    Check("cosymplectic-closed", "d Omega = 0", 1e-7, _closed_two_form),
    Check("cosymplectic-volume",
          "theta ^ Omega^3 nondegenerate (reported as required/observed)",
          1.0, _e_volume),
    Check("horizontal-potential-derivative", "d(theta + (q/hbar) A) = Omega",
          1e-7, _e_potential_derivative),
])

_suite("einstein-brackets", "einstein", [
    Check("bracket-closed-vs-definitional",
          "closed-form [[f,g]] = {f,g} + sigma-corrected drift terms",
          1e-7, lambda ctx: _bracket_routes(ctx, _random_especial)),
    Check("bracket-tangent-morphism", "X[[f,g]] = [X f, X g]", 1e-8,
          lambda ctx: _tangent_morphism(ctx, _random_especial)),
    Check("bracket-pair-form",
          "fbar[[f,g]] = X1.g2 - X2.g1 + (q/hbar) F(X1, X2)",
          1e-8, _e_pair_form),
    Check("bracket-jacobi", "cyclic sum [[f,[g,h]]] = 0", 1e-7,
          lambda ctx: _bracket_jacobi(ctx, _random_especial)),
    Check("poisson-antisymmetry", "{f,g} = -{g,f}", 1e-8,
          _e_poisson_antisymmetry),
    Check("poisson-bivector-route", "{f,g} = Lambda(df, dg)",
          1e-8, _e_poisson_bivector),
])

_suite("einstein-quantum", "einstein", [
    Check("quantum-map-isomorphism",
          "[F f, F g] = F [[f,g]] for the represented Hermitian fields", 1e-8,
          lambda ctx: _map_isomorphism(ctx, _random_especial, _e_represent)),
    Check("quantum-observed-route",
          "F built through an observer's potential equals the direct F",
          1e-8, _eq_observed_route),
])

_suite("section1-general", "any", [
    Check("classification-intertwining",
          "classify_j carries the twisted pair bracket to the Hermitian one",
          1e-8, _s1_intertwining),
    Check("pair-bracket-jacobi", "Jacobi cycle vanishes for a closed twist",
          1e-8, _s1_jacobi),
    Check("jacobi-witness-nonclosed",
          "a non-closed twist breaks Jacobi (reported as required/observed)",
          1.0, _s1_jacobi_witness),
    Check("central-extension-exactness",
          "base projection is a morphism; multipliers form an abelian ideal",
          1e-10, _s1_central_extension),
    Check("hermitian-complex-linearity",
          "b-encoding passes is_hermitian and decodes losslessly",
          1e-9, _s1_complex_linearity),
])

_suite("orbits", "any", [
    Check("orbit-free-straight-line", "force-free motion is a straight line",
          1e-12, _orbit_straight_line),
    Check("orbit-cyclotron-radius",
          "uniform-B circular orbit has radius m v / (q B), relative error",
          1e-5, _orbit_cyclotron),
    Check("orbit-hyperbolic-worldline",
          "uniform-E worldline matches the analytic hyperbola",
          1e-5, _orbit_hyperbolic),
])


def suite_names() -> List[str]:
    return list(SUITES)


# ---------------------------------------------------------------------------
# driver

def run_suite(model, suite_name: str, points: int = 100, seed: int = 0,
              tol_overrides: Optional[Dict[str, float]] = None) -> SuiteReport:
    """Run one named suite against a model and return its report.

    model may be a Model instance, a path to a model file, or the name
    of a shipped builtin.  Raises UnknownSuiteError for a bad suite
    name, FrameworkMismatchError when the model kind does not fit, and
    ValueError for fewer than one or more than MAX_POINTS points, a
    negative seed, and tolerance overrides that name no check in the
    suite or are not finite and non-negative.  A check whose fields
    cannot be evaluated (one of modelspec._FLOAT_ERRORS) is reported with
    a NaN residual, a failure, and its error goes to stderr.

    For its own duration it raises the cycle collector's threshold0 to
    _GC_THRESHOLD0, and it restores the caller's `gc.get_threshold()`
    exactly however it ends.  A collector the caller turned off (disabled,
    or a threshold0 of 0) stays off.
    """
    saved = gc.get_threshold()
    if gc.isenabled() and saved[0]:
        gc.set_threshold(_GC_THRESHOLD0, *saved[1:])
    try:
        if suite_name not in SUITES:
            raise UnknownSuiteError(
                "unknown suite %r; available: %s"
                % (suite_name, ", ".join(suite_names())))
        if points < 1:
            raise ValueError("the number of points must be positive, "
                             "got %d" % points)
        if points > MAX_POINTS:
            raise ValueError("the number of points must be at most %d, "
                             "got %d" % (MAX_POINTS, points))
        if seed < 0:
            raise ValueError("the seed must be non-negative, got %d" % seed)
        suite = SUITES[suite_name]
        model = resolve_model(model)
        if suite.framework != "any" and suite.framework != model.kind:
            raise FrameworkMismatchError(
                "suite %r needs a %s model but %r is %s"
                % (suite_name, suite.framework, model.name, model.kind))
        overrides = dict(tol_overrides or {})
        known = {c.name for c in suite.checks}
        for name, tol in overrides.items():
            if name not in known:
                raise ValueError("tolerance override %r matches no check "
                                 "in %r" % (name, suite_name))
            if not 0.0 <= tol < math.inf:  # NaN fails this too
                raise ValueError("tolerance override %s=%r is not a finite "
                                 "non-negative number" % (name, tol))

        ctx = _Ctx(model, points, seed)
        start = time.perf_counter()
        records = []
        for check in suite.checks:
            tol = overrides.get(check.name, check.tolerance)
            try:
                residual = float(check.runner(ctx))
            except _FLOAT_ERRORS as exc:
                # a field that cannot be evaluated at a sample point fails
                # this check; the others still run
                print("check %s: %s: %s"
                      % (check.name, type(exc).__name__, exc), file=sys.stderr)
                residual = math.nan
            records.append(CheckRecord(check.name, check.law, residual, tol))
        return SuiteReport(suite_name, model.name, seed, points, records,
                           wall_time=time.perf_counter() - start)
    finally:
        gc.set_threshold(*saved)
