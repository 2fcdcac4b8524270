"""Lorentzian spacetime structures on the velocity phase chart.

The chart is (x0..x3, x1_0..x3_0): four spacetime coordinates plus the
three observed velocities, written here as Var(4..6).  A phase point is
admissible when the quadratic form

    g_00 + 2 g_0j x^j_0 + g_ij x^i_0 x^j_0

is negative (the chart velocity is timelike); alpha0 is the reciprocal
square root of its absolute value.  All derived objects are kept as
expression-backed fields so they can be differentiated exactly to any
order.

Conventions in force throughout:
  * the declared metric block is the action-rescaled metric G; the
    geometric (Lorentzian) metric is g = (hbar/m) G, so they coincide
    numerically for the shipped unit-mass models;
  * the electromagnetic 2-form is F = dA (`smooth.curvature_phi`), with
    strict-component values F_ab = d_a A_b - d_b A_a for a < b;
  * K carries the sign-reversed Christoffel symbols of g, and the phase
    connection coefficients fold K with the velocity substitutions
    delta-bar;
  * wedge products and exterior derivatives follow the determinant
    convention of the smooth-calculus layer (no 1/p! weights).
"""

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .modelspec import (
    Call, Model, Var, _Emitter, constant, inverse_nodes, velocity,
)
from .smooth import (
    Batch, Field, PForm, VectorField, cached, curvature_phi, directional,
    total, wedge,
)


class LightconeViolation(ValueError):
    """A phase point whose chart velocity is not timelike."""


_NOT_TIMELIKE = "phase point has a non-timelike chart velocity"


@dataclass
class ESpecialFunction:
    """Special phase function in normal form: spacetime vector plus scalar.

    comps holds the four components of the tangent lift X (functions of
    the spacetime coordinates only), fbar the spacetime component.  The
    function itself is -G(contact, X) + fbar.
    """

    comps: List[Field]
    fbar: Field


class EinsteinPhase:
    """All derived structures of an einstein model, built lazily and cached."""

    def __init__(self, model: Model):
        if model.kind != "einstein":
            raise ValueError("expected an einstein model, got %r" % model.kind)
        self.model = model
        self.coupling = model.coupling          # q / hbar
        self.c = model.lightspeed
        self.scale = model.hbar / model.mass    # g = scale * G
        self.G = model.metric
        self.A = model.potential
        self.Ginv = inverse_nodes(self.G)
        self._memo: Dict = {}

    # -- metric accessors (indices 0..3) ------------------------------------

    def metric(self, lam: int, mu: int) -> Field:
        """Rescaled metric G as declared by the model."""
        return self.G[lam][mu]

    @cached
    def g_low(self, lam: int, mu: int) -> Field:
        """Geometric metric g = (hbar/m) G."""
        return self.G[lam][mu] * self.scale

    @cached
    def g_up(self, lam: int, mu: int) -> Field:
        return self.Ginv[lam][mu] * (1.0 / self.scale)

    # -- velocity contractions ----------------------------------------------

    def _observer_frame(self, vel: List[Field]) -> tuple:
        """For the observer o = (1, v) with the three velocity fields
        v = vel: the quadratic form g(o, o) = g_00 + 2 g_0j v^j +
        g_ij v^i v^j, its sqrt|g(o, o)| and reciprocal, and the four
        components G(o)_lam = G_{0 lam} + G_{i lam} v^i."""
        rad = total(
            [self.g_low(0, 0)]
            + [self.g_low(0, j) * 2.0 * vel[j - 1] for j in range(1, 4)]
            + [self.g_low(i, j) * vel[i - 1] * vel[j - 1]
               for i in range(1, 4) for j in range(1, 4)])
        root = Call("sqrt", Call("abs", rad))
        low = [total([self.G[0][lam]] + [self.G[i][lam] * vel[i - 1]
                                         for i in range(1, 4)])
               for lam in range(4)]
        return rad, root, constant(1.0) / root, low

    @cached
    def _chart_frame(self) -> tuple:
        """`_observer_frame` of the chart velocities x^i_0."""
        return self._observer_frame([velocity(i) for i in range(1, 4)])

    @cached
    def Gbar0(self, lam: int) -> Field:
        """G_{0 lam} + G_{i lam} x^i_0 (rescaled metric)."""
        return self._chart_frame()[3][lam]

    @cached
    def gbar0(self, lam: int) -> Field:
        return self.Gbar0(lam) * self.scale

    @cached
    def Gbar_up(self, i: int, lam: int) -> Field:
        """G^{i lam} - G^{0 lam} x^i_0 (inverse rescaled metric)."""
        return self.Ginv[i][lam] - self.Ginv[0][lam] * velocity(i)

    @cached
    def gbar_up(self, i: int, lam: int) -> Field:
        return self.Gbar_up(i, lam) * (1.0 / self.scale)

    # -- timelike normalization ---------------------------------------------

    @cached
    def radicand(self) -> Field:
        """g_00 + 2 g_0j x^j_0 + g_ij x^i_0 x^j_0; negative on admissible points."""
        return self._chart_frame()[0]

    def require_timelike(self, p) -> None:
        """Raise LightconeViolation unless the phase point p is timelike,
        and what `Field.value` raises where the radicand fails."""
        # written so that a NaN radicand counts as not timelike
        if not self.radicand().value(p) < 0.0:
            raise LightconeViolation(_NOT_TIMELIKE)

    def _timelike_batch(self, P) -> Batch:
        """A batch over the phase points P[N, 7] in which every row that
        is not timelike, a NaN radicand included, is logged as a
        LightconeViolation before any other field is evaluated, as
        `require_timelike` and `dynamical_fn` test it first."""
        batch = Batch(P)
        rad = self.radicand()._values(batch)
        batch.fail(~(rad < 0.0), LightconeViolation, _NOT_TIMELIKE)
        return batch

    @cached
    def alpha0(self) -> Field:
        return self._chart_frame()[2]

    @cached
    def inv_alpha0(self) -> Field:
        return self._chart_frame()[1]

    @cached
    def tau(self, lam: int) -> Field:
        """Time 1-form component tau_lam = -(alpha0/c) gbar_{0 lam}."""
        return self.alpha0() * self.gbar0(lam) * (-1.0 / self.c)

    @cached
    def tau_up(self, mu: int) -> Field:
        return total(self.g_up(mu, nu) * self.tau(nu) for nu in range(4))

    @cached
    def contact(self, lam: int) -> Field:
        """Contact vector component: c alpha0 for lam=0, c alpha0 x^i_0 else."""
        base = self.alpha0() * self.c
        return base if lam == 0 else base * velocity(lam)

    @cached
    def ghat(self, i: int, mu: int) -> Field:
        """Vertical-restricted metric g_{i mu} + c^2 tau_i tau_mu."""
        return self.g_low(i, mu) + self.tau(i) * self.tau(mu) * self.c ** 2

    @cached
    def Ghat(self, i: int, mu: int) -> Field:
        return self.ghat(i, mu) * (1.0 / self.scale)

    # -- adapted bases -------------------------------------------------------

    def base_b0(self) -> List[Field]:
        return [constant(1.0), velocity(1), velocity(2), velocity(3)]

    def base_bi(self, i: int) -> List[Field]:
        """b_i = d_i - c alpha0 tau_i (d_0 + x^j_0 d_j)."""
        coef = self.alpha0() * self.tau(i) * (-self.c)
        comps = []
        for lam in range(4):
            term = coef if lam == 0 else coef * velocity(lam)
            if lam == i:
                term = term + 1.0
            comps.append(term)
        return comps

    def base_beta0(self) -> List[Field]:
        """beta^0 = d^0 + c alpha0 tau_i beta^i (covector components)."""
        comps = []
        head = constant(1.0)
        for i in range(1, 4):
            head = head - self.alpha0() * self.tau(i) * self.c * velocity(i)
        comps.append(head)
        for j in range(1, 4):
            comps.append(self.alpha0() * self.tau(j) * self.c)
        return comps

    def base_betai(self, i: int) -> List[Field]:
        comps = [velocity(i) * (-1.0)]
        for lam in range(1, 4):
            comps.append(constant(1.0 if lam == i else 0.0))
        return comps

    # -- Levi-Civita connection (sign-reversed symbols) ----------------------

    @cached
    def K(self, lam: int, nu: int, mu: int) -> Field:
        """K_lam^nu_mu = -(1/2) G^{nu rho} (d_lam G_{rho mu} + d_mu G_{rho lam}
        - d_rho G_{lam mu}); certified by the metric-compatibility tests."""
        if lam > mu:
            return self.K(mu, nu, lam)
        return total(self.Ginv[nu][rho] * (self.G[rho][mu].partial(lam)
                                           + self.G[rho][lam].partial(mu)
                                           - self.G[lam][mu].partial(rho))
                     for rho in range(4)) * (-0.5)

    # -- electromagnetic field ----------------------------------------------

    @cached
    def faraday(self) -> PForm:
        """F = dA of the declared potential (`smooth.curvature_phi`);
        `component((a, b))` reads F_ab, zero on the diagonal and negated
        below it."""
        return curvature_phi(self.A)

    @cached
    def Fbar0(self, mu: int) -> Field:
        """F_{0 mu} + F_{i mu} x^i_0."""
        F = self.faraday()
        return total([F.component((0, mu))]
                     + [F.component((i, mu)) * velocity(i)
                        for i in range(1, 4)])

    # -- phase connection ----------------------------------------------------

    @cached
    def Gamma_nat(self, lam: int, i: int) -> Field:
        """Gravitational phase connection: K folded with the velocity chart."""
        upper = total([self.K(lam, i, 0)] + [self.K(lam, i, j) * velocity(j)
                                             for j in range(1, 4)])
        lower = total([self.K(lam, 0, 0)] + [self.K(lam, 0, j) * velocity(j)
                                             for j in range(1, 4)])
        return upper - velocity(i) * lower

    @cached
    def Gamma_em(self, lam: int, i: int) -> Field:
        """Electromagnetic phase connection term (Lorentz coupling)."""
        alpha2 = self.alpha0() * self.alpha0()
        F = self.faraday()
        acc = total(self.gbar_up(i, mu) * (F.component((lam, mu)) - alpha2
                                           * self.gbar0(lam) * self.Fbar0(mu))
                    for mu in range(4))
        q_over_m = self.model.charge / self.model.mass
        return self.inv_alpha0() * (-q_over_m / (2.0 * self.c)) * acc

    @cached
    def Gamma(self, lam: int, i: int) -> Field:
        return self.Gamma_nat(lam, i) + self.Gamma_em(lam, i)

    @cached
    def gamma_bar(self, i: int) -> Field:
        """Vertical coefficient of the dynamical vector before the c alpha0
        normalization: Gamma_0^i + Gamma_j^i x^j_0."""
        return total([self.Gamma(0, i)] + [self.Gamma(j, i) * velocity(j)
                                           for j in range(1, 4)])

    @cached
    def dynamical_vector(self) -> VectorField:
        """gamma = c alpha0 (d_0 + x^i_0 d_i + gamma-bar^i d^0_i)."""
        head = self.alpha0() * self.c
        return VectorField([head] + [head * velocity(i) for i in range(1, 4)]
                           + [head * self.gamma_bar(i) for i in range(1, 4)])

    @cached
    def dynamical_fn(self):
        """`dynamical_vector` compiled into one function of a phase point.
        `require_timelike`'s check runs on the radicand before alpha0's
        square root, so a point that is not timelike raises it first."""
        em = _Emitter()
        em.env["LightconeViolation"] = LightconeViolation
        em.check(("not ", em.field(self.radicand()), " < 0.0"),
                 "LightconeViolation", _NOT_TIMELIKE)
        comps = self.dynamical_vector().comps
        return em.function([em.field(f) for f in comps])

    # -- cosymplectic structure ---------------------------------------------

    @cached
    def theta(self, lam: int) -> Field:
        """Potential 1-form component c alpha0 (G_{0 lam} + G_{i lam} x^i_0)."""
        return self.alpha0() * self.Gbar0(lam) * self.c

    def horizontal_potential(self) -> List[Field]:
        """A-up: theta plus the coupled electromagnetic potential."""
        return [self.theta(lam) + a
                for lam, a in enumerate(self.model.coupled_potential)]

    @cached
    def cosymplectic(self) -> PForm:
        """Omega = c alpha0 Ghat_{i mu} (d^i_0 - Gamma_lam^i d^lam) ^ d^mu."""
        a = [PForm(7, 1, {(3 + i,): constant(1.0),
                          **{(lam,): -self.Gamma(lam, i) for lam in range(4)}})
             for i in range(1, 4)]
        return total(wedge(a[i - 1], PForm(7, 1, {(mu,): constant(1.0)}))
                     .scaled(self.alpha0() * self.Ghat(i, mu) * self.c)
                     for i in range(1, 4) for mu in range(4))

    @cached
    def poisson_bivector(self) -> PForm:
        """Lambda = (1/(c alpha0)) Gbar^{j lam} (d_lam + Gamma_lam^i d^0_i) ^ d^0_j."""
        s = self.inv_alpha0() * (1.0 / self.c)

        def u(j: int) -> PForm:
            comps = {(lam,): s * self.Gbar_up(j, lam) for lam in range(4)}
            for i in range(1, 4):
                comps[(3 + i,)] = s * total(self.Gbar_up(j, lam)
                                            * self.Gamma(lam, i)
                                            for lam in range(4))
            return PForm(7, 1, comps)

        return total(wedge(u(j), PForm(7, 1, {(3 + j,): constant(1.0)}))
                     for j in range(1, 4))

    def xi(self, i: int, j: int) -> Field:
        """Xi^{ij} = Gbar^{i lam} Gamma_lam^j - Gbar^{j lam} Gamma_lam^i.

        The sum runs over all four values of lam; restricting it to the
        spacelike ones would break the agreement with the bivector route.
        """
        return total(self.Gbar_up(i, lam) * self.Gamma(lam, j)
                     - self.Gbar_up(j, lam) * self.Gamma(lam, i)
                     for lam in range(4))

    def poisson(self, f: Field, g: Field) -> Field:
        """Coordinate Poisson bracket of two phase functions."""
        fp = [f.partial(a) for a in range(7)]
        gp = [g.partial(a) for a in range(7)]
        acc = total(self.Gbar_up(i, lam)
                    * (fp[lam] * gp[3 + i] - gp[lam] * fp[3 + i])
                    for i in range(1, 4) for lam in range(4))
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                acc = acc - self.xi(i, j) * fp[3 + i] * gp[3 + j]
        return self.inv_alpha0() * (1.0 / self.c) * acc

    # -- special phase functions ---------------------------------------------

    def tangent_projection(self, sf: ESpecialFunction) -> VectorField:
        """The spacetime vector field X of a special function."""
        return VectorField(list(sf.comps))

    def special_value(self, sf: ESpecialFunction) -> Field:
        """-G(contact, X) + fbar as a phase function."""
        return sf.fbar - total(self.theta(mu) * sf.comps[mu]
                               for mu in range(4))

    def sigma0(self, sf: ESpecialFunction) -> Field:
        """Time-scale coefficient tau(X) of a special function."""
        return total(self.tau(lam) * sf.comps[lam] for lam in range(4))

    def special_bracket(self, f: ESpecialFunction,
                        g: ESpecialFunction) -> ESpecialFunction:
        """Closed-form special bracket: Lie bracket of the lifts plus the
        twisted scalar part with the coupled electromagnetic 2-form."""
        comps = [total(f.comps[nu] * g.comps[mu].partial(nu)
                       - g.comps[nu] * f.comps[mu].partial(nu)
                       for nu in range(4))
                 for mu in range(4)]
        F = self.faraday()
        bar = total(
            [f.comps[lam] * g.fbar.partial(lam)
             - g.comps[lam] * f.fbar.partial(lam) for lam in range(4)]
            + [F.component((a, b)) * (f.comps[a] * g.comps[b]
                                      - f.comps[b] * g.comps[a])
               * self.coupling
               for a in range(4) for b in range(a + 1, 4)])
        return ESpecialFunction(comps, bar)

    def definitional_bracket_value(self, f: ESpecialFunction,
                                   g: ESpecialFunction) -> Field:
        """Poisson route: {f,g} + sigma[f] (gamma.g) - sigma[g] (gamma.f)."""
        vf = self.special_value(f)
        vg = self.special_value(g)
        gam = self.dynamical_vector()
        out = self.poisson(vf, vg)
        out = out + self.sigma0(f) * directional(gam, vg)
        out = out - self.sigma0(g) * directional(gam, vf)
        return out

    def hamiltonian_lift(self, sigma: Field, f: Field) -> VectorField:
        """sigma-Hamiltonian lift of an arbitrary phase function."""
        head = sigma * self.alpha0() * self.c
        s = self.inv_alpha0() * (1.0 / self.c)
        fp = [f.partial(a) for a in range(7)]
        comps: List[Field] = []
        for lam in range(4):
            acc = head if lam == 0 else head * velocity(lam)
            for j in range(1, 4):
                acc = acc - s * self.Gbar_up(j, lam) * fp[3 + j]
            comps.append(acc)
        for i in range(1, 4):
            comps.append(total(
                [head * self.gamma_bar(i)]
                + [s * self.Gbar_up(i, lam) * fp[lam] for lam in range(4)]
                + [s * self.xi(i, j) * fp[3 + j]
                   for j in range(1, 4) if j != i]))
        return VectorField(comps)

    # -- distinguished special functions -------------------------------------

    def coordinate_function(self, lam: int) -> ESpecialFunction:
        return ESpecialFunction([constant(0.0)] * 4, Var(lam))

    def hamiltonian_function(self) -> ESpecialFunction:
        """Observed energy: lift d_0, scalar part -coupled A_0."""
        comps = [constant(1.0)] + [constant(0.0)] * 3
        return ESpecialFunction(comps, -self.model.coupled_potential[0])

    def momentum_function(self, i: int) -> ESpecialFunction:
        """Observed momentum along d^i: lift -d_i, scalar part +coupled A_i."""
        comps = [constant(0.0)] * 4
        comps[i] = constant(-1.0)
        return ESpecialFunction(comps, self.model.coupled_potential[i])

    def observed_theta(self, obs: Optional[List[Field]] = None) -> List[Field]:
        """Pullback of the kinetic potential along an observer section.

        obs gives the three observed velocities of the observer as
        spacetime fields; omitted, it is the chart (rest) observer.
        """
        if obs is None:
            obs = [constant(0.0)] * 3
        _, _, alpha, low = self._observer_frame(obs)
        return [alpha * low[lam] * self.c for lam in range(4)]

    def observed_component(self, sf: ESpecialFunction,
                           obs: Optional[List[Field]] = None) -> Field:
        """fbar minus theta[o](X): the scalar part seen by an observer."""
        theta = self.observed_theta(obs)
        out = sf.fbar
        for lam in range(4):
            out = out - theta[lam] * sf.comps[lam]
        return out

    # -- the law of motion ---------------------------------------------------

    def law_residual(self, X, Xdot, Xddot) -> np.ndarray:
        """Residuals of the law of motion at proper-time trajectory samples.

        X, Xdot and Xddot are arrays [N, 4] of positions and their first
        and second proper-time derivatives, one sample per row.  Each row
        of the result [N, 4] checks the parametrization (xdot^0 = c alpha0)
        first, then compares the chart acceleration of the observed
        velocity with the dynamical vector's; all four vanish on
        solutions.  The fields are evaluated over all rows in one batch;
        the first sample that fails raises the class `dynamical_fn`
        raises there, a field's error with the sample's phase point.
        """
        X, Xdot, Xddot = (np.asarray(a, dtype=float)
                          for a in (X, Xdot, Xddot))
        P = np.concatenate([X, Xdot[:, 1:] / Xdot[:, :1]], axis=1)
        batch = self._timelike_batch(P)
        comps = self.dynamical_vector().comps
        pace, *force = [f._values(batch) for f in comps[:1] + comps[4:]]
        _raise_first(batch)
        xd0 = Xdot[:, 0]
        # each sample's float64 ** 2 is C pow, which is not always the
        # square numpy takes for an array ** 2
        xd0_sq = np.array([v ** 2.0 for v in xd0.tolist()])
        out = np.empty((len(P), 4))
        out[:, 0] = xd0 - pace
        for i in range(1, 4):
            accel = (Xddot[:, i] * xd0 - Xdot[:, i] * Xddot[:, 0]) / xd0_sq
            out[:, i] = accel - force[i - 1]
        return out

    # -- technical identity suite --------------------------------------------

    def identity_residuals(self, P):
        """Evaluate the displayed contraction and derivative identities at
        a stack of timelike phase points P[N, 7] and return the absolute
        residuals of each, an array over the rows.  The fields are
        evaluated over all rows at once, and so is the linear algebra, on
        arrays stacked over the rows ([N, 4, 4] for a matrix); each row
        gets the bits of its one-point computation.
        """
        rows = np.asarray(P, dtype=float)
        # the first row that fails or is not timelike raises as
        # `require_timelike` would, before any other field is evaluated
        batch = self._timelike_batch(rows)
        _raise_first(batch)
        val = batch.values
        arr = functools.partial(_stacked, val)

        out: Dict[str, np.ndarray] = {}
        c = self.c
        al = val(self.alpha0())
        # each row's float ** is C pow, which is not always the power
        # numpy takes for an array
        al2 = np.array([a ** 2 for a in al.tolist()])
        al3 = np.array([a ** 3 for a in al.tolist()])
        gl = arr([[self.g_low(a, b) for b in range(4)] for a in range(4)])
        gu = arr([[self.g_up(a, b) for b in range(4)] for a in range(4)])
        v = rows[:, 4:7]
        dbar = np.concatenate([np.ones((len(rows), 1)), v], axis=1)
        tau = arr([self.tau(lam) for lam in range(4)])
        tau_up = arr([self.tau_up(mu) for mu in range(4)])
        gbar_low = arr([[self.gbar0(lam) for lam in range(4)]] + [
            [self.ghat(i, mu) for mu in range(4)] for i in range(1, 4)])
        gbar0 = gbar_low[:, 0]
        gbar_up = np.concatenate([((-al2)[:, None] * dbar)[:, None], arr(
            [[self.gbar_up(i, lam) for lam in range(4)]
             for i in range(1, 4)])], axis=1)

        dee = arr([self.contact(lam) for lam in range(4)])
        out["contact-norm"] = np.abs(_dot(_vm(dee, gl), dee) + c ** 2)
        out["time-normalization"] = np.abs(_dot(tau, dee) - 1.0)

        bv = arr([self.base_b0()] + [self.base_bi(i) for i in range(1, 4)])
        btv = arr([self.base_beta0()] + [self.base_betai(i)
                                         for i in range(1, 4)])
        out["basis-duality"] = _peak(btv @ bv.transpose(0, 2, 1) - np.eye(4))
        out["splitting-orthogonality"] = _peak(
            _dot(_vm(bv[:, :1], gl[:, None]), bv[:, 1:]))
        out["parallel-norm"] = np.abs(
            _dot(_vm(bv[:, 0], gl), bv[:, 0]) + 1.0 / al2)
        perp = arr([[self.ghat(i, j) for j in range(1, 4)]
                    for i in range(1, 4)])
        # [N, i, j] entries bv[i] @ gl @ bv[j], and the same of btv and gu
        direct = _dot(_vm(bv[:, 1:, None], gl[:, None, None]),
                      bv[:, None, 1:])
        out["perp-metric"] = _peak(perp - direct)
        gperp_up = _dot(_vm(btv[:, 1:, None], gu[:, None, None]),
                        btv[:, None, 1:])
        out["perp-inverse"] = _peak(perp @ gperp_up - np.eye(3))
        out["mixed-raise"] = _peak(
            (gperp_up @ gbar_low[:, 0, 1:, None])[..., 0]
            - gbar_up[:, 1:, 0] / al2[:, None])
        out["bar-0-covector"] = _peak(
            gbar_low[:, 0] + btv[:, 0] / al2[:, None])
        out["bar-i-raise"] = _peak(gperp_up @ bv[:, 1:] - gbar_up[:, 1:])

        out["bar-inverse"] = _peak(
            gbar_low @ gbar_up.transpose(0, 2, 1) - np.eye(4))
        out["bar-inverse-transposed"] = _peak(
            gbar_low.transpose(0, 2, 1) @ gbar_up - np.eye(4))
        out["bar-00-projector"] = _peak(
            _outer(gbar_low[:, 0], gbar_up[:, 0])
            - (-c ** 2) * _outer(tau, tau_up))
        out["bar-ii-projector"] = _peak(
            gbar_low[:, 1:].transpose(0, 2, 1) @ gbar_up[:, 1:]
            - (np.eye(4) + c ** 2 * _outer(tau, tau_up)))
        out["bar-0i-mix"] = _peak(
            _vm(gbar_low[:, 0, 1:], gbar_up[:, 1:])
            - (gu[:, 0] / al2[:, None] + dbar))
        out["vertical-annihilation"] = _peak(
            gbar_low[:, 1:, 0] + (gbar_low[:, 1:, 1:] @ v[..., None])[..., 0])

        alpha_f = self.alpha0()
        inv_f = self.inv_alpha0()
        for j in range(1, 4):
            r = val(alpha_f.partial(3 + j)) - al3 * gbar0[:, j]
            out["alpha-vertical-%d" % j] = np.abs(r)
            r = val(inv_f.partial(3 + j)) + al * gbar0[:, j]
            out["inv-alpha-vertical-%d" % j] = np.abs(r)
        for i in range(1, 4):
            for j in range(i, 4):
                r = val(inv_f.partial(3 + i).partial(3 + j)) \
                    + al * val(self.ghat(i, j))
                out["inv-alpha-hessian-%d%d" % (i, j)] = np.abs(r)
        for i in range(1, 4):
            for mu in range(4):
                r = val(self.tau(mu).partial(3 + i)) \
                    + (al / c) * val(self.ghat(i, mu))
                out["tau-vertical-%d%d" % (i, mu)] = np.abs(r)
        for lam in range(4):
            spatial = 0.0
            for a in range(4):
                for bb in range(4):
                    spatial += val(self.g_low(a, bb).partial(lam)) \
                        * dbar[:, a] * dbar[:, bb]
            r = val(alpha_f.partial(lam)) - 0.5 * al3 * spatial
            out["alpha-horizontal-%d" % lam] = np.abs(r)
        return out


def _stacked(val, fields: list) -> np.ndarray:
    """The values val(f) of a list (of lists) of fields f, rows first.
    Module-level, not a closure of `identity_residuals`: a closure that
    calls itself is a reference cycle, which would hold the batch, and
    every node its memo holds, until the cycle collector ran."""
    return np.stack([_stacked(val, f) if isinstance(f, list) else val(f)
                     for f in fields], axis=1)


def _raise_first(batch: Batch) -> None:
    """`batch.raise_first()`, but a LightconeViolation keeps the bare text
    that `require_timelike` and `dynamical_fn` raise."""
    first = batch.errors.get(min(batch.errors, default=None))
    if first is not None and first[0] is LightconeViolation:
        raise LightconeViolation(_NOT_TIMELIKE)
    batch.raise_first()


# Products over stacks of rows (leading axes) that keep the core shapes
# of the one-row product, x @ m or x @ y of vectors x, y and a matrix m,
# so that numpy runs on every row the kernel it runs for one row (a
# vector-matrix product, not a matrix product).

def _vm(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ m)[..., 0, :]


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _peak(a: np.ndarray) -> np.ndarray:
    """The largest |entry| of each row of a stack, NaN when any is NaN."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)))
