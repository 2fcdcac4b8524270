"""Phase-space structures over a galilei spacetime model.

The spacetime chart is x0..x3 with x0 the absolute time; the phase chart
appends the observed velocities x4..x6 (the components x^i_0 of a motion's
velocity, normalized so the time component is one).  All constructions
below are written against that seven-coordinate chart.

Conventions baked in here:

- Model metric entries are the action-rescaled spacelike metric; with the
  shipped constants m = hbar = 1 they coincide with the classical metric.
- The electromagnetic 2-form is F = dA of the declared potential, and the
  total curvature folding gravity and electromagnetism together is
  Phi = Phi_grav + (q/hbar) F.
- The joined connection coefficients K carry a sign opposite to classical
  Christoffel symbols (so the time row vanishes identically and geodesics
  read d(x^i_0)/dt = gamma^i with no extra minus signs).

Special phase functions are stored by components (f0, fi, fbar) relative
to an observer, with value

    f = 1/2 f0 G_ij d^i d^j + f^i G_ij d^j + fbar,   d^i = x^i_0 - o^i.

Their bracket is computed in closed form from the components and the
observed total curvature, and independently (for cross-checking) from the
Poisson bracket plus dynamical-connection terms.
"""

from dataclasses import dataclass
from typing import List, Optional

from .modelspec import (
    ExprField, Homotopy, Model, Num, Var, compile_fields, constant,
    inverse_nodes, substitute, velocity,
)
from .smooth import (
    Field, PForm, VectorField, cached, curvature_phi, directional, total,
    wedge,
)

# the 12-node Gauss-Legendre rule on [0, 1] of the homotopy integral in
# `GalileiPhase.observed_potential`, written out so as not to import
# numpy.polynomial: nodes 0.5 (t + 1) and products 0.5 w t of leggauss(12)
HOMOTOPY_TS = (
    0.009219682876640378, 0.0479413718147626, 0.11504866290284765,
    0.20634102285669126, 0.31608425050090994, 0.43738329574426554,
    0.5626167042557344, 0.6839157494990901, 0.7936589771433087,
    0.8849513370971523, 0.9520586281852375, 0.9907803171233596)
HOMOTOPY_WEIGHTS = (
    0.00021747082054123453, 0.0025634089945808496, 0.009208398829317378,
    0.020960887320599628, 0.03690165670464107, 0.054486378011406794,
    0.07008714489529455, 0.07984461156453623, 0.08062282604093324,
    0.07083076544235582, 0.05090625400307869, 0.02337019737271447)


@dataclass
class Observer:
    """A motion observer, given by its three observed-velocity fields."""

    vel: List[Field]

    @staticmethod
    def chart() -> "Observer":
        return Observer([constant(0.0), constant(0.0), constant(0.0)])

    def section(self) -> List[Field]:
        """The section fields x ↦ (x, o(x)) into the phase chart."""
        return [Var(k) for k in range(4)] + list(self.vel)

    def is_chart(self) -> bool:
        # by value: Num(-0.0) and Num(0) are other nodes than Num(0.0)
        return all(isinstance(v, Num) and v.number == 0.0 for v in self.vel)


@dataclass
class SpecialFunction:
    """A special phase function by observer-relative components."""

    f0: Field
    fi: List[Field]
    fbar: Field
    observer: Observer


class GalileiPhase:
    """All derived structures of a galilei model, built lazily and cached."""

    def __init__(self, model: Model):
        if model.kind != "galilei":
            raise ValueError("expected a galilei model, got %r" % model.kind)
        self.model = model
        self.coupling = model.coupling
        self.G = model.metric
        self.A = model.potential
        self.Ginv = inverse_nodes(self.G)
        self._memo = {}

    # -- spacetime level ----------------------------------------------------

    def metric(self, i: int, j: int) -> Field:
        return self.G[i - 1][j - 1]

    def inv_metric(self, i: int, j: int) -> Field:
        return self.Ginv[i - 1][j - 1]

    @cached
    def faraday(self) -> PForm:
        """F = dA of the declared electromagnetic potential."""
        return curvature_phi(self.A)

    @cached
    def curvature(self) -> PForm:
        """Total curvature 2-form: gravity plus (q/hbar) times Faraday."""
        phi = self.faraday().scaled(constant(self.coupling))
        if self.model.gravity2 is None:
            return phi
        return phi + self.model.gravity2

    @cached
    def K(self, lam: int, i: int, mu: int) -> Field:
        """Joined connection coefficient K_lam^i_mu (time row is zero)."""
        if i == 0:
            return constant(0.0)
        if lam > mu:
            return self.K(mu, i, lam)
        phi = self.curvature()
        acc = constant(0.0)
        if lam == 0 and mu == 0:
            for j in range(1, 4):
                acc = acc - self.inv_metric(i, j) * phi.component((0, j))
        elif lam == 0:
            h = mu
            for j in range(1, 4):
                inner = self.metric(h, j).partial(0) + phi.component((h, j))
                acc = acc - 0.5 * (self.inv_metric(i, j) * inner)
        else:
            h, k = lam, mu
            for j in range(1, 4):
                inner = (self.metric(j, k).partial(h)
                         + self.metric(j, h).partial(k)
                         - self.metric(h, k).partial(j))
                acc = acc - 0.5 * (self.inv_metric(i, j) * inner)
        return acc

    # -- phase level --------------------------------------------------------

    @cached
    def Gamma(self, lam: int, i: int) -> Field:
        """Phase connection component Gamma_lam^i (a phase field)."""
        return total([self.K(lam, i, 0)] + [self.K(lam, i, j) * velocity(j)
                                            for j in range(1, 4)])

    @cached
    def gamma(self, i: int) -> Field:
        """Dynamical connection component: the observed acceleration field."""
        return total([self.Gamma(0, i)] + [self.Gamma(h, i) * velocity(h)
                                           for h in range(1, 4)])

    def dynamical_vector(self) -> VectorField:
        """The second-order vector field d/dt of motions on the phase chart."""
        comps = [constant(1.0)] + [velocity(i) for i in range(1, 4)] \
            + [self.gamma(i) for i in range(1, 4)]
        return VectorField(comps)

    @cached
    def dynamical_fn(self):
        """The 7 components of `dynamical_vector` compiled into one
        function of a phase point, returning them as a list."""
        return compile_fields(self.dynamical_vector().comps)

    @cached
    def cosymplectic(self) -> PForm:
        """The closed 2-form Omega of the phase structure."""
        one = constant(1.0)
        a = [PForm(7, 1, {(3 + i,): one,
                          **{(lam,): -self.Gamma(lam, i) for lam in range(4)}})
             for i in range(1, 4)]
        return total(
            wedge(a[i - 1], PForm(7, 1, {(j,): one, (0,): -velocity(j)}))
            .scaled(self.metric(i, j))
            for i in range(1, 4) for j in range(1, 4))

    @cached
    def poisson_bivector(self) -> PForm:
        """The 2-vector Lambda inverse to Omega on the fibres."""
        one = constant(1.0)
        u = [PForm(7, 1, {(i,): one,
                          **{(3 + h,): self.Gamma(i, h) for h in range(1, 4)}})
             for i in range(1, 4)]
        return total(wedge(u[i - 1], PForm(7, 1, {(3 + j,): one}))
                     .scaled(self.inv_metric(i, j))
                     for i in range(1, 4) for j in range(1, 4))

    @cached
    def _gamma_upper(self, i: int, j: int) -> Field:
        """Gamma^{ij} = G^{ih} Gamma_h^j with both indices spatial."""
        return total(self.inv_metric(i, h) * self.Gamma(h, j)
                     for h in range(1, 4))

    def poisson(self, f: Field, g: Field) -> Field:
        """Poisson bracket of two phase functions."""
        # along x1..x6 only: the bracket reads no time derivative
        fp = {a: f.partial(a) for a in range(1, 7)}
        gp = {a: g.partial(a) for a in range(1, 7)}
        acc = total(self.inv_metric(i, j) * (fp[i] * gp[3 + j]
                                             - gp[i] * fp[3 + j])
                    for i in range(1, 4) for j in range(1, 4))
        for i in range(1, 4):
            for j in range(1, 4):
                skew = self._gamma_upper(i, j) - self._gamma_upper(j, i)
                acc = acc - skew * (fp[3 + i] * gp[3 + j])
        return acc

    # -- observers ----------------------------------------------------------

    def observed_curvature(self, observer: Optional[Observer] = None) -> PForm:
        """Pullback of Omega along an observer: a spacetime 2-form.

        The chart observer's pullback (the default) is built once, by
        `_chart_curvature`, since every special bracket contracts with it.
        """
        if observer is None or observer.is_chart():
            return self._chart_curvature()
        return self._pullback(observer)

    @cached
    def _chart_curvature(self) -> PForm:
        return self._pullback(Observer.chart())

    def _pullback(self, obs: Observer) -> PForm:
        sec = obs.section()
        if not all(isinstance(s, ExprField) for s in sec):
            raise ValueError("observer components must be expression "
                             "fields for the pullback")
        omega = self.cosymplectic()
        repl = dict(enumerate(sec))
        memo = {}  # Omega's components share subtrees; keep them shared
        comps = {}
        for lam in range(4):
            for mu in range(lam + 1, 4):
                comps[(lam, mu)] = total(
                    (substitute(fld, repl, memo)
                     * (sec[a].partial(lam) * sec[b].partial(mu)
                        - sec[a].partial(mu) * sec[b].partial(lam))
                     for (a, b), fld in omega.comps.items()), constant(0.0))
        return PForm(4, 2, comps)

    def observed_potential(self, observer: Optional[Observer] = None
                           ) -> List[ExprField]:
        """A spacetime potential with d(potential) = observed curvature.

        The homotopy integral A_mu(x) = sum_nu (x-b)^nu int_0^1 t
        Phi_nu_mu(b + t(x-b)) dt over the box center b inverts d on the
        (contractible) chart box.  Each component is one `Homotopy`
        expression node over fixed Gauss-Legendre nodes, exact for the
        polynomial and analytic components in practice, so it evaluates
        over a batch of points and differentiates symbolically like any
        other expression field.
        """
        phi = self.observed_curvature(observer)
        base = tuple(self.model.center().tolist())

        return [Homotopy(tuple(phi.component((nu, mu)) for nu in range(4)),
                         base, HOMOTOPY_TS, HOMOTOPY_WEIGHTS)
                for mu in range(4)]

    # -- special phase functions --------------------------------------------

    def special_value(self, sf: SpecialFunction) -> Field:
        """The phase function a special function's components describe."""
        delta = [velocity(i) - sf.observer.vel[i - 1] for i in range(1, 4)]
        acc = sf.fbar
        for i in range(1, 4):
            for j in range(1, 4):
                acc = acc + 0.5 * (sf.f0 * self.metric(i, j)
                                   * delta[i - 1] * delta[j - 1])
                acc = acc + sf.fi[i - 1] * self.metric(i, j) * delta[j - 1]
        return acc

    def change_observer(self, sf: SpecialFunction,
                        new: Observer) -> SpecialFunction:
        """Re-express the components relative to another observer."""
        v = [new.vel[k] - sf.observer.vel[k] for k in range(3)]
        fi = [sf.fi[k] + sf.f0 * v[k] for k in range(3)]
        fbar = sf.fbar
        for i in range(1, 4):
            for j in range(1, 4):
                fbar = fbar + sf.fi[i - 1] * self.metric(i, j) * v[j - 1]
                fbar = fbar + 0.5 * (sf.f0 * self.metric(i, j)
                                     * v[i - 1] * v[j - 1])
        return SpecialFunction(sf.f0, fi, fbar, new)

    def _in_chart(self, sf: SpecialFunction) -> SpecialFunction:
        """sf re-expressed relative to the chart observer."""
        return sf if sf.observer.is_chart() \
            else self.change_observer(sf, Observer.chart())

    def tangent_projection(self, sf: SpecialFunction) -> VectorField:
        """The spacetime vector field X[f] = f0 d_0 - f^i d_i."""
        chart = self._in_chart(sf)
        return VectorField([chart.f0] + [-chart.fi[k] for k in range(3)])

    def special_bracket(self, f: SpecialFunction,
                        g: SpecialFunction) -> SpecialFunction:
        """Closed-form special bracket.

        The component formula holds in chart components, so both arguments
        are re-expressed there first and the result is transitioned back to
        the observer of the first argument.
        """
        out_obs = f.observer
        f, g = self._in_chart(f), self._in_chart(g)
        phi = self.observed_curvature()

        def comp_bracket(ft, gt):
            acc = f.f0 * gt.partial(0) - g.f0 * ft.partial(0)
            for h in range(1, 4):
                acc = acc - f.fi[h - 1] * gt.partial(h) \
                    + g.fi[h - 1] * ft.partial(h)
            return acc

        h0 = comp_bracket(f.f0, g.f0)
        hi = [comp_bracket(f.fi[k], g.fi[k]) for k in range(3)]
        hbar = comp_bracket(f.fbar, g.fbar)
        for h in range(1, 4):
            mixed = f.f0 * g.fi[h - 1] - g.f0 * f.fi[h - 1]
            hbar = hbar - mixed * phi.component((0, h))
        for h in range(1, 4):
            for k in range(1, 4):
                hbar = hbar + f.fi[h - 1] * g.fi[k - 1] \
                    * phi.component((h, k))
        out = SpecialFunction(h0, hi, hbar, Observer.chart())
        if not out_obs.is_chart():
            out = self.change_observer(out, out_obs)
        return out

    def definitional_bracket_value(self, f: SpecialFunction,
                                   g: SpecialFunction) -> Field:
        """Oracle route: bracket value from Poisson plus dynamical terms."""
        fv = self.special_value(f)
        gv = self.special_value(g)
        gamma = self.dynamical_vector()
        # f0 is the same relative to every observer (`change_observer`)
        return self.poisson(fv, gv) + f.f0 * directional(gamma, gv) \
            - g.f0 * directional(gamma, fv)

    def hamiltonian_lift(self, sf: SpecialFunction) -> VectorField:
        """The phase vector field generated by a special function."""
        chart = self._in_chart(sf)
        val = self.special_value(chart)
        # d(value)/d(x^j_0), in closed form
        P = [total(chart.f0 * self.metric(j, k) * velocity(k)
                   + self.metric(k, j) * chart.fi[k - 1] for k in range(1, 4))
             for j in range(1, 4)]
        dval = [val.partial(j) for j in range(1, 4)]
        comps: List[Field] = [chart.f0]
        for i in range(1, 4):
            acc = chart.f0 * velocity(i)
            for j in range(1, 4):
                acc = acc - self.inv_metric(i, j) * P[j - 1]
            comps.append(acc)
        for i in range(1, 4):
            acc = chart.f0 * self.gamma(i)
            for j in range(1, 4):
                acc = acc + self.inv_metric(i, j) * dval[j - 1]
                skew = self._gamma_upper(i, j) - self._gamma_upper(j, i)
                acc = acc + skew * P[j - 1]
            comps.append(acc)
        return VectorField(comps)

    # -- distinguished special functions ------------------------------------

    def coordinate_function(self, lam: int) -> SpecialFunction:
        return SpecialFunction(constant(0.0), [constant(0.0)] * 3, Var(lam),
                               Observer.chart())

    def hamiltonian_function(self) -> SpecialFunction:
        """Observed energy (kinetic plus electromagnetic scalar term)."""
        fbar = -self.model.coupled_potential[0]
        return SpecialFunction(constant(1.0), [constant(0.0)] * 3, fbar,
                               Observer.chart())

    def momentum_function(self, i: int) -> SpecialFunction:
        """Observed momentum component along d_i."""
        fi = [constant(1.0) if k == i else constant(0.0) for k in range(1, 4)]
        fbar = self.model.coupled_potential[i]
        return SpecialFunction(constant(0.0), fi, fbar, Observer.chart())

    def momentum_square_function(self) -> SpecialFunction:
        """Squared momentum contracted with the inverse spacelike metric.

        Quadratic in the velocities, so the time component is 2 rather
        than 1; the upper-index potential A^i := G^ij A_j (with the
        coupling folded in) enters both the linear part and the scalar.
        """
        a = self.model.coupled_potential[1:]
        a_up = [total(self.inv_metric(i, j) * a[j - 1] for j in range(1, 4))
                for i in range(1, 4)]
        fbar = total(a_up[i] * a[i] for i in range(3))
        fi = [constant(2.0) * a_up[i] for i in range(3)]
        return SpecialFunction(constant(2.0), fi, fbar, Observer.chart())


