"""Tests for the Galilei phase-space structures.

Golden values come from hand calculations on the flat and uniform-B
models (where everything is elementary), while the structural laws
(metric compatibility, closedness of the 2-form, bracket route
agreement, observer independence) are checked on the curved models too.
"""

import numpy as np
import pytest

from covphase.modelspec import (
    BinOp, ExprField, Num, Var, load_builtin, parse_expr, sample_points,
)
from covphase import smooth
from covphase.galilei import (
    HOMOTOPY_TS, HOMOTOPY_WEIGHTS, GalileiPhase, Observer,
)
from covphase.quantum import two_form_on
from covphase.suites import _poly as poly_field
from covphase.suites import _random_gspecial as random_special
from covphase.suites import run_suite
from covphase.smooth import (
    PForm, VectorField, contract, directional, exterior_derivative,
    lie_bracket, wedge,
)

from numutil import central_grad, form_matrix

GALILEI_MODELS = ("flat-free", "uniform-b", "curved-galilei", "curved-gravity")

B_FIELD = 2.0  # field strength declared in the uniform-b model file


def phase_points(model, n=12, seed=7):
    """Deterministic phase points: spacetime samples plus bounded velocities."""
    base = sample_points(model, n)
    rng = np.random.default_rng(seed)
    vel = rng.uniform(-0.8, 0.8, size=(len(base), 3))
    return np.hstack([base, vel])


@pytest.fixture(scope="module")
def phases():
    return {name: GalileiPhase(load_builtin(name)) for name in GALILEI_MODELS}


class TestConnection:
    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_time_row_vanishes(self, phases, name):
        # compatibility with dt: the time components of K are all zero
        ph = phases[name]
        pts = phase_points(ph.model, 6)
        for lam in range(4):
            for mu in range(4):
                vals = [ph.K(lam, 0, mu).value(p) for p in pts]
                assert np.max(np.abs(vals)) == 0.0

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_metric_compatibility(self, phases, name):
        # partial_lam G_ij + K_lam^h_i G_hj + K_lam^h_j G_hi = 0;
        # for lam = 0 the antisymmetric curvature part of K cancels in
        # the symmetrization, so this certifies the declared K table.
        ph = phases[name]
        pts = phase_points(ph.model, 6)
        worst = 0.0
        for p in pts:
            for lam in range(4):
                for i in range(1, 4):
                    for j in range(i, 4):
                        if lam == 0:
                            r = ph.metric(i, j).partial(0).value(p)
                        else:
                            r = ph.metric(i, j).partial(lam).value(p)
                        for h in range(1, 4):
                            r += ph.K(lam, h, i).value(p) * ph.metric(h, j).value(p)
                            r += ph.K(lam, h, j).value(p) * ph.metric(h, i).value(p)
                        worst = max(worst, abs(r))
        assert worst < 1e-10

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_lower_index_symmetry(self, phases, name):
        ph = phases[name]
        pts = phase_points(ph.model, 4)
        for p in pts:
            for i in range(1, 4):
                for lam in range(4):
                    for mu in range(lam, 4):
                        a = ph.K(lam, i, mu).value(p)
                        b = ph.K(mu, i, lam).value(p)
                        assert a == b


class TestUniformB:
    """Hand-computed goldens in the symmetric gauge A = (B/2)(-x2, x1, 0)."""

    def test_faraday(self, phases):
        ph = phases["uniform-b"]
        p = np.array([1.0, 3.5, -1.2, 0.7])
        F = form_matrix(ph.faraday(), p)
        expected = np.zeros((4, 4))
        expected[1, 2] = B_FIELD
        expected[2, 1] = -B_FIELD
        assert np.max(np.abs(F - expected)) < 1e-12

    def test_curvature_is_coupled_faraday(self, phases):
        ph = phases["uniform-b"]
        p = np.array([0.0, 2.0, 1.0, -0.5])
        F = form_matrix(ph.faraday(), p)
        Phi = form_matrix(ph.curvature(), p)
        assert np.max(np.abs(Phi - ph.coupling * F)) < 1e-12

    def test_gamma_is_lorentz_force(self, phases):
        ph = phases["uniform-b"]
        pts = phase_points(ph.model, 8)
        for p in pts:
            g1 = ph.gamma(1).value(p)
            g2 = ph.gamma(2).value(p)
            g3 = ph.gamma(3).value(p)
            assert abs(g1 - B_FIELD * p[5]) < 1e-12
            assert abs(g2 + B_FIELD * p[4]) < 1e-12
            assert abs(g3) < 1e-12

    def test_connection_coefficients(self, phases):
        ph = phases["uniform-b"]
        p = np.array([0.3, 1.1, -0.6, 0.2, 0.5, -0.4, 0.9])
        assert abs(ph.Gamma(0, 1).value(p) - 0.5 * B_FIELD * p[5]) < 1e-12
        assert abs(ph.Gamma(0, 2).value(p) + 0.5 * B_FIELD * p[4]) < 1e-12
        assert abs(ph.Gamma(1, 2).value(p) + 0.5 * B_FIELD) < 1e-12
        assert abs(ph.Gamma(2, 1).value(p) - 0.5 * B_FIELD) < 1e-12
        assert ph.Gamma(3, 3).value(p) == 0.0


class TestCosymplectic:
    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_closed(self, phases, name):
        ph = phases[name]
        dO = exterior_derivative(ph.cosymplectic())
        rng = np.random.default_rng(11)
        pts = phase_points(ph.model, 5)
        worst = 0.0
        for p in pts:
            for _ in range(4):
                u, v, w = rng.uniform(-1, 1, (3, 7))
                worst = max(worst, abs(dO.evaluate(p, u, v, w)))
        assert worst < 1e-10

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_dynamical_vector_in_kernel(self, phases, name):
        ph = phases[name]
        ker = contract(ph.dynamical_vector(), ph.cosymplectic())
        pts = phase_points(ph.model, 5)
        worst = 0.0
        for p in pts:
            for lam in range(7):
                worst = max(worst, abs(ker.component((lam,)).value(p)))
        assert worst < 1e-10

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_time_normalization(self, phases, name):
        # the dynamical vector projects onto d/dx0 with unit coefficient
        ph = phases[name]
        p = phase_points(ph.model, 1)[0]
        assert ph.dynamical_vector().at(p)[0] == 1.0

    def test_volume_scalar_flat(self, phases):
        ph = phases["flat-free"]
        dt = PForm(7, 1, {(0,): Num(1.0)})
        O = ph.cosymplectic()
        vol = wedge(wedge(wedge(dt, O), O), O)
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        basis = np.eye(7)
        val = vol.evaluate(p, *basis)
        assert abs(abs(val) - 6.0) < 1e-12

    def test_poisson_matches_bivector(self, phases):
        # the bivector on the gradients, Lambda(df, dg)
        for name in ("uniform-b", "curved-gravity"):
            ph = phases[name]
            rng = np.random.default_rng(3)
            f = poly_field(rng, nvars=7)
            g = poly_field(rng, nvars=7)
            direct = ph.poisson(f, g)
            via_bv = two_form_on(
                ph.poisson_bivector(),
                VectorField([f.partial(k) for k in range(7)]),
                VectorField([g.partial(k) for k in range(7)]))
            for p in phase_points(ph.model, 5):
                assert abs(direct.value(p) - via_bv.value(p)) < 1e-10


class TestSpecialValues:
    def test_momentum_value_example(self, phases):
        # flat model, first momentum at velocity (2, 0, 0) has value 2
        ph = phases["flat-free"]
        p = np.array([0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        val = ph.special_value(ph.momentum_function(1)).value(p)
        assert val == 2.0

    def test_hamiltonian_value_flat(self, phases):
        ph = phases["flat-free"]
        p = np.array([0.1, -0.2, 0.3, 0.0, 1.0, 2.0, -1.0])
        val = ph.special_value(ph.hamiltonian_function()).value(p)
        assert abs(val - 0.5 * (1 + 4 + 1)) < 1e-12

    def test_momentum_square_value(self, phases):
        ph = phases["uniform-b"]
        p = np.array([0.2, 0.8, -0.5, 0.1, 0.6, -0.3, 0.4])
        a1 = -0.5 * B_FIELD * p[2]
        a2 = 0.5 * B_FIELD * p[1]
        expected = (p[4] ** 2 + p[5] ** 2 + p[6] ** 2
                    + 2.0 * (a1 * p[4] + a2 * p[5]) + a1 ** 2 + a2 ** 2)
        val = ph.special_value(ph.momentum_square_function()).value(p)
        assert abs(val - expected) < 1e-12

    def test_tangent_projections(self, phases):
        ph = phases["uniform-b"]
        p = np.array([0.3, 1.0, -0.7, 0.4, 0.0, 0.0, 0.0])
        assert np.array_equal(
            ph.tangent_projection(ph.coordinate_function(2)).at(p),
            np.zeros(4))
        assert np.array_equal(
            ph.tangent_projection(ph.hamiltonian_function()).at(p),
            np.array([1.0, 0, 0, 0]))
        assert np.array_equal(
            ph.tangent_projection(ph.momentum_function(2)).at(p),
            np.array([0.0, 0, -1.0, 0]))
        # X of the squared momentum picks up the raised potential
        xv = ph.tangent_projection(ph.momentum_square_function()).at(p)
        a_up = np.array([-B_FIELD * p[2], B_FIELD * p[1], 0.0])
        assert np.max(np.abs(xv - np.array([2.0, -a_up[0], -a_up[1], -a_up[2]]))) < 1e-12


class TestBracketGoldens:
    """Closed-form bracket values on the flat model, exact."""

    def test_coordinates_commute(self, phases):
        ph = phases["flat-free"]
        p = np.array([0.1, 0.2, 0.3, 0.4, 1.0, -1.0, 0.5])
        for lam in range(4):
            for mu in range(4):
                br = ph.special_bracket(ph.coordinate_function(lam),
                                        ph.coordinate_function(mu))
                assert ph.special_value(br).value(p) == 0.0

    def test_coordinate_momentum(self, phases):
        ph = phases["flat-free"]
        p = np.array([0.1, 0.2, 0.3, 0.4, 1.0, -1.0, 0.5])
        for lam in range(4):
            for i in range(1, 4):
                br = ph.special_bracket(ph.coordinate_function(lam),
                                        ph.momentum_function(i))
                want = 1.0 if lam == i else 0.0
                assert abs(ph.special_value(br).value(p) - want) < 1e-12

    def test_coordinate_hamiltonian(self, phases):
        ph = phases["flat-free"]
        p = np.array([0.1, 0.2, 0.3, 0.4, 1.0, -1.0, 0.5])
        for lam in range(4):
            br = ph.special_bracket(ph.coordinate_function(lam),
                                    ph.hamiltonian_function())
            want = -1.0 if lam == 0 else 0.0
            assert abs(ph.special_value(br).value(p) - want) < 1e-12

    def test_hamiltonian_momentum(self, phases):
        for name in ("flat-free", "uniform-b"):
            ph = phases[name]
            p = np.array([0.1, 0.2, 0.3, 0.4, 1.0, -1.0, 0.5])
            for i in range(1, 4):
                br = ph.special_bracket(ph.hamiltonian_function(),
                                        ph.momentum_function(i))
                assert abs(ph.special_value(br).value(p)) < 1e-12

    def test_momenta_commute(self, phases):
        # the potential terms cancel the curvature term exactly
        ph = phases["uniform-b"]
        p = np.array([0.5, 1.2, -0.8, 0.3, 0.4, 0.9, -0.2])
        for i in range(1, 4):
            for j in range(1, 4):
                br = ph.special_bracket(ph.momentum_function(i),
                                        ph.momentum_function(j))
                assert abs(ph.special_value(br).value(p)) < 1e-12

    def test_momentum_square_brackets(self, phases):
        # [x^lam, C0] = -2 delta^lam_0 + 2 A^h delta^lam_h
        ph = phases["uniform-b"]
        p = np.array([0.5, 1.2, -0.8, 0.3, 0.4, 0.9, -0.2])
        c0 = ph.momentum_square_function()
        a_up = np.array([-B_FIELD * p[2], B_FIELD * p[1], 0.0])
        for lam in range(4):
            br = ph.special_bracket(ph.coordinate_function(lam), c0)
            want = -2.0 if lam == 0 else a_up[lam - 1]
            assert abs(ph.special_value(br).value(p) - want) < 1e-12

    def test_jacobi_identity(self, phases):
        for name in ("uniform-b", "curved-gravity"):
            ph = phases[name]
            f = ph.hamiltonian_function()
            g = ph.momentum_function(1)
            h = ph.momentum_square_function()
            total = None
            for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
                term = ph.special_bracket(a, ph.special_bracket(b, c))
                val = ph.special_value(term)
                total = val if total is None else total + val
            for p in phase_points(ph.model, 5):
                assert abs(total.value(p)) < 1e-9


class TestBracketRoutes:
    """The closed form must agree with {f,g} + gamma-corrected terms."""

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_random_specials(self, phases, name):
        ph = phases[name]
        rng = np.random.default_rng(29)
        pts = phase_points(ph.model, 6)
        worst = 0.0
        for _ in range(4):
            f = random_special(rng)
            g = random_special(rng)
            closed = ph.special_value(ph.special_bracket(f, g))
            defin = ph.definitional_bracket_value(f, g)
            for p in pts:
                worst = max(worst, abs(closed.value(p) - defin.value(p)))
        assert worst < 1e-9

    def test_distinguished_functions(self, phases):
        ph = phases["curved-gravity"]
        cands = [ph.hamiltonian_function(), ph.momentum_function(2),
                 ph.momentum_square_function(), ph.coordinate_function(1)]
        pts = phase_points(ph.model, 5)
        for f in cands:
            for g in cands:
                closed = ph.special_value(ph.special_bracket(f, g))
                defin = ph.definitional_bracket_value(f, g)
                for p in pts:
                    assert abs(closed.value(p) - defin.value(p)) < 1e-9

    def test_antisymmetry(self, phases):
        ph = phases["curved-galilei"]
        rng = np.random.default_rng(5)
        f, g = random_special(rng), random_special(rng)
        ab = ph.special_value(ph.special_bracket(f, g))
        ba = ph.special_value(ph.special_bracket(g, f))
        for p in phase_points(ph.model, 5):
            assert abs(ab.value(p) + ba.value(p)) < 1e-11

    def test_tangent_projection_is_morphism(self, phases):
        ph = phases["curved-gravity"]
        rng = np.random.default_rng(17)
        f, g = random_special(rng), random_special(rng)
        Xf = ph.tangent_projection(f)
        Xg = ph.tangent_projection(g)
        Xfg = ph.tangent_projection(ph.special_bracket(f, g))
        lb = lie_bracket(Xf, Xg)
        for p in phase_points(ph.model, 4):
            assert np.max(np.abs(Xfg.at(p[:4]) - lb.at(p[:4]))) < 1e-10


class TestObservers:
    def make_observer(self):
        # position-dependent boost, quadratic in the coordinates
        v1 = BinOp("*", Num(0.3), Var(1))
        v2 = BinOp("+", Num(0.2), BinOp("*", Num(0.1),
                                        BinOp("*", Var(0), Var(2))))
        v3 = Num(-0.4)
        return Observer([v1, v2, v3])

    def test_zero_velocity_is_the_chart_observer(self):
        # every zero constant is the chart observer, whatever its sign or
        # type, though each is its own interned node
        zeros = [Num(-0.0), Num(0), parse_expr("0")]
        assert Observer(zeros).is_chart()
        assert not self.make_observer().is_chart()

    def test_round_trip(self, phases):
        ph = phases["uniform-b"]
        rng = np.random.default_rng(23)
        f = random_special(rng)
        o = self.make_observer()
        back = ph.change_observer(ph.change_observer(f, o), Observer.chart())
        pts = phase_points(ph.model, 5)
        for p in pts:
            assert abs(back.f0.value(p) - f.f0.value(p)) < 1e-12
            for k in range(3):
                assert abs(back.fi[k].value(p) - f.fi[k].value(p)) < 1e-12
            assert abs(back.fbar.value(p) - f.fbar.value(p)) < 1e-12

    def test_value_is_observer_independent(self, phases):
        ph = phases["curved-galilei"]
        rng = np.random.default_rng(31)
        f = random_special(rng)
        moved = ph.change_observer(f, self.make_observer())
        v_chart = ph.special_value(f)
        v_moved = ph.special_value(moved)
        for p in phase_points(ph.model, 6):
            assert abs(v_chart.value(p) - v_moved.value(p)) < 1e-11

    def test_bracket_ignores_representation(self, phases):
        ph = phases["uniform-b"]
        rng = np.random.default_rng(37)
        f, g = random_special(rng), random_special(rng)
        o = self.make_observer()
        plain = ph.special_value(ph.special_bracket(f, g))
        mixed = ph.special_value(
            ph.special_bracket(ph.change_observer(f, o), g))
        for p in phase_points(ph.model, 5):
            assert abs(plain.value(p) - mixed.value(p)) < 1e-10

    def test_observed_curvature_pullback(self, phases):
        # chart observer: on uniform-b the observed 2-form is just the
        # coupled Faraday tensor restricted to spacetime
        ph = phases["uniform-b"]
        obs = ph.observed_curvature()
        p = np.array([0.4, 1.5, -0.9, 0.6])
        M = form_matrix(obs, p)
        F = form_matrix(ph.faraday(), p)
        assert np.max(np.abs(M - ph.coupling * F)) < 1e-12


class TestObservedPotential:
    def test_quadrature_literals_are_gauss_legendre(self):
        # the written-out rule is bit for bit the 12-node Gauss-Legendre
        # rule of numpy.polynomial on [0, 1], weights times nodes
        from numpy.polynomial.legendre import leggauss

        t, w = leggauss(12)
        t = 0.5 * (t + 1)
        assert list(map(float.hex, HOMOTOPY_TS)) \
            == list(map(float.hex, t.tolist()))
        assert list(map(float.hex, HOMOTOPY_WEIGHTS)) \
            == list(map(float.hex, (0.5 * w * t).tolist()))

    def test_symmetric_gauge_recovered(self, phases):
        # uniform-b is declared in the symmetric gauge about the box
        # center axis, so the homotopy potential reproduces it exactly
        ph = phases["uniform-b"]
        pot = ph.observed_potential()
        pts = sample_points(ph.model, 6)
        for p in pts:
            assert abs(pot[0].value(p)) < 1e-12
            assert abs(pot[1].value(p) - ph.coupling * (-0.5 * B_FIELD * p[2])) < 1e-10
            assert abs(pot[2].value(p) - ph.coupling * (0.5 * B_FIELD * p[1])) < 1e-10
            assert abs(pot[3].value(p)) < 1e-12

    @pytest.mark.parametrize("name", ["uniform-b", "curved-gravity"])
    def test_derivative_recovers_curvature(self, phases, name):
        ph = phases[name]
        pot = ph.observed_potential()
        one_form = PForm(4, 1, {(lam,): pot[lam] for lam in range(4)})
        dpot = exterior_derivative(one_form)
        target = ph.observed_curvature()
        pts = sample_points(ph.model, 5)
        for p in pts:
            diff = form_matrix(dpot, p) - form_matrix(target, p)
            assert np.max(np.abs(diff)) < 1e-8

    @pytest.mark.parametrize("name", ["uniform-b", "curved-gravity"])
    def test_built_without_closures(self, phases, name, monkeypatch):
        # the potential is expression nodes all the way down, and so is
        # everything galilei-quantum builds from it
        def refuse(self, fn):
            raise AssertionError("closure field built")

        monkeypatch.setattr(smooth.FuncField, "__init__", refuse)
        pot = phases[name].observed_potential()
        assert all(isinstance(a, ExprField) for a in pot)
        rep = run_suite(phases[name].model, "galilei-quantum", points=2,
                        seed=3)
        assert rep.all_passed() and rep.records

    @pytest.mark.parametrize("name", ["uniform-b", "curved-gravity"])
    def test_symbolic_partials_match_jets(self, phases, name):
        pot = phases[name].observed_potential()
        P = sample_points(phases[name].model, 4)
        for a in pot:
            sym = np.array([a.partial(i).values(P) for i in range(4)]).T
            num = np.array([central_grad(a.value, p) for p in P])
            # central differences (step 1e-5) to 1e-8 of the gradient's
            # largest entry; they differ by 3e-11 at most here
            assert np.max(np.abs(sym - num)) <= 1e-8 * np.max(np.abs(num))


class TestHamiltonianLift:
    @pytest.mark.parametrize("name", ["flat-free", "curved-gravity"])
    def test_defining_equation(self, phases, name):
        # i(X) Omega = d(value) - (gamma.value) dt, and X^0 equals f^0
        ph = phases[name]
        rng = np.random.default_rng(41)
        O = ph.cosymplectic()
        gam = ph.dynamical_vector()
        for _ in range(3):
            f = random_special(rng)
            val = ph.special_value(f)
            X = ph.hamiltonian_lift(f)
            lhs = contract(X, O)
            drift = directional(gam, val)
            for p in phase_points(ph.model, 4):
                assert abs(X.at(p)[0] - f.f0.value(p)) < 1e-12
                grad = central_grad(val.value, p)  # within 6e-11 here
                for lam in range(7):
                    rhs = grad[lam] - (drift.value(p) if lam == 0 else 0.0)
                    assert abs(lhs.component((lam,)).value(p) - rhs) < 1e-9

    def test_lifts_of_distinguished_functions_flat(self, phases):
        # on the free flat model the lifts are the coordinate translations
        ph = phases["flat-free"]
        p = np.array([0.1, -0.3, 0.2, 0.5, 0.7, -0.2, 0.4])
        XH = ph.hamiltonian_lift(ph.hamiltonian_function())
        assert np.max(np.abs(XH.at(p) - np.eye(7)[0])) < 1e-12
        for i in range(1, 4):
            XP = ph.hamiltonian_lift(ph.momentum_function(i))
            assert np.max(np.abs(XP.at(p) + np.eye(7)[i])) < 1e-12
