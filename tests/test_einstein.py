"""Tests for the Lorentzian phase-space structures.

The uniform-E model gives hand-computable goldens (hyperbolic motion,
rest-frame force, simple Faraday matrix); the structural laws (the
contraction identity suite, metric compatibility, closedness of the
2-form, bracket route agreement) are also exercised on the curved
models, where nothing simplifies.
"""

import math

import numpy as np
import pytest

from covphase.modelspec import (
    BinOp, Var, constant, load_builtin, parse_model_text, sample_points,
    velocity,
)
from covphase.einstein import (
    EinsteinPhase, ESpecialFunction, LightconeViolation,
)
from covphase.orbit import integrate_orbit
from covphase.smooth import (
    PForm, VectorField, contract, exterior_derivative, total, wedge,
)
from covphase.suites import _poly as poly_field
from covphase.suites import _random_especial as random_especial

from numutil import form_matrix

EINSTEIN_MODELS = ("minkowski", "uniform-e", "curved-einstein",
                   "schwarzschild-like")

E_FIELD = 0.5  # field strength declared in the uniform-e model file


def timelike_points(phase, n=12, seed=7, vmax=0.25):
    """Deterministic admissible phase points, comfortably inside the cone."""
    base = sample_points(phase.model, 2 * n)
    rng = np.random.default_rng(seed)
    out = []
    for xp in base:
        for _ in range(20):
            v = rng.uniform(-vmax, vmax, 3)
            p = np.concatenate([xp, v])
            if phase.radicand().value(p) < -0.1:
                out.append(p)
                break
        if len(out) == n:
            break
    assert len(out) == n
    return np.array(out)


def lorentz_force(ph):
    """Spacelike force field -c alpha0 g^{lam mu} (F_{0 mu} + F_{i mu} x^i_0),
    the oracle of the electromagnetic connection terms."""
    return VectorField([ph.alpha0() * total(ph.g_up(lam, mu) * ph.Fbar0(mu)
                                            for mu in range(4))
                        * (-ph.c) for lam in range(4)])


@pytest.fixture(scope="module")
def phases():
    return {name: EinsteinPhase(load_builtin(name))
            for name in EINSTEIN_MODELS}


class TestTimelike:
    def test_alpha0_at_rest(self, phases):
        p = np.zeros(7)
        assert phases["minkowski"].alpha0().value(p) == 1.0

    def test_alpha0_moving(self, phases):
        # 1/sqrt(1 - 0.36) = 1.25 exactly
        p = np.array([0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0])
        assert phases["minkowski"].alpha0().value(p) == 1.25

    def test_lightcone_violation_raises(self, phases):
        p = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.2, 0.0])
        with pytest.raises(LightconeViolation):
            phases["minkowski"].require_timelike(p)

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_sampled_points_admissible(self, phases, name):
        ph = phases[name]
        for p in timelike_points(ph):
            ph.require_timelike(p)  # must not raise

    # g00 divides by zero at x1 = 0; elsewhere the radicand is
    # -1 - 1/x1^2 + |v|^2
    DIV_MODEL = """
[model]
kind = einstein

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M
c = 1.0 T^-1 L

[box]
lo = -2, -2, -2, -2
hi = 2, 2, 2, 2

[metric]
g00 = -1 - 1 / x1^2
g11 = 1
g22 = 1
g33 = 1
"""

    @pytest.mark.parametrize("rows,cls", [
        (("good", "fails", "fast"), ZeroDivisionError),
        (("good", "fast", "fails"), LightconeViolation),
        (("good", "nan", "fails"), LightconeViolation),
        (("fails",), ZeroDivisionError),
        (("fast",), LightconeViolation),
        (("good", "good"), None),
    ], ids=["error-first", "lightcone-first", "nan-first", "error-alone",
            "lightcone-alone", "timelike"])
    def test_identity_rows_are_tested_in_row_order(self, rows, cls):
        # the first row that cannot be evaluated or is not timelike raises
        # what require_timelike raises there, the point named
        ph = EinsteinPhase(parse_model_text(self.DIV_MODEL))
        points = {"good": [0.0, 1.0, 0.0, 0.0, 0.1, 0.0, 0.0],
                  "fails": [0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0],
                  "fast": [0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
                  "nan": [0.0, 1.0, 0.0, 0.0, math.nan, 0.0, 0.0]}
        P = np.array([points[r] for r in rows])
        want = None
        try:
            for q in P:
                ph.require_timelike(q)
        except (ValueError, ArithmeticError) as exc:
            want = exc
        assert type(want) is (type(None) if cls is None else cls)
        if want is None:
            assert "contact-norm" in ph.identity_residuals(P)
        else:
            with pytest.raises(cls) as got:
                ph.identity_residuals(P)
            assert str(got.value) == str(want)
        with pytest.raises(ZeroDivisionError) as got:
            ph.require_timelike(points["fails"])
        assert str(got.value) == ("division by zero in expression at point "
                                  "%s" % points["fails"])


class TestIdentities:
    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_contraction_suite(self, phases, name):
        ph = phases[name]
        worst = {}
        for p in timelike_points(ph, n=10):
            for key, val in ph.identity_residuals(p[None]).items():
                worst[key] = max(worst.get(key, 0.0), val[0])
        bad = {k: v for k, v in worst.items() if v > 1e-8}
        assert not bad, bad

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_unit_observer_normalization(self, phases, name):
        # g(d, d) = -c^2 and tau(d) = 1 hold to tight tolerance
        ph = phases[name]
        c2 = ph.c ** 2
        for p in timelike_points(ph, n=8, seed=3):
            dee = np.array([ph.contact(lam).value(p) for lam in range(4)])
            gl = np.array([[ph.g_low(a, b).value(p) for b in range(4)]
                           for a in range(4)])
            tau = np.array([ph.tau(lam).value(p) for lam in range(4)])
            assert abs(dee @ gl @ dee + c2) < 1e-9
            assert abs(tau @ dee - 1.0) < 1e-9

    def test_adapted_basis_duality_minkowski(self, phases):
        ph = phases["minkowski"]
        p = np.array([0.2, -0.4, 0.1, 0.9, 0.3, -0.2, 0.1])
        b = [ph.base_b0()] + [ph.base_bi(i) for i in range(1, 4)]
        bt = [ph.base_beta0()] + [ph.base_betai(i) for i in range(1, 4)]
        bv = np.array([[f.value(p) for f in row] for row in b])
        btv = np.array([[f.value(p) for f in row] for row in bt])
        assert np.max(np.abs(btv @ bv.T - np.eye(4))) < 1e-10


CURVED_1D = """
[model]
kind = einstein
name = curved-1d

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M
c = 1.0 T^-1 L

[metric]
g00 = -1
g11 = (1 + x1)^2
g22 = 1
g33 = 1

[box]
lo = -2, -0.5, -2, -2
hi = 2, 2, 2, 2
"""


class TestConnection:
    def test_hand_checked_symbol(self):
        # g11 = (1 + x1)^2 gives K_1^1_1 = -1/(1 + x1)
        ph = EinsteinPhase(parse_model_text(CURVED_1D, "curved-1d"))
        for x1 in (0.0, 0.5, 1.5):
            p = np.array([0.0, x1, 0.0, 0.0, 0.0, 0.0, 0.0])
            assert abs(ph.K(1, 1, 1).value(p) + 1.0 / (1.0 + x1)) < 1e-12

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_metric_compatibility(self, phases, name):
        # partial_lam G_mu_nu + K_lam^rho_mu G_rho_nu
        #                     + K_lam^rho_nu G_rho_mu = 0
        ph = phases[name]
        pts = timelike_points(ph, n=6)
        worst = 0.0
        for p in pts:
            for lam in range(4):
                for mu in range(4):
                    for nu in range(mu, 4):
                        r = ph.metric(mu, nu).partial(lam).value(p)
                        for rho in range(4):
                            r += ph.K(lam, rho, mu).value(p) \
                                * ph.metric(rho, nu).value(p)
                            r += ph.K(lam, rho, nu).value(p) \
                                * ph.metric(rho, mu).value(p)
                        worst = max(worst, abs(r))
        assert worst < 1e-8

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_torsion_symmetry(self, phases, name):
        ph = phases[name]
        pts = timelike_points(ph, n=4)
        for p in pts:
            for nu in range(4):
                for lam in range(4):
                    for mu in range(lam, 4):
                        a = ph.K(lam, nu, mu).value(p)
                        b = ph.K(mu, nu, lam).value(p)
                        assert abs(a - b) < 1e-12


class TestUniformE:
    """Goldens in the gauge A = (E x1, 0, 0, 0) on flat spacetime."""

    def test_faraday(self, phases):
        ph = phases["uniform-e"]
        p = np.array([1.0, 0.5, -1.2, 0.7])
        F = form_matrix(ph.faraday(), p)
        expected = np.zeros((4, 4))
        expected[0, 1] = -E_FIELD
        expected[1, 0] = E_FIELD
        assert np.max(np.abs(F - expected)) < 1e-12

    def test_lorentz_force_at_rest(self, phases):
        # F_01 = -E pushes a charge at rest along +x1 with strength c E
        ph = phases["uniform-e"]
        p = np.zeros(7)
        force = lorentz_force(ph).at(p)
        assert np.allclose(force, [0.0, ph.c * E_FIELD, 0.0, 0.0],
                           atol=1e-12)

    def test_force_vanishes_without_field(self, phases):
        for name in ("minkowski", "schwarzschild-like"):
            ph = phases[name]
            for p in timelike_points(ph, n=4):
                assert np.max(np.abs(lorentz_force(ph).at(p))) == 0.0

    def test_dynamics_at_rest(self, phases):
        # gamma-bar^1 = q E / m at rest, other vertical coefficients zero
        ph = phases["uniform-e"]
        p = np.zeros(7)
        vec = ph.dynamical_vector().at(p)
        assert np.allclose(vec, [1.0, 0, 0, 0, E_FIELD, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("name", ("uniform-e", "curved-einstein"))
    def test_force_certifies_em_connection(self, phases, name):
        # the spacelike force equals c alpha0 (m/q) (c alpha0 gamma-em^i) b_i
        ph = phases[name]
        force = lorentz_force(ph)
        worst = 0.0
        for p in timelike_points(ph, n=8, seed=2):
            al = ph.alpha0().value(p)
            pace = ph.c * al
            got = np.zeros(4)
            for i in range(1, 4):
                gem = ph.Gamma_em(0, i).value(p)
                for j in range(1, 4):
                    gem += ph.Gamma_em(j, i).value(p) * p[3 + j]
                bi = np.array([f.value(p) for f in ph.base_bi(i)])
                got += pace * (ph.model.mass / ph.model.charge) \
                    * (pace * gem) * bi
            worst = max(worst, np.max(np.abs(got - force.at(p))))
        assert worst < 1e-10


class TestLawOfMotion:
    def test_straight_worldline_minkowski(self, phases):
        ph = phases["minkowski"]
        g = 1.0 / np.sqrt(1.0 - 0.36)
        x = np.array([[1.3 * g, 0.78 * g, 0.0, 0.0]])
        xd = np.array([[g, 0.6 * g, 0.0, 0.0]])
        r = ph.law_residual(x, xd, np.zeros((1, 4)))
        assert r.shape == (1, 4)
        assert np.max(np.abs(r)) < 1e-12

    def test_hyperbolic_worldline(self, phases):
        # uniform field: x0 = sinh(E s)/E, x1 = (cosh(E s) - 1)/E solves
        # the law of motion in proper-time parametrization
        ph = phases["uniform-e"]
        s = np.array([0.2, 0.9, 1.6])
        zero = np.zeros(3)
        x = np.stack([np.sinh(E_FIELD * s) / E_FIELD,
                      (np.cosh(E_FIELD * s) - 1.0) / E_FIELD,
                      zero + 0.4, zero - 0.2], axis=1)
        xd = np.stack([np.cosh(E_FIELD * s), np.sinh(E_FIELD * s),
                       zero, zero], axis=1)
        xdd = E_FIELD * np.stack([np.sinh(E_FIELD * s), np.cosh(E_FIELD * s),
                                  zero, zero], axis=1)
        r = ph.law_residual(x, xd, xdd)
        assert r.shape == (3, 4)
        assert np.max(np.abs(r)) < 1e-12
        # a row's residual does not depend on the other rows
        for k in range(3):
            one = ph.law_residual(x[k:k + 1], xd[k:k + 1], xdd[k:k + 1])
            assert one.tobytes() == r[k:k + 1].tobytes()

    def test_accelerated_worldline_fails(self, phases):
        # the same trajectory does not solve the free law
        ph = phases["minkowski"]
        s = 0.9
        x = np.array([[np.sinh(E_FIELD * s) / E_FIELD,
                       (np.cosh(E_FIELD * s) - 1.0) / E_FIELD, 0.0, 0.0]])
        xd = np.array([[np.cosh(E_FIELD * s), np.sinh(E_FIELD * s), 0.0,
                        0.0]])
        xdd = E_FIELD * np.array([[np.sinh(E_FIELD * s),
                                   np.cosh(E_FIELD * s), 0.0, 0.0]])
        assert np.max(np.abs(ph.law_residual(x, xd, xdd))) > 1e-2


class TestCosymplectic:
    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_closed(self, phases, name):
        ph = phases[name]
        dOm = exterior_derivative(ph.cosymplectic())
        rng = np.random.default_rng(1)
        worst = 0.0
        for p in timelike_points(ph, n=4):
            # evaluate each strict component once, then contract with
            # several vector triples
            vals = {key: fld.value(p) for key, fld in dOm.comps.items()}
            for _ in range(3):
                vs = [rng.standard_normal(7) for _ in range(3)]
                total = 0.0
                for key, cv in vals.items():
                    sub = np.array([[v[k] for k in key] for v in vs])
                    total += cv * np.linalg.det(sub)
                worst = max(worst, abs(total))
        assert worst < 1e-7

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_kernel_and_time_scale(self, phases, name):
        # i(gamma) Omega = 0 and tau(gamma) = 1
        ph = phases[name]
        gam = ph.dynamical_vector()
        ig = contract(gam, ph.cosymplectic())
        for p in timelike_points(ph, n=5, seed=9):
            vals = [ig.component((k,)).value(p) for k in range(7)]
            assert np.max(np.abs(vals)) < 1e-8
            tg = sum(ph.tau(lam).value(p) * gam.comps[lam].value(p)
                     for lam in range(4))
            assert abs(tg - 1.0) < 1e-9

    def test_volume_nondegenerate_minkowski(self, phases):
        # theta ^ Omega^3 has a nonzero top component
        ph = phases["minkowski"]
        Om = ph.cosymplectic()
        theta = PForm(7, 1, {(lam,): ph.theta(lam) for lam in range(4)})
        top = wedge(wedge(wedge(theta, Om), Om), Om)
        p = np.array([0.0, 0.3, -0.2, 0.5, 0.2, 0.1, -0.1])
        basis = list(np.eye(7))
        assert abs(top.evaluate(p, *basis)) > 1e-6

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_horizontal_potential(self, phases, name):
        # d(A-up) reproduces Omega, fixing the electromagnetic factor
        ph = phases[name]
        Aup = ph.horizontal_potential()
        one = PForm(7, 1, {(lam,): Aup[lam] for lam in range(4)})
        dA = exterior_derivative(one)
        Om = ph.cosymplectic()
        worst = 0.0
        for p in timelike_points(ph, n=5, seed=4):
            for a in range(7):
                for b in range(a + 1, 7):
                    r = dA.component((a, b)).value(p) \
                        - Om.component((a, b)).value(p)
                    worst = max(worst, abs(r))
        assert worst < 1e-7


class TestPoisson:
    @pytest.mark.parametrize("name", ("minkowski", "curved-einstein"))
    def test_antisymmetry(self, phases, name):
        ph = phases[name]
        rng = np.random.default_rng(21)
        f = poly_field(rng, nvars=7)
        g = poly_field(rng, nvars=7)
        fg = ph.poisson(f, g)
        gf = ph.poisson(g, f)
        for p in timelike_points(ph, n=6, seed=5):
            assert abs(fg.value(p) + gf.value(p)) < 1e-10

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_bivector_route(self, phases, name):
        # the coordinate formula agrees with contracting the bivector
        ph = phases[name]
        Lam = ph.poisson_bivector()
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(4):
            f = poly_field(rng, nvars=7)
            g = poly_field(rng, nvars=7)
            pois = ph.poisson(f, g)
            for p in timelike_points(ph, n=4, seed=6):
                df = np.array([f.partial(k).value(p) for k in range(7)])
                dg = np.array([g.partial(k).value(p) for k in range(7)])
                worst = max(worst, abs(Lam.evaluate(p, df, dg)
                                       - pois.value(p)))
        assert worst < 1e-8


class TestSpecialValues:
    def test_coordinates(self, phases):
        ph = phases["curved-einstein"]
        p = np.array([0.4, -0.3, 0.2, 0.6, 0.1, 0.0, -0.1])
        for lam in range(4):
            val = ph.special_value(ph.coordinate_function(lam))
            assert val.value(p) == p[lam]

    def test_energy_at_rest_minkowski(self, phases):
        # value of the observed energy is -G(d, d_0) = +1 at rest
        ph = phases["minkowski"]
        H = ph.hamiltonian_function()
        assert abs(ph.special_value(H).value(np.zeros(7)) - 1.0) < 1e-12
        assert abs(ph.sigma0(H).value(np.zeros(7)) - 1.0) < 1e-12

    def test_energy_gauge_term(self, phases):
        # switching on the potential shifts the energy by -coupling A_0
        ph = phases["uniform-e"]
        p = np.array([0.3, 0.8, 0.1, -0.2, 0.0, 0.0, 0.0])
        got = ph.special_value(ph.hamiltonian_function()).value(p)
        assert abs(got - (1.0 - ph.coupling * E_FIELD * p[1])) < 1e-12

    def test_momentum_values_minkowski(self, phases):
        # P_i evaluates to c alpha0 g_ij x^j_0 (spacelike part of d-flat)
        ph = phases["minkowski"]
        p = np.array([0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0])
        got = ph.special_value(ph.momentum_function(1)).value(p)
        assert abs(got - 1.25 * 0.6) < 1e-12

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_observed_theta_of_the_chart_velocities_is_theta(self, phases,
                                                             name):
        # one quadratic form: the observer whose velocities are the chart's
        # x^i_0 has the chart's own theta, node for node
        ph = phases[name]
        seen = ph.observed_theta([velocity(1), velocity(2), velocity(3)])
        for lam in range(4):
            assert seen[lam] is ph.theta(lam)

    def test_observed_component_matches_on_fibre(self, phases):
        # the observer pullback of a special function agrees with its
        # phase value at points whose velocity is the observer's
        ph = phases["curved-einstein"]
        rng = np.random.default_rng(23)
        sf = random_especial(rng)
        obs = [constant(0.12), constant(-0.2), constant(0.05)]
        seen = ph.observed_component(sf, obs)
        val = ph.special_value(sf)
        for _ in range(6):
            x = rng.uniform(-0.6, 0.6, 4)
            p = np.concatenate([x, [0.12, -0.2, 0.05]])
            assert abs(seen.value(x) - val.value(p)) < 1e-10


class TestBracketGoldens:
    def test_coordinates_commute(self, phases):
        ph = phases["curved-einstein"]
        p = np.array([0.1, 0.2, -0.3, 0.4, 0.1, -0.05, 0.2])
        for lam in range(4):
            for mu in range(4):
                br = ph.special_bracket(ph.coordinate_function(lam),
                                        ph.coordinate_function(mu))
                assert ph.special_value(br).value(p) == 0.0

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_coordinate_momentum(self, phases, name):
        ph = phases[name]
        pts = timelike_points(ph, n=4, seed=11)
        for p in pts:
            for i in range(1, 4):
                P = ph.momentum_function(i)
                for lam in range(4):
                    br = ph.special_bracket(ph.coordinate_function(lam), P)
                    want = 1.0 if lam == i else 0.0
                    assert abs(ph.special_value(br).value(p) - want) < 1e-12

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_coordinate_energy(self, phases, name):
        ph = phases[name]
        H = ph.hamiltonian_function()
        for p in timelike_points(ph, n=4, seed=12):
            for lam in range(4):
                br = ph.special_bracket(ph.coordinate_function(lam), H)
                want = -1.0 if lam == 0 else 0.0
                assert abs(ph.special_value(br).value(p) - want) < 1e-12

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_energy_momentum(self, phases, name):
        # the gauge terms cancel against the Faraday twist exactly
        ph = phases[name]
        H = ph.hamiltonian_function()
        for p in timelike_points(ph, n=4, seed=13):
            for i in range(1, 4):
                br = ph.special_bracket(H, ph.momentum_function(i))
                assert abs(ph.special_value(br).value(p)) < 1e-12


class TestBracketRoutes:
    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_closed_vs_definitional(self, phases, name):
        ph = phases[name]
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(5):
            f = random_especial(rng)
            g = random_especial(rng)
            closed = ph.special_value(ph.special_bracket(f, g))
            defn = ph.definitional_bracket_value(f, g)
            for p in timelike_points(ph, n=5, seed=14):
                worst = max(worst, abs(closed.value(p) - defn.value(p)))
        assert worst < 1e-7

    def test_distinguished_pairs_definitional(self, phases):
        ph = phases["curved-einstein"]
        H = ph.hamiltonian_function()
        pairs = [(ph.coordinate_function(2), H),
                 (H, ph.momentum_function(1)),
                 (ph.momentum_function(2), ph.momentum_function(3))]
        for f, g in pairs:
            closed = ph.special_value(ph.special_bracket(f, g))
            defn = ph.definitional_bracket_value(f, g)
            for p in timelike_points(ph, n=4, seed=15):
                assert abs(closed.value(p) - defn.value(p)) < 1e-8

    def test_antisymmetry(self, phases):
        ph = phases["schwarzschild-like"]
        rng = np.random.default_rng(32)
        f = random_especial(rng)
        g = random_especial(rng)
        fg = ph.special_bracket(f, g)
        gf = ph.special_bracket(g, f)
        p = timelike_points(ph, n=1, seed=16)[0]
        for mu in range(4):
            assert abs(fg.comps[mu].value(p) + gf.comps[mu].value(p)) < 1e-12
        assert abs(fg.fbar.value(p) + gf.fbar.value(p)) < 1e-12

    @pytest.mark.parametrize("name", ("uniform-e", "curved-einstein"))
    def test_jacobi(self, phases, name):
        # dF = 0, so the twisted bracket satisfies the Jacobi identity
        ph = phases[name]
        rng = np.random.default_rng(33)
        f, g, h = (random_especial(rng) for _ in range(3))
        acc = None
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            term = ph.special_bracket(ph.special_bracket(a, b), c)
            if acc is None:
                acc = term
            else:
                acc = ESpecialFunction(
                    [x + y for x, y in zip(acc.comps, term.comps)],
                    acc.fbar + term.fbar)
        val = ph.special_value(acc)
        for p in timelike_points(ph, n=5, seed=17):
            assert abs(val.value(p)) < 1e-7


class TestHamiltonianLift:
    @pytest.mark.parametrize("name", ("minkowski", "curved-einstein"))
    def test_special_lift_projects(self, phases, name):
        # with sigma = tau(X) the lift of a special function pushes down
        # to its tangent part X
        ph = phases[name]
        rng = np.random.default_rng(41)
        sf = random_especial(rng)
        lift = ph.hamiltonian_lift(ph.sigma0(sf), ph.special_value(sf))
        worst = 0.0
        for p in timelike_points(ph, n=6, seed=18):
            got = np.array([lift.comps[lam].value(p) for lam in range(4)])
            want = np.array([sf.comps[lam].value(p) for lam in range(4)])
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-9

    def test_nonspecial_witness_not_projectable(self, phases):
        # a cubic velocity function has velocity-dependent spacetime
        # components, so no spacetime vector field can match them
        ph = phases["curved-einstein"]
        w = BinOp("*", BinOp("*", Var(4), Var(4)), Var(4))
        lift = ph.hamiltonian_lift(constant(0.0), w)
        x = np.array([0.1, -0.2, 0.3, 0.0])
        rng = np.random.default_rng(42)
        samples = []
        for _ in range(12):
            v = rng.uniform(-0.25, 0.25, 3)
            p = np.concatenate([x, v])
            if ph.radicand().value(p) < -0.1:
                samples.append([lift.comps[lam].value(p)
                                for lam in range(4)])
        spread = np.max(np.ptp(np.array(samples), axis=0))
        assert spread > 1e-3

    def test_unit_lift_is_dynamics(self, phases):
        # sigma = 1 with a constant function gives the dynamical vector
        ph = phases["schwarzschild-like"]
        lift = ph.hamiltonian_lift(constant(1.0), constant(0.0))
        gam = ph.dynamical_vector()
        for p in timelike_points(ph, n=4, seed=19):
            assert np.max(np.abs(lift.at(p) - gam.at(p))) < 1e-12


class TestOrbit:
    def test_hyperbolic_motion(self, phases):
        # integrate the uniform-field dynamics and compare with the
        # analytic hyperbola over proper time 2
        res = integrate_orbit(phases["uniform-e"].model, [0.0] * 4,
                              [0.0] * 3, 2.0, 1e-3)
        assert len(res.states) == 2001
        state = res.states[-1]
        s = 2.0
        assert abs(state[0] - np.sinh(E_FIELD * s) / E_FIELD) < 1e-9
        assert abs(state[1] - (np.cosh(E_FIELD * s) - 1.0) / E_FIELD) < 1e-9
        assert abs(state[4] - np.tanh(E_FIELD * s)) < 1e-9
