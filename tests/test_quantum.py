"""Tests for Hermitian vector fields and the quantum representation map.

The classification machinery is checked against its defining algebra
(round trips, the intertwining property, the exact Jacobi defect), and
the representation maps against hand-computed operators for the
distinguished phase functions.
"""

import math

import numpy as np
import pytest

from covphase.modelspec import (
    BinOp, Num, Var, builtin_model_dir, constant, load_builtin,
    parse_model_text,
)
from covphase.galilei import GalileiPhase, Observer, SpecialFunction
from covphase.einstein import EinsteinPhase
from covphase.smooth import (
    PForm, VectorField, exterior_derivative, field_values, total,
)
from covphase.suites import _poly as poly_field
from covphase.suites import _random_especial as random_especial
from covphase.suites import _random_gspecial as random_gspecial
from covphase import quantum as qt


def poly_vector(rng, dim=4):
    return VectorField([poly_field(rng, dim) for _ in range(dim)])


def poly_pair(rng, dim=4):
    return qt.GaugePair(poly_vector(rng, dim), poly_field(rng, dim))


def three_form_on(w, X, Y, Z):
    """w(X, Y, Z), expanding the component determinants; the oracle of the
    Jacobi defect."""
    return total((fld * (X.comps[a] * (Y.comps[b] * Z.comps[c]
                                       - Y.comps[c] * Z.comps[b])
                         - X.comps[b] * (Y.comps[a] * Z.comps[c]
                                         - Y.comps[c] * Z.comps[a])
                         + X.comps[c] * (Y.comps[a] * Z.comps[b]
                                         - Y.comps[b] * Z.comps[a]))
                  for (a, b, c), fld in w.comps.items()), constant(0.0))


class TestClassification:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        A = [poly_field(rng) for _ in range(4)]
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        back = qt.classify_j(A, qt.classify_h(A, y))
        again = qt.classify_h(A, qt.classify_j(A, qt.classify_h(A, y)))
        direct = qt.classify_h(A, y)
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert abs(back.b.value(p) - y.b.value(p)) < 1e-12
            assert abs(again.bbar.value(p) - direct.bbar.value(p)) < 1e-12

    def test_intertwining_random_connections(self):
        # classify_j carries the curvature-twisted pair bracket to the
        # plain Hermitian bracket whenever the twist is d(potential)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(3):
            A = [poly_field(rng) for _ in range(4)]
            phi = exterior_derivative(
                PForm(4, 1, {(k,): A[k] for k in range(4)}))
            for _ in range(5):
                p1, p2 = poly_pair(rng), poly_pair(rng)
                lhs = qt.hermitian_bracket(qt.classify_j(A, p1),
                                           qt.classify_j(A, p2))
                rhs = qt.classify_j(A, qt.pair_bracket(phi, p1, p2))
                for _ in range(3):
                    p = rng.uniform(-1, 1, 4)
                    worst = max(worst, abs(lhs.b.value(p) - rhs.b.value(p)))
                    worst = max(worst,
                                np.max(np.abs(lhs.X.at(p) - rhs.X.at(p))))
        assert worst < 1e-8

    def test_bracket_antisymmetry(self):
        rng = np.random.default_rng(3)
        phi = PForm(4, 2, {(a, b): poly_field(rng)
                           for a in range(4) for b in range(a + 1, 4)})
        p1, p2 = poly_pair(rng), poly_pair(rng)
        fw = qt.pair_bracket(phi, p1, p2)
        bw = qt.pair_bracket(phi, p2, p1)
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            assert abs(fw.bbar.value(p) + bw.bbar.value(p)) < 1e-12
            assert np.max(np.abs(fw.X.at(p) + bw.X.at(p))) < 1e-12


class TestJacobi:
    def test_defect_equals_curvature_derivative(self):
        # for an arbitrary (non-closed) twist the cyclic sum is exactly
        # (d phi)(X1, X2, X3) on the scalar slot and zero on the vector
        rng = np.random.default_rng(4)
        phi = PForm(4, 2, {(a, b): poly_field(rng)
                           for a in range(4) for b in range(a + 1, 4)})
        dphi = exterior_derivative(phi)
        for _ in range(3):
            trip = [poly_pair(rng) for _ in range(3)]
            cyc = qt.jacobi_cycle(phi, *trip)
            want = three_form_on(dphi, trip[0].X, trip[1].X, trip[2].X)
            for _ in range(4):
                p = rng.uniform(-1, 1, 4)
                assert np.max(np.abs(cyc.X.at(p))) < 1e-10
                assert abs(cyc.bbar.value(p) - want.value(p)) < 1e-9

    def test_closed_twist_satisfies_jacobi(self):
        rng = np.random.default_rng(5)
        A = [poly_field(rng) for _ in range(4)]
        phi = exterior_derivative(PForm(4, 1, {(k,): A[k] for k in range(4)}))
        trip = [poly_pair(rng) for _ in range(3)]
        cyc = qt.jacobi_cycle(phi, *trip)
        for _ in range(5):
            p = rng.uniform(-1, 1, 4)
            assert abs(cyc.bbar.value(p)) < 1e-9

    def test_witness_breaks_jacobi(self):
        # phi = x0 d1^d2 is not closed; three coordinate translations
        # already see the defect
        phi = PForm(4, 2, {(1, 2): Var(0)})
        trip = [qt.GaugePair(VectorField(
            [constant(1.0 if k == j else 0.0) for k in range(4)]),
            constant(0.0)) for j in range(3)]
        cyc = qt.jacobi_cycle(phi, *trip)
        p = np.array([0.3, 0.1, -0.2, 0.5])
        assert abs(cyc.bbar.value(p)) > 1e-3


class TestLinearFields:
    def test_hermitian_shape_accepted(self):
        rng = np.random.default_rng(61)
        y = qt.to_linear_field(
            qt.HermitianVF(poly_vector(rng), poly_field(rng)))
        pts = [rng.uniform(-1, 1, 4) for _ in range(10)]
        ok, worst = qt.is_hermitian(y, pts)
        assert ok and worst < 1e-12

    def test_liouville_rejected(self):
        # identity fibre matrix scales sections and stretches the metric
        rng = np.random.default_rng(62)
        y = qt.LinearQuantumField(poly_vector(rng),
                                  [[constant(1.0), constant(0.0)],
                                   [constant(0.0), constant(1.0)]])
        pts = [rng.uniform(-1, 1, 4) for _ in range(5)]
        ok, worst = qt.is_hermitian(y, pts)
        assert not ok and worst > 0.9

    def test_symmetric_off_diagonal_rejected(self):
        rng = np.random.default_rng(63)
        beta = poly_field(rng)
        y = qt.LinearQuantumField(poly_vector(rng),
                                  [[constant(0.0), beta],
                                   [beta, constant(0.0)]])
        pts = [np.array([0.5, 0.5, 0.5, 0.5])]
        ok, _ = qt.is_hermitian(y, pts)
        assert not ok

    def test_nan_entry_is_not_hermitian(self):
        # max(0.0, nan) == 0.0 once let a NaN entry pass
        rng = np.random.default_rng(65)
        beta = poly_field(rng)
        y = qt.LinearQuantumField(poly_vector(rng),
                                  [[constant(0.0), -beta],
                                   [beta, constant(math.nan)]])
        ok, worst = qt.is_hermitian(y, [np.zeros(4), np.ones(4)])
        assert not ok and math.isnan(worst)

    def test_round_trip_encoding(self):
        rng = np.random.default_rng(64)
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        back = qt.to_hermitian_field(qt.to_linear_field(y))
        p = rng.uniform(-1, 1, 4)
        assert back.b.value(p) == y.b.value(p)
        assert np.array_equal(back.X.at(p), y.X.at(p))

    def test_metric_derivative_table(self):
        # hermitian fields annihilate both tables; the identity matrix
        # leaves coefficient 2 on the diagonal of the symmetric part
        rng = np.random.default_rng(65)
        p = rng.uniform(-1, 1, 4)
        herm = qt.to_linear_field(
            qt.HermitianVF(poly_vector(rng), poly_field(rng)))
        real, imag = qt.lie_derivative_hermitian_metric(herm)
        for a in range(2):
            for b in range(2):
                assert abs(real[a][b].value(p)) < 1e-12
                assert abs(imag[a][b].value(p)) < 1e-12
        liou = qt.LinearQuantumField(poly_vector(rng),
                                     [[constant(1.0), constant(0.0)],
                                      [constant(0.0), constant(1.0)]])
        real, imag = qt.lie_derivative_hermitian_metric(liou)
        assert abs(real[0][0].value(p) - 2.0) < 1e-12
        assert abs(real[1][1].value(p) - 2.0) < 1e-12
        assert abs(real[0][1].value(p)) < 1e-12
        assert abs(imag[0][1].value(p) + 2.0) < 1e-12

    def test_metric_derivative_flow_oracle(self):
        # finite-difference derivative of the fibre product along the
        # flow matches the coefficient tables
        rng = np.random.default_rng(66)
        y = qt.LinearQuantumField(poly_vector(rng),
                                  [[poly_field(rng), poly_field(rng)],
                                   [poly_field(rng), poly_field(rng)]])
        real, imag = qt.lie_derivative_hermitian_metric(y)
        x0 = rng.uniform(-0.5, 0.5, 4)
        u0 = rng.standard_normal(2)
        v0 = rng.standard_normal(2)

        def rhs(state):
            x, u, v = state[:4], state[4:6], state[6:8]
            m = np.array([[f.value(x) for f in row] for row in y.Ymat])
            return np.concatenate([y.X.at(x), m @ u, m @ v])

        def flow(t, steps=4):
            state = np.concatenate([x0, u0, v0])
            h = t / steps
            for _ in range(steps):
                k1 = rhs(state)
                k2 = rhs(state + 0.5 * h * k1)
                k3 = rhs(state + 0.5 * h * k2)
                k4 = rhs(state + h * k3)
                state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            return state[4:6], state[6:8]

        def product(u, v):
            return u @ v, u[1] * v[0] - u[0] * v[1]

        eps = 1e-3
        up, vp = flow(eps)
        um, vm = flow(-eps)
        fd_re = (product(up, vp)[0] - product(um, vm)[0]) / (2 * eps)
        fd_im = (product(up, vp)[1] - product(um, vm)[1]) / (2 * eps)
        want_re = sum(real[a][b].value(x0) * u0[a] * v0[b]
                      for a in range(2) for b in range(2))
        want_im = sum(imag[a][b].value(x0) * u0[a] * v0[b]
                      for a in range(2) for b in range(2))
        assert abs(fd_re - want_re) < 1e-5
        assert abs(fd_im - want_im) < 1e-5


class TestSectionAction:
    def test_pure_phase_generator(self):
        # the i II field multiplies sections by -i
        y = qt.HermitianVF(VectorField([constant(0.0)] * 4), constant(1.0))
        are, aim = qt.act_on_section(y, constant(1.0), constant(0.0))
        p = np.zeros(4)
        assert are.value(p) == 0.0 and aim.value(p) == -1.0

    def test_plain_derivative(self):
        y = qt.HermitianVF(VectorField([constant(1.0)] + [constant(0.0)] * 3),
                           constant(0.0))
        are, aim = qt.act_on_section(y, Var(0), constant(0.0))
        p = np.array([0.3, 0.1, 0.2, 0.4])
        assert abs(are.value(p) - 1.0) < 1e-12 and aim.value(p) == 0.0

    def test_two_section_compatibility(self):
        # X.h(psi, chi) = h(Y.psi, chi) + h(psi, Y.chi), both parts
        rng = np.random.default_rng(8)
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        r1, i1 = poly_field(rng), poly_field(rng)
        r2, i2 = poly_field(rng), poly_field(rng)
        a1r, a1i = qt.act_on_section(y, r1, i1)
        a2r, a2i = qt.act_on_section(y, r2, i2)
        h_re = r1 * r2 + i1 * i2
        h_im = i1 * r2 - r1 * i2
        lhs_re = qt.directional(y.X, h_re)
        lhs_im = qt.directional(y.X, h_im)
        rhs_re = (a1r * r2 + a1i * i2) + (r1 * a2r + i1 * a2i)
        rhs_im = (a1i * r2 - a1r * i2) + (i1 * a2r - r1 * a2i)
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert abs(lhs_re.value(p) - rhs_re.value(p)) < 1e-9
            assert abs(lhs_im.value(p) - rhs_im.value(p)) < 1e-9

    def test_commutator_oracle(self):
        # acting twice in both orders realizes the Hermitian bracket
        rng = np.random.default_rng(6)
        re, im = poly_field(rng), poly_field(rng)
        y1 = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        y2 = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        r1, i1 = qt.act_on_section(y2, re, im)
        r12, i12 = qt.act_on_section(y1, r1, i1)
        r2, i2 = qt.act_on_section(y1, re, im)
        r21, i21 = qt.act_on_section(y2, r2, i2)
        rb, ib = qt.act_on_section(qt.hermitian_bracket(y1, y2), re, im)
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert abs(r12.value(p) - r21.value(p) - rb.value(p)) < 1e-10
            assert abs(i12.value(p) - i21.value(p) - ib.value(p)) < 1e-10

    def test_fibre_metric_preserved(self):
        rng = np.random.default_rng(7)
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        re, im = poly_field(rng), poly_field(rng)
        defect = qt.metric_derivative_defect(y, re, im)
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert abs(defect.value(p)) < 1e-10


class TestBracketExamples:
    def test_phase_generators_commute(self):
        y = qt.HermitianVF(VectorField([constant(0.0)] * 4), constant(1.0))
        br = qt.hermitian_bracket(y, y)
        p = np.zeros(4)
        assert br.b.value(p) == 0.0
        assert np.max(np.abs(br.X.at(p))) == 0.0

    def test_vector_against_multiplier(self):
        # [X, i bbar II] = i (X.bbar) II
        rng = np.random.default_rng(9)
        X = poly_vector(rng)
        bbar = poly_field(rng)
        br = qt.hermitian_bracket(
            qt.HermitianVF(X, constant(0.0)),
            qt.HermitianVF(VectorField([constant(0.0)] * 4), bbar))
        want = qt.directional(X, bbar)
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert np.max(np.abs(br.X.at(p))) < 1e-12
            assert abs(br.b.value(p) - want.value(p)) < 1e-10


class TestCurvature:
    def test_constant_potential_is_flat(self):
        phi = qt.curvature_phi([constant(0.3), constant(-1.2), constant(0.0),
                                constant(2.0)])
        p = np.array([0.4, -0.6, 0.1, 0.9])
        for a in range(4):
            for b in range(4):
                assert phi.component((a, b)).value(p) == 0.0

    def test_defect_identity(self):
        # horizontal lifts close up to the curvature of the potential:
        # [j(X1,0), j(X2,0)] = j([X1,X2], phi(X1,X2))
        rng = np.random.default_rng(10)
        A = [poly_field(rng) for _ in range(4)]
        phi = qt.curvature_phi(A)
        X1, X2 = poly_vector(rng), poly_vector(rng)
        lhs = qt.hermitian_bracket(
            qt.classify_j(A, qt.GaugePair(X1, constant(0.0))),
            qt.classify_j(A, qt.GaugePair(X2, constant(0.0))))
        twist = qt.two_form_on(phi, X1, X2)
        rhs = qt.classify_j(A, qt.GaugePair(
            qt.lie_bracket(X1, X2), constant(0.0)))
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            assert np.max(np.abs(lhs.X.at(p) - rhs.X.at(p))) < 1e-10
            assert abs(lhs.b.value(p) - rhs.b.value(p)
                       - twist.value(p)) < 1e-10

    def test_curvature_is_closed(self):
        rng = np.random.default_rng(11)
        A = [poly_field(rng) for _ in range(4)]
        dphi = exterior_derivative(qt.curvature_phi(A))
        for _ in range(6):
            p = rng.uniform(-1, 1, 4)
            for key in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
                assert abs(dphi.component(key).value(p)) < 1e-10


class TestCentralExtension:
    def test_base_projection_is_a_morphism(self):
        # the vector part of classify_h depends only on the vector part
        rng = np.random.default_rng(12)
        A = [poly_field(rng) for _ in range(4)]
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        pair = qt.classify_h(A, y)
        p = rng.uniform(-1, 1, 4)
        assert np.array_equal(pair.X.at(p), y.X.at(p))

    def test_kernel_is_abelian(self):
        # multipliers i bbar II bracket to zero among themselves
        rng = np.random.default_rng(13)
        zero = VectorField([constant(0.0)] * 4)
        y1 = qt.HermitianVF(zero, poly_field(rng))
        y2 = qt.HermitianVF(zero, poly_field(rng))
        br = qt.hermitian_bracket(y1, y2)
        for _ in range(4):
            p = rng.uniform(-1, 1, 4)
            assert abs(br.b.value(p)) < 1e-12
            assert np.max(np.abs(br.X.at(p))) < 1e-12

    def test_kernel_is_an_ideal(self):
        # bracketing a general field into a multiplier stays a multiplier
        rng = np.random.default_rng(14)
        y = qt.HermitianVF(poly_vector(rng), poly_field(rng))
        mult = qt.HermitianVF(VectorField([constant(0.0)] * 4),
                              poly_field(rng))
        br = qt.hermitian_bracket(y, mult)
        want = qt.directional(y.X, mult.b)
        for _ in range(4):
            p = rng.uniform(-1, 1, 4)
            assert np.max(np.abs(br.X.at(p))) < 1e-12
            assert abs(br.b.value(p) - want.value(p)) < 1e-10


GALILEI_MODELS = ("flat-free", "uniform-b", "curved-galilei",
                  "curved-gravity")


@pytest.fixture(scope="module")
def gphases():
    return {name: GalileiPhase(load_builtin(name))
            for name in GALILEI_MODELS}


@pytest.fixture(scope="module")
def gpotentials(gphases):
    return {name: ph.observed_potential() for name, ph in gphases.items()}


class TestGalileiMap:
    @pytest.mark.parametrize("name", ("flat-free", "uniform-b"))
    def test_coordinate_operators(self, gphases, gpotentials, name):
        ph, pot = gphases[name], gpotentials[name]
        x = np.array([0.7, 0.5, -0.3, 0.2])
        for lam in range(4):
            F = qt.galilei_map(ph, ph.coordinate_function(lam), potential=pot)
            assert np.max(np.abs(F.X.at(x))) < 1e-12
            assert abs(F.b.value(x) - x[lam]) < 1e-10

    @pytest.mark.parametrize("name", ("flat-free", "uniform-b"))
    def test_energy_and_momentum_operators(self, gphases, gpotentials, name):
        # F(H_0) = d_0 and F(P_i) = -d_i: the gauge terms cancel
        ph, pot = gphases[name], gpotentials[name]
        x = np.array([0.7, 0.5, -0.3, 0.2])
        FH = qt.galilei_map(ph, ph.hamiltonian_function(), potential=pot)
        assert np.allclose(FH.X.at(x), [1, 0, 0, 0], atol=1e-12)
        assert abs(FH.b.value(x)) < 1e-10
        for i in range(1, 4):
            FP = qt.galilei_map(ph, ph.momentum_function(i), potential=pot)
            want = np.zeros(4)
            want[i] = -1.0
            assert np.allclose(FP.X.at(x), want, atol=1e-12)
            assert abs(FP.b.value(x)) < 1e-10

    def test_momentum_square_operator(self, gphases, gpotentials):
        # F(C_0) = 2 d_0 - 2 A^i_0 d_i + i (2 A_0 - A^i_0 A_i) II in the
        # coupled symmetric gauge of the uniform-B model
        ph, pot = gphases["uniform-b"], gpotentials["uniform-b"]
        x = np.array([0.7, 0.5, -0.3, 0.2])
        FC = qt.galilei_map(ph, ph.momentum_square_function(), potential=pot)
        acpl = [ph.coupling * ph.A[k].value(x) for k in range(4)]
        gup = np.array([[ph.inv_metric(i, j).value(x)
                         for j in range(1, 4)] for i in range(1, 4)])
        aup = gup @ np.array(acpl[1:])
        want = np.concatenate([[2.0], -2.0 * aup])
        assert np.max(np.abs(FC.X.at(x) - want)) < 1e-10
        want_b = 2.0 * acpl[0] - aup @ np.array(acpl[1:])
        assert abs(FC.b.value(x) - want_b) < 1e-10

    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_observer_independence(self, gphases, gpotentials, name):
        # a polynomial boost with the transported potential gives the
        # same Hermitian field
        ph, pot = gphases[name], gpotentials[name]
        rng = np.random.default_rng(11)
        boost = Observer([poly_field(rng) for _ in range(3)])
        potb = qt.boosted_potential(ph, pot, Observer.chart(), boost)
        worst = 0.0
        for _ in range(3):
            sf = random_gspecial(rng)
            Fa = qt.galilei_map(ph, sf, potential=pot)
            Fb = qt.galilei_map(ph, sf, observer=boost, potential=potb)
            for _ in range(4):
                x = rng.uniform(-0.8, 0.8, 4)
                worst = max(worst, abs(Fa.b.value(x) - Fb.b.value(x)))
                worst = max(worst, np.max(np.abs(Fa.X.at(x) - Fb.X.at(x))))
        assert worst < 1e-8

    def test_boosted_potential_matches_observed_curvature(self, gphases,
                                                          gpotentials):
        # the transported potential is a potential for the curvature the
        # boosted observer sees
        ph = gphases["curved-gravity"]
        rng = np.random.default_rng(12)
        boost = Observer([poly_field(rng) for _ in range(3)])
        potb = qt.boosted_potential(ph, gpotentials["curved-gravity"],
                                    Observer.chart(), boost)
        dpb = exterior_derivative(
            PForm(4, 1, {(k,): potb[k] for k in range(4)}))
        phib = ph.observed_curvature(boost)
        for _ in range(4):
            x = rng.uniform(-0.6, 0.6, 4)
            for a in range(4):
                for b in range(a + 1, 4):
                    r = dpb.component((a, b)).value(x) \
                        - phib.component((a, b)).value(x)
                    assert abs(r) < 1e-8

    @pytest.mark.parametrize("name", ("uniform-b", "curved-gravity"))
    def test_intertwines_special_bracket(self, gphases, gpotentials, name):
        ph, pot = gphases[name], gpotentials[name]
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(3):
            f, g = random_gspecial(rng), random_gspecial(rng)
            lhs = qt.hermitian_bracket(qt.galilei_map(ph, f, potential=pot),
                                       qt.galilei_map(ph, g, potential=pot))
            rhs = qt.galilei_map(ph, ph.special_bracket(f, g), potential=pot)
            for _ in range(3):
                x = rng.uniform(-0.7, 0.7, 4)
                worst = max(worst, abs(lhs.b.value(x) - rhs.b.value(x)))
                worst = max(worst, np.max(np.abs(lhs.X.at(x) - rhs.X.at(x))))
        assert worst < 1e-8


EINSTEIN_MODELS = ("minkowski", "uniform-e", "curved-einstein",
                   "schwarzschild-like")


@pytest.fixture(scope="module")
def ephases():
    return {name: EinsteinPhase(load_builtin(name))
            for name in EINSTEIN_MODELS}


class TestEinsteinMap:
    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_distinguished_operators(self, ephases, name):
        ph = ephases[name]
        x = np.array([0.4, -0.3, 0.2, 0.5])
        for lam in range(4):
            F = qt.einstein_map(ph, ph.coordinate_function(lam))
            assert np.max(np.abs(F.X.at(x))) == 0.0
            assert abs(F.b.value(x) - x[lam]) < 1e-12
        FH = qt.einstein_map(ph, ph.hamiltonian_function())
        assert np.allclose(FH.X.at(x), [1, 0, 0, 0], atol=1e-12)
        assert abs(FH.b.value(x)) < 1e-12
        for i in range(1, 4):
            FP = qt.einstein_map(ph, ph.momentum_function(i))
            want = np.zeros(4)
            want[i] = -1.0
            assert np.allclose(FP.X.at(x), want, atol=1e-12)
            assert abs(FP.b.value(x)) < 1e-12

    @pytest.mark.parametrize("name", ("uniform-e", "curved-einstein"))
    def test_observed_route_agrees(self, ephases, name):
        # splitting the potential through an observer and recombining
        # reproduces the direct map
        ph = ephases[name]
        rng = np.random.default_rng(21)
        obs = [constant(0.1), BinOp("*", Num(0.05), Var(1)), constant(-0.08)]
        worst = 0.0
        for _ in range(3):
            sf = random_especial(rng)
            Fa = qt.einstein_map(ph, sf)
            Fo = qt.einstein_observed_map(ph, sf, obs)
            for _ in range(4):
                x = rng.uniform(-0.7, 0.7, 4)
                worst = max(worst, abs(Fa.b.value(x) - Fo.b.value(x)))
        assert worst < 1e-8

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_intertwines_special_bracket(self, ephases, name):
        ph = ephases[name]
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(3):
            f, g = random_especial(rng), random_especial(rng)
            lhs = qt.hermitian_bracket(qt.einstein_map(ph, f),
                                       qt.einstein_map(ph, g))
            rhs = qt.einstein_map(ph, ph.special_bracket(f, g))
            for _ in range(3):
                x = rng.uniform(-0.7, 0.7, 4)
                worst = max(worst, abs(lhs.b.value(x) - rhs.b.value(x)))
                worst = max(worst, np.max(np.abs(lhs.X.at(x) - rhs.X.at(x))))
        assert worst < 1e-8


def coupled_copy(name: str):
    """The builtin model name with q = 0.7 and hbar = 1.3."""
    text = (builtin_model_dir() / (name + ".ini")).read_text()
    for old, new in (("q = 1.0 ", "q = 0.7 "), ("hbar = 1.0 ", "hbar = 1.3 ")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return parse_model_text(text, name)


class TestCoupledPotential:
    """At a coupling other than 1, (q/hbar)A read from the model gives
    the same scalar parts as the product constant(coupling) * A."""

    def points(self, model):
        rng = np.random.default_rng(31)
        return np.hstack([rng.uniform(model.box_lo, model.box_hi, (20, 4)),
                          rng.uniform(-0.5, 0.5, (20, 3))])

    def assert_bit_equal(self, model, pairs):
        P = self.points(model)
        vals = [np.broadcast_to(v, (20,)) for v in
                field_values([f for pair in pairs for f in pair], P)]
        for k, (got, want) in enumerate(zip(vals[::2], vals[1::2])):
            assert got.tobytes() == want.tobytes(), k

    def test_galilei_scalar_parts(self):
        model = coupled_copy("uniform-b")
        assert model.coupling == 0.7 / 1.3
        assert model.coupled_potential is model.coupled_potential
        ph = GalileiPhase(model)
        a = [constant(model.coupling) * ph.A[i] for i in range(4)]
        a_up = [total(ph.inv_metric(i, j) * a[j] for j in range(1, 4))
                for i in range(1, 4)]
        pairs = [(ph.hamiltonian_function().fbar, -a[0]),
                 (ph.momentum_square_function().fbar,
                  total(a_up[i] * a[i + 1] for i in range(3)))]
        pairs += [(ph.momentum_function(i).fbar, a[i]) for i in range(1, 4)]
        self.assert_bit_equal(model, pairs)

    def test_einstein_scalar_parts(self):
        model = coupled_copy("uniform-e")
        assert model.coupling == 0.7 / 1.3
        assert model.coupled_potential is model.coupled_potential
        ph = EinsteinPhase(model)
        a = [constant(model.coupling) * ph.A[i] for i in range(4)]
        pairs = [(ph.hamiltonian_function().fbar, -a[0])]
        pairs += [(ph.momentum_function(i).fbar, a[i]) for i in range(1, 4)]
        self.assert_bit_equal(model, pairs)


class TestInverseMaps:
    @pytest.mark.parametrize("name", GALILEI_MODELS)
    def test_galilei_round_trip(self, gphases, gpotentials, name):
        ph, pot = gphases[name], gpotentials[name]
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(4):
            sf = random_gspecial(rng)
            back = qt.galilei_inverse_map(
                ph, qt.galilei_map(ph, sf, potential=pot), potential=pot)
            for _ in range(4):
                x = rng.uniform(-0.7, 0.7, 4)
                worst = max(worst, abs(back.f0.value(x) - sf.f0.value(x)))
                for k in range(3):
                    worst = max(worst,
                                abs(back.fi[k].value(x) - sf.fi[k].value(x)))
                worst = max(worst, abs(back.fbar.value(x) - sf.fbar.value(x)))
        assert worst < 1e-10

    def test_galilei_round_trip_moving_observer(self, gphases):
        # against a boosted observer the slots change but the round trip
        # through the quantum side still recovers them
        ph = gphases["uniform-b"]
        obs = Observer([constant(0.3), constant(-0.1), constant(0.2)])
        pot = ph.observed_potential(obs)
        rng = np.random.default_rng(32)
        sf = SpecialFunction(poly_field(rng),
                             [poly_field(rng) for _ in range(3)],
                             poly_field(rng), obs)
        back = qt.galilei_inverse_map(
            ph, qt.galilei_map(ph, sf, observer=obs, potential=pot),
            observer=obs, potential=pot)
        for _ in range(4):
            x = rng.uniform(-0.7, 0.7, 4)
            assert abs(back.f0.value(x) - sf.f0.value(x)) < 1e-10
            for k in range(3):
                assert abs(back.fi[k].value(x) - sf.fi[k].value(x)) < 1e-10
            assert abs(back.fbar.value(x) - sf.fbar.value(x)) < 1e-10

    @pytest.mark.parametrize("name", EINSTEIN_MODELS)
    def test_einstein_round_trip(self, ephases, name):
        ph = ephases[name]
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(4):
            sf = random_especial(rng)
            back = qt.einstein_inverse_map(ph, qt.einstein_map(ph, sf))
            for _ in range(4):
                x = rng.uniform(-0.7, 0.7, 4)
                for lam in range(4):
                    worst = max(worst, abs(back.comps[lam].value(x)
                                           - sf.comps[lam].value(x)))
                worst = max(worst, abs(back.fbar.value(x) - sf.fbar.value(x)))
        assert worst < 1e-10

    def test_multiplier_inverts_to_coordinate(self, ephases):
        # i x0 II comes back as the coordinate special function
        ph = ephases["uniform-e"]
        y = qt.HermitianVF(VectorField([constant(0.0)] * 4), Var(0))
        sf = qt.einstein_inverse_map(ph, y)
        x = np.array([0.6, 0.2, -0.4, 0.3])
        assert abs(sf.fbar.value(x) - x[0]) < 1e-12
        for lam in range(4):
            assert sf.comps[lam].value(x) == 0.0
