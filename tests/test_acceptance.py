"""End-to-end acceptance gate for the package.

One test per numbered criterion, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line for each.  The tolerances below are
the contract: they are stated here verbatim and nowhere loosened.  Tests
that carry a runtime bound measure it with perf_counter around the
whole workload, including setup.
"""

import json
import subprocess
import sys
import time

import numpy as np

from covphase.modelspec import BinOp, Num, Var, constant, load_builtin
from covphase.smooth import PForm, VectorField, contract, \
    exterior_derivative, wedge
from covphase.smooth import worst as worst_of
from covphase.galilei import GalileiPhase, Observer
from covphase.einstein import EinsteinPhase
from covphase.orbit import integrate_orbit
from covphase.suites import _poly as poly_field
from covphase.suites import _random_especial as random_especial
from covphase.suites import _random_gspecial as random_gspecial
from covphase import quantum as qt

GALILEI_MODELS = ("flat-free", "uniform-b", "curved-gravity",
                  "curved-galilei")
EINSTEIN_MODELS = ("minkowski", "uniform-e", "schwarzschild-like",
                   "curved-einstein")


def poly_pair(rng):
    return qt.GaugePair(VectorField([poly_field(rng) for _ in range(4)]),
                        poly_field(rng))


def gphase_points(model, n, seed, vmax=2.0):
    """Random phase points in the model box with bounded velocities."""
    rng = np.random.default_rng(seed)
    lo, hi = model.box_lo, model.box_hi
    span = hi - lo
    base = rng.uniform(lo + 0.05 * span, hi - 0.05 * span, size=(n, 4))
    return np.hstack([base, rng.uniform(-vmax, vmax, size=(n, 3))])


def timelike_points(phase, n, seed, vmax=0.25):
    """Random admissible phase points, comfortably inside the cone."""
    rng = np.random.default_rng(seed)
    lo, hi = phase.model.box_lo, phase.model.box_hi
    span = hi - lo
    rad = phase.radicand()
    out = []
    while len(out) < n:
        p = np.concatenate([rng.uniform(lo + 0.05 * span, hi - 0.05 * span),
                            rng.uniform(-vmax, vmax, 3)])
        if rad.value(p) < -0.1:
            out.append(p)
    return np.array(out)


def test_criterion_01():
    """Classification intertwining and pair-bracket Jacobi, with witness.

    Five random polynomial gauge potentials, one hundred random triples
    of (vector field, function) pairs.  classify_j must carry the
    twisted pair bracket to the Hermitian field bracket to 1e-8, the
    Jacobi cycle of the pair bracket must vanish to 1e-8 when the twist
    is exact, and the non-closed twist must break Jacobi by more than
    1e-3.  The whole suite has to finish inside ten seconds.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = rng.uniform(-1.0, 1.0, size=(5, 4))
    worst_int = 0.0
    worst_jac = 0.0
    for _ in range(5):
        A = [poly_field(rng) for _ in range(4)]
        phi = qt.curvature_phi(A)
        for _ in range(20):
            trip = [poly_pair(rng) for _ in range(3)]
            lhs = qt.hermitian_bracket(qt.classify_j(A, trip[0]),
                                       qt.classify_j(A, trip[1]))
            rhs = qt.classify_j(A, qt.pair_bracket(phi, trip[0], trip[1]))
            for x in pts:
                worst_int = worst_of(worst_int,
                                     abs(lhs.b.value(x) - rhs.b.value(x)))
                worst_int = worst_of(worst_int, float(
                    np.max(np.abs(lhs.X.at(x) - rhs.X.at(x)))))
            cyc = qt.jacobi_cycle(phi, *trip)
            for x in pts[:2]:
                worst_jac = worst_of(worst_jac, abs(cyc.bbar.value(x)))
                worst_jac = worst_of(worst_jac,
                                     float(np.max(np.abs(cyc.X.at(x)))))
    # the twist x^0 d1^d2 is not closed; coordinate translations expose
    # the exact d(twist) defect in the cycle
    phi_bad = PForm(4, 2, {(1, 2): Var(0)})
    trips = [qt.GaugePair(VectorField([constant(1.0 if k == m else 0.0)
                                       for k in range(4)]), constant(0.0))
             for m in range(3)]
    bad = qt.jacobi_cycle(phi_bad, *trips)
    witness = worst_of(*(abs(bad.bbar.value(x)) for x in pts))
    elapsed = time.perf_counter() - start
    assert worst_int < 1e-8
    assert worst_jac < 1e-8
    assert witness > 1e-3
    assert elapsed < 10.0, "took %.1fs" % elapsed


def test_criterion_02():
    """Galilei bracket equivalence on the flat and uniform-B models.

    Twenty random special-function pairs per model, one hundred random
    phase points: the closed-form bracket value must match the
    definitional route (Poisson plus dynamical drift terms) to 1e-8,
    inside ten seconds.
    """
    start = time.perf_counter()
    worst = 0.0
    for name in ("flat-free", "uniform-b"):
        model = load_builtin(name)
        ph = GalileiPhase(model)
        pts = gphase_points(model, 100, 102)
        rng = np.random.default_rng(102)
        for _ in range(20):
            f, g = random_gspecial(rng), random_gspecial(rng)
            closed = ph.special_value(ph.special_bracket(f, g))
            defin = ph.definitional_bracket_value(f, g)
            for p in pts:
                worst = worst_of(worst, abs(closed.value(p) - defin.value(p)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0, "took %.1fs" % elapsed


def test_criterion_03():
    """Golden brackets and operators for the distinguished functions.

    On the flat model: coordinate functions commute, a coordinate
    against a momentum component gives the Kronecker delta, the energy
    commutes with every momentum, and the represented operators are
    i x II, d_0, -d_i and the squared-momentum display, all to 1e-10.
    """
    ph = GalileiPhase(load_builtin("flat-free"))
    pot = ph.observed_potential()
    pts = gphase_points(ph.model, 6, 103)
    coords = [ph.coordinate_function(lam) for lam in range(4)]
    moms = [ph.momentum_function(i) for i in range(1, 4)]
    ham = ph.hamiltonian_function()
    worst = 0.0
    for lam in range(4):
        for mu in range(4):
            val = ph.special_value(ph.special_bracket(coords[lam],
                                                      coords[mu]))
            worst = worst_of(worst, *(abs(val.value(p)) for p in pts))
    for lam in range(4):
        for i in range(1, 4):
            val = ph.special_value(ph.special_bracket(coords[lam],
                                                      moms[i - 1]))
            want = 1.0 if lam == i else 0.0
            worst = worst_of(worst, *(abs(val.value(p) - want) for p in pts))
    for i in range(3):
        val = ph.special_value(ph.special_bracket(ham, moms[i]))
        worst = worst_of(worst, *(abs(val.value(p)) for p in pts))
    assert worst < 1e-10

    x = np.array([0.7, 0.5, -0.3, 0.2])
    worst = 0.0
    for lam in range(4):
        F = qt.galilei_map(ph, coords[lam], potential=pot)
        worst = worst_of(worst, float(np.max(np.abs(F.X.at(x)))))
        worst = worst_of(worst, abs(F.b.value(x) - x[lam]))
    FH = qt.galilei_map(ph, ham, potential=pot)
    worst = worst_of(worst, float(np.max(np.abs(FH.X.at(x) - [1, 0, 0, 0]))))
    worst = worst_of(worst, abs(FH.b.value(x)))
    for i in range(1, 4):
        FP = qt.galilei_map(ph, moms[i - 1], potential=pot)
        want = np.zeros(4)
        want[i] = -1.0
        worst = worst_of(worst, float(np.max(np.abs(FP.X.at(x) - want))))
        worst = worst_of(worst, abs(FP.b.value(x)))
    # squared momentum: 2 d_0 - 2 A^i d_i + i (2 A_0 - A^i A_i) II,
    # written against the model potential so the display itself is
    # encoded (it degenerates to 2 d_0 here, where A = 0)
    FC = qt.galilei_map(ph, ph.momentum_square_function(), potential=pot)
    acpl = [ph.coupling * ph.A[k].value(x) for k in range(4)]
    gup = np.array([[ph.inv_metric(i, j).value(x)
                     for j in range(1, 4)] for i in range(1, 4)])
    aup = gup @ np.array(acpl[1:])
    want = np.concatenate([[2.0], -2.0 * aup])
    worst = worst_of(worst, float(np.max(np.abs(FC.X.at(x) - want))))
    worst = worst_of(worst, abs(FC.b.value(x)
                           - (2.0 * acpl[0] - aup @ np.array(acpl[1:]))))
    assert worst < 1e-10


def test_criterion_04():
    """Observer independence of the Galilei representation map.

    For every shipped Galilei model, a randomized polynomial boost with
    the transported gauge must reproduce the same Hermitian field, to
    1e-8.
    """
    worst = 0.0
    for name in GALILEI_MODELS:
        ph = GalileiPhase(load_builtin(name))
        pot = ph.observed_potential()
        rng = np.random.default_rng(104)
        boost = Observer([poly_field(rng) for _ in range(3)])
        potb = qt.boosted_potential(ph, pot, Observer.chart(), boost)
        for _ in range(2):
            sf = random_gspecial(rng)
            fa = qt.galilei_map(ph, sf, potential=pot)
            fb = qt.galilei_map(ph, sf, observer=boost, potential=potb)
            for _ in range(6):
                x = rng.uniform(-0.8, 0.8, 4)
                worst = worst_of(worst, abs(fa.b.value(x) - fb.b.value(x)))
                worst = worst_of(worst, float(
                    np.max(np.abs(fa.X.at(x) - fb.X.at(x)))))
    assert worst < 1e-8


def test_criterion_05():
    """Full technical-identity suite at 200 timelike points per model.

    Run on Minkowski and on the curved diagonal model; every displayed
    identity must hold to 1e-8, and the normalizations g(d, d) = -c^2
    and tau(d) = 1 to 1e-9.
    """
    for name in ("minkowski", "schwarzschild-like"):
        ph = EinsteinPhase(load_builtin(name))
        worst = 0.0
        worst_norm = 0.0
        for p in timelike_points(ph, 200, 105):
            res = {key: val[0]
                   for key, val in ph.identity_residuals(p[None]).items()}
            worst = worst_of(worst, *res.values())
            worst_norm = worst_of(worst_norm, res["contact-norm"],
                             res["time-normalization"])
        assert worst < 1e-8, name
        assert worst_norm < 1e-9, name


def test_criterion_06():
    """Einstein bracket equivalence, isomorphism, observed-route note.

    On the uniform-E and the curved Lorentzian model: closed form vs
    definitional bracket to 1e-7, hermitian_bracket(F f, F g) = F [[f,g]]
    to 1e-8, and the map built through an observer's potential agrees
    with the direct one to 1e-8.
    """
    worst_routes = 0.0
    worst_iso = 0.0
    worst_note = 0.0
    for name in ("uniform-e", "curved-einstein"):
        ph = EinsteinPhase(load_builtin(name))
        pts = timelike_points(ph, 12, 106)
        rng = np.random.default_rng(106)
        for _ in range(4):
            f, g = random_especial(rng), random_especial(rng)
            closed = ph.special_value(ph.special_bracket(f, g))
            defin = ph.definitional_bracket_value(f, g)
            for p in pts:
                worst_routes = worst_of(worst_routes,
                                        abs(closed.value(p) - defin.value(p)))
        for _ in range(3):
            f, g = random_especial(rng), random_especial(rng)
            lhs = qt.hermitian_bracket(qt.einstein_map(ph, f),
                                       qt.einstein_map(ph, g))
            rhs = qt.einstein_map(ph, ph.special_bracket(f, g))
            for p in pts:
                x = p[:4]
                worst_iso = worst_of(worst_iso,
                                     abs(lhs.b.value(x) - rhs.b.value(x)))
                worst_iso = worst_of(worst_iso, float(
                    np.max(np.abs(lhs.X.at(x) - rhs.X.at(x)))))
        obs = [constant(0.1), BinOp("*", Num(0.05), Var(1)), constant(-0.08)]
        for _ in range(2):
            sf = random_especial(rng)
            fa = qt.einstein_map(ph, sf)
            fo = qt.einstein_observed_map(ph, sf, obs)
            for p in pts:
                x = p[:4]
                worst_note = worst_of(worst_note,
                                      abs(fa.b.value(x) - fo.b.value(x)))
    assert worst_routes < 1e-7
    assert worst_iso < 1e-8
    assert worst_note < 1e-8


def test_criterion_07():
    """Connection certification on every shipped model, to 1e-8.

    Galilei joined connection: time form parallel, metric parallel,
    torsion-free.  Einstein connection: metric parallel, torsion-free.
    """
    worst = 0.0
    for name in GALILEI_MODELS:
        ph = GalileiPhase(load_builtin(name))
        for p in gphase_points(ph.model, 10, 107):
            for lam in range(4):
                for mu in range(4):
                    worst = worst_of(worst, abs(ph.K(lam, 0, mu).value(p)))
                for i in range(1, 4):
                    for j in range(i, 4):
                        r = ph.metric(i, j).partial(lam).value(p)
                        for h in range(1, 4):
                            r += ph.K(lam, h, i).value(p) \
                                * ph.metric(h, j).value(p)
                            r += ph.K(lam, h, j).value(p) \
                                * ph.metric(h, i).value(p)
                        worst = worst_of(worst, abs(r))
            for nu in range(1, 4):
                for lam in range(4):
                    for mu in range(lam + 1, 4):
                        worst = worst_of(worst, abs(ph.K(lam, nu, mu).value(p)
                                               - ph.K(mu, nu, lam).value(p)))
    for name in EINSTEIN_MODELS:
        ph = EinsteinPhase(load_builtin(name))
        for p in timelike_points(ph, 10, 107):
            for lam in range(4):
                for nu in range(4):
                    for mu in range(nu, 4):
                        r = ph.metric(nu, mu).partial(lam).value(p)
                        for rho in range(4):
                            r += ph.K(lam, rho, nu).value(p) \
                                * ph.metric(rho, mu).value(p)
                            r += ph.K(lam, rho, mu).value(p) \
                                * ph.metric(rho, nu).value(p)
                        worst = worst_of(worst, abs(r))
            for nu in range(4):
                for lam in range(4):
                    for mu in range(lam + 1, 4):
                        worst = worst_of(worst, abs(ph.K(lam, nu, mu).value(p)
                                               - ph.K(mu, nu, lam).value(p)))
    assert worst < 1e-8


def test_criterion_08():
    """Cosymplectic pair checks on the flat and Minkowski models.

    d Omega = 0 to 1e-7, i(gamma) Omega = 0 to 1e-8, the time
    normalization i(gamma) dt = 1 resp. i(gamma) tau = 1 to 1e-9, and
    the top-form volume scalar stays above 1e-6 at every sample point.
    """
    gph = GalileiPhase(load_builtin("flat-free"))
    eph = EinsteinPhase(load_builtin("minkowski"))
    basis = list(np.eye(7))
    cases = [
        (gph, gphase_points(gph.model, 12, 108),
         PForm(7, 1, {(0,): constant(1.0)}), "galilei"),
        (eph, timelike_points(eph, 12, 108),
         PForm(7, 1, {(lam,): eph.theta(lam) for lam in range(4)}),
         "einstein"),
    ]
    for ph, pts, oneform, side in cases:
        dom = exterior_derivative(ph.cosymplectic())
        ig = contract(ph.dynamical_vector(), ph.cosymplectic())
        gam = ph.dynamical_vector()
        top = wedge(wedge(wedge(oneform, ph.cosymplectic()),
                          ph.cosymplectic()), ph.cosymplectic())
        worst_d = 0.0
        worst_k = 0.0
        worst_n = 0.0
        volume = np.inf
        for p in pts:
            worst_d = worst_of(worst_d, *(abs(f.value(p))
                                          for f in dom.comps.values()))
            worst_k = worst_of(worst_k, *(abs(ig.component((k,)).value(p))
                                          for k in range(7)))
            if side == "galilei":
                worst_n = worst_of(worst_n, abs(gam.at(p)[0] - 1.0))
            else:
                tg = sum(ph.tau(lam).value(p) * gam.comps[lam].value(p)
                         for lam in range(4))
                worst_n = worst_of(worst_n, abs(tg - 1.0))
            volume = worst_of(volume, abs(top.evaluate(p, *basis)),
                              pick=min)
        assert worst_d < 1e-7, side
        assert worst_k < 1e-8, side
        assert worst_n < 1e-9, side
        assert volume > 1e-6, side


def test_criterion_09():
    """Orbit oracles: cyclotron radius and hyperbolic worldline.

    Uniform-B circular orbit over one period at step 1e-3 must
    reproduce the radius m v / (q B) to 1e-5 relative; the uniform-E
    worldline from rest must track the analytic hyperbola to 1e-5.
    Each integration has to finish inside thirty seconds.
    """
    start = time.perf_counter()
    model = load_builtin("uniform-b")
    b_strength = model.params["B"]
    speed = 0.5
    radius = model.mass * speed / (model.charge * b_strength)
    period = 2.0 * np.pi * model.mass / (model.charge * b_strength)
    res = integrate_orbit(model, [0.0, 0.0, 0.0, 0.0],
                          [speed, 0.0, 0.0], period, 1e-3)
    for i in (1, 2):
        spread = res.states[:, i].max() - res.states[:, i].min()
        assert abs(spread / 2.0 - radius) / radius < 1e-5
    assert time.perf_counter() - start < 30.0

    start = time.perf_counter()
    model = load_builtin("uniform-e")
    e_strength = model.params["E"]
    res = integrate_orbit(model, [0.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0], 2.0, 1e-3)
    s = res.times
    want0 = np.sinh(e_strength * s) / e_strength
    want1 = (np.cosh(e_strength * s) - 1.0) / e_strength
    assert np.max(np.abs(res.states[:, 0] - want0)) < 1e-5
    assert np.max(np.abs(res.states[:, 1] - want1)) < 1e-5
    assert np.max(np.abs(res.states[:, (2, 3)])) < 1e-5
    assert time.perf_counter() - start < 30.0


def test_criterion_10():
    """Byte-identical structured reports for repeated fixed-seed runs."""
    args = [sys.executable, "-m", "covphase.cli", "verify",
            "--model", "flat-free", "--suite", "galilei-brackets",
            "--points", "8", "--seed", "3", "--report", "json"]
    first = subprocess.run(args, capture_output=True, timeout=600)
    second = subprocess.run(args, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["all_pass"] is True
    assert payload["seed"] == 3
