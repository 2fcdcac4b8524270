"""Parity fence for the stacked residual kernels.

`EinsteinPhase.identity_residuals` evaluates its fields in one batch and
does its linear algebra on arrays stacked over the rows, and
`PForm.values` takes one stacked determinant per component.  The
references below are the routes they replaced: the identity algebra one
row at a time on 4x4 arrays, and one `np.linalg.det` call per row.  The
two must give the same bits at every row and raise the same error at
the same point.
"""

import numpy as np
import pytest

from covphase.einstein import EinsteinPhase
from covphase.modelspec import constant, load_builtin, parse_model_text
from covphase.smooth import Batch, PForm, field_values, wedge, worst
from covphase.suites import _Ctx

EINSTEIN_MODELS = ("minkowski", "uniform-e", "curved-einstein",
                   "schwarzschild-like")
SEEDS = (3, 7, 42)


# --- reference: the per-row identity algebra ------------------------------

class RowReader:
    """A field's value at one row of a batch; the first request for a
    field evaluates it at every row."""

    def __init__(self, batch):
        self.batch = batch
        self.rows = {}

    def at(self, fld, r):
        hit = self.rows.get(fld)
        if hit is None:
            hit = self.rows[fld] = self.batch.values(fld).tolist()
        return hit[r]


def ref_identity_residuals(self, P):
    rows = np.asarray(P, dtype=float)
    for q in rows:
        self.require_timelike(q)
    reader = RowReader(Batch(rows))
    basis = [self.base_b0()] + [self.base_bi(i) for i in range(1, 4)]
    cobasis = [self.base_beta0()] + [self.base_betai(i)
                                     for i in range(1, 4)]
    out = [ref_identity_row(self, reader, r, q, basis, cobasis)
           for r, q in enumerate(rows)]
    return {key: np.array([d[key] for d in out]) for key in out[0]}


def ref_identity_row(self, reader, row, p, basis, cobasis):
    def val(f):
        return reader.at(f, row)

    out = {}
    c = self.c
    al = val(self.alpha0())
    gl = np.array([[val(self.g_low(a, b)) for b in range(4)]
                   for a in range(4)])
    gu = np.array([[val(self.g_up(a, b)) for b in range(4)]
                   for a in range(4)])
    v = p[4:7]
    dbar = np.array([1.0, v[0], v[1], v[2]])
    tau = np.array([val(self.tau(lam)) for lam in range(4)])
    tau_up = np.array([val(self.tau_up(mu)) for mu in range(4)])
    gbar0 = np.array([val(self.gbar0(lam)) for lam in range(4)])
    gbar_low = np.vstack([gbar0] + [
        [val(self.ghat(i, mu)) for mu in range(4)]
        for i in range(1, 4)])
    gbar_up = np.vstack([
        -(al ** 2) * dbar,
        [[val(self.gbar_up(i, lam)) for lam in range(4)]
         for i in range(1, 4)]])

    dee = np.array([val(self.contact(lam)) for lam in range(4)])
    out["contact-norm"] = abs(dee @ gl @ dee + c ** 2)
    out["time-normalization"] = abs(tau @ dee - 1.0)

    bv = np.array([[val(f) for f in row] for row in basis])
    btv = np.array([[val(f) for f in row] for row in cobasis])
    out["basis-duality"] = np.max(np.abs(btv @ bv.T - np.eye(4)))
    out["splitting-orthogonality"] = worst(
        *(abs(bv[0] @ gl @ bv[i]) for i in range(1, 4)))
    out["parallel-norm"] = abs(bv[0] @ gl @ bv[0] + 1.0 / al ** 2)
    perp = np.array([[val(self.ghat(i, j)) for j in range(1, 4)]
                     for i in range(1, 4)])
    direct = np.array([[bv[i] @ gl @ bv[j] for j in range(1, 4)]
                       for i in range(1, 4)])
    out["perp-metric"] = np.max(np.abs(perp - direct))
    gperp_up = np.array([[btv[i] @ gu @ btv[j] for j in range(1, 4)]
                         for i in range(1, 4)])
    out["perp-inverse"] = np.max(np.abs(
        perp @ gperp_up - np.eye(3)))
    out["mixed-raise"] = np.max(np.abs(
        gperp_up @ gbar_low[0, 1:] - gbar_up[1:, 0] / al ** 2))
    out["bar-0-covector"] = np.max(np.abs(
        gbar_low[0] + btv[0] / al ** 2))
    out["bar-i-raise"] = np.max(np.abs(
        gperp_up @ bv[1:] - gbar_up[1:]))

    out["bar-inverse"] = np.max(np.abs(
        gbar_low @ gbar_up.T - np.eye(4)))
    out["bar-inverse-transposed"] = np.max(np.abs(
        gbar_low.T @ gbar_up - np.eye(4)))
    out["bar-00-projector"] = np.max(np.abs(
        np.outer(gbar_low[0], gbar_up[0])
        - (-c ** 2) * np.outer(tau, tau_up)))
    out["bar-ii-projector"] = np.max(np.abs(
        gbar_low[1:].T @ gbar_up[1:]
        - (np.eye(4) + c ** 2 * np.outer(tau, tau_up))))
    out["bar-0i-mix"] = np.max(np.abs(
        gbar_low[0, 1:] @ gbar_up[1:]
        - (gu[0] / al ** 2 + dbar)))
    out["vertical-annihilation"] = np.max(np.abs(
        gbar_low[1:, 0] + gbar_low[1:, 1:] @ v))

    alpha_f = self.alpha0()
    inv_f = self.inv_alpha0()
    for j in range(1, 4):
        r = val(alpha_f.partial(3 + j)) - al ** 3 * gbar0[j]
        out["alpha-vertical-%d" % j] = abs(r)
        r = val(inv_f.partial(3 + j)) + al * gbar0[j]
        out["inv-alpha-vertical-%d" % j] = abs(r)
    for i in range(1, 4):
        for j in range(i, 4):
            r = val(inv_f.partial(3 + i).partial(3 + j)) \
                + al * val(self.ghat(i, j))
            out["inv-alpha-hessian-%d%d" % (i, j)] = abs(r)
    for i in range(1, 4):
        for mu in range(4):
            r = val(self.tau(mu).partial(3 + i)) \
                + (al / c) * val(self.ghat(i, mu))
            out["tau-vertical-%d%d" % (i, mu)] = abs(r)
    for lam in range(4):
        spatial = 0.0
        for a in range(4):
            for bb in range(4):
                spatial += val(self.g_low(a, bb).partial(lam)) \
                    * dbar[a] * dbar[bb]
        r = val(alpha_f.partial(lam)) - 0.5 * al ** 3 * spatial
        out["alpha-horizontal-%d" % lam] = abs(r)
    return out


# --- reference: one determinant per row ------------------------------------

def ref_form_values(form, P, *vectors):
    total = 0.0
    for key, val in zip(form.comps,
                        field_values(list(form.comps.values()), P)):
        idx = list(key)
        subs = np.stack([np.asarray(v, dtype=float)[:, idx]
                         for v in vectors], axis=1)
        total = total + val * np.array([np.linalg.det(s) for s in subs])
    return np.broadcast_to(total, (len(P),)).astype(float)


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# --- the fence -------------------------------------------------------------

@pytest.fixture(scope="module", params=EINSTEIN_MODELS)
def ctxs(request):
    """The model's run contexts at each seed, 40 sample points each."""
    model = load_builtin(request.param)
    return [_Ctx(model, 40, seed) for seed in SEEDS]


def test_identity_arrays_equal_per_row(ctxs):
    for ctx in ctxs:
        got = ctx.phase.identity_residuals(ctx.points)
        want = ref_identity_residuals(ctx.phase, ctx.points)
        assert list(got) == list(want)
        for key in want:
            assert got[key].shape == (40,), key
            assert np.array_equal(got[key], want[key], equal_nan=True), key
            assert same_bits(got[key], want[key]), key


def _volume_forms(ph):
    """dt, Omega and their wedges, degrees 1 to 4, as the volume
    witnesses build them."""
    dt = PForm(7, 1, {(0,): constant(1.0)})
    om = ph.cosymplectic()
    return [dt, om, wedge(dt, om), wedge(om, om), wedge(wedge(dt, om), om)]


@pytest.mark.parametrize("name", ["uniform-e", "schwarzschild-like"])
def test_form_values_equal_per_row_det(name):
    model = load_builtin(name)
    ctx = _Ctx(model, 25, 5)
    pts = ctx.points
    rng = np.random.default_rng(11)
    basis = [np.broadcast_to(e, (len(pts), 7)) for e in np.eye(7)]
    for form in _volume_forms(ctx.phase):
        k = form.degree
        for vectors in (basis[:k], basis[7 - k:],
                        [rng.normal(size=(len(pts), 7)) for _ in range(k)]):
            got = form.values(pts, *vectors)
            want = ref_form_values(form, pts, *vectors)
            assert same_bits(got, want), k


# a metric whose x1 and x2 partials divide by |x1| and |x2|: the first
# field of the alpha-horizontal loop to fail is the x1 partial
ABS_MODEL = """
[model]
kind = einstein
name = abs-metric

[constants]
m = 1.0 M
q = 1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M
c = 1.0 T^-1 L

[box]
lo = -3, -3, -3, -3
hi = 3, 3, 3, 3

[metric]
g00 = -1
g11 = 1 + abs(x1)
g22 = 1 + abs(x2)
g33 = 1
"""


def _abs_points():
    P = np.tile([0.3, 0.2, 0.4, 0.1, 0.1, -0.2, 0.05], (6, 1))
    P[1, 2] = 0.0   # x2 = 0: fails in a later field, at a lower row
    P[3, 1] = 0.0   # x1 = 0: the first field to fail
    P[4, 1] = 0.0
    return P


def _raised(fn, *args):
    with pytest.raises(ArithmeticError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_first_failing_field_raises_the_same_error():
    ph = EinsteinPhase(parse_model_text(ABS_MODEL))
    P = _abs_points()
    want = _raised(ref_identity_residuals, ph, P)
    assert want == (ZeroDivisionError,
                    "division by zero in expression at point %s"
                    % P[3].tolist())
    assert _raised(ph.identity_residuals, P) == want
    assert _raised(ph.identity_residuals, P[1:2]) \
        == _raised(ref_identity_residuals, ph, P[1:2])
