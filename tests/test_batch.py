"""Batch evaluation over point arrays against the point path.

`Field.values(P)` and `field_values` must return exactly what a loop of
`Field.value(p)` over the rows of P returns, bit for bit (sign of zero
and NaN included), and raise the class and message that loop raises first.
The value of an expression field at a point is a one-row batch, which
runs on Python floats, so these tests hold one-row floats equal to
multi-row numpy.  `test_compile` holds the compiled code equal to batch
rows.
"""

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covphase.einstein import EinsteinPhase
from covphase.galilei import HOMOTOPY_TS, HOMOTOPY_WEIGHTS, GalileiPhase
from covphase.modelspec import (
    BinOp, Call, Homotopy, Neg, Num, Var,
    available_models, derivative, load_builtin, parse_expr,
)
from covphase.smooth import (
    Batch, PForm, VectorField, exterior_derivative, field_values,
)
from covphase.suites import _Ctx
from test_compile import assert_same_outcome, exprs, floats, row_zero, \
    same_float

ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def outcome(fn):
    """What fn() returns, or the class and text of the exception it
    raises."""
    try:
        return fn()
    except ERRORS as exc:
        return type(exc), str(exc)


def assert_batch_matches(fields, P):
    """field_values(fields, P) against a point loop, field by field."""
    want = outcome(lambda: [[f.value(p) for p in P] for f in fields])
    got = outcome(lambda: field_values(fields, P))
    if isinstance(want, tuple):
        assert got == want, (fields, P, got)
        return
    assert isinstance(got, list) and len(got) == len(want), got
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == np.float64
        assert g.shape == (len(P),)
        assert all(same_float(a, b) for a, b in zip(g.tolist(), w)), (g, w)


# ---------------------------------------------------------------------------
# property test: random expressions with shared subexpressions

rows = st.lists(floats, min_size=4, max_size=4)
batches = st.sampled_from([1, 30]).flatmap(
    lambda n: st.lists(rows, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(exprs, exprs, batches)
def test_random_expressions_match_point_loop(e1, e2, P):
    f, g = e1, e2
    # f * g and g - f share f's and g's nodes with the first two fields
    fields = [f, g, f * g, g - f]
    P = np.array(P)
    for fld in fields:
        assert_batch_matches([fld], P)
    assert_batch_matches(fields, P)


# (expression, value of x1 that breaks it, exception class)
ROW_ERRORS = [
    ("sqrt(x1)", -1.0, ValueError),
    ("1 / x1", 0.0, ZeroDivisionError),
    ("x1 * (2 / (x1 - 0.5))", 0.5, ZeroDivisionError),
    ("x1^(1/3)", -1.0, ValueError),
    ("(x1 - 0.5)^(-1)", 0.5, ZeroDivisionError),
    ("exp(1000 * x1)", 1.0, OverflowError),
    ("sin(x1)", math.inf, ValueError),
]


@pytest.mark.parametrize("text,bad,exc", ROW_ERRORS)
@pytest.mark.parametrize("row", [0, 17, 29])
def test_one_bad_row_raises_the_point_class(text, bad, exc, row):
    fld = parse_expr(text)
    P = np.full((30, 4), 0.25)
    P[:, 1] = np.linspace(0.1, 0.4, 30)
    assert_batch_matches([fld], P)      # every row fine
    P[row, 1] = bad
    with pytest.raises(exc) as info:
        fld.values(P)
    assert str(P[row].tolist()) in str(info.value)
    assert_batch_matches([fld], P)
    assert_same_outcome([fld], P[row])


# (expression, value of x1): rows that failed while the evaluators kept
# the checks of an earlier forward-mode evaluator (sqrt failing where
# r * x underflows to 0, and an x^(p-2) side power overflowing); sqrt and
# x^(1/2) of 1e-300 are 1e-150
TINY_ROWS = [("sqrt(x1)", 1e-300), ("x1^(1/2)", 1e-300)]


@pytest.mark.parametrize("text,tiny", TINY_ROWS)
@pytest.mark.parametrize("row", [0, 17, 29])
def test_tiny_row_evaluates(text, tiny, row):
    fld = parse_expr(text)
    P = np.full((30, 4), 0.25)
    P[:, 1] = np.linspace(0.1, 0.4, 30)
    P[row, 1] = tiny
    assert fld.values(P)[row] == math.sqrt(tiny)
    assert_batch_matches([fld], P)
    assert_same_outcome([fld], P[row])


def assert_one_row_is_row_zero(fields, p):
    """A one-row batch (Python floats) against row 0 of the two-row batch
    [p, p] (numpy arrays): the same bits, or the same error class and
    text."""
    want = row_zero(fields, [p, p])
    got = row_zero(fields, [p])
    if isinstance(want, tuple):
        assert got == want, (fields, p, got)
    else:
        assert isinstance(got, list) and len(got) == len(want), got
        assert all(same_float(a, b) for a, b in zip(got, want)), \
            (fields, p, got, want)


@pytest.mark.parametrize("text,bad,exc", ROW_ERRORS)
def test_one_row_floats_equal_array_rows_on_errors(text, bad, exc):
    fld = parse_expr(text)
    for x1 in (bad, 0.25):
        assert_one_row_is_row_zero([fld], [0.25, x1, 0.25, 0.25])
    with pytest.raises(exc):
        fld.values(np.array([[0.25, bad, 0.25, 0.25]]))


@pytest.mark.parametrize("text,tiny", TINY_ROWS)
def test_one_row_floats_equal_array_rows_on_tiny_rows(text, tiny):
    fld = parse_expr(text)
    p = [0.25, tiny, 0.25, 0.25]
    assert_one_row_is_row_zero([fld], p)
    assert fld.values(np.array([p])).tolist() == [math.sqrt(tiny)]


@settings(max_examples=300, deadline=None)
@given(exprs, exprs, rows)
def test_one_row_floats_equal_array_rows(e1, e2, p):
    f, g = e1, e2
    fields = [f, g, f * g, g - f]
    for fld in fields:
        assert_one_row_is_row_zero([fld], p)
    assert_one_row_is_row_zero(fields, p)


def test_lowest_failing_row_wins():
    # row 3 fails late (the division), row 10 early (the sqrt): a loop
    # over the points meets row 3 first
    fld = parse_expr("sqrt(x1) + 1 / x2")
    P = np.ones((12, 4))
    P[3, 2] = 0.0
    P[10, 1] = -1.0
    with pytest.raises(ZeroDivisionError):
        fld.values(P)
    assert_batch_matches([fld], P)
    P[3, 2] = 1.0
    with pytest.raises(ValueError):
        fld.values(P)


# ---------------------------------------------------------------------------
# the shipped models at suite sample points

def model_fields(model):
    if model.kind == "galilei":
        ph = GalileiPhase(model)
        K = [ph.K(lam, i, mu) for lam in range(4) for i in range(4)
             for mu in range(4)]
        metric = [ph.metric(i, j) for i in range(1, 4) for j in range(1, 4)]
        extra = []
    else:
        ph = EinsteinPhase(model)
        K = [ph.K(lam, nu, mu) for lam in range(4) for nu in range(4)
             for mu in range(4)]
        metric = [ph.metric(a, b) for a in range(4) for b in range(4)]
        extra = [ph.radicand(), ph.alpha0()]
    omega = ph.cosymplectic()
    domega = exterior_derivative(omega)
    return (list(omega.comps.values()) + list(domega.comps.values()) + K
            + metric + extra)


@pytest.mark.parametrize("name", available_models())
def test_shipped_models_match_point_loop(name):
    model = load_builtin(name)
    fields = model_fields(model)
    P = _Ctx(model, 5, 11).points
    got = field_values(fields, P)
    for fld, vals in zip(fields, got):
        assert vals.tolist() == [fld.value(p) for p in P]
    # a one-row batch runs Python floats, the five-row batch numpy
    for r, p in enumerate(P):
        assert [v.tolist()[0] for v in field_values(fields, [p])] \
            == [vals[r] for vals in got]
    # the model's own entries, on spacetime points
    entries = [f for row in model.metric for f in row] + model.potential
    assert_batch_matches(entries, P[:, :4])


# ---------------------------------------------------------------------------
# field kinds

@pytest.mark.parametrize("text", ["1/(x1 - c)", "sqrt(x1 - c)",
                                  "(x1 - c)^(1/2)"])
def test_one_message_per_bad_point(text):
    # x1 = c breaks the field at row 2 alone
    fld = parse_expr(text, {"c": 0.25})
    P = np.full((4, 4), 0.5)
    P[:, 1] = [0.5, 0.4, 0.25, 0.3]
    with pytest.raises(ERRORS) as point:
        fld.value(P[2])
    with pytest.raises(ERRORS) as batch:
        Batch(P).values(fld)
    assert type(batch.value) is type(point.value)
    assert str(batch.value) == str(point.value)
    assert str(point.value).endswith(" at point %s" % P[2].tolist())


def test_galilei_potential_equals_point_loop():
    ph = GalileiPhase(load_builtin("curved-galilei"))
    pot = ph.observed_potential()
    P = _Ctx(ph.model, 3, 2).points[:, :4]
    assert_batch_matches(pot + [a.partial(i) for a in pot for i in range(4)],
                         P)


def test_batch_is_freed_without_the_cycle_collector():
    # node memos hold no reference back to their batch, so a dropped
    # batch (and the stacked batch of a homotopy node) is freed at once
    pot = GalileiPhase(load_builtin("uniform-b")).observed_potential()
    batch = Batch(np.zeros((3, 4)))
    ref = weakref.ref(batch)
    gc.disable()
    try:
        for fld in pot + [parse_expr("x1 * sin(x2)")]:
            batch.values(fld.partial(1))
        del batch
        assert ref() is None
    finally:
        gc.enable()


def test_batch_outlives_the_fields_it_evaluated():
    # node memos are keyed by node and keep it alive; when they were keyed
    # by id, a field dropped between two evaluations in one batch could
    # pass its ids, and its values, to the next field
    batch = Batch(np.array([[0.0, 1.0, 2.0, 3.0]]))
    for k in range(50):
        fld = parse_expr("x1 * x2 + %d" % k)
        assert batch.values(fld).tolist() == [2.0 + k]
        del fld


def test_homotopy_error_logged_on_its_parent_row():
    # sqrt(y1 + 0.95) fails on the stacked rows y = t x with t x1 < -0.95
    phi = Call("sqrt", BinOp("+", Var(1), Num(0.95)))
    fld = Homotopy((Num(0.0), phi, Num(0.0), Num(0.0)),
                   (0.0,) * 4, HOMOTOPY_TS, HOMOTOPY_WEIGHTS)
    P = np.random.default_rng(6).uniform(-0.5, 0.5, size=(6, 4))
    assert_batch_matches([fld, fld.partial(1)], P)
    P[[2, 4], 1] = -0.99
    with pytest.raises(ValueError) as info:
        fld.values(P)
    assert str(P[2].tolist()) in str(info.value)
    assert_batch_matches([fld], P)
    assert_batch_matches([fld.partial(1)], P)


def test_vector_and_form_values_match_points():
    rng = np.random.default_rng(5)
    comps = [parse_expr("x0 * x1"), Num(2.0), parse_expr("exp(x2)"),
             parse_expr("x3 / (2 + x0)")]
    X = VectorField(comps)
    P = rng.uniform(-1.0, 1.0, size=(4, 4))
    vals = X.values(P)
    assert vals.shape == (4, 4)
    for p, row in zip(P, vals):
        assert row.tolist() == [c.value(p) for c in comps]
        assert X.at(p).tolist() == row.tolist()
    w = PForm(4, 2, {(0, 1): comps[0], (1, 3): comps[2], (2, 3): comps[3]})
    U, V = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    got = w.values(P, U, V)
    for p, u, v, g in zip(P, U, V, got):
        total = 0.0
        for key, fld in w.comps.items():
            sub = np.array([[u[k] for k in key], [v[k] for k in key]])
            total += fld.value(p) * np.linalg.det(sub)
        assert g == total == w.evaluate(p, u, v)


def test_values_are_fresh_arrays():
    # two fields with one root share a memo entry; neither result may
    # alias it (or the points)
    f = g = Var(1)
    P = np.ones((3, 4))
    a, b = field_values([f, g], P)
    a += 1.0
    assert b.tolist() == [1.0] * 3 and P[:, 1].tolist() == [1.0] * 3


# ---------------------------------------------------------------------------
# cached partials and deep expressions

def test_partial_is_cached():
    f = parse_expr("sin(x0 * x1) / (1 + x2^2)")
    d1 = f.partial(1)
    assert f.partial(1) is d1
    assert d1.node == derivative(f.node, 1)
    assert d1.partial(2) is d1.partial(2)
    assert f.partial(2) is not d1


def test_deep_chain_without_recursion():
    node = Var(1)
    for k in range(5000):
        node = BinOp("+" if k % 2 else "-", node, Num(1.0))
        node = Neg(node) if k % 1000 == 0 else node
    P = np.array([[0.0, 0.25, 0.0, 0.0], [0.0, -3.0, 0.0, 0.0]])
    want = []
    for x in P[:, 1]:
        for k in range(5000):
            x = x + 1.0 if k % 2 else x - 1.0
            x = -x if k % 1000 == 0 else x
        want.append(x)
    # far fewer frames than the chain has levels
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = node.values(P)
    finally:
        sys.setrecursionlimit(limit)
    assert got.tolist() == want
