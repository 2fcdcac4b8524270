"""Parity fence for the batch evaluation loop.

`_batch_walk` evaluates nodes in `_pending`'s order, the one traversal
`_walk` iterates too, in one loop that does `+ - *`, negation,
coordinates and numbers itself, and runs a one-row batch, homotopies
included, on Python floats outside `np.errstate`.  The reference below
is the route it replaced: a generic post-order walk that
calls back into a `_Rows` evaluator for every node, under
`np.errstate(all="ignore")`, with the homotopy quadrature on numpy arrays
at any row count.  The two must give the same values at every row that
did not fail, and log the same error at the same rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covphase.einstein import EinsteinPhase
from covphase.galilei import HOMOTOPY_TS, HOMOTOPY_WEIGHTS, GalileiPhase
from covphase.modelspec import (
    BinOp, Call, Homotopy, Neg, Num, Pow, Var, _FLOAT_ERRORS, _Emitter,
    _batch_walk, _walk, load_builtin, parse_expr, substitute,
)
from covphase.smooth import Batch, exterior_derivative, total
from covphase.suites import _Ctx
from test_compile import _compound, exprs, floats, same_float
from test_modelspec import stack_walk


# --- reference: the per-node callback walk (stack_walk) and its evaluator --

def ref_batch_walk(batch, node):
    with np.errstate(all="ignore"):
        return stack_walk(node, batch.memo, RefRows(batch).node)


class RefRows:
    def __init__(self, batch):
        self.batch = batch
        self.x = batch.P[0].tolist() if len(batch.P) == 1 else batch.P.T

    def each(self, fn, a):
        if not isinstance(a, np.ndarray):
            try:
                return fn(a)
            except _FLOAT_ERRORS as exc:
                self.batch.fail(True, type(exc), str(exc))
                return math.nan
        out = np.empty(len(a))
        for r, x in enumerate(a.tolist()):
            try:
                out[r] = fn(x)
            except _FLOAT_ERRORS as exc:
                out[r] = math.nan
                self.batch.fail(np.arange(len(a)) == r, type(exc), str(exc))
        return out

    def node(self, node, kids):
        t = type(node)
        if t is BinOp:
            a, b = kids
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            zero = b == 0
            self.batch.fail(zero, ZeroDivisionError,
                            "division by zero in expression")
            if not isinstance(b, np.ndarray) and zero:
                return math.nan
            return a / b
        if t is Var:
            return self.x[node.index]
        if t is Num:
            return float(node.number)
        if t is Call:
            a, = kids
            if node.func == "sqrt":
                self.batch.fail(a <= 0.0, ValueError,
                                "sqrt of non-positive value")
                if isinstance(a, np.ndarray):
                    return np.sqrt(a)
                return math.sqrt(a) if a > 0.0 else math.nan
            if node.func == "abs":
                return abs(a)
            return self.each(getattr(math, node.func), a)
        if t is Pow:
            a, e = kids[0], node.exponent
            if e == 0:
                return 1.0
            p = float(e)
            if e.denominator == 1:
                return self.each(lambda x: x ** p, a)
            self.batch.fail(a <= 0.0, ValueError,
                            "fractional power of non-positive base")
            return self.each(lambda x: x ** p if x > 0.0 else math.nan, a)
        if t is Neg:
            return -kids[0]
        if t is Homotopy:
            return self.homotopy(node)
        raise TypeError("not an expression node: %r" % (node,))

    def homotopy(self, node):
        # numpy arrays at every row count, one row included
        n = len(self.batch.P)
        rel = [self.batch.P[:, nu] - b for nu, b in enumerate(node.base)]
        key = (node.ts, node.base)
        stacked = self.batch.stacked.get(key)
        if stacked is None:
            stacked = self.batch.stacked[key] = Batch(np.concatenate(
                [np.stack([b + t * r for b, r in zip(node.base, rel)], axis=1)
                 for t in node.ts]))
        vals = [ref_batch_walk(stacked, phi) for phi in node.phis]
        for r, (exc, message) in sorted(stacked.errors.items()):
            self.batch.fail(np.arange(n) == r % n, exc, message)
        terms = []
        for k, w in enumerate(node.weights):
            for nu, v in enumerate(vals):
                term = w * (v[k * n:(k + 1) * n]
                            if isinstance(v, np.ndarray) else v)
                terms.append(term * rel[nu] if node.radial else term)
        return total(terms)


# --- the comparison --------------------------------------------------------

def row_values(v, n):
    """A node's value as a list of n floats, one per row."""
    return v.tolist() if isinstance(v, np.ndarray) else [v] * n


def assert_same_as_reference(nodes, P):
    """The nodes evaluated in turn through one batch by `_batch_walk` and
    by the reference route: the same errors at the same rows, and the
    same bits at every row that did not fail (a failed row's value is
    not defined: a one-row float quotient by zero is NaN where a numpy
    one is infinite)."""
    P = np.asarray(P, dtype=float)
    got, want = Batch(P), Batch(P)
    for node in nodes:
        g = row_values(_batch_walk(got, node), len(P))
        w = row_values(ref_batch_walk(want, node), len(P))
        assert got.errors == want.errors, (node, P)
        assert got.failed.tolist() == want.failed.tolist()
        assert all(same_float(a, b) for r, (a, b) in enumerate(zip(g, w))
                   if r not in got.errors), (node, P, g, w)
    # no pending entry is left behind
    assert not any(v is None for v in got.memo.values())


BASES = [(0.0, 0.0, 0.0, 0.0), (0.25, -0.5, 1.0, 0.0)]
# the Gauss-Legendre nodes the phases use, and a single node, whose
# stacked batch of a one-row batch has one row too
QUADRATURES = [(HOMOTOPY_TS, HOMOTOPY_WEIGHTS), ((0.5,), (0.25,))]

homotopies = st.builds(
    lambda phis, base, q, radial: Homotopy(tuple(phis), base, *q, radial),
    st.lists(exprs, min_size=4, max_size=4), st.sampled_from(BASES),
    st.sampled_from(QUADRATURES), st.booleans())
exprs_with_homotopies = st.recursive(
    st.one_of(exprs, homotopies), _compound, max_leaves=6)
rows = st.lists(floats, min_size=4, max_size=4)
batches = st.sampled_from([1, 2, 30]).flatmap(
    lambda n: st.lists(rows, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(exprs_with_homotopies, exprs_with_homotopies, batches)
def test_random_expressions_match_the_reference(e1, e2, P):
    # the second pair shares every node of the first
    assert_same_as_reference(
        [e1, e2, BinOp("*", e1, e2), BinOp("-", e2, e1)], P)


def form_nodes(form):
    return list(form.comps.values())


def phase_of(name):
    model = load_builtin(name)
    return (GalileiPhase if model.kind == "galilei" else EinsteinPhase)(model)


CURVED = ["curved-galilei", "curved-gravity", "curved-einstein",
          "schwarzschild-like"]


@pytest.mark.parametrize("name", CURVED)
def test_walk_is_the_reference_visit_sequence(name):
    omega = phase_of(name).cosymplectic()
    roots = form_nodes(omega) + form_nodes(exterior_derivative(omega))
    want, memo = [], {}
    for root in roots:
        stack_walk(root, memo, lambda n, kids: want.append(n) or n)
    seen, walked = [], {}
    for root in roots:
        _walk(root, walked, lambda n, kids: seen.append(n) or n)
    assert seen == want and len(set(seen)) == len(seen)
    assert walked == memo


@pytest.mark.parametrize("name", CURVED)
def test_batch_memo_fills_in_the_walk_order(name):
    # the batch evaluator enters nodes in its memo in the order `_walk`
    # visits them, which is the reference walk's, at one row and at many;
    # a Galilei observed potential and its partials add homotopy nodes,
    # whose quadrature fills a stacked batch's memo, not this one
    ph = phase_of(name)
    omega = ph.cosymplectic()
    roots = form_nodes(omega) + form_nodes(exterior_derivative(omega))
    if isinstance(ph, GalileiPhase):
        pot = ph.observed_potential()
        roots += [f.node for f in pot]
        roots += [f.partial(i).node for f in pot for i in range(4)]
    want, memo = [], {}
    for root in roots:
        stack_walk(root, memo, lambda n, kids: want.append(n) or n)
    seen, walked = [], {}
    for root in roots:
        _walk(root, walked, lambda n, kids: seen.append(n) or n)
    assert seen == want
    P = _Ctx(ph.model, 30, 5).points
    for part in (P[:1], P):
        batch = Batch(part)
        for root in roots:
            _batch_walk(batch, root)
        assert list(batch.memo) == seen


@pytest.mark.parametrize("name", CURVED)
def test_shipped_fields_match_the_reference(name):
    ph = phase_of(name)
    omega = ph.cosymplectic()
    nodes = form_nodes(omega) + form_nodes(exterior_derivative(omega))
    if isinstance(ph, GalileiPhase):
        pot = ph.observed_potential()
        nodes += [f.node for f in pot]
        nodes += [f.partial(i).node for f in pot for i in range(4)]
    P = _Ctx(ph.model, 2, 5).points
    for part in (P[:1], P):
        assert_same_as_reference(nodes, part)


def test_one_row_needs_no_errstate(monkeypatch):
    # a one-row batch runs on Python floats: numpy raising on every
    # floating-point error changes nothing, the bad row is still logged,
    # and no np.errstate is entered
    def errstate(**kwargs):
        raise AssertionError("np.errstate entered for one row")

    fld = parse_expr("x2 + 1 / x1 + exp(1000 * x2) + sqrt(x1 - 1)")
    batch = Batch(np.array([[0.25, 0.0, 1.0, 0.25]]))
    with np.errstate(all="raise"):
        monkeypatch.setattr(np, "errstate", errstate)
        vals = fld._values(batch)
    assert batch.errors == {0: (ZeroDivisionError,
                                "division by zero in expression")}
    assert vals.shape == (1,) and vals.dtype == np.float64


def test_one_row_homotopy_logs_its_row_under_raise():
    # the stacked rows of the quadrature are many, and enter np.errstate
    # themselves
    phi = BinOp("/", Num(1.0), Var(1))
    fld = Homotopy((Num(0.0), phi, Num(0.0), Num(0.0)),
                   (0.0,) * 4, HOMOTOPY_TS, HOMOTOPY_WEIGHTS)
    for x1 in (0.0, 0.5):
        P = np.array([[0.0, x1, 0.0, 0.0]])
        batch = Batch(P)
        with np.errstate(all="raise"):
            vals = fld._values(batch)
        assert_same_as_reference([fld.node], P)
        assert bool(batch.errors) == (x1 == 0.0)
        if not batch.errors:
            assert vals.tolist() == [fld.value(P[0])]


def test_an_escaping_exception_leaves_no_pending_entry():
    # each walk finishes the left child, then raises TypeError on the
    # right one, and its memo holds the finished left child alone: the
    # batch loop and `_walk` (under `substitute`) on a node built around
    # the table, whose right child is not a node, and the compiler on a
    # homotopy, which has no float code
    bad = object.__new__(BinOp)
    bad.op, bad.left, bad.right = "+", Var(1), "not a node"
    batch = Batch(np.ones((1, 4)))
    with pytest.raises(TypeError):
        _batch_walk(batch, bad)
    assert batch.memo == {Var(1): 1.0}
    memo = {}
    with pytest.raises(TypeError, match="not an expression node"):
        substitute(bad, {}, memo)
    assert memo == {Var(1): Var(1)}
    em = _Emitter()
    hom = Homotopy((Var(1),) * 4, (0.0,) * 4, HOMOTOPY_TS, HOMOTOPY_WEIGHTS)
    with pytest.raises(TypeError, match="no float code"):
        em.field(BinOp("+", Var(1), hom))
    assert em.memo == {Var(1): "x1"}
