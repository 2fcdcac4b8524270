"""The expression compiler against the batch evaluator.

`compile_fields` must return exactly what `field_values` returns for
every field at every point, and raise the class and text that a batch
raises there, less the batch's ` at point [...]` suffix.  The compiled
code serves the orbit right-hand side and the timelike check; a field's
value at a point is a one-row batch.  Values are compared bit for bit
(sign of zero and NaN included), not within a tolerance.
"""

import ast
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covphase.einstein import EinsteinPhase
from covphase.galilei import GalileiPhase
from covphase.modelspec import (
    BinOp, Call, Homotopy, Neg, Num, Pow, Var, _Emitter, _walk,
    available_models, compile_fields, load_builtin, parse_expr,
)
from covphase.smooth import Field, field_values
from covphase.suites import _Ctx


def same_float(a, b) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn):
    """The list fn() returns, or the class and text of the exception it
    raises."""
    try:
        return fn()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


def at_point(p) -> str:
    """The suffix a batch row's error ends with."""
    return " at point %s" % np.asarray(p, dtype=float).tolist()


def row_zero(fields, P):
    """The fields' values at row 0 of a batch of the rows P, or the class
    and text of what the batch raises."""
    return outcome(lambda: [v.tolist()[0] for v in field_values(fields, P)])


def assert_same_outcome(fields, p):
    """compile_fields(fields)(p) against row 0 of a batch of the rows
    [p, p]: two rows, so the reference is numpy's arithmetic (a one-row
    batch runs Python floats, as the compiled code does)."""
    want = row_zero(fields, [p, p])
    got = outcome(lambda: compile_fields(fields)(p))
    if isinstance(want, tuple):
        exc, text = want
        assert text.endswith(at_point(p)), text
        assert got == (exc, text.removesuffix(at_point(p))), (fields, p, got)
    else:
        assert isinstance(got, list) and len(got) == len(want)
        assert all(same_float(a, b) for a, b in zip(got, want)), \
            (fields, p, got, want)


def motion_fields(model):
    if model.kind == "galilei":
        ph = GalileiPhase(model)
        return [ph.gamma(i) for i in range(1, 4)]
    ph = EinsteinPhase(model)
    return ([ph.radicand(), ph.alpha0()]
            + [ph.gamma_bar(i) for i in range(1, 4)])


@pytest.mark.parametrize("name", available_models())
def test_parity_on_shipped_models(name):
    model = load_builtin(name)
    fields = motion_fields(model)
    fn = compile_fields(fields)
    points = _Ctx(model, 24, 3).points
    want = np.stack(field_values(fields, points), axis=1).tolist()
    assert [fn(p) for p in points] == want


def case(id, text, x1, want):
    return pytest.param(parse_expr(text), x1, want, id=id)


# (id, expression, point value of x1, outcome): the exception class a
# batch row raises, or the float it evaluates to.  The four floats are
# inputs that failed while the evaluators kept the checks of an earlier
# forward-mode evaluator (sqrt failing where r * x == 0, and an x^(p-2)
# side power).  Each id is explicit, so adding or removing a case renames
# no other; these are the positional names pytest first gave the cases.
ERROR_CASES = [
    case("node0-1.0-ValueError", "(x1 - 2)^(1/3)", 1.0, ValueError),
    case("node1--1.0-ValueError", "sqrt(x1)", -1.0, ValueError),
    case("node2-0.0-ValueError", "sqrt(x1)", 0.0, ValueError),
    case("node3-1e-300-1e-150", "sqrt(x1)", 1e-300, math.sqrt(1e-300)),
    case("node4-0.0-ValueError", "sqrt(1 - 2)", 0.0, ValueError),
    case("node5-0.0-ValueError", "x1^(1/2)", 0.0, ValueError),
    case("node6-0.0-ValueError", "(1 - 2)^(1/2)", 0.0, ValueError),
    case("node7-1e-300-1e-150", "x1^(1/2)", 1e-300, 1e-300 ** 0.5),
    case("node8-0.0-ZeroDivisionError", "x1^(-1)", 0.0, ZeroDivisionError),
    case("node9-1e-200-1e+200", "x1^(-1)", 1e-200, 1e-200 ** -1.0),
    case("node10-1e+200-OverflowError", "x1^2", 1e200, OverflowError),
    case("node11-1e-310-1e-310", "x1^1", 1e-310, 1e-310),
    case("node12-0.0-ZeroDivisionError", "1 / x1", 0.0, ZeroDivisionError),
    case("node13-2.0-ZeroDivisionError", "x1 / (1 - 1)", 2.0,
         ZeroDivisionError),
    case("node14-2.0-ZeroDivisionError", "2 / (1 - 1)", 2.0,
         ZeroDivisionError),
    case("node15-1.0-OverflowError", "exp(1000 * x1)", 1.0, OverflowError),
    case("node16-inf-ValueError", "sin(x1)", math.inf, ValueError),
    # a constant subtree that fails is not folded: it raises in its place
    case("const-sqrt-ValueError", "x1 + sqrt(1 - 2)", 1.0, ValueError),
    case("const-exp-OverflowError", "x1 * exp(1000)", 1.0, OverflowError),
    case("const-power-ValueError", "(1 - 2)^(1/2) + x1", 1.0, ValueError),
]


@pytest.mark.parametrize("node,x1,want", ERROR_CASES)
def test_error_parity(node, x1, want):
    # a point, a batch row and the compiled code: one class and one text,
    # or one value
    fld = node
    p = [0.0, x1, 0.0, 0.0]
    batch = outcome(lambda: fld.values(np.array([p])).tolist()[0])
    point = outcome(lambda: fld.value(p))
    if isinstance(want, float):
        assert type(point) is float and point == batch == want
    else:
        assert batch[0] is want and point == batch
    assert_same_outcome([fld], p)


def test_quotient_is_correctly_rounded():
    # a * (1.0 / b) differs from a / b in the last bit on these operands
    fld = parse_expr("x1 / x2")
    for a, b in [(0.3, 0.1), (5.0, 3.0), (7.0, 10.0)]:
        assert a * (1.0 / b) != a / b
        p = [0.0, a, b, 0.0]
        assert fld.value(p) == a / b
        assert fld.values(np.array([p])).tolist() == [a / b]
        assert fld.values(np.array([p, p])).tolist() == [a / b] * 2
        assert_same_outcome([fld], p)


def test_zero_divisor_raises_the_batch_text():
    # Python's own text is "float division by zero"
    with pytest.raises(ZeroDivisionError) as info:
        compile_fields([parse_expr("1 / x1")])([0.0] * 4)
    assert str(info.value) == "division by zero in expression"


def division_checks(text: str) -> int:
    """The zero-divisor checks in the code compiled for text."""
    em = _Emitter()
    _walk(parse_expr(text), {}, em.visit)
    return em.source([]).count("ZeroDivisionError")


def test_divisor_checked_only_where_it_can_be_zero():
    # not a nonzero number, nor a divisor an earlier division checked
    assert division_checks("x1 / 2") == 0
    assert division_checks("x1 / x2 + x3 / x2") == 1
    assert division_checks("x1 / 0 + x2 / (x3 - x3)") == 2
    with pytest.raises(ZeroDivisionError) as info:
        compile_fields([parse_expr("1 / (x1 - x1)")])([0.0] * 4)
    assert str(info.value) == "division by zero in expression"


def compiled_source(monkeypatch, phase) -> str:
    """The source of phase.dynamical_fn(), as `_Emitter.source` gave it."""
    sources = []
    source = _Emitter.source

    def recorded(em, outs):
        sources.append(source(em, outs))
        return sources[-1]
    monkeypatch.setattr(_Emitter, "source", recorded)
    phase.dynamical_fn()
    src, = sources
    return src


def test_constant_subtrees_are_folded(monkeypatch):
    # uniform-b's right-hand side is mostly numbers (B, q, m): no operation
    # is left whose operands are all numbers
    src = compiled_source(monkeypatch,
                          GalileiPhase(load_builtin("uniform-b")))
    ops = [line.split(" = ", 1)[1] for line in src.splitlines()
           if re.fullmatch(r" +t\d+ = .*", line)]
    assert ops
    assert all(re.search(r"\b[tx]\d+\b", op) for op in ops), src


def test_no_product_by_a_unit(monkeypatch):
    # x * 1.0 is x and x * -1.0 is -x, bit for bit: neither is emitted
    for phase in (GalileiPhase(load_builtin("uniform-b")),
                  EinsteinPhase(load_builtin("uniform-e"))):
        src = compiled_source(monkeypatch, phase)
        assert not re.search(r"\* \(-?1\.0\)|\(-?1\.0\) \*", src), src


# the operations that can raise on floats; `+ - * /` (a division after its
# divisor check), negation and abs cannot
RAISING = {"_sin", "_cos", "_exp", "_sqrt"}


def raises(op) -> bool:
    return (isinstance(op, ast.BinOp) and isinstance(op.op, ast.Pow)
            or isinstance(op, ast.Call) and op.func.id in RAISING)


def operations(tree):
    """The float operations under tree: the negative literals and the
    coordinate loads, checks and raises aside."""
    for op in ast.walk(tree):
        if isinstance(op, ast.BinOp) or isinstance(op, ast.UnaryOp) \
                and isinstance(op.op, ast.USub) \
                and not isinstance(op.operand, ast.Constant) \
                or isinstance(op, ast.Call) \
                and op.func.id in RAISING | {"abs"}:
            yield op


def names(tree, name) -> int:
    """How often tree reads name."""
    return sum(isinstance(n, ast.Name) and n.id == name
               for n in ast.walk(tree))


def test_values_are_stored_only_where_needed(monkeypatch):
    # curved-einstein's right-hand side has 284 operations.  A value is
    # stored only where it is read twice or more, its operation can raise,
    # or it is an output; every other operation is written into its one
    # reader.  Each stored temporary is assigned once, so its readers are
    # all the statements after it
    phase = EinsteinPhase(load_builtin("curved-einstein"))
    src = compiled_source(monkeypatch, phase)
    body = ast.parse(src).body[0].body
    assert len(list(operations(ast.Module(body, [])))) == 284
    temps = []
    for k, stmt in enumerate(body[:-1]):
        if not (isinstance(stmt, ast.Assign)
                and re.fullmatch(r"t\d+", stmt.targets[0].id)):
            continue
        name = stmt.targets[0].id
        temps.append(name)
        value = stmt.value
        # a raising operation is never written into a reader
        assert not any(raises(op) for op in operations(value)
                       if op is not value), ast.unparse(stmt)
        count = names(ast.Module(body[k + 1:-1], []), name)
        returned = names(body[-1], name) > 0
        assert raises(value) or returned or count >= 2, ast.unparse(stmt)
    assert len(temps) == len(set(temps)) == 76
    assert set(temps) == {v for v in phase.dynamical_fn().__code__.co_varnames
                          if re.fullmatch(r"t\d+", v)}


@pytest.mark.parametrize("text,fails", [
    ("x1 * x2 + sqrt(x3)", "_sqrt("),
    ("x1 * x2 - x3^(1/2)", " ** "),
    ("x1 * x2 * (x3 / x3)", "ZeroDivisionError"),
    ("(x1 * x2) * exp(x3)", "_exp("),
])
def test_a_product_written_into_its_reader_keeps_the_first_error(text,
                                                                 fails):
    # the product is read once, so it is computed in the line that reads
    # it, after the sqrt, power, division or exp that fails; the product
    # itself cannot raise (it overflows to inf), so the first error, or
    # the value, is the batch's
    em = _Emitter()
    lines = em.source([em.field(parse_expr(text))]).splitlines()
    assert "(x1 * x2)" in lines[-2]
    assert any(fails in line for line in lines[:-2]), lines
    for x3 in (-1.0, 0.0, 4.0, 1000.0, math.inf, math.nan):
        for x1 in (0.5, 1e200):
            assert_same_outcome([parse_expr(text)], [0.0, x1, x1, x3])


GRID = [0.0, 1e-320, 1e-310, 1e-300, 1e-200, 1e-150, 1e-100, 0.3, 1.0,
        2.0, 1e100, 1e150, 1e200, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("den", [1, 2, 3, 4])
def test_power_grid_matches_jets(den):
    # every sign and size of exponent, at bases near 0 and infinity, where
    # x^p overflows, underflows or divides by zero
    for num in range(-7, 8):
        fld = Pow(Var(0), Fraction(num, den))
        for x in GRID + [-x for x in GRID]:
            assert_same_outcome([fld], [x])


def test_first_error_in_evaluation_order():
    # evaluation stops at the left operand's error before the right one
    left, right = parse_expr("1 / x1"), parse_expr("sqrt(1 - 2)")
    for fld in (BinOp("+", left, right),
                BinOp("+", right, left)):
        assert_same_outcome([fld], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        compile_fields([BinOp("+", left, right)])([0.0] * 4)
    with pytest.raises(ValueError):
        compile_fields([BinOp("+", right, left)])([0.0] * 4)


def test_params_and_shared_subexpressions():
    # the same text under two parameter values: two nodes, each shared
    # within its own fields
    shared = parse_expr("k * x1 + sin(x2)", {"k": 3.0})
    other = parse_expr("k * x1 + sin(x2)", {"k": -2.0})
    assert shared is parse_expr("3.0 * x1 + sin(x2)") and other is not shared
    f = BinOp("*", shared, shared)
    g = BinOp("-", other, Num(1.0))
    h = Neg(shared)
    assert_same_outcome([f, g, h], [0.0, 0.7, -1.3, 0.0])
    fn = compile_fields([f, g])
    assert fn([0.0, 2.0, 0.0, 0.0]) == [36.0, -5.0]


def test_constant_fields_return_floats():
    out = compile_fields([Num(2.0),
                          parse_expr("k", {"k": 3}),
                          parse_expr("sin(0.5) / 4")])(
        [0.0] * 4)
    assert out == [2.0, 3.0, math.sin(0.5) / 4.0]
    assert all(type(v) is float for v in out)


def test_rejects_other_fields():
    with pytest.raises(TypeError):
        compile_fields([Field()])


def test_homotopy_node_does_not_compile():
    # its quadrature runs in a batch only
    h = Homotopy((Var(1),) * 4, (0.0,) * 4, (0.5,), (1.0,))
    with pytest.raises(TypeError, match="Homotopy node"):
        compile_fields([BinOp("+", Var(2), h)])


def test_deep_chain_compiles():
    node = Var(1)
    for k in range(5000):
        node = BinOp("+" if k % 2 else "-", node, Num(1.0))
        node = Neg(node) if k % 1000 == 0 else node
    fn = compile_fields([node])
    want = 0.25
    for k in range(5000):
        want = want + 1.0 if k % 2 else want - 1.0
        want = -want if k % 1000 == 0 else want
    assert fn([0.0, 0.25, 0.0, 0.0]) == [want]


def test_deep_single_use_sum_compiles():
    # each partial sum is read once, by the next, so it would be written
    # into it; past the nesting limit a partial sum is stored instead,
    # which keeps the parentheses few enough for CPython's parser
    node = Var(1)
    for _ in range(5000):
        node = BinOp("+", node, Var(2))
    em = _Emitter()
    src = em.source([em.field(node)])
    stored = [line for line in src.splitlines()
              if re.fullmatch(r" +t\d+ = .*", line)]
    assert len(stored) == math.ceil(5000 / (_Emitter.NESTING + 1))
    want = 0.25
    for _ in range(5000):
        want = want + 0.1
    assert compile_fields([node])([0.0, 0.25, 0.1, 0.0]) == [want]


# ---------------------------------------------------------------------------
# property test: random expressions with shared subexpressions (test_batch
# draws its expressions from these strategies too)

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-310, 1e-200, 1e200, 700.0,
           math.inf, -math.inf, math.nan]
floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-4.0, 4.0, allow_nan=False))
exponents = st.sampled_from([Fraction(n, d) for n in (-3, -1, 0, 1, 2, 3)
                             for d in (1, 2, 3)])
leaves = st.one_of(
    st.builds(Num, floats),
    st.builds(Var, st.integers(0, 3)),
)


def _compound(sub):
    return st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, exponents),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  sub),
    )


exprs = st.recursive(leaves, _compound, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(exprs, exprs, st.lists(floats, min_size=4, max_size=4))
def test_random_expressions_match_jets(e1, e2, p):
    f, g = e1, e2
    # f * g and g - f share f's and g's nodes with the first two fields
    assert_same_outcome([f, g, f * g, g - f], p)
