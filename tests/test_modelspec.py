import gc
import math
import operator
import sys
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covphase import modelspec as ms
from covphase.einstein import EinsteinPhase
from covphase.galilei import HOMOTOPY_TS, HOMOTOPY_WEIGHTS, GalileiPhase, \
    Observer
from covphase.modelspec import (
    MAX_DEPTH, BinOp, Call, ExprField, Model, Neg, Num, ParseError,
    Pow, ValidationError, Var, available_models, compile_fields, derivative,
    load_builtin, parse_expr, parse_model_text, sample_points, substitute,
    to_text, tokenize, validate_model,
)
from covphase.smooth import (
    Field, VectorField, directional, exterior_derivative, field_values,
)

from numutil import central_grad, metric_matrix


class TestParser:
    def test_tokens_carry_offsets(self):
        toks = tokenize("x1 + sin(k)")
        assert [(k, t) for k, t, _ in toks] == [
            ("name", "x1"), ("op", "+"), ("name", "sin"), ("op", "("),
            ("name", "k"), ("op", ")")]
        assert [off for _, _, off in toks] == [0, 3, 5, 8, 9, 10]

    def test_precedence(self):
        assert parse_expr("1 + 2*x1") == BinOp("+", Num(1.0),
                                               BinOp("*", Num(2.0), Var(1)))
        assert parse_expr("2*x1 + 1") == BinOp("+",
                                               BinOp("*", Num(2.0), Var(1)),
                                               Num(1.0))
        assert parse_expr("-x1^2") == Neg(Pow(Var(1), Fraction(2)))

    def test_exponents(self):
        assert parse_expr("x1^2") == Pow(Var(1), Fraction(2))
        assert parse_expr("x1^-2") == Pow(Var(1), Fraction(-2))
        assert parse_expr("x1^(1/2)") == Pow(Var(1), Fraction(1, 2))
        assert parse_expr("x1^(-3/2)") == Pow(Var(1), Fraction(-3, 2))

    def test_names_and_calls(self):
        assert parse_expr("B/2 * x1", {"B": 3.0}) \
            == BinOp("*", BinOp("/", Num(3.0), Num(2.0)), Var(1))
        assert parse_expr("cos(x0)") == Call("cos", Var(0))

    def test_params_are_numbers_when_parsed(self):
        assert parse_expr("k*x1 + k", {"k": 0.1}) \
            is parse_expr("0.1*x1 + 0.1")

    @pytest.mark.parametrize("text,offset", [
        ("x1 + * 2", 5),
        ("(x1", 3),
        ("x1 $ 2", 3),
        ("x1^2.5", 3),
        ("1 +", 3),
    ])
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.offset == offset

    def test_unknown_name_fails_at_parse(self):
        with pytest.raises(ParseError, match="unknown name 'bogus'") as err:
            parse_expr("x1 + bogus + 1", {"k": 1.0})
        assert err.value.offset == 5
        with pytest.raises(ParseError, match="unknown name 'k'"):
            parse_expr("k * x1")

    # the next three once raised ZeroDivisionError, int()'s bare ValueError
    # and (at evaluation) OverflowError instead of a ParseError
    @pytest.mark.parametrize("text,offset", [("x1^(1/0)", 6)])
    def test_exponent_denominator_zero(self, text, offset):
        with pytest.raises(ParseError, match="exponent denominator is zero") \
                as err:
            parse_expr(text)
        assert err.value.offset == offset

    def test_exponent_denominator_not_an_integer(self):
        with pytest.raises(ParseError, match="exponent denominator must be "
                           "an integer") as err:
            parse_expr("x1^(2/5e-3)")
        assert err.value.offset == 6

    # each once read its "/" as a ratio exponent: x1^(2/3), x1^(2/0), and
    # a denominator 5e-3 that is not an integer
    @pytest.mark.parametrize("text,divisor", [
        ("x1^2 / 3", 3.0), ("x1^2/0", 0.0), ("x1^2 / 5e-3", 5e-3)])
    def test_bare_exponent_ends_at_its_integer(self, text, divisor):
        quotient = BinOp("/", Pow(Var(1), Fraction(2)), Num(divisor))
        assert parse_expr(text) is quotient
        assert parse_expr(text.replace("x1^2", "(x1^2)")) is quotient
        assert parse_expr("x1^(2/3)") is Pow(Var(1), Fraction(2, 3))

    @pytest.mark.parametrize("text", ["x1^" + "9" * 400,
                                      "x1^(-%s/3)" % ("9" * 400)],
                             ids=["integer", "ratio"])
    def test_exponent_too_large_for_a_float(self, text):
        with pytest.raises(ParseError, match="exponent too large for a float"):
            parse_expr(text)


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0, max_value=3, allow_nan=False,
                             allow_infinity=False)),
    st.builds(Var, st.integers(0, 3)),
)
_exprs = st.recursive(
    _leaf,
    lambda ch: st.one_of(
        st.builds(Neg, ch),
        st.builds(BinOp, st.sampled_from(list("+-*")), ch, ch),
        st.builds(Call, st.sampled_from(["sin", "cos"]), ch),
    ),
    max_leaves=12,
)


@given(_exprs)
def test_print_parse_round_trip(node):
    assert parse_expr(to_text(node)) == node


_exponents = st.sampled_from([Fraction(n, d) for n in (-3, -1, 0, 1, 2, 3)
                              for d in (1, 2)])
_pow_exprs = st.recursive(
    _leaf,
    lambda ch: st.one_of(
        st.builds(Neg, ch),
        st.builds(BinOp, st.sampled_from("+-*/"), ch, ch),
        st.builds(Pow, ch, _exponents),
        st.builds(Pow, st.builds(Pow, ch, _exponents), _exponents),
    ),
    max_leaves=8,
)


def test_power_of_a_power_prints_in_parentheses():
    node = parse_expr("(x1^2)^3")
    assert to_text(node) == "(x1^2)^3"
    d = derivative(parse_expr("1 / x1^2"), 1)
    assert to_text(d) == "-(2.0 * x1) / (x1^2)^2"
    # a power left of "/": x1^2 / x2 once read 2 / x2 as the exponent
    q = BinOp("/", Pow(Var(1), Fraction(2)), Var(2))
    for n in (node, d, q):
        assert parse_expr(to_text(n)) is n


@pytest.mark.parametrize("node,text", [
    (BinOp("/", Neg(Pow(Var(1), Fraction(2))), Var(2)), "-x1^2 / x2"),
    (BinOp("/", BinOp("*", Var(3), Pow(Var(1), Fraction(2))), Num(3.0)),
     "x3 * x1^2 / 3.0"),
    (BinOp("/", Neg(Pow(Num(0.0), Fraction(0))), Num(5e-324)),
     "-0.0^0 / 5e-324"),
    (BinOp("/", Pow(Var(1), Fraction(1, 2)), Var(2)), "x1^(1/2) / x2"),
], ids=["negated", "product", "zero", "ratio"])
def test_power_left_of_division_prints_bare(node, text):
    # a bare exponent ends at its integer, so x1^2 / x2 is (x1^2) / x2
    # and needs no parentheses to parse back
    assert to_text(node) == text
    assert parse_expr(text) is node


@settings(max_examples=200, deadline=None)
@given(_pow_exprs)
def test_print_parse_round_trip_with_powers(node):
    assert parse_expr(to_text(node)) is node


@given(_exprs, st.integers(0, 3))
def test_derivative_never_raises_on_safe_ops(node, i):
    d = derivative(node, i)
    assert np.isfinite(d.value([0.3, -0.7, 0.2, 0.5]))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


def to_sympy(node, sp, xs):
    """The expression as a sympy expression in the symbols xs."""
    match node:
        case Num(number=v):
            return sp.Float(v)
        case Var(index=k):
            return xs[k]
        case Neg(arg=a):
            return -to_sympy(a, sp, xs)
        case BinOp(op=o, left=a, right=b):
            return _ARITH[o](to_sympy(a, sp, xs), to_sympy(b, sp, xs))
        case Pow(base=b, exponent=e):
            return to_sympy(b, sp, xs) ** sp.Rational(e.numerator,
                                                      e.denominator)
        case Call(func=f, arg=a):
            fn = sp.Abs if f == "abs" else getattr(sp, f)
            return fn(to_sympy(a, sp, xs))
    raise TypeError(node)


_IN_BOX = [[0.3, -0.7, 0.2, 0.5], [-0.45, 0.15, 0.8, -0.6],
           [0.9, 0.4, -0.35, 0.05]]


def assert_derivatives_match_sympy(node):
    sp = pytest.importorskip("sympy")
    xs = sp.symbols("x0:4", real=True)
    expr = to_sympy(node, sp, xs)
    for i in range(4):
        ours = derivative(node, i)
        ref = sp.lambdify(xs, sp.diff(expr, xs[i]), "math")
        for p in _IN_BOX:
            try:
                want = float(ref(*p))
                got = ours.value(p)
            except (ValueError, ZeroDivisionError, OverflowError,
                    TypeError):
                continue
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (
                to_text(node), i, p)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_derivative_matches_sympy(node):
    assert_derivatives_match_sympy(node)


@pytest.mark.parametrize("text", [
    "exp(x0/2) / (1 + x1^2)", "sqrt(4 + x2^2) - cos(x1)*x3",
    "x1^(-3/2) * abs(x2 - 0.1) + x3^(1/3)",
])
def test_derivative_matches_sympy_on_other_nodes(text):
    # division, powers, exp, sqrt and abs, which _exprs does not draw
    assert_derivatives_match_sympy(parse_expr(text))


class TestDerivatives:
    exprs = [
        "x1^2 * x2 + sin(x0*x3)",
        "exp(x0/2) / (1 + x1^2)",
        "sqrt(4 + x2^2) - cos(x1)*x3",
        "x0*x1*x2*x3",
    ]

    @pytest.mark.parametrize("text", exprs)
    def test_against_finite_differences(self, text):
        fld = parse_expr(text)
        p = np.array([0.4, -0.3, 0.8, 0.2])
        num = central_grad(lambda x: fld.value(x), p)
        for i in range(4):
            assert fld.partial(i).value(p) == pytest.approx(num[i], rel=1e-6,
                                                            abs=1e-8)

    def test_nested_partials_are_exact(self):
        fld = parse_expr("x1^2 * x2")
        p = np.array([0.0, 3.0, 5.0, 0.0])
        assert fld.partial(1).partial(1).value(p) == 2.0 * 5.0
        assert fld.partial(1).partial(2).value(p) == 2.0 * 3.0
        assert fld.partial(1).partial(1).partial(2).value(p) == 2.0
        assert fld.partial(1).partial(1).partial(2).partial(0).value(p) == 0.0

    def test_phase_chart_embedding(self):
        # an expression field ignores the fibre coordinates of a larger chart
        fld = parse_expr("x1 * x3")
        p7 = np.array([0.0, 2.0, 0.0, 7.0, 1.0, 2.0, 3.0])
        assert fld.value(p7) == 14.0
        assert fld.partial(1).value(p7) == 7.0
        assert fld.partial(5).value(p7) == 0.0
        # every partial against central differences, to 1e-8: the field is
        # bilinear, so only rounding separates the two
        sym = [fld.partial(i).value(p7) for i in range(7)]
        assert np.allclose(sym, central_grad(fld.value, p7), rtol=0.0,
                           atol=1e-8)
        assert sym[3] == 2.0 and not any(sym[4:])

    def test_half_integer_powers(self):
        fld = parse_expr("x1^(3/2)")
        p = np.array([0.0, 4.0, 0.0, 0.0])
        assert fld.value(p) == 8.0
        assert fld.partial(1).value(p) == pytest.approx(1.5 * 2.0)

    def test_params_resolve(self):
        fld = parse_expr("B/2 * x1", {"B": 3.0})
        assert fld.value(np.array([0.0, 2.0, 0.0, 0.0])) == 3.0

    def test_fields_under_different_params_combine(self):
        # parameters are numbers in the nodes, so two fields parsed under
        # different values of one name still sum to an expression field
        f = parse_expr("k*x1", {"k": 1.0}) \
            + parse_expr("k*x2", {"k": 2.0})
        assert isinstance(f, ExprField)
        p = np.array([0.0, 3.0, 5.0, 0.0])
        assert f.value(p) == 13.0
        assert [f.partial(i).value(p) for i in (1, 2)] == [1.0, 2.0]

    def test_arithmetic_stays_expression_backed(self):
        a = parse_expr("x1^2")
        b = parse_expr("sin(x0)")
        c = (a * b + 2.0) / parse_expr("1 + x2^2")
        assert isinstance(c, ExprField)
        d3 = c.partial(1).partial(1).partial(0)
        p = np.array([0.0, 1.0, 0.0, 0.0])
        assert d3.value(p) == pytest.approx(2.0)

    def test_phase_coordinates_in_expressions(self):
        fld = parse_expr("x1 * x4")  # spacetime times fibre coordinate
        p = np.array([0.0, 3.0, 0.0, 0.0, 5.0, 0.0, 0.0])
        assert fld.value(p) == 15.0
        assert fld.partial(4).value(p) == 3.0
        assert fld.partial(4).partial(1).value(p) == 1.0


GOOD_GALILEI = """
[model]
kind = galilei
name = demo

[constants]
m = 1.0 M
q = -1.0 T^-1 L^3/2 M^1/2
hbar = 1.0 T^-1 L^2 M

[params]
k = 0.2

[box]
lo = -1, -1, -1, -1
hi = 1, 1, 1, 1

[metric]
g11 = 1 + k*x1^2
g22 = 1
g33 = 1

[potential]
A1 = -k * x2
"""


class TestModelLoading:
    def test_galilei_model_round_trip(self):
        model = parse_model_text(GOOD_GALILEI)
        validate_model(model)
        assert model.kind == "galilei"
        assert model.charge == -1.0
        assert model.coupling == -1.0
        p = np.array([0.0, 0.5, 0.5, 0.0])
        g = metric_matrix(model, p)
        assert g[0, 0] == pytest.approx(1 + 0.2 * 0.25)
        assert g[1, 1] == 1.0
        assert model.potential[1].value(p) == pytest.approx(-0.1)

    def test_loaded_fields_are_expression_nodes(self):
        # a model holds its nodes: orbits and the CLI check the box where a
        # point enters, so an entry evaluates outside the box too
        model = parse_model_text(GOOD_GALILEI)
        assert model.metric[0][0].value([0.0, 2.0, 0.0, 0.0]) == 1 + 0.2 * 4
        for name in available_models():
            model = load_builtin(name)
            fields = [f for row in model.metric for f in row] \
                + model.potential
            if model.gravity2 is not None:
                fields += list(model.gravity2.comps.values())
            assert all(isinstance(f, ExprField) for f in fields), name

    def test_metric_must_be_positive_definite(self):
        bad = GOOD_GALILEI.replace("g11 = 1 + k*x1^2", "g11 = x1")
        with pytest.raises(ValidationError) as err:
            validate_model(parse_model_text(bad))
        assert err.value.witness is not None
        assert "positive definite" in str(err.value)

    def test_light_speed_rejected_in_galilei(self):
        bad = GOOD_GALILEI.replace("hbar = 1.0 T^-1 L^2 M",
                                   "hbar = 1.0 T^-1 L^2 M\nc = 1.0 T^-1 L")
        with pytest.raises(ValueError, match="light-speed"):
            parse_model_text(bad)

    def test_wrong_dimension_tag(self):
        bad = GOOD_GALILEI.replace("m = 1.0 M", "m = 1.0 L")
        with pytest.raises(ValidationError) as info:
            parse_model_text(bad)
        assert str(info.value) == "constant 'm' has dimension L, expected M"
        bad = GOOD_GALILEI.replace("q = -1.0 T^-1 L^3/2 M^1/2", "q = -1.0")
        with pytest.raises(ValidationError) as info:
            parse_model_text(bad)
        assert str(info.value) == ("constant 'q' has dimension 1, "
                                   "expected T^-1 L^3/2 M^1/2")

    def test_missing_diagonal_entry(self):
        bad = GOOD_GALILEI.replace("g22 = 1\n", "")
        with pytest.raises(ValueError, match="g22"):
            parse_model_text(bad)

    def test_bad_exponent_names_its_entry(self):
        bad = GOOD_GALILEI.replace("g11 = 1 + k*x1^2", "g11 = 1 + x1^(1/0)")
        with pytest.raises(ParseError, match="^g11: exponent denominator is "
                           "zero"):
            parse_model_text(bad)

    def test_phase_coordinates_rejected_in_model_files(self):
        bad = GOOD_GALILEI.replace("A1 = -k * x2", "A1 = -k * x5")
        with pytest.raises(ValueError, match="spacetime"):
            parse_model_text(bad)

    def test_einstein_signature_enforced(self):
        text = GOOD_GALILEI.replace("kind = galilei", "kind = einstein") \
            .replace("hbar = 1.0 T^-1 L^2 M",
                     "hbar = 1.0 T^-1 L^2 M\nc = 1.0 T^-1 L") \
            .replace("[metric]\ng11", "[metric]\ng00 = 1\ng11")
        with pytest.raises(ValidationError, match="signature"):
            validate_model(parse_model_text(text))

    def test_non_closed_gravity_form(self):
        text = GOOD_GALILEI + "\n[gravity]\nPhi12 = x0\n"
        with pytest.raises(ValidationError, match="not closed"):
            validate_model(parse_model_text(text))

    def test_closed_gravity_form_accepted(self):
        text = GOOD_GALILEI + "\n[gravity]\nPhi01 = -x2\nPhi02 = -x1\n"
        model = parse_model_text(text)
        validate_model(model)
        assert model.gravity2.comps[(0, 1)].value(np.array([0, 0.5, 0.25, 0])) \
            == pytest.approx(-0.25)


class TestBuiltinModels:
    def test_catalogue(self):
        names = available_models()
        assert "flat-free" in names and "uniform-b" in names
        assert "minkowski" in names and "uniform-e" in names
        assert len(names) == 8
        assert "schwarzschild-like" in names

    @pytest.mark.parametrize("name", [
        "flat-free", "uniform-b", "curved-galilei", "curved-gravity",
        "minkowski", "uniform-e", "curved-einstein", "schwarzschild-like"])
    def test_all_builtins_validate(self, name):
        model = load_builtin(name)
        assert isinstance(model, Model)
        assert model.mass == 1.0 and model.hbar == 1.0

    def test_sample_points_deterministic_and_inside(self):
        model = parse_model_text(
            (ms.builtin_model_dir() / "uniform-b.ini").read_text(),
            name="uniform-b")
        a = sample_points(model)
        b = sample_points(model)
        assert np.array_equal(a, b)
        assert a.shape == (49, 4)
        assert np.all(a >= model.box_lo) and np.all(a <= model.box_hi)


class TestSobol:
    # exact dyadic rationals, so this holds where scipy is not installed
    FIRST_8 = [[0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5],
               [0.75, 0.25, 0.25, 0.25], [0.25, 0.75, 0.75, 0.75],
               [0.375, 0.375, 0.625, 0.875], [0.875, 0.875, 0.125, 0.375],
               [0.625, 0.125, 0.875, 0.625], [0.125, 0.625, 0.375, 0.125]]

    def test_first_points_pinned(self):
        assert ms.sobol(8).tolist() == self.FIRST_8
        assert ms.sobol(3).tolist() == self.FIRST_8[:3]
        assert ms.sobol(0).shape == (0, 4)
        c = ms.sobol(1024) * 2.0 ** 30
        assert np.array_equal(c, np.floor(c))

    @pytest.mark.parametrize("k", range(11))
    def test_matches_scipy(self, k):
        qmc = pytest.importorskip("scipy.stats.qmc")
        want = qmc.Sobol(d=4, scramble=False).random(2 ** k)
        assert ms.sobol(2 ** k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", available_models())
    def test_sample_points_match_scipy_formula(self, name):
        qmc = pytest.importorskip("scipy.stats.qmc")
        model = parse_model_text(
            (ms.builtin_model_dir() / (name + ".ini")).read_text(), name=name)
        for count in (1, 5, 49):
            pow2 = 1 << (count - 1).bit_length()
            unit = qmc.Sobol(d=4, scramble=False).random(pow2)[:count]
            want = model.box_lo + (model.box_hi - model.box_lo) * (
                0.05 + 0.9 * unit)
            assert sample_points(model, count).tobytes() == want.tobytes()


_ROW_WITNESS = {
    0: "[-0.9, -0.9, -0.9, -0.9]",
    24: "[-0.61875, -0.61875, 0.05625000000000013, 0.6187500000000001]",
    48: "[-0.759375, -0.478125, 0.534375, -0.646875]",
}


class TestValidationWitness:
    """validate_model evaluates every point in one batch but reports the
    first failing point, its message and witness as a point loop does."""

    CURVED_GRAVITY = (ms.builtin_model_dir() / "curved-gravity.ini"
                      ).read_text()

    # each edit fails at exactly one sample point: the one whose x1 is c
    EDITS = {
        "evaluation": (GOOD_GALILEI, "A1 = -k * x2", "A1 = 1/(x1 - %s)",
                       "field evaluation failed: division by zero in expression"),
        "non-finite": (GOOD_GALILEI, "A1 = -k * x2",
                       "A1 = 1e300 * (1e300 * exp(-1e300 * (x1 - %s)^2))",
                       "non-finite field value"),
        "signature": (GOOD_GALILEI, "g11 = 1 + k*x1^2", "g11 = (x1 - %s)^2",
                      "spacelike metric is not positive definite "
                      "(eigenvalues [0. 1. 1.])"),
        "closedness": (
            CURVED_GRAVITY, "Phi01 = -x2",
            "Phi01 = -x2 + x2 * exp(-1e300 * (x1 - %s)^2)",
            "gravitational 2-form is not closed (d-component (0, 1, 2) = 1)"),
        # a NaN component (0 * inf where x1 = c) with a closed dPhi; this
        # once loaded without complaint
        "gravity-non-finite": (
            CURVED_GRAVITY, "Phi03 = cos(x0)",
            "Phi03 = cos(x0)\nPhi12 = 0 * (1e300 * (1e300 * "
            "exp(-1e300 * (x1 - %s)^2)))",
            "non-finite field value"),
        # dPhi is closed but cannot be evaluated where x1 = c; this once
        # escaped as a bare ZeroDivisionError
        "closedness-evaluation": (
            CURVED_GRAVITY, "Phi01 = -x2",
            "Phi01 = -x2 + x2 * (0 * (1/(x1 - %s)))",
            "field evaluation failed: division by zero in expression"),
    }

    @pytest.mark.parametrize("row", sorted(_ROW_WITNESS))
    @pytest.mark.parametrize("kind", sorted(EDITS))
    def test_first_failing_point(self, kind, row):
        text, old, new, message = self.EDITS[kind]
        c = sample_points(parse_model_text(text))[row][1]
        assert old in text
        model = parse_model_text(text.replace(old, new % repr(float(c))))
        with pytest.raises(ValidationError) as err:
            validate_model(model)
        assert str(err.value) == "%s at witness point %s" % (
            message, _ROW_WITNESS[row])
        assert err.value.witness.tolist() == sample_points(model)[row].tolist()


@pytest.mark.parametrize("name", available_models())
def test_stacked_metric_eigenvalues_equal_per_point(name):
    # validate_model makes one eigvalsh call over every sample point
    model = load_builtin(name)
    n = len(model.metric)
    entries = [f for row in model.metric for f in row]
    gs = np.stack(field_values(entries, sample_points(model)),
                  axis=1).reshape(-1, n, n)
    assert np.linalg.eigvalsh(gs).tolist() \
        == [np.linalg.eigvalsh(g).tolist() for g in gs]


def ref_metric_error(model):
    """The first metric check a point loop fails, with one eigvalsh call
    per sample point: its message and witness, or None."""
    for p in sample_points(model):
        g = metric_matrix(model, p)
        eig = np.linalg.eigvalsh(g)
        if model.kind == "galilei":
            if eig[0] <= 0:
                return ("spacelike metric is not positive definite "
                        "(eigenvalues %s)" % eig, p)
        elif not (eig[0] < 0 and eig[1] > 0):
            return ("metric does not have Lorentzian signature -+++ "
                    "(eigenvalues %s)" % eig, p)
        elif g[0, 0] >= 0:
            return ("the chart time direction is not timelike (g00 >= 0)",
                    p)
    return None


MINKOWSKI = (ms.builtin_model_dir() / "minkowski.ini").read_text()
# (model text, entry, replacement failing where x1 is c, message phrase)
METRIC_EDITS = {
    "positive-definite": (GOOD_GALILEI, "g11 = 1 + k*x1^2",
                          "g11 = (x1 - %s)^2", "positive definite"),
    "lorentzian": (MINKOWSKI, "g11 = 1", "g11 = (x1 - %s)^2",
                   "Lorentzian signature"),
    # Lorentzian everywhere, since det [[g00, 1], [1, 1]] < 0
    "timelike": (MINKOWSKI, "g00 = -1", "g00 = -(x1 - %s)^2\ng01 = 1",
                 "not timelike (g00 >= 0)"),
}


@pytest.mark.parametrize("row", sorted(_ROW_WITNESS))
@pytest.mark.parametrize("kind", sorted(METRIC_EDITS))
def test_planted_metric_failure_matches_point_loop(kind, row):
    text, old, new, phrase = METRIC_EDITS[kind]
    assert old in text
    c = sample_points(parse_model_text(text))[row][1]
    model = parse_model_text(text.replace(old, new % repr(float(c))))
    message, witness = ref_metric_error(model)
    assert phrase in message
    assert witness.tolist() == sample_points(model)[row].tolist()
    with pytest.raises(ValidationError) as err:
        validate_model(model)
    assert str(err.value) == str(ValidationError(message, witness))
    assert err.value.witness.tolist() == witness.tolist()


# ---------------------------------------------------------------------------
# Shared DAGs: derivative and substitute memoize by node identity


def naive_derivative(node, i):
    """The tree-walking derivative: every visit of a shared node redoes it."""
    match node:
        case Num():
            return Num(0.0)
        case Var(index=k):
            return Num(1.0 if k == i else 0.0)
        case Neg(arg=a):
            d = naive_derivative(a, i)
            return Num(0.0) if ms._is_num(d, 0.0) else Neg(d)
        case BinOp(op="+", left=a, right=b):
            return ms._add(naive_derivative(a, i), naive_derivative(b, i))
        case BinOp(op="-", left=a, right=b):
            return ms._sub(naive_derivative(a, i), naive_derivative(b, i))
        case BinOp(op="*", left=a, right=b):
            return ms._add(ms._mul(naive_derivative(a, i), b),
                           ms._mul(a, naive_derivative(b, i)))
        case BinOp(op="/", left=a, right=b):
            top = ms._sub(ms._mul(naive_derivative(a, i), b),
                          ms._mul(a, naive_derivative(b, i)))
            return ms._div(top, ms._pow(b, Fraction(2)))
        case Pow(base=b, exponent=e):
            scale = ms._mul(Num(float(e)), ms._pow(b, e - 1))
            return ms._mul(scale, naive_derivative(b, i))
        case Call(func="sin", arg=a):
            return ms._mul(Call("cos", a), naive_derivative(a, i))
        case Call(func="cos", arg=a):
            d = ms._mul(Call("sin", a), naive_derivative(a, i))
            return Num(0.0) if ms._is_num(d, 0.0) else Neg(d)
        case Call(func="exp", arg=a):
            return ms._mul(Call("exp", a), naive_derivative(a, i))
        case Call(func="sqrt", arg=a):
            return ms._div(naive_derivative(a, i),
                           ms._mul(Num(2.0), Call("sqrt", a)))
        case Call(func="abs", arg=a):
            return ms._mul(ms._div(a, Call("abs", a)), naive_derivative(a, i))
    raise TypeError(node)


def naive_substitute(node, repl):
    match node:
        case Num():
            return node
        case Var(index=i):
            return repl.get(i, node)
        case Neg(arg=a):
            return Neg(naive_substitute(a, repl))
        case BinOp(op=o, left=a, right=b):
            return BinOp(o, naive_substitute(a, repl),
                         naive_substitute(b, repl))
        case Pow(base=b, exponent=e):
            return Pow(naive_substitute(b, repl), e)
        case Call(func=f, arg=a):
            return Call(f, naive_substitute(a, repl))
    raise TypeError(node)


def children(node) -> tuple:
    match node:
        case BinOp(left=a, right=b):
            return a, b
        case Neg(arg=a) | Call(arg=a) | Pow(base=a):
            return a,
    return ()


def distinct_nodes(*roots) -> int:
    """The distinct node objects of the DAG under the roots."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(children(node))
    return len(seen)


_any_leaf = st.one_of(
    st.builds(Num, st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])),
    st.builds(Var, st.integers(0, 6)),
)
_any_expr = st.recursive(
    _any_leaf,
    lambda ch: st.one_of(
        st.builds(Neg, ch),
        st.builds(BinOp, st.sampled_from("+-*/"), ch, ch),
        st.builds(Pow, ch, st.sampled_from(
            [Fraction(n, d) for n in (-2, -1, 0, 1, 2, 3) for d in (1, 2)])),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  ch),
    ),
    max_leaves=8,
)


@st.composite
def shared_exprs(draw):
    """An expression whose later nodes reuse earlier ones by identity."""
    pool = [draw(_any_expr)]
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        pool.append(draw(st.sampled_from([
            BinOp("+", a, b), BinOp("-", a, b), BinOp("*", a, b),
            BinOp("/", a, b), Neg(a), Call("sin", a), Call("sqrt", b),
            Pow(a, Fraction(3, 2))])))
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(shared_exprs(), st.integers(0, 6), _any_expr)
def test_memoized_derivative_and_substitute_match_tree_walk(node, i, other):
    d = derivative(node, i)
    assert d == naive_derivative(node, i)
    assert to_text(d) == to_text(naive_derivative(node, i))
    repl = {1: other, 4: BinOp("*", other, Var(2)), 5: Num(0.0)}
    s = substitute(node, repl)
    assert s == naive_substitute(node, repl)
    assert to_text(s) == to_text(naive_substitute(node, repl))


def stack_walk(root, memo, visit, known=None):
    """The reference walk: a stack of (node, children) pairs, known()
    asked when a node is popped, every child not in the memo pushed."""
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if node in memo:
                continue
            if known is not None:
                r = known(node)
                if r is not None:
                    memo[node] = r
                    continue
            kids = children(node)
            if not kids:
                memo[node] = visit(node, ())
                continue
            stack.append((node, kids))
            stack.extend([(k, None) for k in reversed(kids) if k not in memo])
            continue
        memo[node] = visit(node, tuple(memo[k] for k in kids))
    return memo[root]


def recorded_walk(walk, roots):
    """The visit sequence, the memo and the results of walking roots in
    turn through one memo."""
    seen, memo = [], {}

    def visit(n, kids):
        seen.append(n)
        return n, kids

    return seen, memo, [walk(r, memo, visit) for r in roots]


def stack_derivative(root, i):
    """The reference derivative: `stack_walk` with `derivative`'s pruning
    as its hook (zero where the mask lacks x_i, else the derivative still
    held on the node), deriving each node it visits with `_derive` and
    keeping the result on the node as `derivative` does."""
    def known(n):
        if not n._m & 1 << i:
            return ms._ZERO
        ref = n._d and n._d.get(i)
        return ref and ref()

    ds = {}

    def visit(n, kids):
        d = ms._derive(n, i, ds)
        n._d = n._d or {}
        n._d[i] = weakref.ref(d)
        return d

    return stack_walk(root, ds, visit, known)


def recorded_derivatives(derive, roots, i):
    """The nodes `_derive` derived, the distinct memos it read, and the
    results of deriving roots in turn along x_i, starting with no
    derivative held on any node of the roots."""
    forget = {}
    for r in roots:
        ms._walk(r, forget, lambda n, kids: setattr(n, "_d", None))
    seen, memos = [], []
    real = ms._derive

    def record(n, i, ds):
        seen.append(n)
        if not any(m is ds for m in memos):
            memos.append(ds)
        return real(n, i, ds)

    with mock.patch.object(ms, "_derive", record):
        return seen, memos, [derive(r, i) for r in roots]


@settings(max_examples=300, deadline=None)
@given(shared_exprs(), _any_expr, st.integers(0, 6), st.booleans())
def test_walk_matches_the_reference_stack_walk(node, other, i, prune):
    # pruned: the fused walk of `derivative`, whose `_derive` calls must
    # come in the order of the reference walk with its hook; else the
    # visits of `_walk`
    roots = [node, other, node]
    if prune:
        want = recorded_derivatives(stack_derivative, roots, i)
        got = recorded_derivatives(derivative, roots, i)
    else:
        want = recorded_walk(stack_walk, roots)
        got = recorded_walk(ms._walk, roots)
    seen, memo, results = got
    assert seen == want[0]
    assert len(seen) == len(set(seen))
    assert memo == want[1]
    assert results == want[2]


def test_chain_of_100000_nodes_walks_without_recursion():
    node, want = Var(1), 1.0
    for k in range(100000):
        node = BinOp("+" if k % 2 else "-", node, Var(k % 4))
        if k % 4 == 1:
            want += 1.0
    d = derivative(node, 1)
    assert d.values(np.zeros((1, 4))).tolist() == [want]
    s = substitute(node, {1: Var(3)})
    p = [0.1, 0.2, 0.3, 0.4]
    assert s.values(np.array([p])).tolist() \
        == node.values(np.array([[0.1, 0.4, 0.3, 0.4]])).tolist()


def read_coordinates(node) -> set:
    """The coordinate indices a node reads, by a recursive tree walk; a
    homotopy's radial factor reads every base coordinate."""
    match node:
        case Num():
            return set()
        case Var(index=k):
            return {k}
        case ms.Homotopy(phis=ps, base=b):
            return set(range(len(b))).union(*map(read_coordinates, ps))
    return set().union(*map(read_coordinates, children(node)))


def assert_mask_is_read_set(node):
    assert node._m == sum(1 << k for k in read_coordinates(node)), node


@settings(max_examples=100, deadline=None)
@given(shared_exprs(), st.integers(0, 6), _any_expr, _exprs)
def test_mask_is_the_set_of_coordinates_read(node, i, other, printable):
    for n in (parse_expr(to_text(printable)), node, derivative(node, i),
              substitute(node, {1: other, 4: BinOp("*", other, Var(2)),
                                5: Num(0.0)})):
        assert_mask_is_read_set(n)
    phis = (Num(0.0), substitute(node, {4: Var(0), 5: Var(1), 6: Var(2)}),
            Var(3), Num(1.0))
    h = ms.Homotopy(phis, (0.5,) * 4, HOMOTOPY_TS, HOMOTOPY_WEIGHTS)
    assert h._m == 0b1111
    for n in (h, BinOp("*", h, Var(5)), derivative(h, i)):
        assert_mask_is_read_set(n)


def test_derivative_skips_subtrees_that_do_not_read_the_coordinate():
    # 2^20 copies of base in x0..x3; the checks are plain booleans, since
    # printing the tree would take 2^20 steps
    base = parse_expr("sin(x0) * x1 + x2 / (x3 + 7.25)")
    node = base
    for _ in range(20):
        node = BinOp("+", node, node)
    assert node._m == 0b1111 and distinct_nodes(node) == 30
    skipped = derivative(node, 5) is ms._ZERO
    assert skipped and node._d is None and base._d is None
    # along x2, the product sin(x0) * x1 keeps no derivative
    kept = derivative(node, 2) is not ms._ZERO
    assert kept and 2 in node._d and 2 in base._d and base.left._d is None


def test_observed_potential_reads_the_spacetime_coordinates_only():
    ph = GalileiPhase(load_builtin("curved-galilei"))
    for fld in ph.observed_potential():
        h = fld.node
        assert isinstance(h, ms.Homotopy) and h._m == 0b1111
        for i in range(7):
            assert (derivative(h, i) is ms._ZERO) == (i >= 4), i


@pytest.mark.parametrize("k", [4, 8, 16])
def test_shared_input_gives_shared_output(k):
    # node_k uses node_{k-1} twice, so its tree holds Var(1) 2^k times
    node = Var(1)
    for _ in range(k):
        node = BinOp("*", node, node)
    assert distinct_nodes(node) == k + 1
    assert distinct_nodes(derivative(node, 1)) <= 4 * k + 2
    assert distinct_nodes(substitute(node, {1: Var(2)})) == k + 1
    if k == 4:
        assert derivative(node, 1) == naive_derivative(node, 1)


# distinct nodes of d Omega per shipped model with interned nodes; a
# phase builder that rebuilds a shared sub-structure per term (the 1-form
# a_i of the cosymplectic form, say) instead of once, or a node built
# outside the intern table, shows up as a rise
DOMEGA_DAG_CEILING = {
    "flat-free": 1, "uniform-b": 23, "curved-gravity": 342,
    "curved-galilei": 1745, "minkowski": 277, "schwarzschild-like": 717,
    "uniform-e": 1194, "curved-einstein": 3319,
}


@pytest.mark.parametrize("name", sorted(DOMEGA_DAG_CEILING))
def test_domega_keeps_its_sharing(name):
    model = load_builtin(name)
    phase = (GalileiPhase if model.kind == "galilei" else EinsteinPhase)(model)
    domega = exterior_derivative(phase.cosymplectic())
    assert distinct_nodes(*(f.node for f in domega.comps.values())) \
        <= DOMEGA_DAG_CEILING[name]


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deepest_differentiable_chain_still_differentiates():
    # one interpreter frame per expression level, so the chain is as deep
    # as the recursion limit allows from here, less a few frames of slack
    depth = sys.getrecursionlimit() - _stack_depth() - 10
    node, want = Var(1), 1.0
    for k in range(depth):
        node = BinOp("+" if k % 2 else "-", node, Var(k % 4))
        if k % 4 == 1:
            want += 1.0
    d = derivative(node, 1)
    assert compile_fields([d])([0.0] * 4) == [want]
    s = substitute(node, {1: Var(3)})
    p = [0.1, 0.2, 0.3, 0.4]
    assert compile_fields([s])(p) \
        == compile_fields([node])([0.1, 0.4, 0.3, 0.4])


# ---------------------------------------------------------------------------
# Interned nodes and the derivative kept on the node


def test_equal_expressions_are_one_object():
    a = parse_expr("sin(x1 * x2) / (1 + x3^(1/2)) - B", {"B": 2.5})
    assert parse_expr("sin(x1*x2)/(1 + x3^(1/2)) - 2.5") is a
    built = BinOp("-", BinOp("/", Call("sin", BinOp("*", Var(1), Var(2))),
                             BinOp("+", Num(1.0),
                                   Pow(Var(3), Fraction(1, 2)))),
                  Num(2.5))
    assert built is a
    # fields combined apart share their nodes
    assert parse_expr("x1") * parse_expr("x2") is parse_expr("x1 * x2")
    assert parse_expr("x1 + x2") is not parse_expr("x2 + x1")
    assert Pow(Var(1), Fraction(2)) is not Pow(Var(1), 2)


def test_a_node_is_its_field():
    assert issubclass(BinOp, ExprField) and issubclass(ExprField, Field)
    node = parse_expr("x1 * x2")
    assert node.node is node
    assert not hasattr(node, "__dict__")
    # the base class builds nothing: text goes through parse_expr, and a
    # node is its own field
    for arg in ("x1 * x2", node, 2.0):
        with pytest.raises(TypeError, match="parse_expr"):
            ExprField(arg)
    # a node's value at a point is `Field.value`; the number of a Num is
    # the slot `number`, which does not shadow it
    assert type(node).value is Field.value
    assert Num(2.0).value([0.3, 0.0, 0.0, 0.0]) == 2.0


def test_arithmetic_builds_the_nodes_of_the_folding_constructors():
    x1, x2 = Var(1), Var(2)
    assert x1 * 2.0 is BinOp("*", x1, Num(2.0))
    assert x1 * x2 is BinOp("*", x1, x2)
    assert x1 / 2 is BinOp("/", x1, Num(2.0))
    assert x1 - 3 is BinOp("-", x1, Num(3.0))
    # reflected: the node stays on the left of + and *, not of - and /
    assert 2.0 * x1 is BinOp("*", x1, Num(2.0))
    assert 2.0 + x1 is BinOp("+", x1, Num(2.0))
    assert 2.0 - x1 is BinOp("-", Num(2.0), x1)
    f = parse_expr("x1 + 2")
    assert 1 / f is ms._div(Num(1.0), f)
    p = [0.0, 0.75, 0.0, 0.0]
    assert (1 / f).value(p) == 1.0 / f.value(p)
    assert -x1 is Neg(x1)
    # the folding of `_add`, `_sub`, `_mul` and `_div`
    assert x1 + 0.0 is x1 and 0.0 + x1 is x1 and x1 * 1.0 is x1
    assert x1 * 0.0 is Num(0.0) and Num(0.0) / x1 is Num(0.0)
    assert Num(0.0) - x1 is Neg(x1) and -Num(-0.0) is Num(0.0)
    # any other operand is a TypeError, never a closure
    other = Field()
    for make in (lambda: x1 * other, lambda: other * x1,
                 lambda: x1 - other, lambda: other + x1, lambda: x1 / "2",
                 lambda: "2" / x1):
        with pytest.raises(TypeError):
            make()


# reference folding constructors, spelled with `_is_num` and a None for a
# non-number: `_add`, `_sub`, `_mul`, `_div` and the operators must return
# the node they return for every pair of operands


def ref_add(a, b):
    if type(a) is Num and a.number == 0.0:
        return b
    if type(b) is Num and b.number == 0.0:
        return a
    return ms._binop("+", a, b)


def ref_sub(a, b):
    if ms._is_num(b, 0.0):
        return a
    if ms._is_num(a, 0.0):
        return ms._neg(b)
    return ms._binop("-", a, b)


def ref_mul(a, b):
    x = a.number if type(a) is Num else None
    y = b.number if type(b) is Num else None
    if x == 0.0 or y == 0.0:
        return ms._ZERO
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    return ms._binop("*", a, b)


def ref_div(a, b):
    if ms._is_num(a, 0.0):
        return ms._ZERO
    if ms._is_num(b, 1.0):
        return a
    return ms._binop("/", a, b)


FOLDS = [(operator.add, ms._add, ref_add), (operator.sub, ms._sub, ref_sub),
         (operator.mul, ms._mul, ref_mul),
         (operator.truediv, ms._div, ref_div)]


def test_folding_matches_the_reference():
    nan = Num(math.nan)  # never interned: every NaN builds a new node
    nodes = [Num(0.0), Num(-0.0), Num(1.0), Num(-1.0), Num(2.0), Num(1),
             nan, Var(1), BinOp("*", Var(1), Var(2))]
    assert type(Num(1).number) is int and Num(math.nan) is not nan
    numbers = [0, 0.0, -0.0, 1, 1.0, -1.0, 2, 2.0]
    for dunder, fold, ref in FOLDS:
        for a in nodes:
            for b in nodes:
                want = ref(a, b)
                assert fold(a, b) is want, (fold.__name__, a, b)
                assert dunder(a, b) is want, (dunder.__name__, a, b)
            # a number on either side is the Num of its float, and a
            # reflected + or * keeps the node on the left
            for x in numbers:
                num = Num(float(x))
                assert dunder(a, x) is ref(a, num), (dunder.__name__, a, x)
                want = ref(a, num) if dunder in (operator.add, operator.mul) \
                    else ref(num, a)
                assert dunder(x, a) is want, (dunder.__name__, x, a)


def test_partial_lives_as_long_as_its_caller_holds_it():
    f = parse_expr("x1 * exp(x1 * x7)")
    d = f.partial(1)
    assert f.partial(1) is d and d.partial(7) is d.partial(7)
    # the derivative of exp(u) reads exp(u) itself: a strong cache from
    # node to derivative would be a cycle, so none is kept
    dd = d.partial(7)
    dead = [weakref.ref(n) for n in (f, d, dd)]
    gc.disable()
    try:
        del f, d, dd
        assert [r() for r in dead] == [None] * 3
    finally:
        gc.enable()


def test_signed_zeros_and_number_types_stay_apart():
    pos, neg = Num(0.0), Num(-0.0)
    assert pos is not neg and Num(0.0) is pos and Num(-0.0) is neg
    assert Num(0) is not pos and Num(1) is not Num(1.0)
    assert type(Num(1).number) is int
    assert to_text(pos) == "0.0" and to_text(neg) == "(-0.0)"
    p = [0.0, 2.0, 0.0, 0.0]
    P = np.array([p, p])
    for node, sign in ((pos, 1.0), (neg, -1.0)):
        fld = BinOp("*", node, Var(1))
        for got in [fld.value(p), *fld.values(P).tolist(),
                    *compile_fields([fld])(p)]:
            assert got == 0.0 and math.copysign(1.0, got) == sign


def test_nan_number_builds_and_evaluates():
    a, b = Num(math.nan), Num(math.nan)
    assert a is not b and math.isnan(a.number)
    assert to_text(a) == "(nan)"
    with pytest.raises(ParseError, match="unknown name 'nan'"):
        parse_expr(to_text(a))
    fld = BinOp("+", a, Var(1))
    assert math.isnan(fld.value([0.0, 1.0, 0.0, 0.0]))
    assert np.isnan(fld.values(np.zeros((2, 4)))).all()


@pytest.mark.parametrize("node", [
    Pow(Num(-0.0), Fraction(2)), BinOp("-", Var(1), Num(-0.0)),
    BinOp("*", Num(-0.0), Var(1)),
])
def test_printed_signed_zero_evaluates_to_the_same_bits(node):
    again = parse_expr(to_text(node))
    p = [0.0, 0.0, 0.0, 0.0]
    got, want = again.value(p), node.value(p)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_derivative_is_kept_on_the_node():
    node = parse_expr("exp(x1 * x2) / (1 + x1^2)")
    d = derivative(node, 1)
    assert derivative(node, 1) is d
    assert derivative(parse_expr("exp(x1 * x2) / (1 + x1^2)"), 1) is d
    # the numerator's derivative, taken inside the call above, is the one
    # a separate call on the numerator finds
    assert derivative(parse_expr("exp(x1 * x2)"), 1) is d.left.left.left
    assert derivative(node, 2) is not d


def test_dropped_nodes_and_derivatives_are_freed_without_the_cycle_collector():
    # d exp(u) = exp(u) * du holds exp(u), so a derivative kept strongly
    # on its node would make a cycle
    gc.disable()
    try:
        before = len(ms._NODES)
        node = parse_expr("exp(x1 * x2) + sqrt(abs(x3)) * cos(x1) - 7.5")
        d = derivative(node, 1)
        dd = derivative(d, 1)
        refs = [weakref.ref(n) for n in (node, node.left.left, d, dd,
                                         derivative(node, 3))]
        assert len(ms._NODES) > before
        del node, d, dd
        assert [r() for r in refs] == [None] * len(refs)
        assert len(ms._NODES) == before
    finally:
        gc.enable()


@pytest.mark.parametrize("build", [
    lambda c: BinOp("*", c, Var(2)), lambda c: Neg(c),
    lambda c: Pow(c, Fraction(1, 2)), lambda c: Call("sin", c),
    lambda c: ms.Homotopy((Var(2), c), (0.5,) * 4, HOMOTOPY_TS,
                          HOMOTOPY_WEIGHTS),
], ids=["BinOp", "Neg", "Pow", "Call", "Homotopy"])
def test_a_key_keeps_no_child_alive_after_its_node_dies(build):
    # the table key of a node holds its children: it must go with the node
    gc.disable()
    try:
        before = len(ms._NODES)
        child = BinOp("+", Var(1), Num(0.7182818284590452))
        parent = build(child)
        dead = weakref.ref(child)
        del child
        assert dead() is not None and len(ms._NODES) > before
        del parent
        assert dead() is None
        assert len(ms._NODES) == before
    finally:
        gc.enable()


def test_chain_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    node, again, want = Var(1), Var(1), 1.0
    for k in range(depth):
        node = BinOp("+" if k % 2 else "-", node, Var(k % 4))
        again = BinOp("+" if k % 2 else "-", again, Var(k % 4))
        if k % 4 == 1:
            want += 1.0
    # identity equality: no walk over the two chains
    assert again is node and again == node
    d = derivative(node, 1)
    assert compile_fields([d])([0.0] * 4) == [want]
    s = substitute(node, {1: Var(3)})
    p = [0.1, 0.2, 0.3, 0.4]
    assert compile_fields([s])(p) \
        == compile_fields([node])([0.1, 0.4, 0.3, 0.4])


def test_observed_curvature_is_built_once():
    ph = GalileiPhase(load_builtin("curved-galilei"))
    phi = ph.observed_curvature()
    assert ph.observed_curvature() is phi
    assert ph.observed_curvature(Observer.chart()) is phi
    boost = Observer([parse_expr("0.1 * x1"), parse_expr("0"),
                      parse_expr("0")])
    assert ph.observed_curvature(boost) is not phi


class ClosureField(Field):
    """A field backed by a closure on float coordinates."""

    def __init__(self, fn):
        self.fn = fn

    def jet(self, coords):
        return self.fn(coords)


def closure_directional(X, f):
    """The derivative along X as a closure on float coordinates, summed
    term by term."""
    parts = [f.partial(nu) for nu in range(len(X.comps))]

    def fn(coords):
        acc = None
        for nu, comp in enumerate(X.comps):
            term = comp.jet(coords) * parts[nu].jet(coords)
            acc = term if acc is None else acc + term
        return acc
    return ClosureField(fn)


def test_directional_of_expressions_is_an_expression():
    f = parse_expr("sin(x0 * x1) + x2^2 * x3 / (2 + x1^2)")
    X = VectorField([parse_expr("x1 * x3"), 0.5, 0,
                     parse_expr("exp(x2) - x0")])
    # numbers become constant nodes
    assert X.comps[1] is Num(0.5) and X.comps[2] is Num(0.0)
    got = directional(X, f)
    assert isinstance(got, ExprField)
    want = closure_directional(X, f)
    rng = np.random.default_rng(7)
    for p in rng.uniform(-1.0, 1.0, size=(6, 4)):
        assert got.value(p) == want.value(p)
        # its partials against central differences of the closure
        assert np.allclose([got.partial(i).value(p) for i in range(4)],
                           central_grad(want.value, p), rtol=1e-6, atol=1e-8)


def test_nesting_limit():
    # as deep as allowed: a sum of MAX_DEPTH leaves
    node = parse_expr(" + ".join(["x1"] * MAX_DEPTH))
    assert derivative(node, 1).value([0.0] * 4) == MAX_DEPTH
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr(" + ".join(["x1"] * (MAX_DEPTH + 1)))
    # deep enough to overflow the parser's own recursion
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_expr("(" * 1000 + "x1" + ")" * 1000)
