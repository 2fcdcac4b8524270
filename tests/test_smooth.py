import itertools
from inspect import isfunction

import numpy as np
import pytest

from covphase.modelspec import BinOp, ExprField, Var, constant, parse_expr
from covphase.smooth import (
    PForm, VectorField, _perm_sign_and_sorted, cached, contract, directional,
    exterior_derivative, lie_bracket, total, wedge,
)

from numutil import central_grad, form_matrix


def scalar_fn(x):
    return np.sin(x[0] * x[1]) + np.exp(0.3 * x[2]) / (2.0 + x[0] ** 2) \
        + np.sqrt(4.0 + x[1] ** 2) * x[2]


SCALAR = "sin(x0 * x1) + exp(0.3 * x2) / (2 + x0^2) + sqrt(4 + x1^2) * x2"


class TestFields:
    def test_coord_and_const_partials_are_exact(self):
        c = Var(2)
        assert c.partial(2).value(np.zeros(4)) == 1.0
        assert c.partial(0).value(np.zeros(4)) == 0.0
        assert constant(5.0).partial(1).value(np.zeros(4)) == 0.0

    def test_field_arithmetic(self):
        x0, x1 = Var(0), Var(1)
        f = 2.0 * x0 + x1 * x1 - 1.0
        p = np.array([3.0, 4.0])
        assert f.value(p) == pytest.approx(2 * 3 + 16 - 1)
        assert [f.partial(i).value(p) for i in range(2)] == [2.0, 8.0]


def polynomial_vector(coeff_seed, dim=3):
    """A vector field with quadratic polynomial components."""
    rng = np.random.default_rng(coeff_seed)
    a = rng.uniform(-1, 1, size=(dim, dim))
    b = rng.uniform(-1, 1, size=(dim, dim, dim))
    xs = [Var(i) for i in range(dim)]

    def comp(m):
        acc = None
        for i in range(dim):
            t = a[m, i] * xs[i]
            acc = t if acc is None else acc + t
            for j in range(dim):
                acc = acc + b[m, i, j] * xs[i] * xs[j]
        return acc

    return VectorField([comp(m) for m in range(dim)])


class TestVectorFields:
    def test_directional_derivative(self):
        X = polynomial_vector(1)
        f = parse_expr(SCALAR)
        p = np.array([0.3, -0.2, 0.4])
        expected = X.at(p) @ central_grad(scalar_fn, p)
        assert directional(X, f).value(p) == pytest.approx(expected, rel=1e-6)

    def test_bracket_antisymmetry(self):
        X, Y = polynomial_vector(2), polynomial_vector(3)
        p = np.array([0.5, -0.1, 0.2])
        assert np.allclose(lie_bracket(X, Y).at(p), -lie_bracket(Y, X).at(p),
                           atol=1e-12)

    def test_bracket_jacobi(self):
        X, Y, Z = polynomial_vector(4), polynomial_vector(5), polynomial_vector(6)
        p = np.array([0.2, 0.3, -0.4])
        total = (lie_bracket(X, lie_bracket(Y, Z)).at(p)
                 + lie_bracket(Y, lie_bracket(Z, X)).at(p)
                 + lie_bracket(Z, lie_bracket(X, Y)).at(p))
        assert np.allclose(total, 0.0, atol=1e-9)

    def test_bracket_against_flows(self):
        # [X, Y] f = X(Yf) - Y(Xf) on a test function
        X, Y = polynomial_vector(7), polynomial_vector(8)
        f = parse_expr(SCALAR)
        p = np.array([0.1, 0.6, -0.3])
        lhs = directional(lie_bracket(X, Y), f).value(p)
        rhs = (directional(X, directional(Y, f)).value(p)
               - directional(Y, directional(X, f)).value(p))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)


def random_one_form(seed, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(dim, dim))
    xs = [Var(i) for i in range(dim)]
    wave = parse_expr("cos(x0 * 0.3)")

    def comp(m):
        acc = None
        for i in range(dim):
            t = a[m, i] * xs[i]
            acc = t if acc is None else acc + t
        return acc * wave

    return PForm(dim, 1, {(m,): comp(m) for m in range(dim)})


class TestForms:
    def test_wedge_determinant_convention(self):
        dim = 4
        d1 = PForm(dim, 1, {(1,): constant(1.0)})
        d2 = PForm(dim, 1, {(2,): constant(1.0)})
        # an absent component is the zero node
        assert d1.component((2,)) is constant(0.0)
        w = wedge(d1, d2)
        p = np.zeros(dim)
        e1, e2 = np.eye(dim)[1], np.eye(dim)[2]
        assert w.evaluate(p, e1, e2) == 1.0
        assert w.evaluate(p, e2, e1) == -1.0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_perm_sign_is_the_permutation_determinant(self, n):
        perms = list(itertools.permutations(range(n)))
        dets = np.linalg.det(np.eye(n)[np.array(perms)])
        for perm, det in zip(perms, dets):
            assert _perm_sign_and_sorted(perm) \
                == (int(np.sign(round(det))), tuple(range(n)))

    def test_perm_sign_of_a_repeated_index_is_zero(self):
        repeated = [idx for k in range(2, 6)
                    for idx in itertools.product(range(5), repeat=k)
                    if len(set(idx)) < k]
        assert len(repeated) == 25 + 125 + 625 + 3125 - (20 + 60 + 120 + 120)
        for idx in repeated:
            assert _perm_sign_and_sorted(idx) == (0, None)

    def test_wedge_of_one_forms_pointwise(self):
        a, b = random_one_form(10), random_one_form(11)
        w = wedge(a, b)
        rng = np.random.default_rng(12)
        p = rng.uniform(-1, 1, size=4)
        u, v = rng.uniform(-1, 1, size=(2, 4))
        au = a.evaluate(p, u)
        av = a.evaluate(p, v)
        bu = b.evaluate(p, u)
        bv = b.evaluate(p, v)
        assert w.evaluate(p, u, v) == pytest.approx(au * bv - av * bu, rel=1e-12)
        wba = wedge(b, a)
        assert wba.evaluate(p, u, v) == pytest.approx(-w.evaluate(p, u, v))

    def test_two_form_matrix_agrees_with_evaluate(self):
        a, b = random_one_form(13), random_one_form(14)
        w = wedge(a, b)
        rng = np.random.default_rng(15)
        p = rng.uniform(-1, 1, size=4)
        u, v = rng.uniform(-1, 1, size=(2, 4))
        M = form_matrix(w, p)
        assert w.evaluate(p, u, v) == pytest.approx(u @ M @ v, rel=1e-12)
        assert np.allclose(M, -M.T)

    def test_d_of_exact_form_vanishes(self):
        f = parse_expr("sin(x0 * x1) + x2 * x3 * x3")
        df = PForm(4, 1, {(i,): f.partial(i) for i in range(4)})
        ddf = exterior_derivative(df)
        rng = np.random.default_rng(16)
        for _ in range(3):
            p = rng.uniform(-1, 1, size=4)
            for key, fld in ddf.comps.items():
                assert abs(fld.value(p)) < 1e-9

    def test_dd_is_zero_on_one_form(self):
        w = random_one_form(17)
        ddw = exterior_derivative(exterior_derivative(w))
        rng = np.random.default_rng(18)
        p = rng.uniform(-1, 1, size=4)
        for key, fld in ddw.comps.items():
            assert abs(fld.value(p)) < 1e-12

    def test_exterior_derivative_matches_curl(self):
        # (dω)_{λμ} = ∂_λ ω_μ − ∂_μ ω_λ for a 1-form
        w = random_one_form(19)
        dw = exterior_derivative(w)
        p = np.array([0.2, -0.4, 0.1, 0.5])
        for lam in range(4):
            for mu in range(lam + 1, 4):
                direct = (w.comps[(mu,)].partial(lam).value(p)
                          - w.comps[(lam,)].partial(mu).value(p))
                assert dw.comps[(lam, mu)].value(p) == pytest.approx(direct,
                                                                    rel=1e-10)

    def test_contraction_of_wedge(self):
        a, b = random_one_form(20), random_one_form(21)
        X = polynomial_vector(22, dim=4)
        w = wedge(a, b)
        iw = contract(X, w)
        rng = np.random.default_rng(23)
        p = rng.uniform(-1, 1, size=4)
        v = rng.uniform(-1, 1, size=4)
        assert iw.evaluate(p, v) == pytest.approx(w.evaluate(p, X.at(p), v),
                                                  rel=1e-10)


class _Builder:
    """Two cached methods over the same argument types."""

    def __init__(self):
        self._memo = {}
        self.calls = []

    @cached
    def square(self, k):
        """x_k squared."""
        self.calls.append(("square", k))
        return Var(k) * Var(k)

    @cached
    def double(self, k):
        self.calls.append(("double", k))
        return Var(k) + Var(k)


class TestHelpers:
    def test_total_sums_left_to_right_from_the_first_term(self):
        a, b, c = Var(1), Var(2), Var(3)
        s = total([a, b, c])
        assert isinstance(s, ExprField)
        assert s.node == BinOp("+", BinOp("+", a, b), c)

    def test_total_of_one_term_is_that_term(self):
        f = Var(0)
        assert total(iter([f])) is f

    def test_total_of_no_terms(self):
        assert total([]) is None
        zero = constant(0.0)
        assert total(iter([]), zero) is zero

    def test_cached_call_returns_the_identical_object(self):
        b = _Builder()
        first = b.square(2)
        assert b.square(2) is first
        assert b.calls == [("square", 2)]
        assert b.square(3) is not first

    def test_cached_methods_with_equal_arguments_do_not_collide(self):
        b = _Builder()
        sq, dbl = b.square(2), b.double(2)
        assert sq is not dbl and sq.node != dbl.node
        assert b.square(2) is sq and b.double(2) is dbl
        assert b.calls == [("square", 2), ("double", 2)]

    def test_cached_memo_is_per_instance(self):
        # equal nodes are one object, so each instance's own call is what
        # shows its own memo
        one, two = _Builder(), _Builder()
        assert one.square(1) is two.square(1)
        assert one.calls == two.calls == [("square", 1)]

    def test_cached_method_stays_a_plain_function(self):
        fn = vars(_Builder)["square"]
        assert isfunction(fn)
        assert fn.__name__ == "square" and fn.__doc__ == "x_k squared."
