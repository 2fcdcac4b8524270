"""Charts, scalar/vector fields and exterior calculus.

A field is a chart function.  Every field the package builds, a loaded
model's entries included, is an expression node (`modelspec.ExprField`,
the base class of the nodes): it differentiates symbolically to any
order.  A constant is a `Num` node, so the zero field is `Num(0.0)`, and
arithmetic of a node with anything but a node or a number raises
TypeError.  One evaluator runs a node over all rows of a point `Batch`
at once, on numpy arrays, or on Python floats when the batch has one
row; its value at a single point (`Field.value`) is that one row.
There are no numeric partials, no closure fields and no box rule: orbits
and the CLI test the chart box themselves (`orbit.BOX_SLACK`).

Convention for forms: components are stored on strictly increasing index
tuples and extended by antisymmetry, the wedge is the determinant convention
(a ∧ b)(X, Y) = a(X)b(Y) − a(Y)b(X) with no 1/p!, and the exterior
derivative is (dω)_J = Σ_k (−1)^k ∂_{J_k} ω_{J∖J_k}.
"""

import functools
import itertools
import math
import operator
from typing import Dict, List, Sequence, Tuple

import numpy as np

Point = np.ndarray  # a chart point; length 4 (spacetime) or 7 (phase space)


def worst(*values, pick=max):
    """max over the values and the elements of array values (pick=min for
    a witness magnitude), but NaN when any is NaN: the builtins give
    max(0.0, nan) == 0.0, which would read as a pass."""
    flat = [v for val in values
            for v in (val.ravel().tolist() if isinstance(val, np.ndarray)
                      else (val,))]
    if any(v != v for v in flat):
        return math.nan
    return pick(flat)


def total(terms, empty=None):
    """The left-to-right sum of terms, starting from the first term with
    no zero seed, so a sum of expression fields stays an expression;
    `empty` when there are no terms."""
    terms = list(terms)
    return functools.reduce(operator.add, terms) if terms else empty


def cached(method):
    """Memoize a method in self._memo, keyed by the method's name and its
    arguments, so every call with the same arguments returns the same
    object."""
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        key = (name,) + args
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return wrapper


# ---------------------------------------------------------------------------
# Batch evaluation


class Batch:
    """Fields evaluated over the rows of a point array P[N, d].

    Expression fields are evaluated over all rows at once (see
    `modelspec._Rows`), on numpy arrays, or, when there is one row, on
    Python floats with no numpy call, and each row gets the bits and the
    error a one-row batch of it gives.  Column k of P is the coordinate x_k.
    Every field evaluated in one batch shares the batch's one node memo,
    so common subexpressions are computed once.  A field's values come
    back as one array over the rows (`values`), which callers reduce over
    all rows at once.

    Within a field, an evaluation error does not stop the other rows: the
    row is marked, and once the field is done the error of the lowest
    marked row is raised, which is the error a loop over the points would
    have raised first.  Its message ends with the row, as in "division by
    zero in expression at point [0.0, 0.3, 0.0, 0.0]".
    """

    def __init__(self, P):
        self.P = np.asarray(P, dtype=float)
        if self.P.ndim != 2:
            raise ValueError("expected a 2-D array of points")
        # node -> value, so it keeps the nodes walked alive
        self.memo: Dict[object, object] = {}
        # (ts, base) of a homotopy node -> the batch of its stacked rows
        self.stacked: Dict[tuple, "Batch"] = {}
        self.failed = np.zeros(len(self.P), dtype=bool)
        self.errors: Dict[int, Tuple[type, str]] = {}

    def values(self, fld: "Field") -> np.ndarray:
        """fld at every row, a new float64 array of length N."""
        out = fld._values(self)
        self.raise_first()
        return out

    def fail(self, rows, exc: type, message: str) -> None:
        """Log exc at the rows of a boolean mask (or at every row for a
        true scalar) that have no error yet."""
        if not (rows.any() if type(rows) is np.ndarray else rows):
            return
        new = np.logical_and(rows, ~self.failed)
        for r in np.flatnonzero(new):
            self.errors[int(r)] = (exc, message)
        self.failed |= new

    def raise_first(self) -> None:
        if self.errors:
            r = min(self.errors)
            exc, message = self.errors[r]
            raise exc("%s at point %s" % (message, self.P[r].tolist()))


def field_values(fields: Sequence["Field"], P) -> List[np.ndarray]:
    """The values of several fields at every row of P[N, d] (one array of
    length N per field), evaluated in one `Batch`."""
    batch = Batch(P)
    return [batch.values(f) for f in fields]


# ---------------------------------------------------------------------------
# Fields


class Field:
    """A chart function.  `jet(coords)` is its value at a list of Python
    float coordinates, and `_values(batch)` its values at the rows of a
    `Batch`; the expression nodes (`modelspec.ExprField`) define both.
    No slots, so that an expression node keeps no `__dict__`."""

    __slots__ = ()

    def jet(self, coords: List[float]) -> float:
        raise NotImplementedError

    def value(self, p: Point) -> float:
        return self.jet(np.asarray(p, dtype=float).tolist())

    def values(self, P) -> np.ndarray:
        """The field at every row of P[N, d] (see `field_values`)."""
        return field_values([self], P)[0]


class FuncField(Field):
    """A name only: nothing builds one.  `perfbench/tracing.py` patches
    its `jet` by name until telemetry is in the package."""

    jet = Field.jet


class BoxedField(Field):
    """A name only: nothing builds one.  `perfbench/tracing._form_nodes`
    tests form components against it by name."""


# ---------------------------------------------------------------------------
# Vector fields and forms


def _constant(v: float) -> Field:
    """The constant v as an expression node, `modelspec.constant`."""
    from .modelspec import constant  # local: modelspec imports smooth

    return constant(v)


class VectorField:
    """Contravariant field: one component field per chart coordinate."""

    def __init__(self, comps: Sequence[Field]):
        self.comps = [c if isinstance(c, Field) else _constant(c)
                      for c in comps]

    @property
    def dim(self) -> int:
        return len(self.comps)

    def at(self, p: Point) -> np.ndarray:
        return self.values(np.asarray(p)[None])[0]

    def values(self, P) -> np.ndarray:
        """Components at every row of P[N, d], as an array [N, dim]."""
        return np.stack(field_values(self.comps, P), axis=1)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.comps, other.comps)])


def directional(X: VectorField, f: Field) -> Field:
    """The derivative of f along X, sum_nu X^nu d_nu f, as a field.

    Built by node arithmetic, so it is an expression field.
    """
    return total(comp * f.partial(nu) for nu, comp in enumerate(X.comps))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator of two vector fields, [X, Y]^μ = X^ν∂_νY^μ − Y^ν∂_νX^μ."""
    if X.dim != Y.dim:
        raise ValueError("bracket of fields on different charts")
    return VectorField([directional(X, Y.comps[m]) - directional(Y, X.comps[m])
                        for m in range(X.dim)])


def _perm_sign_and_sorted(idx: Tuple[int, ...]):
    """Sign of the sort permutation, or (0, None) on a repeated index."""
    if len(set(idx)) != len(idx):
        return 0, None
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, tuple(sorted(idx))


class PForm:
    """Antisymmetric covariant tensor stored on strictly increasing tuples."""

    def __init__(self, dim: int, degree: int, comps: Dict[Tuple[int, ...], Field]):
        self.dim = dim
        self.degree = degree
        self.comps = {}
        for key, fld in comps.items():
            if tuple(sorted(key)) != tuple(key):
                raise ValueError("component key %r is not sorted" % (key,))
            self.comps[tuple(key)] = fld if isinstance(fld, Field) \
                else _constant(fld)

    def component(self, idx: Tuple[int, ...]) -> Field:
        """Component on an arbitrary tuple, resolved through antisymmetry;
        the zero node `Num(0.0)` where there is none."""
        sign, key = _perm_sign_and_sorted(tuple(idx))
        if sign == 0 or key not in self.comps:
            return _constant(0.0)
        fld = self.comps[key]
        return fld if sign == 1 else -fld

    def evaluate(self, p: Point, *vectors: np.ndarray) -> float:
        """Value on concrete tangent vectors (determinant convention)."""
        return self.values(np.asarray(p)[None],
                           *(np.asarray(v)[None] for v in vectors))[0]

    def values(self, P, *vectors: np.ndarray) -> np.ndarray:
        """`evaluate` at every row of P[N, d]; each vector is an array
        [N, dim] holding one tangent vector per row."""
        if len(vectors) != self.degree:
            raise ValueError("need %d vectors" % self.degree)
        total = 0.0
        for key, val in zip(self.comps,
                            field_values(list(self.comps.values()), P)):
            idx = list(key)
            subs = np.stack([np.asarray(v, dtype=float)[:, idx]
                             for v in vectors], axis=1)
            total = total + val * np.linalg.det(subs)
        return np.broadcast_to(total, (len(P),)).astype(float)

    def __add__(self, other: "PForm") -> "PForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("form mismatch")
        comps = dict(self.comps)
        for key, fld in other.comps.items():
            comps[key] = comps[key] + fld if key in comps else fld
        return PForm(self.dim, self.degree, comps)

    def scaled(self, s) -> "PForm":
        return PForm(self.dim, self.degree,
                     {k: f * s for k, f in self.comps.items()})


def exterior_derivative(w: PForm) -> PForm:
    comps: Dict[Tuple[int, ...], Field] = {}
    for bigkey in itertools.combinations(range(w.dim), w.degree + 1):
        terms = []
        for k, lam in enumerate(bigkey):
            rest = bigkey[:k] + bigkey[k + 1:]
            if rest in w.comps:
                term = w.comps[rest].partial(lam)
                terms.append(-term if k % 2 == 1 else term)
        if terms:
            comps[bigkey] = total(terms)
    return PForm(w.dim, w.degree + 1, comps)


def curvature_phi(A: List[Field]) -> PForm:
    """dA, the curvature 2-form of the gauge potential A, stored strictly.

    The normalization is pinned by the bracket-defect identity: the
    Hermitian bracket of two connection lifts `quantum.classify_j(A,
    (X, 0))` exceeds the lift of [X1, X2] by exactly i phi(X1, X2) II.
    """
    return exterior_derivative(PForm(len(A), 1,
                                     {(k,): A[k] for k in range(len(A))}))


def wedge(a: PForm, b: PForm) -> PForm:
    if a.dim != b.dim:
        raise ValueError("wedge on different charts")
    comps: Dict[Tuple[int, ...], Field] = {}
    for akey, afld in a.comps.items():
        for bkey, bfld in b.comps.items():
            sign, key = _perm_sign_and_sorted(akey + bkey)
            if sign == 0:
                continue
            term = (afld * bfld) if sign == 1 else -(afld * bfld)
            comps[key] = comps[key] + term if key in comps else term
    return PForm(a.dim, a.degree + b.degree, comps)


def contract(X: VectorField, w: PForm) -> PForm:
    """Interior product i(X)ω, first slot fed by X."""
    if w.degree == 0:
        raise ValueError("cannot contract a scalar")
    comps: Dict[Tuple[int, ...], Field] = {}
    for key, fld in w.comps.items():
        for k, lam in enumerate(key):
            rest = key[:k] + key[k + 1:]
            term = X.comps[lam] * fld
            if k % 2 == 1:
                term = -term
            comps[rest] = comps[rest] + term if rest in comps else term
    return PForm(w.dim, w.degree - 1, comps)

