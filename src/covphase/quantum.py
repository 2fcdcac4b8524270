"""Hermitian vector fields on a line bundle and their classification.

In a trivialized Hermitian line bundle over an n-dimensional base, a
Hermitian vector field is written Y = X + i b II with X a real vector
field and b a real function; it acts on a (complex) section psi as
Y.psi = X.psi + i b psi.  Given a gauge potential A, these fields are
classified by pairs (X, bbar) with bbar = b - A(X); the pair bracket is
twisted by the curvature 2-form dA (`smooth.curvature_phi`, read here as
`curvature_phi` too) and its Jacobi defect is exactly the exterior
derivative of that form.

The second half of the module specializes the classification to the
phase structures.  A special phase function has a pair (X, fbar): its
spacetime vector and its scalar component.  The map F sending it to a
Hermitian spacetime field is `classify_j` of that pair, through the
phase's potential: the Galilei observed potential, or the Lorentzian
coupled potential (q/hbar) A.  Its inverse takes fbar from `classify_h`.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .modelspec import constant
from .smooth import (
    Field, PForm, VectorField, directional, field_values, lie_bracket, total,
    worst,
)
# section 1's curvature dA, read as `quantum.curvature_phi` too
from .smooth import curvature_phi as curvature_phi
from .galilei import GalileiPhase, Observer, SpecialFunction
from .einstein import EinsteinPhase, ESpecialFunction


@dataclass
class HermitianVF:
    """Y = X + i b II acting on sections of the trivialized bundle."""

    X: VectorField
    b: Field


@dataclass
class LinearQuantumField:
    """Fibre-linear vector field: base part X plus a real 2x2 fibre matrix.

    The fibre coordinates are the real and imaginary parts of the
    section value; a Hermitian field corresponds to the antisymmetric
    trace-free matrix [[0, -b], [b, 0]].
    """

    X: VectorField
    Ymat: List[List[Field]]


@dataclass
class GaugePair:
    """Classification (X, bbar) of a Hermitian field by a connection."""

    X: VectorField
    bbar: Field


def _contract_1form(A: List[Field], X: VectorField) -> Field:
    return total(A[lam] * comp for lam, comp in enumerate(X.comps))


def two_form_on(w: PForm, X: VectorField, Y: VectorField) -> Field:
    """w(X, Y) in the determinant convention, as a field."""
    return total((fld * (X.comps[a] * Y.comps[b] - X.comps[b] * Y.comps[a])
                  for (a, b), fld in w.comps.items()), constant(0.0))


def to_linear_field(y: HermitianVF) -> LinearQuantumField:
    """Encode i b II as the rotation generator on the real fibre plane."""
    zero = constant(0.0)
    return LinearQuantumField(y.X, [[zero, -y.b], [y.b, zero]])


def to_hermitian_field(y: LinearQuantumField) -> HermitianVF:
    """Read b back off the fibre matrix; only sound if is_hermitian."""
    return HermitianVF(y.X, y.Ymat[1][0])


# the largest diagonal or symmetric entry `is_hermitian` lets through
HERMITIAN_TOL = 1e-9


def is_hermitian(y: LinearQuantumField, points) -> Tuple[bool, float]:
    """Check the matrix shape [[0, -b], [b, 0]] at the sample points.

    Returns the verdict (below HERMITIAN_TOL) together with the largest
    offending value of the diagonal entries and the symmetric part (NaN,
    and so a failed verdict, when any entry is NaN).
    """
    m = y.Ymat
    y00, y11, y10, y01 = field_values([m[0][0], m[1][1], m[1][0], m[0][1]],
                                      points)
    resid = worst(0.0, np.abs(y00), np.abs(y11), np.abs(y10 + y01))
    return resid < HERMITIAN_TOL, resid


def lie_derivative_hermitian_metric(y: LinearQuantumField):
    """Coefficients of the fibre-metric derivative along a linear field.

    The Hermitian product of two fibre vectors has a symmetric real
    part (the Euclidean metric) and an antisymmetric imaginary part
    (the area form); differentiating along Y gives Ymat^T + Ymat for
    the first and tr(Ymat) times the area form for the second.  Both
    tables vanish exactly when the field is Hermitian.
    """
    m = y.Ymat
    real = [[m[b][a] + m[a][b] for b in range(2)] for a in range(2)]
    tr = m[0][0] + m[1][1]
    zero = constant(0.0)
    imag = [[zero, -tr], [tr, zero]]
    return real, imag


def hermitian_bracket(y1: HermitianVF, y2: HermitianVF) -> HermitianVF:
    """[Y1, Y2] = [X1, X2] + i (X1.b2 - X2.b1) II."""
    return HermitianVF(lie_bracket(y1.X, y2.X),
                       directional(y1.X, y2.b) - directional(y2.X, y1.b))


def pair_bracket(phi: PForm, p1: GaugePair, p2: GaugePair) -> GaugePair:
    """The phi-twisted bracket of classified pairs."""
    bbar = two_form_on(phi, p1.X, p2.X) \
        + directional(p1.X, p2.bbar) - directional(p2.X, p1.bbar)
    return GaugePair(lie_bracket(p1.X, p2.X), bbar)


def classify_h(A: List[Field], y: HermitianVF) -> GaugePair:
    """Hermitian field to pair, through the gauge potential A."""
    return GaugePair(y.X, y.b - _contract_1form(A, y.X))


def classify_j(A: List[Field], p: GaugePair) -> HermitianVF:
    """Pair back to a Hermitian field; inverse of classify_h."""
    return HermitianVF(p.X, p.bbar + _contract_1form(A, p.X))


def jacobi_cycle(phi: PForm, p1: GaugePair, p2: GaugePair,
                 p3: GaugePair) -> GaugePair:
    """Cyclic sum [p1,[p2,p3]] + [p2,[p3,p1]] + [p3,[p1,p2]].

    The vector part always vanishes; the scalar part equals
    (d phi)(X1, X2, X3), so the bracket is a Lie bracket exactly when
    phi is closed.
    """
    terms = [pair_bracket(phi, a, pair_bracket(phi, b, c))
             for a, b, c in ((p1, p2, p3), (p2, p3, p1), (p3, p1, p2))]
    return GaugePair(total(t.X for t in terms), total(t.bbar for t in terms))


def act_on_section(y: HermitianVF, re: Field, im: Field):
    """Apply Y to the section re + i im: psi maps to X.psi - i b psi."""
    return (directional(y.X, re) + y.b * im,
            directional(y.X, im) - y.b * re)


def metric_derivative_defect(y: HermitianVF, re: Field, im: Field) -> Field:
    """X.h(psi, psi) minus twice the real part of <Y.psi, psi>.

    Identically zero because the II coefficient is real: Hermitian
    fields preserve the fibre metric.
    """
    h = re * re + im * im
    are, aim = act_on_section(y, re, im)
    return directional(y.X, h) - 2.0 * (re * are + im * aim)


# ---------------------------------------------------------------------------
# Quantum representation of special phase functions
# ---------------------------------------------------------------------------

def boosted_potential(phase: GalileiPhase, A: List[Field], old: Observer,
                      new: Observer) -> List[Field]:
    """Transform an observed potential under a change of observer.

    The rule compensates the kinetic part of the phase 1-form, so the
    transformed potential is again a potential for the curvature seen
    by the new observer.
    """
    v = [new.vel[k] - old.vel[k] for k in range(3)]
    gv = [total(phase.metric(i, j) * v[j - 1] for j in range(1, 4))
          for i in range(1, 4)]
    a0 = A[0]
    for i in range(1, 4):
        a0 = a0 - 0.5 * (gv[i - 1] * v[i - 1]) - gv[i - 1] * old.vel[i - 1]
    return [a0] + [A[i] + gv[i - 1] for i in range(1, 4)]


def galilei_map(phase: GalileiPhase, sf: SpecialFunction,
                potential: List[Field],
                observer: Optional[Observer] = None) -> HermitianVF:
    """The map F: special function -> Hermitian spacetime field.

    `classify_j` of the pair (X, fbar) through `potential`, the observed
    potential of the given observer (the chart by default), with fbar
    the scalar component of sf in that observer's representation.  The
    result does not depend on the observer when the potential is
    transported consistently.
    """
    obs = observer or Observer.chart()
    if sf.observer is obs or (sf.observer.is_chart() and obs.is_chart()):
        rep = sf
    else:
        rep = phase.change_observer(sf, obs)
    return classify_j(potential,
                      GaugePair(phase.tangent_projection(sf), rep.fbar))


def galilei_inverse_map(phase: GalileiPhase, y: HermitianVF,
                        potential: List[Field],
                        observer: Optional[Observer] = None
                        ) -> SpecialFunction:
    """Recover the special function a Hermitian field represents.

    Undoes galilei_map for the same observer and potential: the slots
    relative to the observer come from the base vector, the scalar is
    the fbar of `classify_h`.
    """
    obs = observer or Observer.chart()
    f0 = y.X.comps[0]
    fi = [f0 * obs.vel[k] - y.X.comps[k + 1] for k in range(3)]
    return SpecialFunction(f0, fi, classify_h(potential, y).bbar, obs)


def einstein_map(phase: EinsteinPhase, sf: ESpecialFunction) -> HermitianVF:
    """F in the Lorentzian case: `classify_j` of (X, fbar) through the
    coupled declared potential (q/hbar) A."""
    return classify_j(phase.model.coupled_potential,
                      GaugePair(phase.tangent_projection(sf), sf.fbar))


def einstein_inverse_map(phase: EinsteinPhase,
                         y: HermitianVF) -> ESpecialFunction:
    """Recover the special function from its Hermitian representative."""
    return ESpecialFunction(list(y.X.comps),
                            classify_h(phase.model.coupled_potential, y).bbar)


def einstein_observed_map(phase: EinsteinPhase, sf: ESpecialFunction,
                          obs: Optional[List[Field]] = None) -> HermitianVF:
    """F built from an observer's splitting of the phase potential.

    The kinetic pullback added to the potential cancels the one
    subtracted from the scalar component, so this agrees with the
    direct map for every observer.
    """
    pot = [t + a for t, a in zip(phase.observed_theta(obs),
                                 phase.model.coupled_potential)]
    return classify_j(pot, GaugePair(phase.tangent_projection(sf),
                                     phase.observed_component(sf, obs)))
