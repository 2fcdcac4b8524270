from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covphase.dims import (
    DIM_CHARGE,
    DIM_HBAR,
    DIM_LIGHTSPEED,
    DIMLESS,
    LENGTH,
    MASS,
    TIME,
    Dimension,
    parse_dimension,
)

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)
dims_st = st.builds(Dimension, fractions_st, fractions_st, fractions_st)


def test_canonical_constants():
    assert DIM_HBAR == TIME ** -1 * LENGTH ** 2 * MASS
    assert DIM_LIGHTSPEED == TIME ** -1 * LENGTH
    assert DIM_CHARGE == Dimension(Fraction(-1), Fraction(3, 2), Fraction(1, 2))


def test_rescaled_metric_has_time_dimension():
    # The metric rescaled by mass over hbar turns an area into a time.
    assert (MASS / DIM_HBAR) * LENGTH ** 2 == TIME


def test_exponents_stay_in_lowest_terms():
    d = Dimension(Fraction(2, 4), 0, 0)
    assert d.t_pow.numerator == 1 and d.t_pow.denominator == 2


def test_parse_roundtrip_examples():
    assert parse_dimension("T^-1 L^3/2 M^1/2") == DIM_CHARGE
    assert parse_dimension("T^-1 L^2 M") == DIM_HBAR
    assert parse_dimension("M") == MASS
    assert parse_dimension("1") == DIMLESS
    assert parse_dimension(str(DIM_CHARGE)) == DIM_CHARGE


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimension("T^-1 X^2")


@given(dims_st, dims_st)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(dims_st, dims_st, dims_st)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(dims_st)
def test_div_inverts_mul(a):
    assert a / a == DIMLESS
    assert a * DIMLESS == a


@given(dims_st, fractions_st)
def test_pow_is_repeated_mul(a, e):
    assert (a ** e) * (a ** -e) == DIMLESS
    assert a ** 2 == a * a


def test_dim_mul_adds_exponents():
    assert DIM_CHARGE / DIM_HBAR == Dimension(0, Fraction(-1, 2),
                                              Fraction(-1, 2))
    assert DIM_CHARGE * DIM_HBAR == Dimension(-2, Fraction(7, 2),
                                              Fraction(3, 2))


def test_coupling_ratio_is_dimensionless_against_em_form():
    # q/hbar times the electromagnetic 2-form scale L^1/2 M^1/2 is pure.
    em = Dimension(0, Fraction(1, 2), Fraction(1, 2))
    assert (DIM_CHARGE / DIM_HBAR * em).is_dimensionless
