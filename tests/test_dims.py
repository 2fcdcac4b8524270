from fractions import Fraction

import pytest

from covphase.dims import (
    CANONICAL_CONSTANT_DIMS,
    format_dimension,
    parse_dimension,
)

Q = CANONICAL_CONSTANT_DIMS["q"]
HBAR = CANONICAL_CONSTANT_DIMS["hbar"]
T, L, M = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def exponents(*factors):
    """The (T, L, M) exponents of a product of (dimension, power) pairs."""
    return tuple(sum(d[k] * p for d, p in factors) for k in range(3))


def test_canonical_constants():
    assert HBAR == (-1, 2, 1)
    assert CANONICAL_CONSTANT_DIMS["c"] == (-1, 1, 0)
    assert CANONICAL_CONSTANT_DIMS["m"] == M
    assert Q == (-1, Fraction(3, 2), Fraction(1, 2))


def test_rescaled_metric_has_time_dimension():
    # The metric rescaled by mass over hbar turns an area into a time.
    assert exponents((M, 1), (HBAR, -1), (L, 2)) == T


def test_exponents_stay_in_lowest_terms():
    d = parse_dimension("T^2/4 L^-6/3")
    assert d == (Fraction(1, 2), -2, 0)
    assert format_dimension(d) == "T^1/2 L^-2"


def test_parse_roundtrip_examples():
    assert parse_dimension("T^-1 L^3/2 M^1/2") == Q
    assert parse_dimension("T^-1 L^2 M") == HBAR
    assert parse_dimension("M") == M
    assert parse_dimension("1") == parse_dimension("") == (0, 0, 0)
    assert format_dimension((0, 0, 0)) == "1"
    for dim in CANONICAL_CONSTANT_DIMS.values():
        assert parse_dimension(format_dimension(dim)) == dim


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimension("T^-1 X^2")


def test_coupling_ratio_is_dimensionless_against_em_form():
    # q/hbar times the electromagnetic 2-form scale L^1/2 M^1/2 is pure.
    em = (0, Fraction(1, 2), Fraction(1, 2))
    assert exponents((Q, 1), (HBAR, -1), (em, 1)) == (0, 0, 0)
