"""Dimension tags over the three base scales: time, length, mass.

Exponents are exact rationals so that half-integer dimensions (the charge
of a coupling constant, for instance) survive arithmetic unharmed.  A
model file tags each constant with its dimension; the loader parses the
tag here and refuses one that differs from CANONICAL_CONSTANT_DIMS.  The
values themselves, like every coordinate and field component, are plain
numbers.
"""

from dataclasses import dataclass
from fractions import Fraction
import re


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Dimension:
    """Product of powers of the base scales T (time), L (length), M (mass)."""

    t_pow: Fraction = Fraction(0)
    l_pow: Fraction = Fraction(0)
    m_pow: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "t_pow", _as_fraction(self.t_pow))
        object.__setattr__(self, "l_pow", _as_fraction(self.l_pow))
        object.__setattr__(self, "m_pow", _as_fraction(self.m_pow))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.t_pow + other.t_pow,
                         self.l_pow + other.l_pow,
                         self.m_pow + other.m_pow)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.t_pow - other.t_pow,
                         self.l_pow - other.l_pow,
                         self.m_pow - other.m_pow)

    def __pow__(self, exponent) -> "Dimension":
        e = _as_fraction(exponent)
        return Dimension(self.t_pow * e, self.l_pow * e, self.m_pow * e)

    @property
    def is_dimensionless(self) -> bool:
        return self.t_pow == 0 and self.l_pow == 0 and self.m_pow == 0

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "1"
        parts = []
        for sym, p in (("T", self.t_pow), ("L", self.l_pow), ("M", self.m_pow)):
            if p == 0:
                continue
            if p == 1:
                parts.append(sym)
            else:
                parts.append("%s^%s" % (sym, p))
        return " ".join(parts)


DIMLESS = Dimension()
TIME = Dimension(t_pow=Fraction(1))
LENGTH = Dimension(l_pow=Fraction(1))
MASS = Dimension(m_pow=Fraction(1))

# Canonical dimensions of the four model constants.
DIM_MASS_CONSTANT = MASS
DIM_CHARGE = TIME ** -1 * LENGTH ** Fraction(3, 2) * MASS ** Fraction(1, 2)
DIM_HBAR = TIME ** -1 * LENGTH ** 2 * MASS
DIM_LIGHTSPEED = TIME ** -1 * LENGTH

CANONICAL_CONSTANT_DIMS = {
    "m": DIM_MASS_CONSTANT,
    "q": DIM_CHARGE,
    "hbar": DIM_HBAR,
    "c": DIM_LIGHTSPEED,
}

_DIM_TOKEN = re.compile(r"([TLM])(?:\^(-?\d+(?:/\d+)?))?\s*")


def parse_dimension(text: str) -> Dimension:
    """Parse a dimension string such as ``"T^-1 L^3/2 M^1/2"`` or ``"1"``.

    Factors are whitespace separated, exponents are integers or fractions,
    a missing exponent means 1.  ``"1"`` (or an empty string) is the
    dimensionless dimension.
    """
    s = text.strip()
    if s in ("1", ""):
        return DIMLESS
    pows = {"T": Fraction(0), "L": Fraction(0), "M": Fraction(0)}
    pos = 0
    while pos < len(s):
        mobj = _DIM_TOKEN.match(s, pos)
        if mobj is None:
            raise ValueError("bad dimension string %r at offset %d" % (text, pos))
        sym, exp = mobj.group(1), mobj.group(2)
        pows[sym] += Fraction(exp) if exp is not None else Fraction(1)
        pos = mobj.end()
    return Dimension(pows["T"], pows["L"], pows["M"])
