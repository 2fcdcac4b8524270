"""Dimension tags over the three base scales: time, length, mass.

A model file tags each constant with its dimension, a product of powers
of T, L and M with rational exponents, so that half-integer dimensions
(the charge of a coupling constant, for instance) are written exactly.
The loader parses the tag into its (T, L, M) exponents and refuses one
that differs from CANONICAL_CONSTANT_DIMS.  The values themselves, like
every coordinate and field component, are plain numbers.
"""

from fractions import Fraction
import re

# (T, L, M) exponents of the four model constants
CANONICAL_CONSTANT_DIMS = {
    "m": (0, 0, 1),
    "q": (-1, Fraction(3, 2), Fraction(1, 2)),
    "hbar": (-1, 2, 1),
    "c": (-1, 1, 0),
}

_DIM_TOKEN = re.compile(r"([TLM])(?:\^(-?\d+(?:/\d+)?))?\s*")


def parse_dimension(text: str) -> tuple:
    """The (T, L, M) exponents of a tag such as ``"T^-1 L^3/2 M^1/2"``.

    Factors are whitespace separated, exponents are integers or fractions,
    a missing exponent means 1.  ``"1"`` (or an empty string) is the
    dimensionless tag.
    """
    s = text.strip()
    if s == "1":
        s = ""
    pows = {"T": Fraction(0), "L": Fraction(0), "M": Fraction(0)}
    pos = 0
    while pos < len(s):
        mobj = _DIM_TOKEN.match(s, pos)
        if mobj is None:
            raise ValueError("bad dimension string %r at offset %d" % (text, pos))
        sym, exp = mobj.group(1), mobj.group(2)
        pows[sym] += Fraction(exp) if exp is not None else Fraction(1)
        pos = mobj.end()
    return (pows["T"], pows["L"], pows["M"])


def format_dimension(dim) -> str:
    """The tag of (T, L, M) exponents; ``"1"`` when all are zero."""
    return " ".join(sym if p == 1 else "%s^%s" % (sym, p)
                    for sym, p in zip("TLM", dim) if p != 0) or "1"
