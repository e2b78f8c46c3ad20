"""Frobenius bracket powers of polynomials, ideals, matrices, and complexes.

Over F_p the q-th power of a sparse polynomial is computed by scaling every
exponent vector by q; coefficients are fixed by Fermat.  Bracket powers of a
complex keep the ranks, raise every matrix entry to the q-th power, and scale
the grading twists by q.
"""

from .errors import Overflow
from .resolution import FreeComplex
from .ring import MAX_EXPONENT, Polynomial


class BracketLevel:
    """A Frobenius level e with its power q = p^e."""

    __slots__ = ("p", "e", "q")

    def __init__(self, p, e):
        if e < 0:
            raise ValueError("Frobenius level must be nonnegative")
        self.p = p
        self.e = e
        self.q = p**e
        if self.q >= MAX_EXPONENT:
            raise Overflow("q = %d^%d exceeds the configured exponent width" % (p, e))

    def __repr__(self):
        return "BracketLevel(e=%d, q=%d)" % (self.e, self.q)


def _level(ring, level):
    if isinstance(level, BracketLevel):
        return level
    return BracketLevel(ring.p, level)


def frobenius_power(f, level):
    """f^[q] = f^q, computed termwise by exponent scaling."""
    lv = _level(f.ring, level)
    q = lv.q
    if q == 1:
        return f
    terms = {}
    for m, c in f.terms.items():
        scaled = tuple(e * q for e in m)
        if any(e >= MAX_EXPONENT for e in scaled):
            raise Overflow("bracket power pushes an exponent past the configured width")
        # c^q = c over F_p.
        terms[scaled] = c
    return Polynomial(f.ring, terms)


def bracket_ideal(gens, level, ring=None):
    """Generator-wise bracket power of an ideal (a list of ring elements)."""
    return [frobenius_power(g if isinstance(g, Polynomial) else ring.poly(g), level) for g in gens]


def bracket_matrix(columns, level):
    """Entry-wise bracket power of a matrix given as a list of columns."""
    return [[frobenius_power(entry, level) for entry in col] for col in columns]


def twist_complex(complex_, level):
    """The complex (G_j, phi_j^[q]); composition-zero is re-verified exactly."""
    ring = complex_.ring
    lv = _level(ring, level)
    q = lv.q
    if q == 1:
        return complex_.copy()
    maps = [bracket_matrix(complex_.maps[j], lv) for j in range(1, len(complex_.maps))]
    degrees = [[q * d for d in degs] for degs in complex_.row_degrees]
    twisted = FreeComplex(ring, complex_.ranks, degrees, maps)
    if not twisted.check_complex():
        raise AssertionError("bracket power destroyed the complex property")
    return twisted
