"""Frobenius bracket powers of polynomials and of the maps of a resolution.

Over F_p the q-th power of a sparse polynomial is computed by scaling every
exponent vector by q; coefficients are fixed by Fermat.  The bracket power
of a column maps each term t of x^e * e_pos to q*t - (q-1)*unit(pos), that
of x^(q*e) * e_pos, as the encoding is affine.  As bracket power is a ring
endomorphism of S over F_p and I^[q] lies in I, phi^[q] psi^[q] = (phi
psi)^[q] lies in I when phi psi does: the twisted maps of a complex, with
its twists scaled by q, form a complex.

Lengths read the twisted maps reduced modulo I one Frobenius step at a
time: h = r modulo I gives h^[p] = r^[p] modulo I^[p], which lies in I, so
NF(h^[p^e]) = NF(NF(h^[p^(e-1)])^[p]): e normal forms of small exponents
replace one of exponents near q (``frobenius_step``, ``frobenius_vectors``),
each one the ring's ``nf_vec`` (``nf_vec_in_place`` on a fresh bracket
power).  Tor, Ext and Hilbert-Kunz lengths all read them.
"""

from .errors import Overflow
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
    """f^[q] = f^q, the ``_bracket_vec`` of f encoded at position 0."""
    q = _level(f.ring, level).q
    if q == 1:
        return f
    layout = f.ring._layout
    vec = _bracket_vec({layout.encode(0, m): c for m, c in f.terms.items()}, q, layout)
    return Polynomial(f.ring, {layout.exps(t): c for t, c in vec.items()})


def _bracket_vec(vec, q, layout):
    """vec^[q] for an engine vector: each term x^e * e_pos becomes x^(q*e) *
    e_pos, with its coefficient, as c^q = c over F_p."""
    if any(max(layout.exps(t)) * q >= MAX_EXPONENT for t in vec):
        raise Overflow("bracket power pushes an exponent past the configured width")
    top, unit = layout.top, layout.unit
    return {q * t - (q - 1) * unit(-(t >> top)): c for t, c in vec.items()}


def frobenius_step(vecs, ring):
    """NF(v^[p]) of each vector v modulo I times its free module."""
    p, layout = ring.p, ring._layout
    return [ring.nf_vec_in_place(_bracket_vec(v, p, layout)) for v in vecs]


def frobenius_vectors(res, j, e):
    """The columns of phi_j^[q] of a resolution from ``resolve``, reduced
    modulo I * G_{j-1}: NF(v) at level 0, and level e one ``frobenius_step``
    from level e - 1.  Every level is kept beside the module's stored
    resolution, keyed by (j, e), so a sequence over e = 1..k and every Tor
    and Ext spot that reads phi_j share one step per level."""
    if not 0 <= j <= res.length:
        raise ValueError("phi_%d is not a map of this resolution" % j)
    _level(res.ring, e)  # rejects e < 0 and q >= MAX_EXPONENT
    memo = res._frobenius
    if (j, e) not in memo:
        if e == 0:
            memo[(j, 0)] = [res.ring.nf_vec(v) for v in res.vectors(j)]
        else:
            memo[(j, e)] = frobenius_step(frobenius_vectors(res, j, e - 1), res.ring)
    return memo[(j, e)]
