"""Tour of the exact arithmetic layer: rings, polynomials, Groebner bases.

Run as: python demos/01_rings_polynomials_groebner.py
"""

from frobetti import (
    SubmodulePresentation,
    groebner_basis,
    ideal,
    make_ring,
    poly_parse,
    quotient_module,
    syzygy_generators,
)

# A quotient ring is built from a prime, variable names, and homogeneous
# generators.  The reduced Groebner basis of the ideal and the Krull
# dimension are computed at construction time.
R = make_ring(5, ["x", "y"], ["x^2", "x*y"])
print("ring:", R)
print("dimension:", R.dim)
print("reduced basis of the ideal:", [str(g) for g in R.ideal_groebner])

# Polynomials parse from a small expression grammar and print canonically
# (terms sorted by degrevlex, coefficients reduced into [0, p)).
f = poly_parse("x^2 - y^2", R)
print("\nx^2 - y^2 over F_5 prints as:", f)
print("normal form modulo the ideal:", R.nf(f))

# Groebner bases of ideals over the plain polynomial ring: the classic
# two-generator example completes with the new element y^3.
S = make_ring(5, ["x", "y"], [])
gb = groebner_basis([[S.poly("x^2 - y^2")], [S.poly("x*y")]], S)
print("\nGB of (x^2 - y^2, x*y):", [str(col[0]) for col in gb.columns])
print("NF of x^3:", str(gb.normal_form([S.poly("x^3")])[0]))

# Syzygies over the quotient ring pick up relations coming from the ideal:
# over R the columns x, y have three independent relations, not just the
# Koszul one.
syz = syzygy_generators([[R.poly("x")], [R.poly("y")]], R, ambient_rank=1)
print("\nsyzygies of [x y] over R:")
for col in syz:
    print("   ", tuple(str(p) for p in col))

# Colon ideals and saturation: the torsion part of R is the saturation of
# zero, here the one-dimensional socle direction (x).  The saturation carries
# its reduced Groebner basis, so its generator prints monic: x, not 4*x.
zero = SubmodulePresentation(R, [], 1)
print("\n(0 : x) =", [str(c[0]) for c in zero.colon(R.poly("x")).minimal_generators()])
print("(0 : m^infinity) =", [str(c[0]) for c in zero.saturate().minimal_generators()])

# Lengths and dimensions read off the leading-term module: the quotient by
# the bracket power m^[5] has exactly q + 1 = 6 standard monomials.
M = quotient_module(R, ["x^5", "y^5"])
print("\nlambda(R/m^[5]) =", M.length())
print("dim(R/m^[5]) =", M.dimension())
