"""Minimal free resolutions and syzygy tables over singular rings.

Run as: python demos/02_resolutions_and_syzygies.py
"""

from frobetti import INFINITE, FreeComplex, make_ring, minimize, quotient_module, resolve

R = make_ring(5, ["x", "y"], ["x^2", "x*y"])
K = quotient_module(R, ["x", "y"])

# The residue field of a singular ring has an infinite resolution; the
# Betti numbers here grow like Fibonacci numbers.
res = resolve(K, 6)
print("betti numbers of K over", R, ":", res.betti)
print("phi_1 =", [[str(e) for e in col] for col in res.matrix(1)])
print("phi_2 =", [[str(e) for e in col] for col in res.matrix(2)])
print("complex property holds:", res.check_complex())
print("no unit entries (minimality):", not res.has_unit_entry())

# Syzygies use the image convention: Omega_i is the image of phi_i, and its
# length/dimension are read from the cokernel of the next matrix.
M = quotient_module(R, ["x"])
resM = resolve(M, 4)
print("\nM = R/(x): betti", resM.betti)
for i in range(4):
    s = resM.syzygy(i)
    lam = "infinite" if s.length is INFINITE else s.length
    print("  Omega_%d: dimension %2d, length %s" % (i, s.dimension, lam))
print("the first syzygy (x) is a one-dimensional vector space: length 1")

# A complex padded with a split summand R --1--> R is visibly non-minimal;
# minimization strips the unit block and leaves the homology untouched.
base = resolve(K, 2)
phi1 = [col + [R.zero] for col in base.matrix(1)]
phi1.append([R.zero] * base.rank(0) + [R.one])
phi2 = [col + [R.zero] for col in base.matrix(2)]
padded = FreeComplex(
    R,
    [base.rank(0) + 1, base.rank(1) + 1, base.rank(2)],
    [list(base.degrees(0)) + [0], list(base.degrees(1)) + [0], list(base.degrees(2))],
    [phi1, phi2],
)
print("\npadded complex ranks:   ", tuple(padded.ranks), "unit entry:", padded.has_unit_entry())
stripped = minimize(padded)
print("after stripping the unit:", tuple(stripped.ranks))
