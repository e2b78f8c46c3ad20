"""The dimension-one toolkit: exact vanishing tests and syzygy surveys.

Run as: python demos/05_onedim_diagnosis.py
"""

from frobetti import (
    INFINITE,
    buchsbaum_flag,
    choose_parameter,
    cokernel_presentation,
    decide_beta_vanishing,
    decide_finite_pd_1dim,
    diagnose_onedim,
    h0_ring,
    make_ring,
    quotient_module,
    resolve,
    syzygy_length_survey,
)

R = make_ring(5, ["x", "y"], ["x^2", "x*y"])
K = quotient_module(R, ["x", "y"])

# H^0_m(R) is the finite-length torsion part of the ring; here it is (x).
# It is printed by the minimal generators of its reduced Groebner basis,
# which are monic.
print("H^0 of", R, "=", [str(c[0]) for c in h0_ring(R).columns])
print("necessary Buchsbaum condition:", buchsbaum_flag(R))

# The exact vanishing test reads the resolution matrices: no limits taken.
for i in (0, 1):
    print("beta_%d^F(K) vanishes:" % i, decide_beta_vanishing(K, i))

# Finite projective dimension is decided from one vanishing index over
# Cohen-Macaulay rings and from two consecutive ones in general.
cross = make_ring(5, ["x", "y"], ["x*y"])
M = quotient_module(cross, ["x+y"])
print("\nR/(x+y) over the cross:", decide_finite_pd_1dim(M, 1))
print("K over the non-CM ring:  ", decide_finite_pd_1dim(K, 1))

# A suitable parameter: a power of a one-form that kills H^0 and realizes
# H^0 = (0 : x); every flag is re-verified by Groebner computations.
choice = choose_parameter(R)
print("\nparameter choice:", str(choice.x), "flags:", choice.flags)

# The side-by-side diagnosis compares the exact decision with sampled
# twisted Tor values against minimal primes and with the estimator.
diag = diagnose_onedim(K, 1, [["x"]])
print("\ndiagnosis at index 1: exact=%s, sampled-consistent=%s, estimate=%s"
      % (diag.condition_entries_in_h0, diag.consistent, diag.beta_estimate.estimate))

# Syzygy survey over a five-variable, depth-zero example: the module below
# has infinite length but finite-length first and third syzygies.
quadrics = ["x^2", "x*z", "z^2", "x*u", "z*v", "u^2", "v^2",
            "z*u + x*v + u*v", "y*u", "y*v", "y*x - z*u", "y*z - x*v"]
R5 = make_ring(101, list("xyzuv"), quadrics)
module = cokernel_presentation(
    R5, [[R5.poly("u"), R5.poly("v"), R5.poly("z^2")]], 3, [0, 0, -1]
)
survey = syzygy_length_survey(module, 3)
print("\nfive-variable example: lambda(M) =",
      "infinite" if survey.module_length is INFINITE else survey.module_length)
for row in survey.rows:
    lam = "infinite" if row.length is INFINITE else row.length
    print("  Omega_%d: betti %d, dim %2d, length %s" % (row.index, row.betti, row.dim, lam))
print("all dimension laws hold:", survey.passed)
