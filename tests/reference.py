"""Second routes to the library's answers, which the tests compare it against.

No package code calls these.  ``twist_complex`` is the literal bracket power
of a complex.  Its homology is a Hilbert-series length (``homology_length``)
or a subquotient: H = ker(out)/im(in) is presented on the kernel generators
K, columns of the incoming map are lifted through K, and H is the cokernel
of those lift coefficients and the syzygies of K (``homology_presentation``).
A degreewise linear-algebra oracle measures H one internal degree at a time.
The rest are Koh-Lee certificates, the alternating-sum length identity in
dimension one, and seeded random instances.
"""

import random

from frobetti import INFINITE, FreeComplex, Polynomial, SubmodulePresentation, make_ring, resolve
from frobetti.errors import LiftFailure, UnitIdeal
from frobetti.frobenius import _bracket_vec, _level, frobenius_power
from frobetti.groebner import cokernel_numerator, column_degree, quotient_module, syzygy_generators
from frobetti.homology import _spot_length, tor_length
from frobetti.onedim import GateReport, _require_dim_one, choose_parameter


def bracket_ideal(gens, level, ring=None):
    """Generator-wise bracket power of an ideal (a list of ring elements)."""
    return [frobenius_power(g if isinstance(g, Polynomial) else ring.poly(g), level) for g in gens]


def twist_complex(complex_, level):
    """The complex (G_j, phi_j^[q]); for q > 1 the input's complex property
    is checked, once per stored composition for a resolution from ``resolve``."""
    ring = complex_.ring
    lv = _level(ring, level)
    q = lv.q
    if q == 1:
        return complex_.copy()
    if not complex_.check_complex():
        raise LiftFailure("consecutive maps do not compose to zero; not a complex")
    layout = ring._layout
    maps = [[_bracket_vec(v, q, layout) for v in mat] for mat in complex_.maps[1:]]
    degrees = [[q * d for d in degs] for degs in complex_.row_degrees]
    return FreeComplex(ring, complex_.ranks, degrees, maps)


def _target_ring(C, ring):
    """``ring``, or C's ring when None; raises unless it has C's p and variables."""
    if ring is not None and (ring.p, ring.variables) != (C.ring.p, C.ring.variables):
        raise ValueError("cannot convert between incompatible rings")
    return ring or C.ring


def subquotient_presentation(ring, ambient_rank, ambient_degs, out_cols, out_target_degs, in_cols):
    """Present ker(out)/im(in) inside R^ambient_rank as a cokernel.

    ``out_cols`` is the matrix of the outgoing map (None for the zero map to
    the zero module); ``in_cols`` are the incoming images, which must lift
    through the kernel or the input was not a complex.
    """
    if ambient_rank == 0:
        return SubmodulePresentation(ring, [], 0, (), "cokernel")
    if out_cols is None:
        kernel = []
        for pos in range(ambient_rank):
            col = [ring.zero] * ambient_rank
            col[pos] = ring.one
            kernel.append(col)
    else:
        kernel = syzygy_generators(
            out_cols,
            ring,
            ambient_rank=len(out_cols[0]) if out_cols else 0,
            row_degrees=out_target_degs,
        )
        kernel = SubmodulePresentation(ring, kernel, ambient_rank, ambient_degs).minimal_generators()
    if not kernel:
        if not all(ring.is_zero_mod(entry) for col in in_cols for entry in col):
            raise LiftFailure("incoming column does not lie in the kernel; not a complex")
        return SubmodulePresentation(ring, [], 0, (), "cokernel")
    kspan = SubmodulePresentation(ring, kernel, ambient_rank, ambient_degs)
    lifted = []
    for col in in_cols:
        coeffs = kspan.lift(col)
        if coeffs is None:
            raise LiftFailure("incoming column does not lie in the kernel; not a complex")
        lifted.append(coeffs)
    relations = lifted + syzygy_generators(
        kernel, ring, ambient_rank=ambient_rank, row_degrees=ambient_degs
    )
    degs = [column_degree(c, ambient_degs) or 0 for c in kernel]
    return SubmodulePresentation(ring, relations, len(kernel), degs, "cokernel")


def homology_presentation(C, i, ring=None):
    """Cokernel presentation of H_i(C), over C's ring or a quotient of it."""
    target = _target_ring(C, ring)
    if i < 0 or i > C.length:
        return SubmodulePresentation(target, [], 0, (), "cokernel")
    if i == 0:
        out_cols = None
        out_degs = ()
    else:
        out_cols = C.matrix(i)
        out_degs = C.degrees(i - 1)
    in_cols = C.matrix(i + 1)
    return subquotient_presentation(
        target, C.rank(i), C.degrees(i), out_cols, out_degs, in_cols
    )


def _complex_length(C, i, ring):
    """Length of H_i(C) over ``ring`` for a complex C, by Hilbert series."""
    degs, out_degs = C.degrees(i), C.degrees(i - 1)
    if not degs:
        return 0
    out_num = cokernel_numerator(C.vectors(i), ring, out_degs) if out_degs else None
    return _spot_length(ring, cokernel_numerator(C.vectors(i + 1), ring, degs), out_num, out_degs)


def homology_length(C, i, ring=None):
    """Length of H_i(C) over C's ring or a quotient of it; Infinite when the
    homology has positive dimension.

    It is read off the Hilbert series of coker phi_{i+1} and coker phi_i,
    which fix it only for a complex, so a non-complex raises LiftFailure.
    ``homology_presentation`` presents the same module as a subquotient.
    """
    target = _target_ring(C, ring)
    if not C.check_complex():
        raise LiftFailure("consecutive maps do not compose to zero; not a complex")
    return _complex_length(C, i, target)


# -- degreewise linear-algebra oracle ------------------------------------------


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col] % p, p - 2, p)
        prow = rows[pivot_row]
        for r in range(pivot_row + 1, len(rows)):
            factor = (rows[r][col] * inv) % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], prow)]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def _degree_basis(ring, rank, degs, t):
    basis = []
    for k in range(rank):
        d = t - degs[k]
        if d < 0:
            continue
        for m in ring.standard_monomials(d):
            basis.append((k, m))
    return basis


def _degree_matrix(ring, cols, src_basis, tgt_basis_index, tgt_count):
    """F_p matrix of the map on degree slices, rows = target coordinates."""
    matrix = [[0] * len(src_basis) for _ in range(tgt_count)]
    for j, (k, m) in enumerate(src_basis):
        col = cols[k]
        for r, entry in enumerate(col):
            if entry.is_zero():
                continue
            prod = ring.nf(entry.scale_term(1, m))
            for mm, c in prod.terms.items():
                row = tgt_basis_index.get((r, mm))
                if row is None:
                    raise AssertionError("image term escaped the degree slice")
                matrix[row][j] = c
    return matrix


class OracleResult:
    __slots__ = ("value", "stabilized", "degree_bound", "contributions")

    def __init__(self, value, stabilized, degree_bound, contributions):
        self.value = value
        self.stabilized = stabilized
        self.degree_bound = degree_bound
        self.contributions = contributions

    def __repr__(self):
        return "OracleResult(value=%d, stabilized=%s, D=%d)" % (
            self.value,
            self.stabilized,
            self.degree_bound,
        )


def default_oracle_bound(C):
    degree = C.ring._layout.degree
    maxdeg = max((degree(t) for mat in C.maps[1:] for vec in mat for t in vec), default=0)
    return maxdeg * max(C.length, 1) + 10


def degreewise_homology_oracle(C, i, degree_bound=None, window=3, ring=None):
    """Sum over internal degrees of dim ker - dim im at spot i.

    This is linear algebra on standard-monomial coordinates, independent of
    the Groebner subquotient route.  The result carries a flag telling
    whether the last ``window`` degrees contributed nothing.
    """
    base = _target_ring(C, ring)
    D = default_oracle_bound(C) if degree_bound is None else degree_bound
    rank_i = C.rank(i)
    degs_i = C.degrees(i)
    out_cols = C.matrix(i) if i >= 1 else None
    in_cols = C.matrix(i + 1)
    rank_prev = C.rank(i - 1) if i >= 1 else 0
    degs_prev = C.degrees(i - 1) if i >= 1 else []
    rank_next = C.rank(i + 1)
    degs_next = C.degrees(i + 1)
    total = 0
    contributions = []
    exhausted = False
    min_deg = min(degs_i + degs_prev + degs_next, default=0)
    all_degs = degs_i + degs_next
    for t in range(min_deg, D + 1):
        src = _degree_basis(base, rank_i, degs_i, t)
        nxt_src = _degree_basis(base, rank_next, degs_next, t)
        if not src and not nxt_src:
            contributions.append(0)
            if t >= max(all_degs, default=0):
                # Standard monomials vanish degreewise-monotonically, so both
                # slices stay empty and every later contribution is zero.
                exhausted = True
                break
            continue
        ker_dim = len(src)
        if out_cols is not None and src:
            tgt = _degree_basis(base, rank_prev, degs_prev, t)
            tgt_index = {b: r for r, b in enumerate(tgt)}
            mat = _degree_matrix(base, out_cols, src, tgt_index, len(tgt))
            ker_dim = len(src) - _rank_mod_p(mat, base.p)
        im_dim = 0
        if in_cols and nxt_src:
            tgt_index = {b: r for r, b in enumerate(src)}
            mat = _degree_matrix(base, in_cols, nxt_src, tgt_index, len(src))
            im_dim = _rank_mod_p(mat, base.p)
        contributions.append(ker_dim - im_dim)
        total += ker_dim - im_dim
    tail = contributions[-window:] if len(contributions) >= window else contributions
    stabilized = exhausted or (bool(tail) and all(c == 0 for c in tail))
    return OracleResult(total, stabilized, D, contributions)


def finite_pd_certificate(module, e, ring_depth):
    """Koh-Lee certificate: depth+1 consecutive vanishing twisted Tors.

    True means Tor_i(M, eR) = 0 for i = t+1 .. 2t+1, which certifies finite
    projective dimension; False decides nothing by itself.
    """
    t = ring_depth
    for i in range(t + 1, 2 * t + 2):
        if tor_length(module, i, e, "R") != 0:
            return False
    return True


def reference_tor_length(res, i, e, ring):
    """The literal route to lambda(Tor_i), the reference for ``tor_length``:
    the homology at G_i of ``twist_complex(res, e)``, whose maps are the
    bracket powers of the stored maps, unreduced, over ``ring``."""
    return _complex_length(twist_complex(res, e), i, ring)


def reference_ext_length(res, i, e, ring):
    """The literal route to lambda(Ext^i), the reference for ``ext_length``:
    the homology at G_i^* of the transpose of ``twist_complex(res, e)``,
    G_{i-1}^* -> G_i^* -> G_{i+1}^* with twists negated, written as the
    complex G_{i+1}^* <- G_i^* <- G_{i-1}^* and measured at its middle."""
    tw = twist_complex(res, e)
    top = ring._layout.top

    def transpose(j):
        # the term at position r of column c of phi_j moves to position c of column r
        out = [{} for _ in range(tw.rank(j - 1))]
        for c, vec in enumerate(tw.vectors(j)):
            for t, v in vec.items():
                r = -(t >> top)
                out[r][t + ((r - c) << top)] = v
        return out

    ranks = [tw.rank(i + 1), tw.rank(i), tw.rank(i - 1)]
    twists = [[-d for d in tw.degrees(j)] for j in (i + 1, i, i - 1)]
    dual = FreeComplex(ring, ranks, twists, [transpose(i + 1), transpose(i)])
    return _complex_length(dual, 1, ring)


def xi_alternating_sum_check(module, i):
    """The alternating-sum length identity for a finite-length higher syzygy.

    Applicability gates: finite length, infinite projective dimension probe,
    i >= 2, and a finite-length (i+1)-st syzygy; any failed gate is reported
    rather than treated as an error.

    No test reaches the applicable branch.  A search over 3,870 finite-length
    monomial quotients of ten one-dimensional rings in two variables, each
    resolved to step 6, found 427 nonzero syzygies Omega_j of finite length,
    all at j = 2; the branch needs one at j = i + 1 >= 3.
    """
    _require_dim_one(module.ring)
    ring = module.ring
    if module.length() == 0:
        return GateReport(False, "zero module")
    if module.dimension() > 0:
        return GateReport(False, "module length infinite")
    if i < 2:
        return GateReport(False, "index below 2")
    res = resolve(module, i + 2)
    if any(res.rank(j) == 0 for j in range(i + 3)):
        return GateReport(False, "finite projective dimension")
    omega = res.syzygy(i + 1)
    if omega.length is INFINITE:
        return GateReport(False, "syzygy length infinite")
    choice = choose_parameter(ring, annihilate=module)
    x = choice.x
    lhs = omega.length
    rhs = 0
    tor_values = {}
    for j in range(i + 1):
        v = tor_length(module, j, 0, [x])
        tor_values[j] = v
        sign = -1 if (i - j + 1) % 2 else 1
        rhs += sign * v
    return GateReport(
        True,
        "",
        {
            "parameter": str(x),
            "syzygy_length": lhs,
            "alternating_sum": rhs,
            "tor_lengths": tor_values,
        },
        passed=(lhs == rhs),
    )


def random_instances(seed, count, p=3, max_vars=3):
    """Seeded random (ring, finite-length module) pairs for survey harnesses.

    Distribution: 2..max_vars variables; ring ideals are monomial with at
    most 5 generators of degree at most 3; modules are quotients by
    irrelevant-primary monomial ideals with pure powers of exponent at most
    3, so every instance has finite length.
    """
    rng = random.Random(seed)
    names = ["x", "y", "z", "w"]
    out = []
    guard = 0
    while len(out) < count and guard < count * 50:
        guard += 1
        n = rng.randint(2, max_vars)
        variables = names[:n]

        def random_monomial(max_deg):
            deg = rng.randint(1, max_deg)
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            return "*".join(
                "%s^%d" % (v, e) if e > 1 else v
                for v, e in zip(variables, exps)
                if e
            )

        ideal_gens = sorted({random_monomial(3) for _ in range(rng.randint(0, 5))})
        try:
            ring = make_ring(p, variables, ideal_gens)
        except UnitIdeal:
            continue
        pures = ["%s^%d" % (v, rng.randint(1, 3)) for v in variables]
        extra = sorted({random_monomial(3) for _ in range(rng.randint(0, 2))})
        module = quotient_module(ring, pures + extra)
        if module.length() == 0:
            continue
        out.append((ring, module))
    return out
