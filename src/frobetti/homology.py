"""Homology lengths of complexes over R; Tor and Ext against Frobenius twists.

Lengths come from Hilbert series.  At a spot G' -a-> G -b-> G'' of a graded
complex, HS(ker b / im a) = HS(coker a) + HS(coker b) - HS(G''), as every
term is additive on short exact sequences.  Each term is a Hilbert numerator
read off the minimal leads of one engine run, so a homology length needs
one run for each of two cokernels, and no reduced basis, syzygies, minimal
generators or lifts.  The runs take column vectors as they are, over R or
R/P alike: ``coefficient_ring`` keeps the variables, so both share a
``TermLayout``.

Tor and Ext lengths share one body, ``_frobenius_length``, which differs
between them only in the maps it reads at the spot and the sign of the
twists.  It reads the maps of the module's stored resolution twisted
one Frobenius step at a time and reduced modulo I
(``frobenius.frobenius_vectors``), which span the same modules as the
literal bracket powers of ``twist_complex``.  Each twisted cokernel
numerator is memoised beside the stored resolution, by map, level, Tor or
Ext side and coefficient ring, so the spots and levels of a sequence, and
the sequences of ``verify_laws``, share it.

The subquotient route is kept as the presentation of H and as the reference
route of the tests: H = ker(out)/im(in) is presented on the kernel
generators K, columns of the incoming map are lifted through K, and H
becomes the cokernel of those lift coefficients together with the syzygies
of K.  A degreewise linear-algebra oracle recomputes the same lengths one
internal degree at a time and is kept fully independent of both.
"""

from .errors import InfiniteLength, LiftFailure
from .frobenius import _level, frobenius_vectors
from .groebner import (
    SubmodulePresentation,
    cokernel_numerator,
    column_degree,
    numerator_length,
    syzygy_generators,
)
from .resolution import resolve
from .ring import make_ring


def coefficient_ring(ring, extra_gens):
    """R/(extra) as a fresh quotient ring S/(I + extra); memoized on R."""
    extra = [ring.poly(g) for g in extra_gens]
    key = ("coefficient_ring", tuple(sorted(map(str, extra))))
    got = ring._memo.get(key)
    if got is None:
        got = make_ring(ring.p, ring.variables, list(ring.ideal_gens) + extra)
        ring._memo[key] = got
    return got


def _target_ring(C, ring):
    """``ring``, or C's ring when None; raises unless it has C's p and variables."""
    if ring is not None and (ring.p, ring.variables) != (C.ring.p, C.ring.variables):
        raise ValueError("cannot convert between incompatible rings")
    return ring or C.ring


def _spot_length(ring, in_num, out_num, out_degs):
    """Length of ker(out)/im(in) at a free module G of positive rank.

    ``in_num`` is the Hilbert numerator of coker(in), ``out_num`` that of the
    cokernel of the outgoing map into the free module with twists
    ``out_degs`` (unread when there is none).  The maps must compose to
    zero; the length is N(coker in) + N(coker out) - N(target of out), read
    at t = 1.
    """
    num = dict(in_num)
    if out_degs:
        for d, c in out_num.items():
            num[d] = num.get(d, 0) + c
        free = ring.numerator()
        for shift in out_degs:
            for d, c in free.items():
                num[d + shift] = num.get(d + shift, 0) - c
    return numerator_length({d: c for d, c in num.items() if c}, ring.n)


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


def _twisted_numerator(res, j, e, ring, side):
    """N(coker phi_j^[q]) in G_{j-1} (``side`` "tor"), or N(coker of its
    transpose) in G_j^* with twists negated ("ext"), over ``ring``; memoised
    beside the module's stored resolution by (j, e, side, ring)."""
    memo = res._frobenius
    key = (j, e, side, ring)
    num = memo.get(key)
    if num is None:
        q = ring.p**e
        vecs = frobenius_vectors(res, j, e)
        if side == "tor":
            num = cokernel_numerator(vecs, ring, [q * d for d in res.degrees(j - 1)])
        else:
            # columns of phi_j^T: G_{j-1}^* -> G_j^*; the term at position r
            # of column c moves to position c of column r.
            top = ring._layout.top
            dual = [{} for _ in range(res.rank(j - 1))]
            for c, vec in enumerate(vecs):
                for t, v in vec.items():
                    r = -(t >> top)
                    dual[r][t + ((r - c) << top)] = v
            num = cokernel_numerator(dual, ring, [-q * d for d in res.degrees(j)])
        memo[key] = num
    return num


def _frobenius_length(module, i, e, coefficients, side):
    """The Tor_i (``side`` "tor") or Ext^i ("ext") length at level e.

    The spot is G_i of the stored resolution through step i + 1, its stored
    compositions checked once over all the module's resolutions.  For Tor,
    phi_{i+1}^[q] comes in and phi_i^[q] goes out to twists q * deg G_{i-1};
    for Ext, (phi_i^[q])^T comes in and (phi_{i+1}^[q])^T goes out to twists
    -q * deg G_{i+1}.
    """
    if module.dimension() > 0:
        raise InfiniteLength("%s_length requires a finite-length module" % side)
    q = _level(module.ring, e).q
    res = resolve(module, i + 1)
    if not res.check_complex():
        raise LiftFailure("consecutive maps do not compose to zero; not a complex")
    ring = module.ring if coefficients == "R" else coefficient_ring(module.ring, coefficients)
    if not res.degrees(i):
        return 0
    if side == "tor":
        j_in, j_out, out_degs = i + 1, i, [q * d for d in res.degrees(i - 1)]
    else:
        j_in, j_out, out_degs = i, i + 1, [-q * d for d in res.degrees(i + 1)]
    out_num = _twisted_numerator(res, j_out, e, ring, side) if out_degs else None
    return _spot_length(ring, _twisted_numerator(res, j_in, e, ring, side), out_num, out_degs)


def tor_length(module, i, e, coefficients="R"):
    """lambda(Tor_i(M, e-th Frobenius twist of N)) for N = R or N = R/p.

    ``coefficients`` is "R" or a list of generators of a homogeneous prime
    containing the defining ideal (primality is the caller's responsibility).
    The length is the homology at G_i of the bracket-powered minimal
    resolution, read off the Hilbert series of coker phi_{i+1}^[q] and coker
    phi_i^[q] (see the module docstring).  Their columns are the stored maps
    reduced modulo I one Frobenius step at a time, and both numerators are
    memoised beside the stored resolution, so no twist module and no
    subquotient is ever materialized.
    """
    return _frobenius_length(module, i, e, coefficients, "tor")


def ext_length(module, i, e, coefficients="R"):
    """lambda(Ext^i(M, e-th twist of N)) via the transposed bracket complex.

    H^i of G_{i-1}^* -> G_i^* -> G_{i+1}^* (twists negated) is read off the
    Hilbert series of coker (phi_i^[q])^T and coker (phi_{i+1}^[q])^T, on the
    same stepwise twisted columns and memo as ``tor_length``.
    """
    return _frobenius_length(module, i, e, coefficients, "ext")


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
