"""Tor and Ext lengths against Frobenius twists, over R or a quotient of it.

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
literal bracket powers of the stored maps.  Each twisted cokernel
numerator is memoised beside the stored resolution, by map, level, Tor or
Ext side and coefficient ring, so the spots and levels of a sequence, and
the sequences of ``verify_laws``, share it.
"""

from .errors import InfiniteLength, LiftFailure
from .frobenius import _level, frobenius_vectors
from .groebner import cokernel_numerator, numerator_length
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

