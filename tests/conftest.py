import heapq
import inspect
from math import comb

import pytest
from hypothesis import strategies as st

from frobetti import FreeComplex, groebner, make_ring, onedim, quotient_module
from frobetti import ring as ring_module
from frobetti.ring import (
    LeadList,
    Polynomial,
    _axpy,
    _reduce_vec,
    monomial_divides,
    monomials_of_degree,
)

R5_QUADRICS = [
    "x^2",
    "x*z",
    "z^2",
    "x*u",
    "z*v",
    "u^2",
    "v^2",
    "z*u + x*v + u*v",
    "y*u",
    "y*v",
    "y*x - z*u",
    "y*z - x*v",
]


def vec_key(t):
    """The position-over-term order of a module term ``(pos, exponents)``:
    lower position wins, then degrevlex.  ``TermLayout`` encodings must
    sort as this key does."""
    pos, e = t
    return (-pos, sum(e), tuple(-x for x in reversed(e)))


def decoded(ring, vec):
    """A vector's terms as ``((pos, exponents), coeff)``, in dict order."""
    return [(ring._layout.decode(t), c) for t, c in vec.items()]


def fixture_rings(p):
    """The two-variable standard fixtures re-instantiated at characteristic p."""
    return {
        "R1": make_ring(p, ["x", "y"], ["x^2", "x*y"]),
        "R2": make_ring(p, ["x"], []),
        "R3": make_ring(p, ["x", "y"], ["x*y"]),
        "R4": make_ring(p, ["x", "y"], ["x^2"]),
    }


def residue_field(ring):
    return quotient_module(ring, list(ring.variables))


def matrix_multiply(A, B, target_rank, ring):
    """Columns of A @ B on ``Polynomial`` columns, where A maps G_j -> G_{j-1}
    and B maps G_{j+1} -> G_j: the reference product for ``check_complex``."""
    out = []
    for col in B:
        acc = [ring.zero] * target_rank
        for pos, entry in enumerate(col):
            if entry.is_zero():
                continue
            src = A[pos]
            acc = [a + entry * b for a, b in zip(acc, src)]
        out.append(acc)
    return out


def composes_to_zero(C):
    """Whether consecutive maps of C compose to zero modulo the ideal, by
    ``Polynomial`` matrix products and normal forms."""
    ring = C.ring
    for j in range(1, C.length):
        prod = matrix_multiply(C.matrix(j), C.matrix(j + 1), C.rank(j - 1), ring)
        if not all(ring.is_zero_mod(entry) for col in prod for entry in col):
            return False
    return True


class EagerEngine(groebner._Engine):
    """The reference for ``groebner._Engine``: an element is paired with its
    partners when it is appended, and every S-vector is reduced together
    with its representation (empty in an untracked engine).  The engine must
    pop the same pairs and keep the same basis and representations."""

    def _append(self, vec, lead, rep, single_pos, n_partners):
        partners = self.by_pos.get(-(lead >> self.layout.top), [])[:n_partners]
        super()._append(vec, lead, rep, single_pos, 0)
        self._pair(len(self.basis) - 1, partners)

    def run(self, degree=groebner.INFINITE):
        pairs, queued, top, ring = self.pairs, self.queued, self.layout.top, self.ring
        while pairs and pairs[0][0] <= degree:
            _, i, j, lcm = heapq.heappop(pairs)
            if queued[-(lcm >> top)].pop((i, j), None) is None:
                continue
            vec = groebner._spair(self.leads, self.basis, i, j, lcm, ring)
            if not vec:
                continue
            rep = groebner._spair(self.leads, self.reps, i, j, lcm, ring)
            rem = _reduce_vec(vec, self.by_pos, self.basis, ring, rep, self.reps)
            if rem:
                self._insert(rem, rep)


def reference_syzygy_vecs(gens, ring, ambient_rank, row_degrees):
    """The always-run route to the syzygies of the vectors ``gens``, the
    reference for ``groebner._syzygy_vecs``: one tracked run completes the
    engine before the (Id - T U) columns and the Schreyer pass are read off
    its reduced basis, with no certificate of the seeds."""
    n = len(gens)
    if n == 0:
        return []
    engine = groebner._Engine(ring, ambient_rank, row_degrees, gens, True)
    engine.run()
    gb = groebner.GroebnerBasis(ring, ambient_rank, row_degrees, *engine.reduced())
    leads, vecs, reps = gb.leads, gb.vecs, gb.reps
    unit, lcm = ring._layout.unit, ring._layout.lcm
    # Zero input columns are syzygies outright.
    syz_vecs = [{unit(idx): 1} for idx in engine.zero_indices]

    # Columns of (Id - T U): each original generator minus its expression in
    # the reduced basis; a copy of I * G leaves a relation modulo I * G.
    ideal = [engine.basis[i] for i in engine.ideal]
    for idx, vec in enumerate(gens + ideal):
        if not vec:
            continue
        rep = {unit(idx): 1} if idx < n else {}
        if gb.normal_form_vec(vec, rep):
            raise AssertionError("span generator failed to reduce to zero against its own basis")
        if rep:
            syz_vecs.append(rep)

    # Schreyer pass: every same-position S-pair of the reduced basis.
    for block in gb.by_pos.values():
        for k, (a, i) in enumerate(block):
            for b, j in block[k + 1 :]:
                m = lcm(a, b)
                rep = groebner._spair(leads, reps, i, j, m, ring)
                vec = groebner._spair(leads, vecs, i, j, m, ring)
                if _reduce_vec(vec, gb.by_pos, vecs, ring, rep, reps):
                    raise AssertionError("S-polynomial of a Groebner basis did not reduce to zero")
                if rep:
                    syz_vecs.append(rep)
    return groebner._dedupe_vecs(syz_vecs)


def reference_reduce_vec(vec, by_pos, basis, ring, rep=None, reps=None):
    """The division loop that scans every lead list, the reference for
    ``ring._reduce_vec``: each term is tested against the leads of its
    position (or of the one list given for every position) in list order,
    and cleared by the first that divides it."""
    p = ring.p
    layout = ring._layout
    guard, top = layout.guard, layout.top
    leads_at = by_pos.get if isinstance(by_pos, dict) else lambda _pos, _none: by_pos
    work = dict(vec)
    heap = [-t for t in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        t = -heapq.heappop(heap)
        c = work.get(t)
        if c is None:
            continue
        if t & guard:
            raise layout.overflow(t)
        b = t | guard
        for a, i in leads_at(-(t >> top), ()):
            if (b - a) & guard == guard:
                shift = t - a
                for u, v in basis[i].items():
                    u += shift
                    old = work.get(u)
                    nc = ((old or 0) - c * v) % p
                    if nc:
                        work[u] = nc
                        if old is None:
                            heapq.heappush(heap, -u)
                    elif old is not None:
                        del work[u]
                if rep is not None:
                    _axpy(rep, reps[i], c, shift, ring)
                break
        else:
            rem[t] = work.pop(t)
    return rem


def reference_first_divisor(self, t, layout):
    """``LeadList.first_divisor`` by a scan of the whole list."""
    guard = layout.guard
    b = t | guard
    return next((entry for entry in self if (b - entry[0]) & guard == guard), None)


def reference_update(self, new, partners, queued):
    """The Gebauer-Moeller update on encoded lcms, the reference for
    ``groebner._Engine._update``: every partner's lcm is built with its
    degree field by ``TermLayout.lcm`` and sorted in term order, and the B
    criterion compares encoded lcms."""
    layout = self.layout
    lcm, guard = layout.lcm, layout.guard
    leads = self.leads
    h = leads[new]
    if queued:
        ideal = self.ideal
        ideal_new = new in ideal
        dead = [
            (i, j)
            for (i, j), m in queued.items()
            if ((m | guard) - h) & guard == guard
            and (lcm(leads[i], h) != m or ideal_new and i in ideal)
            and (lcm(leads[j], h) != m or ideal_new and j in ideal)
        ]
        for key in dead:
            del queued[key]
    single = self.single_pos
    single_new = single[new]
    h_times = h - layout.unit(-(h >> layout.top))
    records = []
    for a, i in partners:
        m = lcm(a, h)
        records.append((m, not (single_new and single[i] and m == a + h_times), i))
    records.sort()
    kept, fresh = [], []
    for m, not_coprime, i in records:
        b = m | guard
        for k in kept:
            if (b - k) & guard == guard:
                break
        else:
            kept.append(m)
            if not_coprime:
                fresh.append((layout.degree(m), i, m))
    return fresh


# Every module whose code calls the division loop ``_reduce_vec``;
# ``tests/test_imports.py`` checks that the list is complete.
REFERENCE_MODULES = (groebner, ring_module, onedim)

# What ``_Engine.run`` may call by name: the division loop, which
# ``use_reference_kernels`` replaces; ``_spair``, which forms every S-vector
# and which ``engine_trace`` records; and the engine's own bookkeeping.
RUN_CALLEES = {"_reduce_vec", "_spair", "_pair", "_insert"}


def run_callees():
    """The functions of ``groebner`` and the methods of ``_Engine`` that
    ``_Engine.run`` calls by name."""
    return {
        name
        for name in groebner._Engine.run.__code__.co_names
        if inspect.isfunction(getattr(groebner, name, None))
        or inspect.isfunction(getattr(groebner._Engine, name, None))
    }


def use_reference_kernels(patch):
    """Install, with the ``MonkeyPatch`` ``patch``, the scanning division
    loop in every module that calls it, the scanning ``first_divisor`` and
    the update on encoded lcms.  Raises if ``_Engine.run`` calls anything
    outside ``RUN_CALLEES``: a new kernel there would run unreplaced, and a
    comparison with the references would compare it with itself."""
    unknown = run_callees() - RUN_CALLEES
    assert not unknown, "_Engine.run calls %s, which no reference replaces" % sorted(unknown)
    for module in REFERENCE_MODULES:
        patch.setattr(module, "_reduce_vec", reference_reduce_vec)
    patch.setattr(LeadList, "first_divisor", reference_first_divisor)
    patch.setattr(groebner._Engine, "_update", reference_update)


def engine_trace(compute):
    """``(answer, calls, engines)`` of ``compute()``.  ``calls`` lists, in
    order, every call of a function of ``groebner`` that ``_Engine.run``
    calls: an S-vector formed as ``("_spair", i, j, lcm)`` (pairs popped in
    runs, their tracked representations and the Schreyer pass), any other
    call as its name and the terms of its result in stored order (every
    remainder of the division loop).  ``engines`` lists each engine built,
    in order, as its basis, leads and representations, terms in stored
    order, and the longest of its lead lists."""
    calls, engines = [], []

    class RecordingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    def recording(name, kernel):
        if name == "_spair":

            def record(leads, vecs, i, j, lcm, ring):
                calls.append((name, i, j, lcm))
                return kernel(leads, vecs, i, j, lcm, ring)

        else:

            def record(*args, **kwargs):
                out = kernel(*args, **kwargs)
                calls.append((name, list(out.items())))
                return out

        return record

    with pytest.MonkeyPatch.context() as patch:
        for name in run_callees():
            if inspect.isfunction(getattr(groebner, name, None)):
                patch.setattr(groebner, name, recording(name, getattr(groebner, name)))
        patch.setattr(groebner, "_Engine", RecordingEngine)
        answer = compute()
    stored = [
        (
            [list(v.items()) for v in e.basis],
            e.leads,
            [list(r.items()) for r in e.reps],
            max(map(len, e.by_pos.values()), default=0),
        )
        for e in engines
    ]
    return answer, calls, stored


def diagonal_hk(p, degrees, q):
    """lambda(R/m^[q]) for R = F_p[x_1, x_2, x_3]/(x_1^d_1 + x_2^d_2 +
    x_3^d_3), by the Han-Monsky splitting, the reference for ``hk_sequence``
    on diagonal hypersurfaces.

    With X_i = x_i^d_i, S/m^[q] is the sum over 0 <= r_i < d_i of x^r times
    F_p[X]/(X_i^a_i), a_i = ceil((q - r_i) / d_i), and f = X_1 + X_2 + X_3
    respects it; eliminating X_3, each summand contributes D(a_1, a_2, a_3)
    = lambda(F_p[X, Y]/(X^a, Y^b, (X + Y)^c)), measured by
    ``cokernel_numerator`` over F_p[X, Y].
    """
    plane = make_ring(p, ["X", "Y"], [])
    encode = plane._layout.encode
    memo = {}

    def D(a, b, c):
        key = tuple(sorted((a, b, c)))
        if key not in memo:
            binomial = {encode(0, (c - k, k)): comb(c, k) % p for k in range(c + 1)}
            gens = [{encode(0, (a, 0)): 1}, {encode(0, (0, b)): 1}]
            gens.append({t: v for t, v in binomial.items() if v})
            num = groebner.cokernel_numerator(gens, plane, (0,))
            memo[key] = groebner.numerator_length(num, 2)
        return memo[key]

    def ranks(d):
        return [-(-(q - r) // d) for r in range(d)]

    d1, d2, d3 = degrees
    return sum(D(a, b, c) for a in ranks(d1) for b in ranks(d2) for c in ranks(d3))


def reference_colon_heads(vecs, elements, ring, r, row_degrees):
    """The syzygy route to (N : (f_1, ..., f_k)), the reference for
    ``groebner._colon_basis``: generators of the colon modulo N, for N the
    span of ``vecs`` in R^r and each f_i a homogeneous vector at position 0.

    They are the nonzero heads (first r coordinates) of the syzygies of the
    block matrix [f_i * e_j | vecs moved to block i], whose row i * r + j
    has degree row_degrees[j] + dmax - deg f_i (dmax the largest deg f_i):
    a syzygy (h, c_1, ..., c_k) says f_i * h = -N c_i for every i.
    """
    top = ring._layout.top
    degs = [ring._layout.degree(max(f)) for f in elements]
    dmax = max(degs)
    big_degrees = [row_degrees[pos] + dmax - d for d in degs for pos in range(r)]
    matrix = [
        {t - ((i * r + j) << top): c for i, f in enumerate(elements) for t, c in f.items()}
        for j in range(r)
    ]
    for i in range(len(elements)):
        shift = (i * r) << top
        matrix += [{t - shift: c for t, c in v.items()} for v in vecs]
    heads = []
    for syz in groebner._syzygy_vecs(matrix, ring, r * len(elements), big_degrees):
        head = {t: c for t, c in syz.items() if -(t >> top) < r}
        if head:
            heads.append(head)
    return heads


def reference_minimize(C):
    """``minimize`` on ``Polynomial`` columns: the complex's maps as
    ``matrix(j)``, split by ``reference_split_units``, rebuilt by the
    constructor (which raises ``NotHomogeneous`` on a column of two
    degrees)."""
    ranks, degs = list(C.ranks), [list(d) for d in C.row_degrees]
    maps = [None] + [C.matrix(j) for j in range(1, len(C.maps))]
    reference_split_units(C.ring, ranks, degs, maps)
    return FreeComplex(C.ring, ranks, degs, maps[1:])


def reference_find_unit(maps):
    for j in range(1, len(maps)):
        for c, col in enumerate(maps[j]):
            for r, entry in enumerate(col):
                if entry.constant_term():
                    return (j, r, c)
    return None


def reference_split_units(ring, ranks, row_degrees, maps):
    """Unit splitting in place on ``Polynomial`` columns, ``maps[j]`` being
    phi_j (j >= 1): the reference for ``resolution._split_units``."""
    while True:
        found = reference_find_unit(maps)
        if found is None:
            return
        j, r, c = found
        mat = maps[j]
        u = mat[c][r].constant_term()
        w = ring.inverse(u)
        nxt = maps[j + 1] if j + 1 < len(maps) else None
        prv = maps[j - 1] if j - 1 >= 1 else None
        # Clear row r with column operations; mirror as row operations on phi_{j+1}.
        for c2 in range(len(mat)):
            if c2 == c:
                continue
            a = mat[c2][r]
            if a.is_zero():
                continue
            t = a * w
            mat[c2] = [x - t * y for x, y in zip(mat[c2], mat[c])]
            if nxt is not None:
                for col in nxt:
                    col[c] = col[c] + t * col[c2]
        # Clear column c with row operations; mirror as column operations on phi_{j-1}.
        for r2 in range(ranks[j - 1]):
            if r2 == r:
                continue
            b = mat[c][r2]
            if b.is_zero():
                continue
            s = b * w
            for col in mat:
                col[r2] = col[r2] - s * col[r]
            if prv is not None:
                prv[r] = [x + s * y for x, y in zip(prv[r], prv[r2])]
        # Drop the split summands.
        del mat[c]
        for col in mat:
            del col[r]
        if nxt is not None:
            for col in nxt:
                del col[c]
        if prv is not None:
            del prv[r]
        ranks[j] -= 1
        ranks[j - 1] -= 1
        del row_degrees[j][c]
        del row_degrees[j - 1][r]


def reference_syzygy_numerator(res, i):
    """The cokernel route to the Hilbert numerator of Omega_i, the reference
    for ``MinimalResolution.syzygy_numerator``: Omega_i = coker(phi_{i+1})
    inside G_i, measured by one engine run (needs the resolution through
    step i + 1)."""
    return groebner.cokernel_numerator(res.vectors(i + 1), res.ring, res.degrees(i))


def brute_force_monomial_count(gens_exps, n, degree_cap):
    """Standard monomials of degree <= degree_cap of a monomial ideal, by raw enumeration.

    The count stops early at the first empty degree above every generator's
    degree, since no standard monomial lies beyond it.
    """
    total = 0
    for d in range(degree_cap + 1):
        alive = 0
        for m in monomials_of_degree(n, d):
            if not any(monomial_divides(g, m) for g in gens_exps):
                alive += 1
        if alive == 0 and d > max((sum(g) for g in gens_exps), default=0):
            break
        total += alive
    return total


def reference_minimalize(gens):
    """Inclusion-minimal exponent tuples in (degree, exponents) order,
    testing divisibility exponent by exponent."""
    out = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(monomial_divides(h, g) for h in out):
            out.append(g)
    return out


def reference_numerator(gens, n):
    """N(t) with HS(S/L) = N(t) / (1 - t)^n for the monomial ideal L of the
    exponent tuples ``gens``: the former pivot recursion of
    ``ring._numerator`` on tuples, each node re-minimalising its
    generators.  Its pivot occurs in the most generators, it splits off
    only pairwise coprime generators, and it has no staircase rule, so it
    shares none of the rules of ``ring._numerator``."""
    gens = reference_minimalize(gens)
    counts = [sum(1 for g in gens if g[i]) for i in range(n)]
    if max(counts, default=0) <= 1:
        num = {0: 1}
        for g in gens:
            d = sum(g)
            out = dict(num)
            for j, c in num.items():
                out[j + d] = out.get(j + d, 0) - c
            num = {j: c for j, c in out.items() if c}
        return num
    i = counts.index(max(counts))
    exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    k = exps[len(exps) // 2]
    pivot = tuple(k if j == i else 0 for j in range(n))
    num = reference_numerator(gens + [pivot], n)
    colon = [g[:i] + (max(g[i] - k, 0),) + g[i + 1 :] for g in gens]
    for d, c in reference_numerator(colon, n).items():
        num[d + k] = num.get(d + k, 0) + c
    return {d: c for d, c in num.items() if c}


def random_form(draw, ring, degree, max_terms=3):
    """A random form of the given degree with at most ``max_terms`` terms,
    drawn inside a hypothesis composite strategy."""
    if degree < 0:
        return ring.zero
    monos = monomials_of_degree(ring.n, degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    return Polynomial(ring, {m: draw(st.integers(1, ring.p - 1)) for m in chosen})


@pytest.fixture(scope="session")
def R1():
    return make_ring(5, ["x", "y"], ["x^2", "x*y"])


@pytest.fixture(scope="session")
def R2():
    return make_ring(5, ["x"], [])


@pytest.fixture(scope="session")
def R3():
    return make_ring(5, ["x", "y"], ["x*y"])


@pytest.fixture(scope="session")
def R4():
    return make_ring(5, ["x", "y"], ["x^2"])


@pytest.fixture(scope="session")
def R5():
    return make_ring(101, list("xyzuv"), R5_QUADRICS)


@pytest.fixture(scope="session")
def K1(R1):
    return residue_field(R1)


@pytest.fixture(scope="session")
def K2(R2):
    return residue_field(R2)


@pytest.fixture(scope="session")
def K3(R3):
    return residue_field(R3)


@pytest.fixture(scope="session")
def K4(R4):
    return residue_field(R4)
