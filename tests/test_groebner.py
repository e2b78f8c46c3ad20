import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobetti import (
    INFINITE,
    SubmodulePresentation,
    cokernel_presentation,
    groebner_basis,
    hk_sequence,
    ideal,
    make_ring,
    quotient_module,
    resolve,
    syzygy_generators,
)
from frobetti import groebner
from frobetti.errors import AmbientMismatch, Overflow, ResourceBound, ZeroDivisorQuery
from frobetti.frobenius import frobenius_power, twist_complex
from frobetti.groebner import (
    column_degree,
    column_to_vec,
    numerator_dimension,
    numerator_length,
    vec_to_column,
    vec_to_strings,
)
from frobetti.homology import _degree_basis, _degree_matrix, _rank_mod_p
from frobetti.onedim import decide_beta_vanishing, h0_ring
from frobetti.ring import (
    LEAD_INDEX_LENGTH,
    LeadList,
    Polynomial,
    _lead_lists,
    _reduce_vec,
    drl_key,
    monomial_divides,
    monomials_of_degree,
)

from conftest import (
    EagerEngine,
    brute_force_monomial_count,
    decoded,
    engine_trace,
    random_form,
    reference_colon_heads,
    reference_update,
    reference_numerator,
    residue_field,
    use_reference_kernels,
    vec_key,
)


# -- an independent naive Buchberger oracle (no criteria, no reuse) -----------


def _naive_lead(f):
    return max(f.terms, key=drl_key)


def _naive_reduce(f, basis):
    ring = f.ring
    changed = True
    while changed and f.terms:
        changed = False
        for g in basis:
            lg = _naive_lead(g)
            for m in sorted(f.terms, key=drl_key, reverse=True):
                if monomial_divides(lg, m):
                    shift = tuple(a - b for a, b in zip(m, lg))
                    coeff = (f.terms[m] * ring.inverse(g.terms[lg])) % ring.p
                    f = f - g.scale_term(coeff, shift)
                    changed = True
                    break
            if changed:
                break
    return f


def _naive_buchberger(gens):
    basis = [g for g in gens if not g.is_zero()]
    ring = basis[0].ring
    while True:
        new = []
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                f, g = basis[a], basis[b]
                lf, lg = _naive_lead(f), _naive_lead(g)
                lcm = tuple(max(x, y) for x, y in zip(lf, lg))
                sf = f.scale_term(ring.inverse(f.terms[lf]), tuple(x - y for x, y in zip(lcm, lf)))
                sg = g.scale_term(ring.inverse(g.terms[lg]), tuple(x - y for x, y in zip(lcm, lg)))
                r = _naive_reduce(sf - sg, basis + new)
                if not r.is_zero():
                    new.append(r)
        if not new:
            return basis
        basis.extend(new)


def test_groebner_examples_against_naive_oracle():
    S = make_ring(5, ["x", "y"], [])
    gens = [S.poly("x^2 - y^2"), S.poly("x*y")]
    gb = groebner_basis([[g] for g in gens], S)
    mine = [col[0] for col in gb.columns]
    assert sorted(str(f) for f in mine) == ["x*y", "x^2 + 4*y^2", "y^3"]
    naive = _naive_buchberger(gens)
    # mutual containment, established entirely by naive division
    for f in mine:
        assert _naive_reduce(f, naive).is_zero()
    for f in naive:
        assert _naive_reduce(f, mine).is_zero()


def test_groebner_monomial_and_unit(R1):
    S = make_ring(5, ["x", "y"], [])
    gb = groebner_basis([[S.poly("x^2")], [S.poly("x*y")]], S)
    assert sorted(str(c[0]) for c in gb.columns) == ["x*y", "x^2"]
    gb1 = groebner_basis([[S.one]], S)
    assert [str(c[0]) for c in gb1.columns] == ["1"]


def test_spoly_reduction_invariant(R1, R5):
    # every same-position S-polynomial of a reduced basis reduces to zero
    for quotient, gens in ((R1, ["x^2", "x*y"]), (R5, list(map(str, R5.ideal_gens)))):
        ring = make_ring(quotient.p, list(quotient.variables), [])
        gb = groebner_basis([[ring.poly(g)] for g in gens], ring)
        encode, decode = ring._layout.encode, ring._layout.decode
        for a in range(len(gb.vecs)):
            for b in range(a + 1, len(gb.vecs)):
                la, lb = decode(gb.leads[a]), decode(gb.leads[b])
                if la[0] != lb[0]:
                    continue
                lcm = tuple(max(x, y) for x, y in zip(la[1], lb[1]))
                sa = tuple(x - y for x, y in zip(lcm, la[1]))
                sb = tuple(x - y for x, y in zip(lcm, lb[1]))
                vec = {}
                for (pos, m), c in decoded(ring, gb.vecs[a]):
                    vec[(pos, tuple(x + y for x, y in zip(m, sa)))] = c
                for (pos, m), c in decoded(ring, gb.vecs[b]):
                    key = (pos, tuple(x + y for x, y in zip(m, sb)))
                    nc = (vec.get(key, 0) - c) % ring.p
                    if nc:
                        vec[key] = nc
                    elif key in vec:
                        del vec[key]
                assert not gb.normal_form_vec({encode(*t): c for t, c in vec.items()})


def test_reduced_basis_is_canonical(R1, R5):
    import itertools

    gens5 = [str(g) for g in R5.ideal_gens]
    rng = random.Random(17)
    for quotient, gens in ((R1, ["x^2 - y^2", "x*y", "y^3"]), (R5, gens5)):
        ring = make_ring(quotient.p, list(quotient.variables), [])
        base = groebner_basis([[ring.poly(g)] for g in gens], ring)
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            other = groebner_basis([[ring.poly(g)] for g in shuffled], ring)
            assert base.same_basis(other)


def test_normal_form_examples():
    S = make_ring(5, ["x", "y"], [])
    gb = groebner_basis([[S.poly("x^2")], [S.poly("x*y")]], S)
    nf = gb.normal_form([S.poly("x^2 + y")])
    assert str(nf[0]) == "y"
    assert gb.normal_form([S.zero])[0].is_zero()
    assert str(gb.normal_form([S.poly("x*y + y^3")])[0]) == "y^3"


def test_normal_form_idempotent_and_membership(R1):
    S = make_ring(R1.p, list(R1.variables), [])
    rng = random.Random(3)
    gb = groebner_basis([[S.poly("x^2")], [S.poly("x*y")]], S)
    span = SubmodulePresentation(S, [[S.poly("x^2")], [S.poly("x*y")]], 1)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(1, 4)
        v = S.zero
        for exps, c in terms.items():
            v = v + S.monomial(exps, c)
        nf = gb.normal_form([v])[0]
        assert gb.normal_form([nf])[0] == nf
        assert span.contains([v - nf])


def test_normal_form_is_linear(R1):
    S = make_ring(R1.p, list(R1.variables), [])
    rng = random.Random(13)
    gb = groebner_basis([[S.poly("x^2 - y^2")], [S.poly("x*y")]], S)
    for _ in range(20):
        f = S.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 4))
        g = S.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 4))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        lhs = gb.normal_form([a * f + b * g])[0]
        rhs = a * gb.normal_form([f])[0] + b * gb.normal_form([g])[0]
        assert lhs == rhs


def test_resource_bound(monkeypatch, R1):
    import frobetti.groebner as gr

    monkeypatch.setattr(gr, "MAX_BASIS_SIZE", 1)
    with pytest.raises(gr.ResourceBound):
        gr.groebner_basis([[R1.poly("x")], [R1.poly("y")]], R1)
    # minimal_generators runs its own engine, not groebner_basis; I * F of
    # R1 already has two elements.
    monkeypatch.setattr(gr, "MAX_BASIS_SIZE", 2)
    with pytest.raises(gr.ResourceBound):
        gr.SubmodulePresentation(R1, [[R1.poly("x")], [R1.poly("y")]], 1).minimal_generators()
    # I * F of R1 in rank two has four elements, past the bound on its own;
    # the column x * e_0 adds no S-vector that survives reduction.
    monkeypatch.setattr(gr, "MAX_BASIS_SIZE", 3)
    with pytest.raises(gr.ResourceBound):
        gr.syzygy_generators([[R1.poly("x"), R1.zero]], R1)


def test_normal_form_ambient_mismatch(R1):
    S = make_ring(R1.p, list(R1.variables), [])
    gb = groebner_basis([[S.poly("x")]], S)
    with pytest.raises(AmbientMismatch):
        gb.normal_form([S.poly("x"), S.poly("y")])


def test_row_degrees_of_another_count_raise_ambient_mismatch(R1):
    # One twist per row: a count other than the ambient rank is rejected
    # before any column is read, for columns and vectors alike.
    column = [R1.poly("x"), R1.poly("y")]
    vec = groebner._normalize_columns([column], R1, 2, None)[0][0]
    assert groebner._normalize_columns([column], R1, 2, (1, 1))[2] == (1, 1)
    for degrees in ((0,), (0, 1, 2)):
        for columns in ([column], [vec], []):
            with pytest.raises(AmbientMismatch):
                groebner._normalize_columns(columns, R1, 2, degrees)
        with pytest.raises(AmbientMismatch):
            cokernel_presentation(R1, [column], 2, degrees)


def test_syzygy_examples(R1):
    S = make_ring(5, ["x", "y"], [])
    syz = syzygy_generators([[S.poly("x")], [S.poly("y")]], S, ambient_rank=1)
    koszul = SubmodulePresentation(S, [[S.poly("y"), S.poly("-x")]], 2)
    assert SubmodulePresentation(S, syz, 2).same_span(koszul)

    syzR = syzygy_generators([[R1.poly("x")], [R1.poly("y")]], R1, ambient_rank=1)
    expected = SubmodulePresentation(
        R1,
        [[R1.poly("x"), R1.zero], [R1.poly("y"), R1.zero], [R1.zero, R1.poly("x")]],
        2,
    )
    assert SubmodulePresentation(R1, syzR, 2).same_span(expected)

    assert syzygy_generators([[S.one]], S, ambient_rank=1) == []


def _nullspace(rows, p):
    """Basis of the right nullspace of an F_p matrix given as rows."""
    if not rows:
        return []
    cols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-mat[i][fc]) % p
        basis.append(vec)
    return basis


def _degreewise_kernel_columns(ring, cols, ambient_rank, row_degrees, t):
    """Kernel elements of the matrix in internal degree t, via linear algebra."""
    col_degs = []
    from frobetti.groebner import column_degree

    for col in cols:
        col_degs.append(column_degree(col, row_degrees) or 0)
    src = _degree_basis(ring, len(cols), col_degs, t)
    if not src:
        return []
    tgt = _degree_basis(ring, ambient_rank, list(row_degrees), t)
    tgt_index = {b: r for r, b in enumerate(tgt)}
    mat = _degree_matrix(ring, cols, src, tgt_index, len(tgt))
    out = []
    for vec in _nullspace(mat, ring.p):
        column = [ring.zero] * len(cols)
        for coeff, (k, m) in zip(vec, src):
            if coeff:
                column[k] = column[k] + ring.monomial(m, coeff)
        out.append(column)
    return out


def test_syzygy_correctness_and_completeness(R1, R3):
    rng = random.Random(9)
    rings = [R1, R3, make_ring(3, ["x", "y"], ["x^3"])]
    for trial in range(12):
        ring = rings[trial % len(rings)]
        rank = rng.randint(1, 2)
        ncols = rng.randint(1, 3)
        cols = []
        for _ in range(ncols):
            deg = rng.randint(1, 2)
            col = []
            for _ in range(rank):
                poly = ring.zero
                for m in ring.standard_monomials(deg):
                    if rng.random() < 0.4:
                        poly = poly + ring.monomial(m, rng.randint(1, ring.p - 1))
                col.append(poly)
            cols.append(col)
        if all(all(p.is_zero() for p in col) for col in cols):
            continue
        syz = syzygy_generators(cols, ring, ambient_rank=rank)
        # exactness: matrix * syzygy = 0 over the quotient ring
        for s in syz:
            for r in range(rank):
                acc = ring.zero
                for c, col in enumerate(cols):
                    acc = acc + s[c] * col[r]
                assert ring.is_zero_mod(acc)
        # completeness: every degreewise kernel element up to degree 6 lies in the span
        coldegs = [column_degree(c, (0,) * rank) or 0 for c in cols]
        span = SubmodulePresentation(ring, syz, ncols, coldegs) if syz else None
        for t in range(0, 7):
            for column in _degreewise_kernel_columns(ring, cols, rank, (0,) * rank, t):
                if span is None:
                    assert SubmodulePresentation(ring, [], ncols, coldegs).contains(column)
                else:
                    assert span.contains(column)


def test_ideal_quotient_examples(R1):
    S = make_ring(5, ["x", "y"], [])
    J = ideal(S, ["x^2", "x*y"])
    assert J.colon(S.poly("x")).same_span(ideal(S, ["x", "y"]))
    assert J.colon(S.one).same_span(J)
    with pytest.raises(ZeroDivisorQuery):
        J.colon(S.zero)
    # The empty list generates the zero ideal too.
    with pytest.raises(ZeroDivisorQuery):
        J.colon_by_elements([])


def test_saturation_examples(R1, R3):
    zero1 = SubmodulePresentation(R1, [], 1)
    sat = zero1.saturate()
    assert sat.same_span(ideal(R1, ["x"]))
    assert sat.saturate().same_span(sat)

    zero3 = SubmodulePresentation(R3, [], 1)
    assert zero3.saturate().is_zero_submodule()

    S = make_ring(5, ["x", "y"], [])
    unit = ideal(S, ["1"])
    assert unit.saturate().same_span(unit)


def test_membership_lift_examples():
    S = make_ring(5, ["x", "y"], [])
    N = SubmodulePresentation(S, [[S.poly("x^2")], [S.poly("x*y")]], 1)
    c = N.lift([S.poly("x^2")])
    assert c is not None
    acc = S.zero
    for coeff, col in zip(c, N.columns):
        acc = acc + coeff * col[0]
    assert acc == S.poly("x^2")
    assert N.lift([S.poly("y^3")]) is None
    zeros = N.lift([S.zero])
    assert all(p.is_zero() for p in zeros)


def test_kernel_over_quotient_examples(R1, R2):
    ker = syzygy_generators([[R1.poly("x")]], R1, ambient_rank=1)
    assert SubmodulePresentation(R1, ker, 1).same_span(ideal(R1, ["x", "y"]))

    for q in (5, 25):
        kerq = syzygy_generators([[R2.poly("x^%d" % q)]], R2, ambient_rank=1)
        assert SubmodulePresentation(R2, kerq, 1).is_zero_submodule()

    ker2 = syzygy_generators([[R1.poly("x")], [R1.poly("y")]], R1, ambient_rank=1)
    expected = SubmodulePresentation(
        R1,
        [[R1.poly("x"), R1.zero], [R1.poly("y"), R1.zero], [R1.zero, R1.poly("x")]],
        2,
    )
    assert SubmodulePresentation(R1, ker2, 2).same_span(expected)


def test_length_and_dimension_examples(R1, R5):
    S = make_ring(5, ["x", "y"], [])
    assert quotient_module(S, ["x^2", "x*y", "y^3"]).length() == 4
    assert quotient_module(R1, ["x^5", "y^5"]).length() == 6
    assert quotient_module(S, ["x"]).length() is INFINITE

    assert quotient_module(R1, []).dimension() == 1
    assert quotient_module(R5, ["y"]).dimension() == 0
    assert quotient_module(R1, ["1"]).dimension() == -1
    assert quotient_module(R1, ["1"]).length() == 0


def test_length_with_large_pivot_exponents():
    # A pivot that lowers the x-exponent by one per step would recurse about
    # 1200 levels deep here; the median pivot x^1200 leaves two coprime ideals.
    S = make_ring(5, ["x", "y", "z"], [])
    M = quotient_module(S, ["x^1200*y", "x^1500", "y^3", "z^2"])
    assert M.length() == 1200 * 3 * 2 + 300 * 2 == 7800
    assert M.dimension() == 0


def test_length_dimension_consistency(R1):
    rng = random.Random(31)
    rings = [R1, make_ring(3, ["x", "y", "z"], ["x*y", "z^2"])]
    for trial in range(10):
        ring = rings[trial % 2]
        gens = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(ring.n))
            if any(exps):
                gens.append(ring.monomial(exps))
        M = quotient_module(ring, [str(g) for g in gens] or ["x"])
        lam = M.length()
        dim = M.dimension()
        assert (lam is INFINITE) == (dim > 0)
        if lam is not INFINITE:
            total, t = 0, 0
            while True:
                h = M.hilbert_function(t)
                total += h
                if h == 0 and t > 8:
                    break
                t += 1
            assert total == lam


def _subset_scan_dimension(gens, n):
    """dim S/(gens) for monomial gens: the most variables whose span holds no
    generator's support; -1 for the unit ideal."""
    if any(not any(g) for g in gens):
        return -1
    supports = [{i for i, e in enumerate(g) if e} for g in gens]
    return max(
        size
        for size in range(n + 1)
        for t in combinations(range(n), size)
        if not any(s <= set(t) for s in supports)
    )


@st.composite
def _monomial_cokernels(draw):
    """F_5[x0..x(n-1)]/(monomials), n <= 5, and a rank 1-3 cokernel of
    one-entry monomial columns with row degrees in -2..2.  Each position is
    the unit ideal, an ideal of finite colength, or arbitrary monomials (so
    often of positive dimension); all-unit positions give the zero module."""
    n = draw(st.integers(1, 5))
    top = 3 if n <= 3 else 2
    exps = st.tuples(*[st.integers(0, top)] * n)
    bare = make_ring(5, ["x%d" % i for i in range(n)], [])
    ring_gens = draw(st.lists(exps.filter(any), max_size=2))
    ring = make_ring(5, list(bare.variables), [bare.monomial(e) for e in ring_gens])
    rank = draw(st.integers(1, 3))
    degrees = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
    per_pos = []
    columns = []
    for pos in range(rank):
        gens = draw(st.lists(exps, max_size=4))
        kind = draw(st.sampled_from(["unit", "finite", "any"]))
        if kind == "unit":
            gens.append((0,) * n)
        elif kind == "finite":
            gens += [tuple(draw(st.integers(1, top)) if j == i else 0 for j in range(n)) for i in range(n)]
        for e in gens:
            col = [ring.zero] * rank
            col[pos] = ring.monomial(e)
            columns.append(col)
        per_pos.append(ring_gens + gens)
    return ring, ring_gens, cokernel_presentation(ring, columns, rank, degrees), per_pos


@settings(max_examples=80, deadline=None)
@given(_monomial_cokernels())
def test_length_dimension_hilbert_function_against_enumeration(case):
    ring, ring_gens, M, per_pos = case
    n = ring.n
    assert ring.dim == _subset_scan_dimension(ring_gens, n)
    dim = max(_subset_scan_dimension(gens, n) for gens in per_pos)
    assert M.dimension() == dim
    if dim > 0:
        assert M.length() is INFINITE
    else:
        assert M.length() == sum(brute_force_monomial_count(gens, n, 3 * n) for gens in per_pos)
    for d in range(min(M.row_degrees) - 1, max(M.row_degrees) + 6):
        expected = sum(
            brute_force_monomial_count(gens, n, d - r) - brute_force_monomial_count(gens, n, d - r - 1)
            for r, gens in zip(M.row_degrees, per_pos)
        )
        assert M.hilbert_function(d) == expected


def test_vec_round_trip(R1):
    col = [R1.poly("x^2 + y"), R1.poly("3*x*y")]
    assert vec_to_column(column_to_vec(col, R1), 2, R1) == col
    # position-over-term: lower position dominates
    assert vec_key((0, (1, 0))) > vec_key((1, (5, 5)))
    encode = R1._layout.encode
    assert encode(0, (1, 0)) > encode(1, (5, 5))


# -- minimal generators against the per-candidate greedy ------------------------


def _greedy_minimal_generators(pres):
    """The former rule: one Groebner basis per candidate column."""
    ranked = []
    for col in pres.columns:
        vec = [(pos, m) for pos, poly in enumerate(col) for m in poly.terms]
        if not vec:
            continue
        deg = column_degree(col, pres.row_degrees)
        ranked.append((deg, vec_key(max(vec, key=vec_key)), col))
    ranked.sort(key=lambda t: t[1], reverse=True)
    ranked.sort(key=lambda t: t[0])
    kept = []
    for _, _, col in ranked:
        if kept:
            span = SubmodulePresentation(pres.ring, kept, pres.ambient_rank, pres.row_degrees)
            if span.contains(col):
                continue
        elif SubmodulePresentation(pres.ring, [], pres.ambient_rank, pres.row_degrees).contains(col):
            continue
        kept.append(col)
    return kept


def _assert_same_mingens(ring, columns, rank, degrees):
    new = SubmodulePresentation(ring, columns, rank, degrees).minimal_generators()
    old = _greedy_minimal_generators(SubmodulePresentation(ring, columns, rank, degrees))
    assert [[str(e) for e in col] for col in new] == [[str(e) for e in col] for col in old]
    return new


def _resolution_kernels(module, steps):
    """(columns, rank, degrees) of the module and of the kernels of phi_1..phi_steps."""
    res = resolve(module, steps)
    out = [(module.columns, module.ambient_rank, module.row_degrees)]
    for j in range(1, steps + 1):
        ker = syzygy_generators(
            res.matrix(j), res.ring, ambient_rank=res.rank(j - 1), row_degrees=res.degrees(j - 1)
        )
        out.append((ker, res.rank(j), res.degrees(j)))
    return out


@pytest.mark.parametrize("name, steps", [("R1", 6), ("R5", 2)])
def test_minimal_generators_match_greedy_on_resolution_kernels(request, name, steps):
    module = residue_field(request.getfixturevalue(name))
    for columns, rank, degrees in _resolution_kernels(module, steps):
        _assert_same_mingens(module.ring, columns, rank, degrees)


@st.composite
def _column_sets(draw, ranks=(2, 1), twists=(0, 1)):
    """A quotient ring by binomials and trinomials, and homogeneous columns
    with zero columns, duplicates and columns in I * ambient mixed in.  Row
    degrees are drawn from the range ``twists``."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 3))
    variables = "xyz"[:n]

    def form(degree, ring, max_terms=3):
        return random_form(draw, ring, degree, max_terms)

    bare = make_ring(p, list(variables), [])
    quadrics = [form(2, bare) for _ in range(draw(st.integers(1, 2)))]
    ring = make_ring(p, list(variables), quadrics)
    rank = draw(st.sampled_from(ranks))
    degrees = tuple(draw(st.lists(st.integers(*twists), min_size=rank, max_size=rank)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        d = draw(st.integers(1, 3))
        lead = draw(st.integers(0, rank - 1))
        col = [
            form(d - degrees[k], ring) if k == lead or draw(st.booleans()) else ring.zero
            for k in range(rank)
        ]
        columns.append(col)
    gens = list(ring.ideal_groebner)
    kinds = ["zero", "duplicate", "multiple", "times_form", "in_IF", "plus_IF"]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        base = columns[draw(st.integers(0, len(columns) - 1))]
        if kind == "zero":
            columns.append([ring.zero] * rank)
        elif kind == "duplicate":
            columns.append(list(base))
        elif kind == "multiple":
            columns.append([e * draw(st.integers(1, p - 1)) for e in base])
        elif kind == "times_form":
            f = form(1, ring)
            columns.append([e * f for e in base])
        else:
            d = column_degree(base, degrees) or 2
            k = draw(st.integers(0, rank - 1))
            g = draw(st.sampled_from(gens))
            extra = [ring.zero] * rank
            extra[k] = g * form(d - degrees[k] - g.homogeneous_degree(), ring, 1)
            if extra[k].is_zero():
                extra[k] = g
            if kind == "plus_IF" and column_degree(extra, degrees) == column_degree(base, degrees):
                extra = [a + b for a, b in zip(base, extra)]
            columns.append(extra)
    order = draw(st.permutations(range(len(columns))))
    return ring, [columns[i] for i in order], rank, degrees


def _rank_two_case(p, variables, ideal_gens, columns):
    """(ring, columns, 2, (0, 0)) of columns written "f g, f' g', ..."."""
    ring = make_ring(p, list(variables), ideal_gens)
    cols = [[ring.poly(e) for e in col.split()] for col in columns.split(", ")]
    return ring, cols, 2, (0, 0)


# Degree 1 keeps (y, x) and (x, 0), whose S-vector is (0, x^2).  In degree
# 2, (xy, x^2) = x (y, x) leaves (0, x^2) against the basis at hand, so the
# engine runs, adds that S-vector, and (xy, x^2) reduces to zero; (0, x^2)
# then reduces to zero at hand, and (0, xy) and (0, y^2) are kept.  In degree
# 3 every candidate reduces to zero at hand.  Over F_7[x,y,z]/(xz) the same
# run comes, and degree 2 keeps (z^2, yz) and (0, z^2) around (0, x^2) and
# (0, xz), which lies in I * ambient.
MIXED_DEGREE_CASES = [
    _rank_two_case(5, "xy", [], "y x, x 0, 0 y^2, x*y x^2, 0 x^2, x^3 y^3, 0 x*y, x*y^2 0"),
    _rank_two_case(7, "xyz", ["x*z"], "y x, x 0, 0 z^2, z^2 y*z, x*y x^2, 0 x*z, 0 x^2, y*z^2 x*y*z, z^3 0"),
]


@settings(max_examples=50, deadline=None)
@given(_column_sets())
@example(MIXED_DEGREE_CASES[0])
@example(MIXED_DEGREE_CASES[1])
def test_minimal_generators_match_greedy_on_random_columns(case):
    ring, columns, rank, degrees = case
    _assert_same_mingens(ring, columns, rank, degrees)


def test_minimal_generators_run_one_engine_per_call(monkeypatch, R5):
    engines, runs = [], []
    real_run = groebner._run_engine

    class CountingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            engines.append(1)
            super().__init__(*args, **kwargs)

    def counting_run(*args, **kwargs):
        runs.append(1)
        return real_run(*args, **kwargs)

    cases = [(R5,) + kernel for kernel in _resolution_kernels(residue_field(R5), 2)]
    # The kernel of phi_1^[25] over the F_5 cubic has many candidate degrees
    # and keeps columns in few of them.
    cubic = make_ring(5, list("xyz"), ["x^3 + y^3 + z^3"])
    twisted = twist_complex(resolve(residue_field(cubic), 2), 2)
    kernel = syzygy_generators(
        twisted.matrix(1), cubic, ambient_rank=twisted.rank(0), row_degrees=twisted.degrees(0)
    )
    cases.append((cubic, kernel, twisted.rank(1), twisted.degrees(1)))
    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    monkeypatch.setattr(groebner, "_run_engine", counting_run)
    for ring, columns, rank, degrees in cases:
        pres = SubmodulePresentation(ring, columns, rank, degrees)
        engines.clear()
        runs.clear()
        pres.minimal_generators()
        # One engine, run degree by degree, and no Groebner basis built.
        assert (len(engines), len(runs)) == (1, 0)


def _mingens_cases(R5):
    """R5's residue field and the kernels of phi_1 and phi_2, each kept in
    one degree, and the kernel of phi_1^[25] over the F_5 cubic, which has
    many candidate degrees and keeps columns in few of them."""
    cases = [(R5,) + kernel for kernel in _resolution_kernels(residue_field(R5), 2)]
    cubic = make_ring(5, list("xyz"), ["x^3 + y^3 + z^3"])
    twisted = twist_complex(resolve(residue_field(cubic), 2), 2)
    kernel = syzygy_generators(
        twisted.matrix(1), cubic, ambient_rank=twisted.rank(0), row_degrees=twisted.degrees(0)
    )
    cases.append((cubic, kernel, twisted.rank(1), twisted.degrees(1)))
    return cases


def test_last_degree_candidates_are_never_paired(monkeypatch, R5):
    """Each candidate is reduced against the basis at hand first, and
    ``run(d)`` comes only right after a degree-d candidate leaves a nonzero
    remainder there, once per degree; so a degree whose candidates all
    reduce to zero against the basis at hand processes no pair.  An element
    is paired only when a run starts, so the candidates kept after the last
    run (those of the last candidate degree among them) wait in
    ``unpaired``, with I * ambient as partners, and no ``_update`` call
    names them."""
    engines, updated, events, running = [], [], [], []
    real_spair, real_reduce = groebner._spair, groebner._reduce_vec

    class RecordingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

        def _update(self, new, partners, queued):
            updated.append(new)
            return super()._update(new, partners, queued)

        def run(self, degree=INFINITE):
            running.append(["run", degree, 0])
            super().run(degree)
            events.append(running.pop() + [len(self.basis)])

    def recording_spair(*args):
        running[-1][2] += 1
        return real_spair(*args)

    def recording_reduce(vec, *args):
        # The division loop empties the vector it reduces.
        degree = degree_of(vec)
        rem = real_reduce(vec, *args)
        if not running:
            events.append(["reduce", degree, bool(rem)])
        return rem

    cases = _mingens_cases(R5)
    monkeypatch.setattr(groebner, "_Engine", RecordingEngine)
    monkeypatch.setattr(groebner, "_spair", recording_spair)
    monkeypatch.setattr(groebner, "_reduce_vec", recording_reduce)
    seen = []
    for ring, columns, rank, degrees in cases:
        layout = ring._layout

        def degree_of(vec):
            lead = max(vec)
            return layout.degree(lead) + degrees[-(lead >> layout.top)]

        vecs = groebner._normalize_columns(columns, ring, rank, degrees)[0]
        engines.clear()
        updated.clear()
        events.clear()
        kept = groebner._minimal_generator_indices(vecs, ring, rank, degrees)
        (engine,) = engines
        runs = [k for k, event in enumerate(events) if event[0] == "run"]
        for k in runs:
            assert events[k - 1] == ["reduce", events[k][1], True]
        run_degrees = [events[k][1] for k in runs]
        assert run_degrees == sorted(set(run_degrees))
        last_run = events[runs[-1]][3]
        assert [new for new, _ in engine.unpaired] == list(range(last_run, len(engine.basis)))
        assert max(updated, default=-1) < last_run
        formed = sum(events[k][2] for k in runs)
        seen.append((run_degrees, formed, len(kept), len(engine.basis) - last_run))
    # R5 keeps every candidate in the degree of its first run, and each
    # higher-degree candidate reduces to zero against the basis at hand.
    # Running before every candidate degree would also run ker phi_2 at
    # degree 4 (410 S-vectors) and the cubic's kernel at all 21 of its
    # candidate degrees (the same 22 S-vectors).
    assert seen[:3] == [([1], 0, 5, 5), ([2], 0, 22, 22), ([3], 0, 96, 96)]
    assert seen[3] == ([38, 39, 40, 43, 45, 47, 48, 49, 50], 22, 4, 0)


def _true_degree(engine, degrees, i, j):
    decode = engine.layout.decode
    (pos, a), (_, b) = decode(engine.leads[i]), decode(engine.leads[j])
    return sum(max(x, y) for x, y in zip(a, b)) + degrees[pos]


@settings(max_examples=60, deadline=None)
@given(_column_sets(twists=(-1, 2)), st.data())
def test_truncated_run_is_a_basis_up_to_its_degree(case, data):
    """After ``run(d)`` every pair left has degree > d, and a column of degree
    at most d reduces to zero iff it lies in the span: R-combinations of the
    columns and random columns, against the full basis of the span."""
    ring, columns, rank, degrees = case
    engine = groebner._Engine(ring, rank, degrees, [column_to_vec(col, ring) for col in columns])
    col_degs = [column_degree(col, degrees) for col in columns]
    top = max((c for c in col_degs if c is not None), default=max(degrees))
    d = data.draw(st.integers(min(degrees), top + 2))
    engine.run(d)
    assert all(_true_degree(engine, degrees, i, j) > d for _, i, j, _ in engine.pairs)
    full = groebner_basis(columns, ring, ambient_rank=rank, row_degrees=degrees)
    for t in range(min(degrees), d + 1):
        combination = [ring.zero] * rank
        for col, c in zip(columns, col_degs):
            if c is not None and c <= t and data.draw(st.booleans()):
                f = random_form(data.draw, ring, t - c)
                combination = [a + f * b for a, b in zip(combination, col)]
        other = [random_form(data.draw, ring, t - degrees[k]) for k in range(rank)]
        for target in (combination, other):
            rem = _reduce_vec(column_to_vec(target, ring), engine.by_pos, engine.basis, ring)
            assert (not rem) == full.contains(target)


def _ideal_columns(ring, rank):
    """I * ambient as explicit columns: g * e_k for each g and position k."""
    return [
        [g if k == pos else ring.zero for k in range(rank)]
        for pos in range(rank)
        for g in ring.ideal_groebner
    ]


@settings(max_examples=50, deadline=None)
@given(_column_sets(twists=(-1, 2)))
def test_seeded_ideal_queues_no_pair_of_two_ideal_elements(case):
    """The engine queues no pair of two elements of I * ambient, which its
    constructor appends after the columns, and it still ends with the
    reduced basis of a run over the columns plus I * ambient as plain
    columns, over the same variables with no ideal, where every pair of
    them goes through the pair update."""
    ring, columns, rank, degrees = case
    vecs = [column_to_vec(col, ring) for col in columns]
    engine = groebner._Engine(ring, rank, degrees, vecs)
    first = sum(map(bool, vecs))
    ideal_elements = range(first, len(engine.basis))
    assert len(ideal_elements) == rank * len(ring.ideal_groebner)
    # A run below every degree pairs the appended elements and pops nothing,
    # so the heap holds every pair ever queued, those the update deleted
    # again included.
    engine.run(-INFINITE)
    queued = {(i, j) for _, i, j, _ in engine.pairs}
    assert not any(i in ideal_elements and j in ideal_elements for i, j in queued)
    engine.run()
    vecs, leads, _ = engine.reduced()
    bare = make_ring(ring.p, list(ring.variables), [])
    explicit = groebner_basis(
        columns + _ideal_columns(ring, rank), bare, ambient_rank=rank, row_degrees=degrees
    )
    assert (leads, vecs) == (explicit.leads, explicit.vecs)


# -- Hilbert numerators from minimal leads ---------------------------------------


def _leads_per_position(pres):
    """The leads of the reduced basis, decoded to exponent tuples, per position."""
    per_pos = [[] for _ in range(pres.ambient_rank)]
    for lead in pres.gb().leads:
        pos, e = pres.ring._layout.decode(lead)
        per_pos[pos].append(e)
    return per_pos


@settings(max_examples=60, deadline=None)
@given(_column_sets(twists=(-1, 2)))
def test_numerator_from_minimal_leads_matches_the_reduced_basis(case):
    """A fresh presentation's numerator (minimal leads of one engine run)
    equals the one read off the built reduced basis and the former tuple
    route; the dict handed out is a copy; length, dimension and the Hilbert
    function, which read it, count the standard monomials of the basis's
    leads."""
    ring, columns, rank, degrees = case
    n = ring.n
    fresh = cokernel_presentation(ring, columns, rank, degrees)
    built = cokernel_presentation(ring, columns, rank, degrees)
    per_pos = _leads_per_position(built)
    # The former route: decoded leads through the tuple recursion.
    reference = {}
    for shift, gens in zip(degrees, per_pos):
        for d, c in reference_numerator(gens, n).items():
            reference[d + shift] = reference.get(d + shift, 0) + c
    reference = {d: c for d, c in reference.items() if c}
    num = fresh.numerator()
    assert num == built.numerator() == reference
    num[10**6] = 1
    num.clear()
    assert fresh.numerator() == reference
    assert fresh.length() == numerator_length(reference, n)
    assert fresh.dimension() == numerator_dimension(reference, n)
    for d in range(min(degrees) - 1, max(degrees) + 6):
        expected = sum(
            brute_force_monomial_count(gens, n, d - r) - brute_force_monomial_count(gens, n, d - r - 1)
            for r, gens in zip(degrees, per_pos)
        )
        assert fresh.hilbert_function(d) == expected


def test_fresh_numerator_runs_one_engine_and_no_tail_reduction(monkeypatch, R1, R5):
    """A numerator needs only minimal leads: the length, dimension and
    Hilbert function of a fresh presentation take one engine run and no
    reduced basis."""
    made, reduced = [], []

    class CountingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

        def reduced(self):
            reduced.append(self)
            return super().reduced()

    cubic = make_ring(5, list("xyz"), ["x^3 + y^3 + z^3"])
    twisted = twist_complex(resolve(residue_field(cubic), 2), 2)
    cases = [
        quotient_module(R5, ["y", "x + z"]),
        residue_field(R1),
        cokernel_presentation(cubic, twisted.matrix(1), twisted.rank(0), twisted.degrees(0)),
    ]
    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    for pres in cases:
        made.clear()
        reduced.clear()
        pres.length()
        pres.dimension()
        pres.hilbert_function(3)
        assert (len(made), len(reduced)) == (1, 0)


# -- lifts over a quotient ring ----------------------------------------------------


@st.composite
def _lift_cases(draw):
    """Rank-2 columns over a quotient ring, with two targets of one degree:
    an R-combination of the columns and a random column."""
    ring, columns, rank, degrees = draw(_column_sets(ranks=(2,)))
    col_degs = [column_degree(col, degrees) for col in columns]
    degree = max(d for d in col_degs if d is not None) + draw(st.integers(0, 1))
    combination = [ring.zero] * rank
    for col, d in zip(columns, col_degs):
        if d is not None and draw(st.booleans()):
            f = random_form(draw, ring, degree - d)
            combination = [a + f * b for a, b in zip(combination, col)]
    other = [random_form(draw, ring, degree - degrees[k]) for k in range(rank)]
    return ring, columns, degrees, degree, combination, other


def _in_span_oracle(ring, columns, degrees, t, target):
    """Whether a degree-t column lies in the R-span, by F_p linear algebra
    on the degree-t slices."""
    col_degs = [column_degree(col, degrees) or 0 for col in columns]
    src = _degree_basis(ring, len(columns), col_degs, t)
    tgt = _degree_basis(ring, len(degrees), list(degrees), t)
    index = {b: r for r, b in enumerate(tgt)}
    rows = _degree_matrix(ring, columns, src, index, len(tgt))
    extra = [0] * len(tgt)
    for k, entry in enumerate(target):
        for m, c in ring.nf(entry).terms.items():
            extra[index[(k, m)]] = c
    widened = [row + [c] for row, c in zip(rows, extra)]
    return _rank_mod_p(widened, ring.p) == _rank_mod_p(rows, ring.p)


@settings(max_examples=60, deadline=None)
@given(_lift_cases())
def test_lift_over_quotient_ring_rank_two(case):
    ring, columns, degrees, t, combination, other = case
    N = SubmodulePresentation(ring, columns, 2, degrees)
    assert _in_span_oracle(ring, columns, degrees, t, combination)
    for target in (combination, other):
        coeffs = N.lift(target)
        if not _in_span_oracle(ring, columns, degrees, t, target):
            assert coeffs is None
            continue
        assert coeffs is not None and len(coeffs) == len(columns)
        for k in range(2):
            image = ring.zero
            for c, col in zip(coeffs, columns):
                image = image + c * col[k]
            assert ring.is_zero_mod(image - target[k])


# -- saturation against the accumulating loop, and canonical reduced bases ------


def _accumulating_saturate(pres):
    """The former loop: each round's colon result keeps every column so far."""
    current = pres
    while True:
        step = current.colon_by_elements(pres.ring.gens())
        if step.same_span(current):
            return current
        current = step


@st.composite
def _quadric_ideals(draw):
    """1 to 3 binomial or trinomial quadrics of F_5[x,y,z], as strings."""
    bare = make_ring(5, list("xyz"), [])
    monos = monomials_of_degree(3, 2)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=3, unique=True))
        out.append(str(Polynomial(bare, {m: draw(st.integers(1, 4)) for m in chosen})))
    return out


@settings(max_examples=25, deadline=None)
@given(st.tuples(_quadric_ideals(), st.just([]), st.sampled_from([1, 2])))
@example((["x^2 + y*z", "y^2 + x*z", "z^2 + 2*x*y"], [], 1))  # dimension 0
@example(
    (["y^2 + 4*y*z + 2*z^2", "4*x*y + y*z + z^2", "x^2 + 2*x*y + z^2"], [["4*x"], ["3*x + y"]], 1)
)
@example((["x^2", "x*y - x*z", "y*z"], [], 1))  # dimension 1, H^0 = (x)
@example((["2*x*y + x*z + 2*z^2", "2*y^2 + 3*z^2"], [["x*y + 4*y^2"]], 1))
@example((["x^2 + x*y", "x*y + x*z", "x*z + 2*x^2"], [], 1))  # x * m, dimension 2
@example((["x^2", "x*y - x*z", "y*z"], [["y", "z"]], 2))  # a rank-2 submodule
def test_saturate_matches_accumulating_reference(case):
    """Random zero submodules of rank 1 or 2 (H^0 and two copies of it) and
    the examples' submodules.  Over an Artinian ring m^k = 0, so every
    submodule saturates to the ambient module; the reference, whose colon
    problems grow round by round, is kept to positive dimension."""
    gens, columns, rank = case
    ring = make_ring(5, list("xyz"), gens)
    pres = SubmodulePresentation(ring, [[ring.poly(e) for e in col] for col in columns], rank)
    sat = pres.saturate()
    if sat is not pres:
        # The reduced basis of the saturation without its elements of I * ambient.
        basis = [col for col in sat.gb().columns if not all(map(ring.is_zero_mod, col))]
        assert [list(map(str, col)) for col in sat.columns] == [
            list(map(str, col)) for col in basis
        ]
    if ring.dim == 0:
        identity = [[ring.one if k == j else ring.zero for k in range(rank)] for j in range(rank)]
        assert sat.same_span(SubmodulePresentation(ring, identity, rank))
    else:
        assert sat.same_span(_accumulating_saturate(pres))
    assert sat.saturate().same_span(sat)


@st.composite
def _colon_problems(draw):
    """A ring from ``_quadric_ideals``; 0 to 3 columns of rank 1 or 2 with
    linear or quadric entries; and the elements to take the colon by: the
    variables, a random linear form, a random quadric, 1, or an element of
    I.  Forms are strings, so ``@example`` can give a case."""
    gens = draw(_quadric_ideals())
    bare = make_ring(5, list("xyz"), [])
    rank = draw(st.sampled_from([1, 2]))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(1, 2))
        columns.append([str(random_form(draw, bare, d)) if draw(st.booleans()) else "0" for _ in range(rank)])
    kind = draw(st.sampled_from(["variables", "linear", "quadric", "one", "ideal"]))
    if kind == "variables":
        elements = ["x", "y", "z"]
    elif kind == "linear":
        elements = [str(random_form(draw, bare, 1))]
    elif kind == "quadric":
        elements = [str(random_form(draw, bare, 2))]
    elif kind == "one":
        elements = ["1"]
    else:
        elements = [draw(st.sampled_from(gens))]
    return gens, columns, rank, elements


class _NoEngine(groebner._Engine):
    def __init__(self, *args, **kwargs):
        raise AssertionError("an engine was built")


@settings(max_examples=40, deadline=None)
@given(_colon_problems())
@example((["x^2", "x*y - x*z", "y*z"], [], 1, ["x", "y", "z"]))  # H^0 = (x)
@example((["x^2", "x*y - x*z", "y*z"], [["y", "z"]], 2, ["x", "y", "z"]))
@example((["x^2", "x*y - x*z", "y*z"], [["x*y"]], 1, ["x*y - x*z"]))  # by an element of I
def test_colon_basis_matches_the_syzygy_reference(case):
    """The elimination colon is the reduced basis of the syzygy route's
    heads plus N, and a colon presentation carries it."""
    gens, columns, rank, elements = case
    ring = make_ring(5, list("xyz"), gens)
    pres = SubmodulePresentation(ring, [[ring.poly(e) for e in col] for col in columns], rank)
    fs = groebner._normalize_columns([ring.poly(f) for f in elements], ring, 1, None)[0]
    args = (ring, rank, pres.row_degrees)
    colon = groebner._colon_basis(pres.vecs, fs, *args)
    heads = reference_colon_heads(pres.vecs, fs, *args)
    expected = groebner._basis_of_vecs(heads + pres.vecs, *args)
    assert (colon.vecs, colon.leads) == (expected.vecs, expected.leads)
    result = pres.colon_by_elements(elements)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_Engine", _NoEngine)
        gb = result.gb()
    assert (gb.vecs, gb.leads) == (colon.vecs, colon.leads)


def test_saturate_carries_reduced_basis():
    ring = make_ring(5, list("xyz"), ["x^2", "x*y - x*z", "y*z"])
    sat = SubmodulePresentation(ring, [], 1).saturate()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_Engine", _NoEngine)
        sat.gb()
    assert sat.same_span(ideal(ring, ["x"]))
    assert not any(all(map(ring.is_zero_mod, col)) for col in sat.columns)
    assert len(sat.columns) <= len(sat.gb())


def test_saturation_runs_the_engine_once_per_round(monkeypatch, R1, R5):
    """k colon rounds take k + 1 engine runs: one basis of the input and one
    elimination run per colon.  The zero submodule saturates in three rounds
    over R5 and in two over R1.  H^0_m(R) adds one minimal-generator engine
    and reads the saturation's basis, so its ``gb()`` runs none."""
    made = []

    class CountingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    for ring, runs, h0_runs in ((R5, 4, 5), (R1, 3, 4)):
        made.clear()
        SubmodulePresentation(ring, [], 1).saturate()
        assert len(made) == runs
        twin = make_ring(ring.p, list(ring.variables), [str(g) for g in ring.ideal_gens])
        made.clear()
        h0_ring(twin).gb()
        assert len(made) == h0_runs


def _shuffled_and_scaled(draw, columns, p):
    out = []
    for i in draw(st.permutations(range(len(columns)))):
        c = draw(st.integers(1, p - 1))
        out.append([e * c for e in columns[i]])
    return out


def _assert_same_reduced_basis(ring, columns, other, rank, degrees):
    a = groebner_basis(columns, ring, ambient_rank=rank, row_degrees=degrees)
    b = groebner_basis(other, ring, ambient_rank=rank, row_degrees=degrees)
    assert a.leads == b.leads
    assert a.vecs == b.vecs


@settings(max_examples=30, deadline=None)
@given(_quadric_ideals(), st.data())
def test_reduced_basis_ignores_order_and_scaling_of_ideal_generators(gens, data):
    bare = make_ring(5, list("xyz"), [])
    columns = [[bare.poly(g)] for g in gens]
    other = _shuffled_and_scaled(data.draw, columns, 5)
    _assert_same_reduced_basis(bare, columns, other, 1, (0,))


@settings(max_examples=30, deadline=None)
@given(_column_sets(ranks=(2,)), st.data())
def test_reduced_basis_ignores_order_and_scaling_of_columns(case, data):
    ring, columns, rank, degrees = case
    other = _shuffled_and_scaled(data.draw, columns, ring.p)
    _assert_same_reduced_basis(ring, columns, other, rank, degrees)


# -- the division kernel and the pair criteria against the former loops -------


def _reference_axpy(target, vec, c, shift, p):
    """target -= c * x^shift * vec, on vectors keyed by ``(pos, exponents)``."""
    for (pos, e), v in vec.items():
        key = (pos, tuple(x + y for x, y in zip(e, shift)))
        nc = (target.get(key, 0) - c * v) % p
        if nc:
            target[key] = nc
        else:
            target.pop(key, None)


def _reference_reduce_vec(vec, leads, basis, p, rep=None, reps=None):
    """The former division loop, on vectors keyed by ``(pos, exponents)``:
    the largest term found by a full scan at every step, divisibility tested
    exponent by exponent."""
    work = dict(vec)
    rem = {}
    while work:
        t = max(work, key=vec_key)
        c = work[t]
        tpos, te = t
        for i, (lpos, le) in enumerate(leads):
            if lpos == tpos and all(a <= b for a, b in zip(le, te)):
                shift = tuple(b - a for a, b in zip(le, te))
                _reference_axpy(work, basis[i], c, shift, p)
                if rep is not None:
                    _reference_axpy(rep, reps[i], c, shift, p)
                break
        else:
            rem[t] = work.pop(t)
    return rem


def _reference_update(self, new, partners, queued):
    """The Gebauer-Moeller update of ``_Engine._update`` on exponent tuples
    decoded from the engine's lead terms.  The partners must be the earlier
    elements at the new element's position, less its sibling copies of I,
    and the lcm each queued pair carries must be the lcm of its leads'
    tuples."""
    layout = self.layout
    leads = [layout.decode(t) for t in self.leads]
    pos, h = leads[new]
    ideal = self.ideal
    earlier = [k for k in range(new) if leads[k][0] == pos]
    assert [i for _, i in partners] == [k for k in earlier if not (k in ideal and new in ideal)]

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    for (i, j), carried in list(queued.items()):
        m = lcm(leads[i][1], leads[j][1])
        assert layout.decode(carried) == (pos, m)
        if divides(h, m) and all(
            lcm(leads[k][1], h) != m or (k in ideal and new in ideal) for k in (i, j)
        ):
            del queued[(i, j)]
    records = []
    for lead, i in partners:
        assert lead == self.leads[i]
        e = leads[i][1]
        m = lcm(e, h)
        coprime = (
            self.single_pos[i]
            and self.single_pos[new]
            and m == tuple(x + y for x, y in zip(e, h))
        )
        records.append((sum(m), not coprime, i, m))
    kept, fresh = [], []
    for d, not_coprime, i, m in sorted(records):
        if any(divides(k, m) for k in kept):
            continue
        kept.append(m)
        if not_coprime:
            fresh.append((d, i, layout.encode(pos, m)))
    return fresh


def _queue_every_pair(self, new, partners, queued):
    """No criteria: every pair with ``partners`` is queued and reduced."""
    lcm, degree = self.layout.lcm, self.layout.degree
    pairs = [(lcm(a, self.leads[new]), i) for a, i in partners]
    return [(degree(m), i, m) for m, i in pairs]


@st.composite
def _division_cases(draw):
    """Monic divisors in drawn order (not a Groebner basis), each tracked by
    its own index, and vectors to divide: rank 1-2 columns of ``_column_sets``
    with the ring's ideal adjoined per position, or bracket powers
    f^[q], q = p^e up to 49, of the ring's quadrics and of variables, with
    forms of degree up to 2q + 1."""
    ring, columns, rank, degrees = draw(_column_sets())
    if draw(st.booleans()):
        e = draw(st.integers(1, 2))
        q = ring.p**e
        gens = list(ring.ideal_groebner) + [ring.poly(v) for v in ring.variables]
        divisors = [{(0, m): c for m, c in frobenius_power(g, e).terms.items()} for g in gens]
        divisors = draw(st.permutations(divisors))
        targets = []
        for _ in range(3):
            form = random_form(draw, ring, draw(st.integers(q, 2 * q + 1)), 4)
            targets.append({(0, m): c for m, c in form.terms.items()})
    else:
        vecs = [
            {(pos, m): c for pos, poly in enumerate(col) for m, c in poly.terms.items()}
            for col in columns + _ideal_columns(ring, rank)
        ]
        vecs = draw(st.permutations([v for v in vecs if v]))
        cut = draw(st.integers(1, len(vecs)))
        divisors, targets = vecs[:cut], vecs[cut:] or vecs[:1]
    p = ring.p
    basis, leads, reps = [], [], []
    for index, vec in enumerate(divisors):
        lead = max(vec, key=vec_key)
        inv = pow(vec[lead], p - 2, p)
        basis.append({t: c * inv % p for t, c in vec.items()})
        leads.append(lead)
        reps.append({(index, ring._zero_exps): inv})
    return ring, basis, leads, reps, targets


@settings(max_examples=60, deadline=None)
@given(_division_cases())
def test_reduce_vec_takes_the_steps_of_the_reference_loop(case):
    """The kernel on encoded terms against the reference on ``(pos,
    exponents)`` keys: the same remainder and representation, term for term
    and in the same order, after decoding."""
    ring, basis, leads, reps, targets = case
    p, encode = ring.p, ring._layout.encode

    def enc(vec):
        return {encode(*t): c for t, c in vec.items()}

    by_pos = _lead_lists([encode(*t) for t in leads], ring)
    enc_basis, enc_reps = [enc(v) for v in basis], [enc(r) for r in reps]
    for vec in targets:
        start = {(-1, ring._zero_exps): 1}
        rep, ref_rep = enc(start), dict(start)
        rem = _reduce_vec(enc(vec), by_pos, enc_basis, ring, rep, enc_reps)
        ref = _reference_reduce_vec(vec, leads, basis, p, ref_rep, reps)
        assert decoded(ring, rem) == list(ref.items())
        assert decoded(ring, rep) == list(ref_rep.items())


def _bases_and_syzygies(ring, columns, rank, degrees):
    gb = groebner_basis(columns, ring, ambient_rank=rank, row_degrees=degrees)
    syz = syzygy_generators(columns, ring, ambient_rank=rank, row_degrees=degrees)
    return gb.leads, gb.vecs, syz


def _syzygy_basis(ring, columns, degrees, syz):
    """The reduced Groebner basis of the syzygy module ``syz`` of ``columns``,
    whose row degrees are the column degrees (0 for a zero column)."""
    rows = [column_degree(col, degrees) or 0 for col in columns]
    gb = groebner_basis(syz, ring, ambient_rank=len(columns), row_degrees=rows)
    return gb.leads, gb.vecs


@settings(max_examples=40, deadline=None)
@given(_column_sets(), st.integers(0, 2))
def test_pair_criteria_decide_as_the_reference(case, e):
    """Rank 1-2 columns, with every entry raised to a bracket power p^e.
    The update on encoded terms gives the same reduced basis and the same
    syzygies as the update on exponent tuples; a run that queues every pair
    gives the same reduced basis and a syzygy module with the same basis."""
    ring, columns, rank, degrees = case
    q = ring.p**e
    columns = [[frobenius_power(entry, e) for entry in col] for col in columns]
    degrees = tuple(q * d for d in degrees)
    leads, vecs, syz = _bases_and_syzygies(ring, columns, rank, degrees)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner._Engine, "_update", _reference_update)
        ref_leads, ref_vecs, ref_syz = _bases_and_syzygies(ring, columns, rank, degrees)
    assert (leads, vecs) == (ref_leads, ref_vecs)
    assert [[str(x) for x in col] for col in syz] == [[str(x) for x in col] for col in ref_syz]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner._Engine, "_update", _queue_every_pair)
        all_leads, all_vecs, all_syz = _bases_and_syzygies(ring, columns, rank, degrees)
    assert (leads, vecs) == (all_leads, all_vecs)
    assert _syzygy_basis(ring, columns, degrees, syz) == _syzygy_basis(
        ring, columns, degrees, all_syz
    )


_UPDATE_RINGS = {n: make_ring(2, ["x%d" % k for k in range(n)], []) for n in range(1, 6)}


@st.composite
def _update_cases(draw):
    """An engine state over 1-5 variables for one update: leads at up to
    three positions, exponents up to 2^63 - 1 (small ones too, so that
    leads divide and pairs are coprime), mixed ``single_pos`` flags, a
    range ``ideal`` of copies of I, the new element last, its
    partners the earlier elements at its position, and some of their pairs
    queued with the lcm of their leads."""
    n = draw(st.integers(1, 5))
    engine = groebner._Engine(_UPDATE_RINGS[n], 3, (0, 0, 0))
    layout = engine.layout
    exps = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1), st.sampled_from([2**62, 2**63 - 1]))
    size = draw(st.integers(1, 12))
    positions = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    engine.leads = [layout.encode(pos, draw(st.tuples(*[exps] * n))) for pos in positions]
    engine.single_pos = draw(st.lists(st.booleans(), min_size=size + 1, max_size=size + 1))
    start = draw(st.integers(0, size + 1))
    engine.ideal = range(start, draw(st.integers(start, size + 1)))
    pos = draw(st.integers(0, 2))
    engine.leads.append(layout.encode(pos, draw(st.tuples(*[exps] * n))))
    same = [i for i in range(size) if positions[i] == pos]
    partners = [(engine.leads[i], i) for i in same]
    pairs = [(i, j) for k, i in enumerate(same) for j in same[k + 1 :]]
    queued = {
        (i, j): layout.lcm(engine.leads[i], engine.leads[j])
        for i, j in pairs
        if draw(st.booleans())
    }
    return engine, size, partners, queued


@settings(max_examples=300, deadline=None)
@given(_update_cases())
def test_update_matches_the_reference_update(case):
    """``_Engine._update`` on exponent words and deltas against
    ``reference_update`` on encoded lcms: the same fresh pairs and the same
    queued pairs left; each fresh lcm is the encoding of the exponentwise
    maximum, degree field included.  The two sort the partners in different
    orders that both put a proper divisor first (words lexicographically,
    encoded lcms by degree first), so the fresh pairs may come in another
    order; the heap pops them by degree and index alike."""
    engine, new, partners, queued = case
    layout = engine.layout
    left = dict(queued)
    fresh = engine._update(new, partners, left)
    ref_left = dict(queued)
    assert sorted(fresh) == sorted(reference_update(engine, new, partners, ref_left))
    assert left == ref_left
    pos, h = layout.decode(engine.leads[new])
    for degree, i, m in fresh:
        e = tuple(map(max, layout.exps(engine.leads[i]), h))
        assert m == layout.encode(pos, e) and degree == sum(e)


def test_s_vector_past_the_packed_width_raises_overflow():
    """(x*y + y^2, y^M) with M = 2^63 - 1: their S-vector y^(M-1) * (x*y +
    y^2) - x * y^M holds y^(M+1), past the 63-bit field of a packed
    exponent.  Forming it raises ``Overflow``, whichever element comes
    first, so the term is caught both among the terms the S-vector copies
    and among those it subtracts."""
    ring = make_ring(5, ["x", "y"], [])
    layout = ring._layout
    wide = 2**63 - 1
    f, g = ring.poly("x*y + y^2"), ring.monomial((0, wide))
    for columns in ([[f], [g]], [[g], [f]]):
        with pytest.raises(Overflow) as err:
            groebner_basis(columns, ring)
        assert "exponent %d does not fit" % 2**63 in str(err.value)
    vecs = [column_to_vec([f], ring), column_to_vec([g], ring)]
    leads = [max(v) for v in vecs]
    lcm = layout.lcm(*leads)
    for i, j in ((0, 1), (1, 0)):
        with pytest.raises(Overflow):
            groebner._spair(leads, vecs, i, j, lcm, ring)


def test_pair_update_queues_few_pairs_at_a_high_frobenius_level(monkeypatch):
    """hk of the F_7 cubic at e = 3 builds a basis of hundreds of elements,
    almost all minimal.  Queuing every same-position pair takes 9,876 pairs
    and reduces 277 S-vectors; the update queues 411 pairs and reduces 275.
    The S-vectors reduced are the ``_reduce_vec`` calls made inside
    ``_Engine.run``; calls outside it, such as the tests of minimal-generator
    candidates, reduce no S-vector.  Both counts are exact, so a ``run``
    that reduced through anything but ``groebner._reduce_vec`` fails here."""
    counts, reduced, running = [], [], []
    real_reduce = groebner._reduce_vec

    class CountingEngine(groebner._Engine):
        def _update(self, new, partners, queued):
            fresh = super()._update(new, partners, queued)
            counts.append(len(fresh))
            return fresh

        def run(self, degree=groebner.INFINITE):
            running.append(1)
            try:
                super().run(degree)
            finally:
                running.pop()

    def counting_reduce(*args, **kwargs):
        if running:
            reduced.append(1)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    monkeypatch.setattr(groebner, "_reduce_vec", counting_reduce)
    cubic = make_ring(7, list("xyz"), ["x^3 + y^3 + z^3"])
    assert hk_sequence(cubic, ["x", "y", "z"], [3]).raw_values() == [264709]
    assert sum(counts) == 411
    assert len(reduced) == 275


@pytest.mark.parametrize("p, form, e", [(3, "x^2 + y^2 + z^2", 4), (5, "x^3 + y^3 + z^3", 3)])
def test_hk_engines_match_the_reference_kernels(p, form, e):
    """hk at a high Frobenius level, with its lead lists past the cutover:
    the engines pop the same pairs and store the same basis, leads and
    representations as engines on the scanning division loop, the scanning
    first divisor and the update on encoded lcms."""

    def compute():
        ring = make_ring(p, list("xyz"), [form])
        return hk_sequence(ring, list("xyz"), [e]).raw_values()

    answer, calls, engines = engine_trace(compute)
    assert max(longest for *_, longest in engines) >= LEAD_INDEX_LENGTH
    with pytest.MonkeyPatch.context() as patch:
        use_reference_kernels(patch)
        assert engine_trace(compute) == (answer, calls, engines)


def test_every_lead_list_carries_the_divisor_index(monkeypatch, R1):
    """The lead lists of engines, of reduced bases, of minimal leads and of
    the ring's basis of I are ``LeadList``s, so a long one answers from its
    index rather than by a scan."""
    lists = []

    class RecordingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            lists.append(self.by_pos)

        def minimal_leads(self, first_pos=0):
            kept, by_pos = super().minimal_leads(first_pos)
            lists.append(by_pos)
            return kept, by_pos

    class RecordingBasis(groebner.GroebnerBasis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            lists.append(self.by_pos)

    monkeypatch.setattr(groebner, "_Engine", RecordingEngine)
    monkeypatch.setattr(groebner, "GroebnerBasis", RecordingBasis)
    cone = make_ring(3, list("xyz"), ["x^2 + y^2 + z^2"])
    hk_sequence(cone, list("xyz"), [4])
    assert decide_beta_vanishing(residue_field(R1), 1) is False
    SubmodulePresentation(R1, [[R1.poly("y^2")], [R1.poly("x + y")]]).saturate()
    lead_lists = [lead_list for by_pos in lists for lead_list in by_pos.values()]
    assert {type(lead_list) for lead_list in lead_lists} == {LeadList}
    assert max(map(len, lead_lists)) >= LEAD_INDEX_LENGTH
    for ring in (cone, R1, h0_ring(R1).ring):
        assert type(ring._gb_leads) is LeadList


def test_syzygy_generators_leave_out_columns_that_are_zero_over_the_ring():
    """The kernel of (x^25, y^25, z^25) over the F_5 cubic: 23 of the 65
    syzygies of the Schreyer pass have every entry in I; the others are
    returned, and each is a syzygy over R."""
    ring = make_ring(5, list("xyz"), ["x^3 + y^3 + z^3"])
    cols = [[ring.poly(v + "^25")] for v in "xyz"]
    vecs = [column_to_vec(col, ring) for col in cols]
    assert len(groebner._syzygy_vecs(vecs, ring, 1, (0,))) == 65
    syz = syzygy_generators(cols, ring, ambient_rank=1)
    assert len(syz) == 42
    for col in syz:
        assert not all(ring.is_zero_mod(entry) for entry in col)
        image = sum((c * g[0] for c, g in zip(col, cols)), ring.zero)
        assert ring.is_zero_mod(image)


@settings(max_examples=40, deadline=None)
@given(_column_sets(ranks=(1, 2, 3)))
def test_schreyer_pass_walks_the_same_position_pairs(case):
    """The Schreyer pass of ``_syzygy_vecs`` forms S-vectors for exactly the
    pairs i < j of the reduced basis whose leads share a position, in the
    order of all index pairs, each with the lcm of its leads: first its
    representation, then its basis vectors.  Every ``_spair`` call outside
    ``_Engine.run`` belongs to the pass."""
    ring, columns, rank, degrees = case
    vecs = groebner._normalize_columns(columns, ring, rank, degrees)[0]
    calls, running = [], []
    real_spair = groebner._spair

    class RunningEngine(groebner._Engine):
        def run(self, degree=INFINITE):
            running.append(self)
            super().run(degree)
            running.pop()

    def recording_spair(leads, vecs, i, j, lcm, ring):
        if not running:
            calls.append((i, j, lcm))
        return real_spair(leads, vecs, i, j, lcm, ring)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_Engine", RunningEngine)
        patch.setattr(groebner, "_spair", recording_spair)
        groebner._syzygy_vecs(vecs, ring, rank, degrees)
    leads = groebner._run_engine(vecs, ring, rank, degrees, True)[0].reduced()[1]
    top, lcm = ring._layout.top, ring._layout.lcm
    expected = [
        (i, j, lcm(leads[i], leads[j]))
        for i, j in combinations(range(len(leads)), 2)
        if leads[i] >> top == leads[j] >> top
    ]
    assert calls[::2] == calls[1::2] == expected


def _items(vecs):
    return [list(v.items()) for v in vecs]


def _engine_outputs(ring, columns, rank, degrees):
    """The reduced basis, the tracked basis with its representations, the
    syzygy columns and the minimal generators of ``columns``, term order
    within each vector included."""
    pres = SubmodulePresentation(ring, columns, rank, degrees)
    gb, tracked = pres.gb(), pres._tracked_gb()
    syz = syzygy_generators(columns, ring, ambient_rank=rank, row_degrees=degrees)
    return (
        (gb.leads, _items(gb.vecs)),
        (tracked.leads, _items(tracked.vecs), _items(tracked.reps)),
        _strings(syz),
        _strings(pres.minimal_generators()),
    )


@settings(max_examples=40, deadline=None)
@given(_column_sets(twists=(-1, 2)))
def test_engine_matches_the_eager_reference(case):
    """Pairing when a run starts, and building representations only for
    nonzero remainders, changes no basis, representation, syzygy or
    minimal generator against ``EagerEngine``."""
    ring, columns, rank, degrees = case
    outputs = _engine_outputs(ring, columns, rank, degrees)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_Engine", EagerEngine)
        assert _engine_outputs(ring, columns, rank, degrees) == outputs


@pytest.mark.parametrize(
    "name, steps, formed, updates, eager_updates",
    [("R5", 3, 101, 93, 216), ("R1", 8, 135, 139, 280)],
)
def test_resolve_work_counts(monkeypatch, request, name, steps, formed, updates, eager_updates):
    """S-vectors formed in runs and ``_update`` calls of one resolution of
    the residue field.  ``EagerEngine`` forms the same S-vectors, but it
    also pairs every kept candidate when it is appended, which no run reads
    once a degree's candidates all reduce to zero against the basis at hand.
    R5 formed 511 S-vectors in 189 updates while the minimal generators ran
    the engine before every candidate degree; R1's forced runs are all
    needed, so its counts did not move."""
    ring = request.getfixturevalue(name)
    counts, running = {}, []
    real_spair = groebner._spair

    def counting_spair(leads, vecs, i, j, lcm, ring):
        if running and vecs is running[-1].basis:
            counts["formed"] += 1
        return real_spair(leads, vecs, i, j, lcm, ring)

    def counting(base):
        class CountingEngine(base):
            def _update(self, new, partners, queued):
                counts["updates"] += 1
                return super()._update(new, partners, queued)

            def run(self, degree=INFINITE):
                running.append(self)
                try:
                    super().run(degree)
                finally:
                    running.pop()

        return CountingEngine

    monkeypatch.setattr(groebner, "_spair", counting_spair)
    for base, expected in ((groebner._Engine, updates), (EagerEngine, eager_updates)):
        counts.update(formed=0, updates=0)
        monkeypatch.setattr(groebner, "_Engine", counting(base))
        resolve(residue_field(ring), steps)
        assert (counts["formed"], counts["updates"]) == (formed, expected)


def test_update_relies_on_pairs_of_two_ideal_elements(monkeypatch):
    """Over F_5[x,y,z]/(yz, xz, x^2) the column (x, y) has lead x e_0 and
    lives at two positions, so its pair with yz e_0 (lcm xyz e_0) is queued.
    xz e_0 divides that lcm, and its pair with yz e_0 has the same lcm but
    needs no other pair, since the basis of I treats it; so the update
    deletes the queued pair and no S-vector of lcm xyz e_0 is formed.  The
    plain Gebauer-Moeller B criterion, which needs both lcms to differ from
    xyz, keeps it."""
    ring = make_ring(5, list("xyz"), ["x^2", "x*z", "y*z"])
    seen = []
    real_spair = groebner._spair

    def recording_spair(leads, vecs, i, j, lcm, ring):
        seen.append(ring._layout.decode(lcm))
        return real_spair(leads, vecs, i, j, lcm, ring)

    monkeypatch.setattr(groebner, "_spair", recording_spair)
    column = [ring.poly("x"), ring.poly("y")]
    gb = groebner_basis([column], ring, ambient_rank=2, row_degrees=(0, 0))
    assert (0, (1, 0, 1)) in seen and (0, (1, 1, 1)) not in seen
    assert [[str(e) for e in col] for col in gb.columns] == [
        ["0", "y*z"], ["0", "x*z"], ["0", "x*y"], ["0", "x^2"], ["x", "y"], ["y*z", "0"]
    ]


# -- presentations hold their span as engine vectors ------------------------------


def _strings(columns):
    return [[str(e) for e in col] for col in columns]


@settings(max_examples=30, deadline=None)
@given(_column_sets(twists=(-1, 2)))
def test_vec_to_strings_prints_as_polynomial_columns(case):
    """``vec_to_strings`` prints each entry as ``str`` prints the polynomial
    that ``vec_to_column`` builds, constants and zero entries included."""
    ring, columns, rank, _ = case
    for col in columns:
        vec = column_to_vec(col, ring)
        assert vec_to_strings(vec, rank, ring) == [str(e) for e in vec_to_column(vec, rank, ring)]


@settings(max_examples=30, deadline=None)
@given(_column_sets(twists=(-1, 2)), st.data())
def test_presentation_from_vectors_matches_polynomial_columns(case, data):
    """A presentation given its span as engine vectors answers as one given
    the same columns as polynomials, and ``columns`` gives the columns back."""
    ring, columns, rank, degrees = case
    vecs = [column_to_vec(col, ring) for col in columns]
    from_vecs = cokernel_presentation(ring, vecs, rank, degrees)
    from_cols = cokernel_presentation(ring, columns, rank, degrees)
    assert from_vecs.vecs == from_cols.vecs == vecs
    assert from_vecs.columns == from_cols.columns == columns
    assert from_vecs.numerator() == from_cols.numerator()
    assert (from_vecs.gb().leads, from_vecs.gb().vecs) == (from_cols.gb().leads, from_cols.gb().vecs)
    assert _strings(from_vecs.minimal_generators()) == _strings(from_cols.minimal_generators())
    assert from_vecs.is_zero_submodule() == from_cols.is_zero_submodule()
    t = data.draw(st.integers(1, 3))
    other = [random_form(data.draw, ring, t - degrees[k]) for k in range(rank)]
    for target in (columns[0], other):
        a, b = from_vecs.lift(target), from_cols.lift(target)
        assert (a is None) == (b is None) and (a is None or _strings([a]) == _strings([b]))
    x = ring.gens()[data.draw(st.integers(0, ring.n - 1))]
    for a, b in (
        (from_vecs.colon(x), from_cols.colon(x)),
        (from_vecs.saturate(), from_cols.saturate()),
    ):
        assert (a.vecs, a.columns, a.mode) == (b.vecs, b.columns, b.mode)


def test_presentation_converts_its_columns_at_construction(R1):
    # A too-wide exponent raises when the presentation is built, not when
    # it is first used.
    wide = R1.monomial((2**63, 0))
    with pytest.raises(Overflow):
        SubmodulePresentation(R1, [[wide]], 1)
    with pytest.raises(AmbientMismatch):
        SubmodulePresentation(R1, [{R1._layout.encode(0, (1, 0)): 1}])
