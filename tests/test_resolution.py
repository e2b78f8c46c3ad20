import hashlib
import random

import pytest

from frobetti import (
    INFINITE,
    FreeComplex,
    SubmodulePresentation,
    beta_sequence,
    cokernel_presentation,
    make_ring,
    minimize,
    mu_sequence,
    quotient_module,
    resolve,
    syzygy,
    syzygy_generators,
)
from frobetti import groebner, resolution
from frobetti.errors import LiftFailure, NotHomogeneous
from frobetti.groebner import numerator_length
from frobetti.resolution import MinimalResolution
from frobetti.ring import Polynomial, monomials_of_degree, numerator_dimension

from conftest import (
    EagerEngine,
    R5_QUADRICS,
    composes_to_zero,
    decoded,
    engine_trace,
    fixture_rings,
    reference_minimize,
    reference_syzygy_vecs,
    reference_syzygy_numerator,
    residue_field,
    use_reference_kernels,
)
from reference import homology_length, homology_presentation, random_instances, twist_complex

# The base ideals of the benchmark's quadric families, over F_101 in x, y, z, w.
QUADRIC_FAMILIES = {
    "ci": ["x^2", "y^2", "z^2", "w^2"],
    "cycle": ["x*y", "y*z", "z*w", "w*x"],
    "tcubic": ["x*z - y^2", "y*w - z^2", "x*w - y*z"],
    "four": ["x^2 + y*z", "y^2 + z*w", "z^2 + w*x", "w^2 + x*y"],
    "path": ["x^2", "x*y", "y*z", "z*w", "w^2"],
    "bin5": ["x*y - z*w", "x^2", "y^2", "z^2", "w^2"],
    "mix": ["x^2 - y*w", "x*y", "z^2 - x*w", "y*z"],
    "six": ["x*y", "x*z", "x*w", "y*z", "y*w", "z*w"],
    "three": ["x*y", "z*w", "x*z - y*w"],
}


def test_resolve_koszul(R2, K2):
    res = resolve(K2, 2)
    assert res.betti == (1, 1, 0)
    assert not res.has_unit_entry()
    assert str(res.matrix(1)[0][0]) == "x"


def test_resolve_residue_field_r1(R1, K1):
    res = resolve(K1, 2)
    assert res.betti == (1, 2, 3)
    assert [str(col[0]) for col in res.matrix(1)] == ["x", "y"]
    assert res.check_complex()
    assert res.check_homogeneous()
    # the printed example matrices span the same modules
    phi2 = SubmodulePresentation(R1, res.matrix(2), res.rank(1), res.degrees(1))
    expected = SubmodulePresentation(
        R1,
        [[R1.poly("x"), R1.zero], [R1.poly("y"), R1.zero], [R1.zero, R1.poly("x")]],
        2,
        res.degrees(1),
    )
    assert phi2.same_span(expected)


def test_resolve_residue_field_r5_to_step_4(R5):
    res = resolve(quotient_module(R5, list(R5.variables)), 4)
    assert res.betti == (1, 5, 22, 96, 418)
    assert res.check_complex()
    assert res.check_homogeneous()
    assert not any(entry.constant_term() for col in res.matrix(4) for entry in col)


def test_exactness_certificate(R1, K1, R5):
    col = [[R5.poly("u"), R5.poly("v"), R5.poly("z^2")]]
    M5 = cokernel_presentation(R5, col, 3, [0, 0, -1])
    for module in (K1, M5):
        res = resolve(module, 3)
        ring = module.ring
        for j in range(1, 3):
            ker = syzygy_generators(
                res.matrix(j), ring, ambient_rank=res.rank(j - 1), row_degrees=res.degrees(j - 1)
            )
            span_ker = SubmodulePresentation(ring, ker, res.rank(j), res.degrees(j))
            span_phi = SubmodulePresentation(ring, res.matrix(j + 1), res.rank(j), res.degrees(j))
            assert span_phi.same_span(span_ker)


def test_minimality_no_constant_entries(R1, K1, R5):
    res = resolve(K1, 4)
    for j in range(1, 5):
        for col in res.matrix(j):
            for entry in col:
                assert entry.constant_term() == 0


def test_betti_equal_tor_dimensions(R1, R2, R5, K1, K2):
    from frobetti.homology import coefficient_ring

    col = [[R5.poly("u"), R5.poly("v"), R5.poly("z^2")]]
    M5 = cokernel_presentation(R5, col, 3, [0, 0, -1])
    for module, steps in ((K1, 3), (K2, 2), (M5, 3)):
        ring = module.ring
        res = resolve(module, steps)
        kring = coefficient_ring(ring, list(ring.variables))
        for j in range(steps + 1):
            pres = homology_presentation(res, j, kring)
            assert pres.length() == res.rank(j)


def _good_and_bad_complexes():
    # Over k[x,y,z]/(xy - z^2) the composite of these non-monomial maps is
    # zero at position 0 and xy - z^2 at position 1, so the check must reduce
    # a position other than 0 against I.  Changing one entry breaks it.
    ring = make_ring(5, list("xyz"), ["x*y - z^2"])
    P = ring.poly
    phi1 = [[P("z"), P("y")], [P("-x - z"), P("-y - z")]]
    phi2 = [[P("x + z"), P("z")]]
    degrees = [[0, 0], [1, 1], [2]]
    good = FreeComplex(ring, [2, 2, 1], degrees, [phi1, phi2])
    bad = FreeComplex(ring, [2, 2, 1], degrees, [[[P("z"), P("x + y")], phi1[1]], phi2])
    return good, bad


def test_check_complex_matches_polynomial_products():
    good, bad = _good_and_bad_complexes()
    assert good.check_homogeneous() and bad.check_homogeneous()
    assert good.check_complex() and composes_to_zero(good)
    assert not bad.check_complex() and not composes_to_zero(bad)
    assert twist_complex(good, 1).check_complex()
    with pytest.raises(LiftFailure):
        twist_complex(bad, 1)


def test_check_complex_runs_once_per_stored_step(monkeypatch, R1):
    """``beta_sequence`` twists one stored resolution at levels 1 to 3, and
    ``mu_sequence`` once more; each composition of the stored maps is
    checked once.  A complex that ``resolve`` did not build is checked on
    every call, so a non-complex raises ``LiftFailure`` every time."""
    checked = []
    real = FreeComplex._composes_to_zero

    def recording(self, j):
        checked.append(j)
        return real(self, j)

    module = residue_field(R1)
    monkeypatch.setattr(FreeComplex, "_composes_to_zero", recording)
    assert beta_sequence(module, 2, [1, 2, 3]).raw_values() == [13, 53, 253]
    assert mu_sequence(module, 1, [1]).raw_values() == [7]
    assert checked == [1, 2]
    checked.clear()
    _, bad = _good_and_bad_complexes()
    bad_resolution = MinimalResolution(bad.ring, bad.ranks, bad.row_degrees, bad.maps[1:], None)
    for C in (bad, bad, bad_resolution, bad_resolution):
        with pytest.raises(LiftFailure):
            twist_complex(C, 1)
    assert checked == [1, 1, 1, 1]


def test_phi1_splits_units_only_when_an_entry_is_a_unit(monkeypatch, R1):
    """phi_1 goes through ``Polynomial`` columns and ``_split_units`` only
    when a kept generator has a term of degree 0.  The column (1, x) of a
    module with rows twisted by (1, 0) splits off, and leaves the
    resolution of R/(y^2)."""
    split = []
    real = resolution._split_units

    def recording(*args):
        split.append(1)
        return real(*args)

    monkeypatch.setattr(resolution, "_split_units", recording)
    resolve(residue_field(R1), 3)
    assert split == []
    P = R1.poly
    module = cokernel_presentation(R1, [[P("1"), P("x")], [P("0"), P("y^2")]], 2, (1, 0))
    res = resolve(module, 3)
    assert split == [1] and not res.has_unit_entry()
    assert _resolution_data(res) == _resolution_data(resolve(quotient_module(R1, ["y^2"]), 3))


def test_free_complex_checks_polynomial_columns_at_construction(R1):
    # An inhomogeneous column given as polynomials is rejected at once; one
    # given as a vector is stored as it is and caught by check_homogeneous.
    with pytest.raises(NotHomogeneous):
        FreeComplex(R1, [1, 1], [[0], [1]], [[[R1.poly("x + y^2")]]])
    encode = R1._layout.encode
    inhomogeneous = FreeComplex(R1, [1, 1], [[0], [1]], [[{encode(0, (1, 0)): 1, encode(0, (0, 2)): 1}]])
    wrong_twist = FreeComplex(R1, [1, 1], [[0], [2]], [[[R1.poly("y")]]])
    for C in (inhomogeneous, wrong_twist):
        with pytest.raises(NotHomogeneous):
            C.check_homogeneous()
    assert FreeComplex(R1, [1, 1], [[0], [1]], [[[R1.poly("y")]]]).check_homogeneous()


def test_syzygy_generators_are_the_columns_of_the_map(K1):
    res = resolve(K1, 4)
    for i in range(4):
        omega = res.syzygy(i)
        assert omega.generators == (res.matrix(i) if i else [])
        assert omega.vecs == res.vectors(i)
        assert "%d generators" % res.rank(i if i else -1) in repr(omega)


def test_minimize_strips_identity_block(R1, K1):
    res = resolve(K1, 2)
    # pad with a split exact summand R --1--> R between spots 1 and 0
    ranks = [res.rank(0) + 1, res.rank(1) + 1, res.rank(2)]
    degs = [list(res.degrees(0)) + [0], list(res.degrees(1)) + [0], list(res.degrees(2))]
    phi1 = [col + [R1.zero] for col in res.matrix(1)]
    phi1.append([R1.zero] * res.rank(0) + [R1.one])
    phi2 = [col + [R1.zero] for col in res.matrix(2)]
    padded = FreeComplex(R1, ranks, degs, [phi1, phi2])
    assert padded.has_unit_entry()
    reduced = minimize(padded)
    assert tuple(reduced.ranks) == (1, 2, 3)
    assert not reduced.has_unit_entry()
    assert reduced.check_complex()
    # homology lengths are preserved under minimization (twisted complexes)
    tw_before = twist_complex(padded, 1)
    tw_after = twist_complex(reduced, 1)
    for i in range(3):
        assert homology_length(tw_before, i) == homology_length(tw_after, i)


def test_minimize_keeps_minimal_complex(R1, K1):
    res = resolve(K1, 2)
    reduced = minimize(res)
    assert tuple(reduced.ranks) == res.betti
    assert [
        [[str(e) for e in col] for col in reduced.matrix(j)] for j in (1, 2)
    ] == [[[str(e) for e in col] for col in res.matrix(j)] for j in (1, 2)]


def _complex_data(C):
    """Ranks, twists and the entries of every map as strings."""
    maps = [[[str(e) for e in col] for col in C.matrix(j)] for j in range(1, C.length + 1)]
    return C.ranks, C.row_degrees, maps


def _random_complex(rng, rings):
    """A homogeneous complex of free modules (its maps need not compose to
    zero) with 1-4 maps of ranks 1-3 and twists 0-2: an entry whose row and
    column twists are equal is a constant, nonzero two times in three, so
    units sit beside nonzero entries of the maps before and after theirs."""
    ring = rng.choice(rings)
    length = rng.randint(1, 4)
    twists = [[rng.randint(0, 2) for _ in range(rng.randint(1, 3))] for _ in range(length + 1)]

    def entry(degree):
        if degree < 0 or rng.random() < (1 / 3 if degree == 0 else 1 / 2):
            return ring.zero
        monos = monomials_of_degree(ring.n, degree)
        monos = rng.sample(monos, min(len(monos), rng.randint(1, 2)))
        return Polynomial(ring, {m: rng.randint(1, ring.p - 1) for m in monos})

    maps = [
        [[entry(d - e) for e in twists[j - 1]] for d in twists[j]] for j in range(1, length + 1)
    ]
    return FreeComplex(ring, [len(t) for t in twists], twists, maps)


def test_minimize_matches_the_polynomial_reference():
    """``minimize`` splits units on the stored vectors as the ``Polynomial``
    reference does on ``matrix(j)``: the same ranks, twists and entries, on
    400 random homogeneous complexes over F_2, F_3, F_5 and F_7, most of
    them with unit entries, and the input complex is left as it was."""
    rng = random.Random(29)
    rings = [ring for p in (2, 3, 5, 7) for ring in fixture_rings(p).values()]
    with_units = 0
    for _ in range(400):
        C = _random_complex(rng, rings)
        before = _complex_data(C)
        with_units += C.has_unit_entry()
        reduced = minimize(C)
        assert _complex_data(reduced) == _complex_data(reference_minimize(C))
        assert not reduced.has_unit_entry()
        assert _complex_data(C) == before
    assert with_units > 300


def test_phi1_splits_two_unit_columns_as_the_reference(R1):
    """A phi_1 with two unit columns splits as the reference splits the
    module's generators, leaves the module's shared vectors as they were,
    and the resolution is that of R/(y^2)."""
    P = R1.poly
    columns = [[P("1"), P("0"), P("x")], [P("0"), P("1"), P("y")], [P("0"), P("0"), P("y^2")]]
    module = cokernel_presentation(R1, columns, 3, (1, 1, 0))
    vecs = [dict(v) for v in module.vecs]
    res = resolve(module, 3)
    assert module.vecs == vecs
    expected = reference_minimize(FreeComplex(R1, [3, 3], [[1, 1, 0], [1, 1, 2]], [columns]))
    assert _complex_data(expected) == ([1, 1], [[0], [2]], [[["y^2"]]])
    phi1 = [[str(e) for e in col] for col in res.matrix(1)]
    assert (res.ranks[:2], res.row_degrees[:2], [phi1]) == _complex_data(expected)
    assert _resolution_data(res) == _resolution_data(resolve(quotient_module(R1, ["y^2"]), 3))


def test_minimize_rejects_an_inhomogeneous_column(R1):
    """A column of two degrees raises ``NotHomogeneous``, as the reference's
    rebuild from ``Polynomial`` columns does when the column is left: alone,
    and beside a unit that splits off.  ``minimize`` checks the columns
    before it splits, so a unit entry 1 + x, which the reference splits off
    as if it were 1, raises too."""
    encode = R1._layout.encode
    lone = FreeComplex(R1, [1, 1], [[0], [1]], [[{encode(0, (1, 0)): 1, encode(0, (0, 2)): 1}]])
    split = FreeComplex(
        R1, [2, 2], [[0, 1], [0, 1]], [[{encode(0, (0, 0)): 2}, {encode(1, (1, 0)): 1, encode(1, (0, 2)): 1}]]
    )
    for C in (lone, split):
        for route in (minimize, reference_minimize):
            with pytest.raises(NotHomogeneous):
                route(C)
    pivot = FreeComplex(R1, [1, 1], [[0], [0]], [[{encode(0, (0, 0)): 1, encode(0, (1, 0)): 1}]])
    assert reference_minimize(pivot).ranks == [0, 0]
    with pytest.raises(NotHomogeneous):
        minimize(pivot)


def test_syzygy_presentations(R1, R3):
    M = quotient_module(R1, ["x"])
    s0 = syzygy(M, 0)
    assert s0.length is INFINITE and s0.dimension == 1
    s1 = syzygy(M, 1)
    assert s1.length == 1 and s1.dimension == 0
    s2 = syzygy(M, 2)
    assert s2.length is INFINITE and s2.dimension == 1

    Mf = quotient_module(R3, ["x+y"])
    s2f = syzygy(Mf, 2)
    assert s2f.length == 0 and s2f.dimension == -1


def test_syzygy_dimension_law(R1, R3, K1, K3):
    # never strictly between 0 and the ring dimension
    for module in (K1, K3, quotient_module(R1, ["x"]), quotient_module(R3, ["x+y"])):
        res = resolve(module, 4)
        d = module.ring.dim
        for i in range(1, 5):
            s = res.syzygy(i)
            assert not (0 < s.dimension < d)
            assert (s.length is INFINITE) == (s.dimension > 0)


def test_syzygy_numbers_match_the_cokernel_reference(R1, R3, R5, K1, K3):
    """The Hilbert numerator of Omega_i from the exact sequences of the
    resolution equals that of coker(phi_{i+1}) in G_i, for i = 0..4: on
    residue fields, a finite-pd module (zero syzygies past its pd), a module
    whose phi_1 splits off a unit, and random dimension-one instances."""
    P = R1.poly
    modules = [K1, K3, residue_field(R5), quotient_module(R1, ["x"]), quotient_module(R3, ["x+y"])]
    modules.append(cokernel_presentation(R1, [[P("1"), P("x")], [P("0"), P("y^2")]], 2, (1, 0)))
    modules += [module for ring, module in random_instances(11, 30) if ring.dim == 1]
    for module in modules:
        res = resolve(module, 5)
        n = module.ring.n
        for i in range(5):
            num = reference_syzygy_numerator(res, i)
            assert res.syzygy_numerator(i) == num, (module, i)
            omega = syzygy(module, i)
            assert (omega.length, omega.dimension) == (numerator_length(num, n), numerator_dimension(num, n))
    with pytest.raises(ValueError):
        resolve(K1, 2).syzygy(3)


def test_resolve_zero_module(R1):
    Z = quotient_module(R1, ["1"])
    res = resolve(Z, 3)
    assert res.betti == (0, 0, 0, 0)


def _resolution_data(res):
    return (
        res.betti,
        [list(res.degrees(j)) for j in range(res.length + 1)],
        [[[str(e) for e in col] for col in res.matrix(j)] for j in range(1, res.length + 1)],
    )


def test_resolve_extends_cache(R1, R2):
    # A resolution extended on the module's cache, or padded past its end,
    # matches one computed in a single call on a fresh module.
    cases = [
        (R1, list(R1.variables), 3, 5, (1, 2, 3, 5, 8, 13)),
        (R2, list(R2.variables), 1, 4, (1, 1, 0, 0, 0)),
        (R1, ["1"], 1, 3, (0, 0, 0, 0)),
    ]
    for ring, gens, first, second, betti in cases:
        module = quotient_module(ring, gens)
        short = resolve(module, first)
        extended = resolve(module, second)
        fresh = resolve(quotient_module(ring, gens), second)
        assert extended.betti == betti
        assert _resolution_data(extended) == _resolution_data(fresh)
        assert extended.betti[: first + 1] == short.betti
        assert _resolution_data(resolve(module, first)) == _resolution_data(short)


def test_resolve_rejects_bad_input(R1, K1):
    with pytest.raises(ValueError):
        resolve(K1, -1)
    sub = SubmodulePresentation(R1, [[R1.poly("x")]], 1)
    with pytest.raises(ValueError):
        resolve(sub, 2)


def _pinned_resolutions():
    """R5's residue field over F_5 to step 4 and the quadric families'
    residue fields over F_101 to step 3, rings built afresh."""
    cases = [(make_ring(5, list("xyzuv"), R5_QUADRICS), 4)]
    cases += [(make_ring(101, list("xyzw"), gens), 3) for gens in QUADRIC_FAMILIES.values()]
    return [resolve(residue_field(ring), steps) for ring, steps in cases]


def test_resolutions_match_pinned_digest():
    # One sha256 over the Betti numbers, twists and matrix strings of the
    # pinned resolutions.  Any change to which syzygies the engine produces,
    # or which of them are kept, moves it.
    digest = hashlib.sha256()
    for res in _pinned_resolutions():
        digest.update(repr(_resolution_data(res)).encode())
    assert digest.hexdigest() == "3aedf71ec40c3ed164758fd193d608a3d555e16469e065104f326eeaf5b68a06"


def test_pinned_resolutions_match_the_eager_engine(monkeypatch):
    """The engine and ``EagerEngine`` store the same vectors, term order
    included, for every pinned resolution."""

    def stored():
        return [
            (res.row_degrees, [[list(v.items()) for v in res.vectors(j)] for j in range(1, res.length + 1)])
            for res in _pinned_resolutions()
        ]

    vectors = stored()
    monkeypatch.setattr(groebner, "_Engine", EagerEngine)
    assert stored() == vectors


def test_pinned_resolutions_match_the_always_run_reference(monkeypatch):
    """Every syzygy step of the pinned resolutions stores the same vectors,
    term order included, as the route that runs the engine in every step
    (``reference_syzygy_vecs``).  The steps take both paths: one step each
    of ``four``, ``bin5``, ``mix`` and ``three`` fails the certificate and
    runs the engine; every other step runs none."""
    runs = []
    real_run = groebner._run_engine

    def recording_run(engine):
        runs.append(engine)
        return real_run(engine)

    def stored():
        return [
            (res.row_degrees, [[list(v.items()) for v in res.vectors(j)] for j in range(1, res.length + 1)])
            for res in _pinned_resolutions()
        ]

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_run_engine", recording_run)
        vectors = stored()
    assert len([engine for engine in runs if engine.track]) == 4
    monkeypatch.setattr(resolution, "_syzygy_vecs", reference_syzygy_vecs)
    assert stored() == vectors


def test_pinned_resolutions_match_the_reference_kernels():
    """The engines of the pinned resolutions pop the same pairs and store
    the same basis, leads and representations as engines on the scanning
    division loop, the scanning first divisor and the update on encoded
    lcms."""

    def compute():
        return [_resolution_data(res) for res in _pinned_resolutions()]

    traced = engine_trace(compute)
    with pytest.MonkeyPatch.context() as patch:
        use_reference_kernels(patch)
        assert engine_trace(compute) == traced


def test_r5_over_f101_to_step_4_matches_pinned_vectors(R5):
    """One sha256 over the twists and the stored vectors, terms decoded in
    stored order, of R5's residue field over F_101 to step 4."""
    res = resolve(residue_field(R5), 4)
    data = (res.row_degrees, [[decoded(R5, v) for v in res.vectors(j)] for j in range(1, 5)])
    digest = hashlib.sha256(repr(data).encode()).hexdigest()
    assert digest == "a4c28f11edce149aef22ed6cd39a4f4854bb8909c1a9fc6b4837fb639a64e1e3"


def test_minimal_generator_runs_form_no_s_vector_on_r5(monkeypatch, R5):
    """Resolving R5's residue field to step 4 forms no S-vector in the
    minimal-generator engines: each kernel keeps its candidates in the degree
    of its first run, and every higher-degree candidate reduces to zero
    against the basis at hand.  Running before every candidate degree would
    form 2,217 there."""
    formed, inside, running = [], [], []
    real_spair, real_mingens = groebner._spair, resolution._minimal_generator_indices

    class RecordingEngine(groebner._Engine):
        def run(self, degree=INFINITE):
            running.append(self)
            try:
                super().run(degree)
            finally:
                running.pop()

    def recording_spair(leads, vecs, *args):
        if inside and running and vecs is running[-1].basis:
            formed.append(1)
        return real_spair(leads, vecs, *args)

    def recording_mingens(*args):
        inside.append(1)
        try:
            return real_mingens(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(groebner, "_Engine", RecordingEngine)
    monkeypatch.setattr(groebner, "_spair", recording_spair)
    monkeypatch.setattr(resolution, "_minimal_generator_indices", recording_mingens)
    assert resolve(residue_field(R5), 4).betti == (1, 5, 22, 96, 418)
    assert len(formed) == 0
