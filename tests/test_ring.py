import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobetti import groebner_basis, make_ring, poly_parse
from frobetti import groebner
from frobetti import ring as ring_module
from frobetti.errors import (
    NotHomogeneous,
    NotPrime,
    Overflow,
    ParseError,
    UnitIdeal,
    UnknownVariable,
)
from frobetti.ring import (
    LEAD_INDEX_LENGTH,
    LeadList,
    TermLayout,
    _minimal_pairs,
    _reduce_vec,
    drl_key,
    monomial_divides,
)

from conftest import reference_first_divisor, reference_minimalize, reference_numerator, vec_key


def test_make_ring_fixtures(R1, R2, R5):
    assert R1.dim == 1
    assert R2.dim == 1
    assert R5.dim == 1
    assert len(R1.ideal_groebner) == 2


def test_make_ring_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_ring(6, ["x"], [])
    with pytest.raises(NotPrime):
        make_ring(2**31 + 11, ["x"], [])
    with pytest.raises(ParseError):
        make_ring(5, [], [])
    with pytest.raises(ParseError):
        make_ring(5, ["x", "x"], [])
    with pytest.raises(NotHomogeneous):
        make_ring(5, ["x", "y"], ["x + 1"])
    with pytest.raises(NotHomogeneous) as err:
        make_ring(5, ["x", "y"], ["x^2 + y"])
    assert "x^2" in str(err.value)


def test_unit_ideal_rejected():
    with pytest.raises(UnitIdeal):
        make_ring(5, ["x"], ["2"])


def test_poly_parse_examples(R1):
    f = poly_parse("x^2 - y^2", R1)
    assert f.terms == {(2, 0): 1, (0, 2): 4}
    assert poly_parse("0", R1).is_zero()
    assert poly_parse("y*x", R1) == poly_parse("x*y", R1)
    assert poly_parse("(x + y)^2", R1) == poly_parse("x^2 + 2*x*y + y^2", R1)
    assert poly_parse("-x", R1) == poly_parse("4*x", R1)


def test_poly_parse_errors(R1):
    with pytest.raises(ParseError) as err:
        poly_parse("x + ", R1)
    assert err.value.position is not None
    with pytest.raises(UnknownVariable):
        poly_parse("x + t", R1)
    with pytest.raises(ParseError):
        poly_parse("x ^ y", R1)
    with pytest.raises(ParseError):
        poly_parse("x y", R1)


def _random_poly(ring, rng, max_terms=5, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(ring.n))
        coeff = rng.randint(1, ring.p - 1)
        terms[exps] = coeff
    out = ring.zero
    for exps, coeff in terms.items():
        out = out + ring.monomial(exps, coeff)
    return out


def test_ring_axioms_random(R1):
    rng = random.Random(11)
    for _ in range(60):
        f = _random_poly(R1, rng)
        g = _random_poly(R1, rng)
        h = _random_poly(R1, rng)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f + (-f)).is_zero()
        assert (f * (g * h)) == ((f * g) * h)


def test_frobenius_additivity_random():
    ring = make_ring(5, ["x", "y", "z"], [])
    rng = random.Random(23)
    for _ in range(100):
        f = _random_poly(ring, rng, max_terms=4, max_deg=3)
        g = _random_poly(ring, rng, max_terms=4, max_deg=3)
        assert (f + g) ** 5 == f**5 + g**5


def _drl_greater(u, v):
    """Reference comparator straight from the definition."""
    du, dv = sum(u), sum(v)
    if du != dv:
        return du > dv
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a < b
    return False


def test_degrevlex_matches_reference():
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(0, 6) for _ in range(n))
        v = tuple(rng.randint(0, 6) for _ in range(n))
        assert (drl_key(u) > drl_key(v)) == _drl_greater(u, v)
        assert (drl_key(u) == drl_key(v)) == (u == v)


def test_print_parse_round_trip(R1, R5):
    rng = random.Random(77)
    for ring in (R1, R5):
        for _ in range(50):
            f = _random_poly(ring, rng)
            assert poly_parse(str(f), ring) == f


def test_homogeneity_queries(R1):
    assert poly_parse("x^2 + x*y", R1).homogeneous_degree() == 2
    assert poly_parse("x^2 + y", R1).homogeneous_degree() is None
    assert poly_parse("0", R1).is_homogeneous()


def test_normal_form_mod_ideal(R1):
    assert R1.is_zero_mod(poly_parse("x^2 + 2*x*y", R1))
    nf = R1.nf(poly_parse("x^2 + y^2 + x", R1))
    assert nf == poly_parse("y^2 + x", R1)
    assert R1.nf(nf) == nf


def test_nf_matches_rank_one_normal_form(R1, R5):
    # R.nf and GroebnerBasis.normal_form share one division loop; check
    # that the two wrappers around it agree on random polynomials.
    rng = random.Random(41)
    for ring in (R1, R5):
        S = make_ring(ring.p, list(ring.variables), [])
        gb = groebner_basis([[g] for g in ring.ideal_gens], S)
        gens = [ring.convert(g) for g in ring.ideal_gens]
        for _ in range(40):
            f = _random_poly(ring, rng)
            expected = gb.normal_form([f])[0].terms
            assert ring.nf(f).terms == expected
            g = f + _random_poly(ring, rng, max_terms=3, max_deg=2) * rng.choice(gens)
            assert ring.nf(g).terms == expected


def test_make_ring_keeps_the_engine_basis(monkeypatch):
    """``make_ring`` hands the monic vectors of ``reduced_ideal_groebner`` to
    the ring as they are, and ``ideal_groebner`` builds polynomials from
    them."""
    returned = []
    real = groebner.reduced_ideal_groebner

    def recording(gens, ring):
        returned.append(real(gens, ring))
        return returned[-1]

    monkeypatch.setattr(groebner, "reduced_ideal_groebner", recording)
    ring = make_ring(7, list("xyz"), ["2*x^2 + y*z", "3*y^2 - x*z", "x*y"])
    (vecs,) = returned
    assert len(ring._gb_vecs) == len(vecs) and all(map(operator.is_, ring._gb_vecs, vecs))
    exps = ring._layout.exps
    assert [g.terms for g in ring.ideal_groebner] == [{exps(t): c for t, c in v.items()} for v in vecs]
    assert all(g.leading()[1] == 1 for g in ring.ideal_groebner)


def test_exponents_past_the_packed_width_raise_overflow():
    # Divisibility tests read exponents packed 63 bits to a field.  Literals
    # stay below MAX_EXPONENT, but nested powers do not: 2^20 * 2^20 * 2^23
    # is 2^63, one past the widest exponent a field holds.
    ring = make_ring(5, ["x", "y"], ["x*y"])
    S = make_ring(5, ["x", "y"], [])
    fits = ring.poly("((x^1048576)^1048576)^8388607")  # 2^63 - 2^40
    assert ring.nf(fits) == fits
    assert ring.nf(fits * ring.poly("y")).is_zero()
    assert groebner_basis([[fits]], S).contains([fits * S.poly("x + y")])
    wide = ring.poly("((x^1048576)^1048576)^8388608")
    assert wide.terms == {(2**63, 0): 1}
    for compute in (
        lambda: ring.nf(wide),
        lambda: ring.nf(wide * ring.poly("y")),
        lambda: groebner_basis([[wide]], S),
        lambda: groebner_basis([[fits]], S).contains([wide]),
    ):
        with pytest.raises(Overflow) as err:
            compute()
        assert "exponent %d does not fit" % 2**63 in str(err.value)


WIDEST = 2**63 - 1


@st.composite
def _terms(draw):
    """A layout over 1-4 variables and three terms ``(pos, exponents)`` of it,
    exponents up to 2^63 - 1 and positions up to 5000 (generator indices of
    tracked representations), with some exponents and positions shared."""
    n = draw(st.integers(1, 4))
    exps = st.one_of(st.integers(0, 3), st.integers(0, WIDEST), st.sampled_from([WIDEST, 2**62]))
    pos = st.one_of(st.integers(0, 2), st.integers(0, 5000))
    terms = draw(st.lists(st.tuples(pos, st.tuples(*[exps] * n)), min_size=3, max_size=3))
    return TermLayout(n), terms


@settings(max_examples=300, deadline=None)
@given(_terms())
def test_term_layout_encodes_order_shifts_and_divisibility(case):
    layout, terms = case
    enc = [layout.encode(*t) for t in terms]
    (pa, a), (pb, b), _ = terms
    ta, tb = enc[0], enc[1]
    # Round trip, position-over-term order and the degree field.
    assert [layout.decode(t) for t in enc] == terms
    assert sorted(range(3), key=enc.__getitem__) == sorted(range(3), key=lambda i: vec_key(terms[i]))
    assert layout.degree(ta) == sum(a)
    # Affine: a shift by x^s is one add of a difference of terms.
    s = tuple(min(y, WIDEST - x) for x, y in zip(a, b))
    lin = layout.encode(pb, s) - layout.unit(pb)
    assert ta + lin == layout.encode(pa, tuple(x + y for x, y in zip(a, s)))
    # The guard test is divisibility, whatever the positions.
    guard = layout.guard
    assert (((tb | guard) - ta) & guard == guard) == monomial_divides(a, b)
    assert layout.lcm(ta, tb) == layout.encode(pa, tuple(map(max, a, b)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_term_layout_shift_sums_fields_past_the_carry_threshold(n):
    """``TermLayout.shift`` puts the sum of a word's fields in the degree
    field: by one product while no field reaches 2^(64 - n.bit_length()),
    field by field past it, where the product's partial sums would carry
    from field to field."""
    layout = TermLayout(n)
    edge = 2 ** (64 - n.bit_length())
    for top in {edge - 1, min(edge, WIDEST), WIDEST}:
        for exps in ((top,) * n, (top,) + (0,) * (n - 1), (0,) * (n - 1) + (top,)):
            d = layout.encode(0, exps) & layout.mask
            assert layout.unit(0) + layout.shift(d) == layout.encode(0, exps)
            assert layout.degree(layout.unit(0) + layout.shift(d)) == sum(exps)


def test_tracked_representation_past_the_packed_width_raises_overflow():
    # x^(2^62) reduced by x shifts the representation's term x^(2^62 + 1)
    # by x^(2^62 - 1): the sum needs bit 63, which must not pass unnoticed.
    ring = make_ring(5, ["x", "y"], [])
    encode = ring._layout.encode
    x = encode(0, (1, 0))
    by_pos = {0: [(x, 0)]}
    reps = [{encode(7, (2**62 + 1, 0)): 1}]
    _reduce_vec({encode(0, (2**62 - 1, 0)): 1}, by_pos, [{x: 1}], ring, {}, reps)
    with pytest.raises(Overflow) as err:
        _reduce_vec({encode(0, (2**62, 0)): 1}, by_pos, [{x: 1}], ring, {}, reps)
    assert "exponent %d does not fit" % 2**63 in str(err.value)


@st.composite
def _growing_lead_lists(draw):
    """Lead lists over 1-5 variables that grow past ``LEAD_INDEX_LENGTH``,
    with repeated exponents (each variable takes a few values, 0 and
    2^62 - 1 among them), and a query term after most appends (None for
    none): a lead times a monomial, or a monomial.  Either the leads sit at
    one of several positions, each with its own list, and a query is made at
    the position of a list, or one list of leads at position 0 serves every
    position."""
    n = draw(st.integers(1, 5))
    every_pos = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    pools = [
        [0, 2**62 - 1][: rng.randint(1, 2)] + rng.sample(range(1, 7), rng.randint(0, 3))
        for _ in range(n)
    ]

    def monomial():
        return tuple(rng.choice(pool) for pool in pools)

    size = rng.randint(LEAD_INDEX_LENGTH - 2, 3 * LEAD_INDEX_LENGTH)
    leads = [(0 if every_pos else rng.randint(0, 2), monomial()) for _ in range(size)]
    queries = []
    for k in range(size):
        pos, e = rng.choice(leads[: k + 1]) if rng.random() < 0.5 else (rng.randint(0, 3), ())
        e = tuple(min(a + b, 2**62 - 1) for a, b in zip(e or (0,) * n, monomial()))
        queries.append((rng.randint(0, 3) if every_pos else pos, e) if rng.random() < 0.7 else None)
    return TermLayout(n), every_pos, leads, queries


@settings(max_examples=60, deadline=None)
@given(_growing_lead_lists())
def test_divisor_index_finds_the_first_divisor_of_the_scan(case):
    """As a list grows, the first divisor a ``LeadList`` returns is the
    first entry whose lead divides the term, as a scan finds it, before and
    after the list reaches ``LEAD_INDEX_LENGTH`` and answers from its index,
    however many entries were appended since its last query."""
    layout, every_pos, leads, queries = case
    by_pos = {}
    for k, ((pos, e), query) in enumerate(zip(leads, queries)):
        by_pos.setdefault(pos, LeadList()).append((layout.encode(pos, e), k))
        if query is None:
            continue
        qpos, qe = query
        listed = by_pos[0] if every_pos else by_pos.get(qpos, LeadList())
        t = layout.encode(qpos, qe)
        assert listed.first_divisor(t, layout) == reference_first_divisor(listed, t, layout)
        assert (listed._sets is not None) == (len(listed) >= LEAD_INDEX_LENGTH)


def _monomial_lists(max_size):
    """Exponent tuples in 1-4 variables, each exponent 0..4 or up to WIDEST."""
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.one_of(st.integers(0, 4), st.integers(0, WIDEST))] * n),
            max_size=max_size,
        )
    )


@settings(max_examples=200, deadline=None)
@given(_monomial_lists(12))
def test_minimalize_monomials_matches_the_reference(gens):
    """The packed minimalisation keeps the reference's monomials, with each
    pair's degree, in degree order."""
    if not gens:
        assert _minimal_pairs([], 0) == []
        return
    layout = TermLayout(len(gens[0]))
    pairs = [(sum(g), layout.encode(0, g) & layout.mask) for g in gens]
    kept = _minimal_pairs(pairs, layout.guard)
    assert [d for d, _ in kept] == sorted(d for d, _ in kept)
    decoded = [layout.exps(t) for _, t in kept]
    assert [d for d, _ in kept] == [sum(g) for g in decoded]
    assert sorted(decoded, key=lambda e: (sum(e), e)) == reference_minimalize(gens)


# The minimal leads of (x, y, z)^[81] over the F_3 cone x^2 + y^2 + z^2, the
# last level of its hk sequence over e = 1..4 (checked against the engine in
# ``test_numerator_of_the_cone_leads_takes_three_nodes``).
CONE_LEADS_E4 = (
    [(2, 0, 0), (0, 0, 81)]
    + [(0, 41 + k, 80 - 2 * k) for k in range(41)]
    + [(1, 40 + k, 80 - 2 * k) for k in range(41)]
)


@settings(max_examples=200, deadline=None)
@given(_monomial_lists(8))
# A two-variable staircase of 41 generators inside three variables.
@example([(k, 40 - k, 0) for k in range(41)])
# x^2 and w^5 split off; the rest is a staircase in y, z after minimalising.
@example([(2, 0, 0, 0), (0, 0, 0, 5), (0, 3, 1, 0), (0, 1, 2, 0), (0, 2, 2, 0)])
# Four shared variables: the pivot is x, whose only nonzero exponent is 1.
@example([(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 3), (0, 2, 0, 2)])
@example(CONE_LEADS_E4)
def test_hilbert_numerator_on_packed_terms_matches_the_reference(gens):
    """The packed recursion gives the reference's numerator, and every node
    of it receives minimal generators, as the reference's nodes do after
    re-minimalising."""
    n = len(gens[0]) if gens else 1
    layout = TermLayout(n)
    terms = [layout.encode(0, g) for g in gens]
    node = ring_module._numerator

    def checked(pairs, layout):
        assert sorted(pairs) == _minimal_pairs(pairs, layout.guard)
        return node(pairs, layout)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ring_module, "_numerator", checked)
        pairs = _minimal_pairs([(layout.degree(t), t & layout.mask) for t in terms], layout.guard)
        assert ring_module._numerator(pairs, layout) == reference_numerator(gens, n)


def test_numerator_of_the_cone_leads_takes_three_nodes(monkeypatch):
    """The cone's 84 leads at e = 4 take three ``_numerator`` nodes: the
    pivot x has the fewest distinct exponents, and both of its branches
    split off a power of x and leave a staircase in y, z.  The former rule
    (pivot on the variable in the most generators, coprime base case only)
    took 163 nodes."""
    cone = make_ring(3, list("xyz"), ["x^2 + y^2 + z^2"])
    vecs = [groebner.column_to_vec([cone.poly(v + "^81")], cone) for v in "xyz"]
    engine = groebner._run_engine(groebner._Engine(cone, 1, (0,), vecs))
    leads = [t for t, _ in engine.minimal_leads()[1][0]]
    assert sorted(map(cone._layout.exps, leads)) == sorted(CONE_LEADS_E4)
    nodes = []
    real = ring_module._numerator

    def counting(gens, layout):
        nodes.append(len(gens))
        return real(gens, layout)

    monkeypatch.setattr(ring_module, "_numerator", counting)
    layout = cone._layout
    pairs = _minimal_pairs([(layout.degree(t), t & layout.mask) for t in leads], layout.guard)
    num = ring_module._numerator(pairs, layout)
    assert nodes == [84, 43, 43]
    assert num == reference_numerator(CONE_LEADS_E4, 3)
