from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobetti import (
    FreeComplex,
    beta_sequence,
    degreewise_homology_oracle,
    ext_length,
    finite_pd_certificate,
    homology_length,
    make_ring,
    mu_sequence,
    quotient_module,
    resolve,
    tor_length,
    twist_complex,
)
from frobetti.errors import InfiniteLength, LiftFailure
from frobetti.homology import homology_presentation, subquotient_presentation
from frobetti.onedim import random_instances

from conftest import random_form, residue_field


def test_homology_examples(R1, R2, K1, K2):
    tw2 = twist_complex(resolve(K2, 2), 1)
    assert homology_length(tw2, 1) == 0

    tw1 = twist_complex(resolve(K1, 2), 1)
    assert homology_length(tw1, 0) == 6
    # golden value fixed by the degreewise oracle
    oracle = degreewise_homology_oracle(tw1, 1)
    assert oracle.stabilized
    assert homology_length(tw1, 1) == oracle.value == 7


def test_tor_examples(R1, R2, K1, K2):
    for e in (0, 1, 2):
        assert tor_length(K2, 1, e, "R") == 0
    assert tor_length(K1, 0, 1, "R") == 6
    assert tor_length(K1, 1, 1, ["x"]) == 5


def test_tor_with_prime_coefficients_matches_oracle(R1, K1):
    # the quotient-coefficient route agrees with the degreewise oracle
    from frobetti.homology import coefficient_ring

    tw = twist_complex(resolve(K1, 2), 1)
    ring2 = coefficient_ring(R1, ["x"])
    for spot in (0, 1):
        gb_len = homology_length(tw, spot, ring2)
        oracle = degreewise_homology_oracle(tw, spot, ring=ring2)
        assert oracle.stabilized and oracle.value == gb_len
    assert homology_length(tw, 1, ring2) == 5


def test_tor_rejects_infinite_modules(R1):
    M = quotient_module(R1, ["x"])
    with pytest.raises(InfiniteLength):
        tor_length(M, 1, 1, "R")


def test_ext_examples(R1, R2, K1, K2):
    for e in (0, 1, 2):
        assert ext_length(K2, 0, e) == 0
        assert ext_length(K2, 1, e) == 5**e
    for e in (1, 2):
        assert ext_length(K1, 0, e) == 1


def test_oracle_trivial_cases(R2, K2):
    res = resolve(K2, 2)
    zero = FreeComplex(R2, [0], [[]], [])
    assert degreewise_homology_oracle(zero, 0).value == 0
    assert degreewise_homology_oracle(res, 1).value == 0


def test_oracle_equivalence_random():
    # >= 20 seeded small instances: n <= 3 variables, entries of degree <= 2, e <= 1
    count = 0
    for ring, module in random_instances(7, 40, p=3):
        if count >= 20:
            break
        res = resolve(module, 2)
        tw = twist_complex(res, 1)
        for spot in (0, 1):
            oracle = degreewise_homology_oracle(tw, spot)
            assert oracle.stabilized
            assert oracle.value == homology_length(tw, spot)
            assert oracle.value == homology_presentation(tw, spot).length()
        count += 1
    assert count >= 20


def test_lift_failure_on_non_complex(R3):
    # x * x = x^2 is nonzero in R3, so [x], [x] is not a complex; the kernel
    # of the outer map is (y) and the incoming column cannot lift through it.
    bad = FreeComplex(R3, [1, 1, 1], [[0], [1], [2]], [[[R3.poly("x")]], [[R3.poly("x")]]])
    with pytest.raises(LiftFailure):
        homology_presentation(bad, 1)
    # the Hilbert-series route cannot tell a non-complex apart, so it checks
    with pytest.raises(LiftFailure):
        homology_length(bad, 1)
    # over a domain the kernel is zero and the empty-kernel guard fires
    S = make_ring(5, ["x", "y"], [])
    bad2 = FreeComplex(S, [1, 1, 1], [[0], [1], [2]], [[[S.poly("y")]], [[S.poly("y")]]])
    with pytest.raises(LiftFailure):
        homology_presentation(bad2, 1)
    with pytest.raises(LiftFailure):
        homology_length(bad2, 1)


def test_peskine_szpiro_vanishing(R2, R3, R4, K2):
    finite_pd = [
        K2,
        quotient_module(R3, ["x+y"]),
        quotient_module(R4, ["x+y"]),
    ]
    for module in finite_pd:
        for i in (1, 2, 3):
            for e in (0, 1, 2, 3):
                assert tor_length(module, i, e, "R") == 0


def test_duality_tor_ext(R1):
    # normalized first-difference estimates of beta_i and mu_{d+i} agree
    tol = Fraction(1, 20)
    for p in (2, 3):
        for gens in (["x^2", "x*y"], ["x*y"]):
            ring = make_ring(p, ["x", "y"], gens)
            K = quotient_module(ring, ["x", "y"])
            for i in (0, 1):
                b = beta_sequence(K, i, range(1, 5))
                m = mu_sequence(K, 1 + i, range(1, 5))
                assert b.estimate is not None and m.estimate is not None
                assert abs(b.estimate - m.estimate) <= tol


def test_koh_lee_certificates(R1, R2, R3, K1, K2):
    assert finite_pd_certificate(quotient_module(R3, ["x+y"]), 1, 1) is True
    assert finite_pd_certificate(K1, 1, 0) is False
    assert finite_pd_certificate(K2, 1, 1) is True


def test_tor_betti_cross_check(R1, K1):
    # Tor_j(M, K) has dimension beta_j
    from frobetti.homology import coefficient_ring

    res = resolve(K1, 3)
    kring = coefficient_ring(R1, ["x", "y"])
    for j in range(4):
        assert homology_presentation(res, j, kring).length() == res.rank(j)


def test_tor_of_f7_cubic_at_level_two():
    # out of reach for the subquotient route in a test budget (seconds per call)
    ring = make_ring(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    assert tor_length(residue_field(ring), 1, 2) == 5400


def _dual(cols, source_rank):
    """Columns of the transposed map, written out independently of the library."""
    return [[col[r] for col in cols] for r in range(source_rank)] if cols else [[]] * source_rank


def _ext_by_subquotient(tw, i, ring=None):
    """H^i of the dual of ``tw`` over its ring or ``ring``, presented as a
    subquotient (the reference route)."""
    out_cols = _dual(tw.matrix(i + 1), tw.rank(i)) if tw.matrix(i + 1) else None
    return subquotient_presentation(
        ring or tw.ring,
        tw.rank(i),
        [-d for d in tw.degrees(i)],
        out_cols,
        [-d for d in tw.degrees(i + 1)],
        _dual(tw.matrix(i), tw.rank(i - 1)) if i else [],
    ).length()


def test_ext_with_prime_coefficients_matches_subquotient(R1, K1):
    # ext_length hands R's vectors to R/(x) unchanged, as both share a layout.
    from frobetti.homology import coefficient_ring

    ring2 = coefficient_ring(R1, ["x"])
    for pos, exps in ((0, (0, 0)), (1, (2, 3)), (4, (7, 1))):
        assert ring2._layout.encode(pos, exps) == R1._layout.encode(pos, exps)
    res = resolve(K1, 3)
    for e in (0, 1, 2):
        tw = twist_complex(res, e)
        for i in (0, 1, 2):
            assert ext_length(K1, i, e, ["x"]) == _ext_by_subquotient(tw, i, ring2)


@st.composite
def _quadric_quotients(draw):
    """F_2 or F_3 in two or three variables modulo one or two random quadrics."""
    p = draw(st.sampled_from([2, 3]))
    variables = list("xyz"[: draw(st.integers(2, 3))])
    bare = make_ring(p, variables, [])
    quadrics = [random_form(draw, bare, 2) for _ in range(draw(st.integers(1, 2)))]
    return make_ring(p, variables, quadrics)


@settings(max_examples=15, deadline=None)
@given(_quadric_quotients(), st.sampled_from([0, 1]))
def test_tor_and_ext_lengths_agree_across_routes(ring, e):
    # Hilbert series vs subquotient vs degreewise oracle, and Tor_i(K, K) = beta_i
    K = residue_field(ring)
    res = resolve(K, 3)
    tw = twist_complex(res, e)
    for i in (0, 1, 2):
        tor = tor_length(K, i, e)
        assert tor == homology_presentation(tw, i).length()
        oracle = degreewise_homology_oracle(tw, i)
        if oracle.stabilized:
            assert oracle.value == tor
        assert ext_length(K, i, e) == _ext_by_subquotient(tw, i)
        assert tor_length(K, i, 0, list(ring.variables)) == res.betti[i]
