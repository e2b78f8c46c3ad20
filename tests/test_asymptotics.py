from fractions import Fraction

import pytest

from frobetti import (
    beta_sequence,
    hk_sequence,
    make_ring,
    mu_sequence,
    quotient_module,
    resolve,
    verify_laws,
)
from frobetti.errors import InfiniteLength, MissingMultiplicities, NotPrimary
from frobetti.onedim import decide_beta_vanishing

from conftest import brute_force_monomial_count, fixture_rings, residue_field


def test_hk_r1(R1):
    seq = hk_sequence(R1, ["x", "y"], range(1, 4))
    assert seq.raw_values() == [6, 26, 126]
    assert [lv.normalized for lv in seq.levels] == [
        Fraction(6, 5),
        Fraction(26, 25),
        Fraction(126, 125),
    ]
    assert seq.estimate == 1 and seq.stabilized
    # independent oracle: enumerate standard monomials of (x^2, xy, x^q, y^q)
    for lv in seq.levels:
        gens = [(2, 0), (1, 1), (lv.q, 0), (0, lv.q)]
        assert lv.raw == brute_force_monomial_count(gens, 2, 2 * lv.q)


def test_hk_r2_r4(R2, R4):
    seq2 = hk_sequence(R2, ["x"], range(1, 4))
    assert seq2.raw_values() == [5, 25, 125]
    assert all(lv.normalized == 1 for lv in seq2.levels)
    assert seq2.estimate == 1

    seq4 = hk_sequence(R4, ["x", "y"], range(1, 4))
    assert seq4.raw_values() == [10, 50, 250]
    assert seq4.estimate == 2
    for lv in seq4.levels:
        gens = [(2, 0), (lv.q, 0), (0, lv.q)]
        assert lv.raw == brute_force_monomial_count(gens, 2, 2 * lv.q)


def test_levels_are_exact_rationals(R1, K1):
    seq = hk_sequence(R1, ["x", "y"], range(1, 3))
    for lv in seq.levels:
        assert isinstance(lv.raw, int) and isinstance(lv.normalized, Fraction)
    assert isinstance(seq.estimate, Fraction)


def test_hk_rejects_non_primary(R3):
    with pytest.raises(NotPrimary):
        hk_sequence(R3, ["x"], range(1, 3))


def test_beta_zero_equals_hk(R1, K1):
    hk = hk_sequence(R1, ["x", "y"], range(1, 4))
    b0 = beta_sequence(K1, 0, range(1, 4))
    assert b0.raw_values() == hk.raw_values()
    assert b0.estimate == hk.estimate == 1


def test_beta_regular_vanishes(K2):
    seq = beta_sequence(K2, 1, range(1, 4))
    assert seq.raw_values() == [0, 0, 0]
    assert seq.estimate == 0 and seq.stabilized


def test_mu_zero_r1(K1):
    seq = mu_sequence(K1, 0, range(1, 4))
    assert seq.raw_values() == [1, 1, 1]
    assert [lv.normalized for lv in seq.levels] == [
        Fraction(1, 5),
        Fraction(1, 25),
        Fraction(1, 125),
    ]
    assert seq.estimate == 0


def test_sequences_reject_infinite_length(R1):
    M = quotient_module(R1, ["x"])
    with pytest.raises(InfiniteLength):
        beta_sequence(M, 0, range(1, 3))
    with pytest.raises(InfiniteLength):
        mu_sequence(M, 0, range(1, 3))


def test_eventual_linearity_small_primes():
    # d = 1 fixtures: raw beta sequences become linear in q, so the last two
    # first differences agree exactly
    for p in (2, 3):
        rings = fixture_rings(p)
        for name in ("R1", "R3", "R4"):
            K = residue_field(rings[name])
            for i in (0, 1):
                seq = beta_sequence(K, i, range(1, 5))
                diffs = seq.differences()
                assert diffs[-1] == diffs[-2], (p, name, i, diffs)
                assert seq.stabilized


def test_normalized_positive_and_bounds(R1, R2, R3, R4):
    for ring in (R1, R2, R3, R4):
        seq = hk_sequence(ring, list(ring.variables), range(1, 4))
        assert all(lv.normalized > 0 for lv in seq.levels)
        K = residue_field(ring)
        b0 = beta_sequence(K, 0, range(1, 4))
        assert b0.estimate >= 1
    assert beta_sequence(residue_field(R2), 0, range(1, 4)).estimate == 1
    assert beta_sequence(residue_field(R1), 0, range(1, 4)).estimate == 1


def test_exact_vs_limit_coherence():
    # whenever the exact decision says the beta vanishes, normalized values
    # drop below 0.05 by e = 4 at p = 2
    rings = fixture_rings(2)
    cases = [
        (quotient_module(rings["R3"], ["x+y"]), 1),
        (quotient_module(rings["R4"], ["x+y"]), 1),
        (residue_field(rings["R2"]), 1),
    ]
    for module, i in cases:
        assert decide_beta_vanishing(module, i)
        seq = beta_sequence(module, i, range(1, 5))
        assert seq.levels[-1].normalized < Fraction(1, 20)


def test_verify_laws_r1(K1):
    report = verify_laws(K1, [(["x"], 1)], range(1, 4), indices=(0, 1))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "mu_0 vanishes (below dim)" in names
    assert "additivity beta_0" in names


def test_verify_laws_r3(K3):
    report = verify_laws(K3, [(["x"], 1), (["y"], 1)], range(1, 4), indices=(0, 1))
    assert report.passed


def test_verify_laws_missing_multiplicities(K1):
    with pytest.raises(MissingMultiplicities):
        verify_laws(K1, [], range(1, 3))


def test_nzd_inequality():
    # x + y annihilates K and is a nonzerodivisor on R3; R3/(x+y) is the
    # double point, so beta over the quotient bounds beta over R3
    R3 = make_ring(5, ["x", "y"], ["x*y"])
    K = residue_field(R3)
    double_point = make_ring(5, ["t"], ["t^2"])
    Kbar = quotient_module(double_point, ["t"])
    report = verify_laws(K, None, range(1, 5), indices=(1,), nzd=(Kbar,))
    nzd_checks = [c for c in report.checks if c.name.startswith("nzd")]
    assert nzd_checks and all(c.passed for c in nzd_checks)
    assert report.passed


def test_sequences_keep_resolution():
    # The levels twist the module's cached resolution; extending it for the
    # sequences must leave the same minimal resolution a fresh module gets.
    ring = make_ring(5, ["x", "y", "z"], ["x*y", "x*z", "y*z"])
    want_betti = resolve(residue_field(ring), 4).betti
    M = residue_field(ring)
    beta_sequence(M, 3, range(1, 4))
    assert resolve(M, 4).betti == want_betti
    N = residue_field(ring)
    mu_sequence(N, 3, range(1, 4))
    assert resolve(N, 4).betti == want_betti
