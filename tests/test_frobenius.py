import random

import pytest

from frobetti import (
    BracketLevel,
    FreeComplex,
    frobenius_power,
    make_ring,
    quotient_module,
    resolve,
    tor_length,
)
from frobetti.errors import Overflow

from conftest import composes_to_zero, residue_field
from reference import bracket_ideal, homology_length, twist_complex


def test_bracket_level():
    lv = BracketLevel(5, 3)
    assert lv.q == 125
    with pytest.raises(Overflow):
        BracketLevel(5, 64)
    with pytest.raises(ValueError):
        BracketLevel(5, -1)


def test_frobenius_power_examples(R1):
    assert str(frobenius_power(R1.poly("x + y"), 1)) == "x^5 + y^5"
    assert frobenius_power(R1.zero, 2).is_zero()
    assert frobenius_power(R1.one, 3) == R1.one
    f = R1.poly("x^2 - y^2")
    assert frobenius_power(f, 1) == R1.poly("x^10 - y^10")


def test_frobenius_power_matches_repeated_multiplication(R1):
    rng = random.Random(4)
    for _ in range(20):
        f = R1.zero
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            f = f + R1.monomial(exps, rng.randint(1, 4))
        direct = R1.one
        for _ in range(5):
            direct = direct * f
        assert frobenius_power(f, 1) == direct


def test_frobenius_power_is_multiplicative_and_additive(R1):
    rng = random.Random(8)
    for _ in range(30):
        f = R1.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 4)) + R1.poly("y")
        g = R1.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 4))
        e = rng.randint(0, 2)
        assert frobenius_power(f * g, e) == frobenius_power(f, e) * frobenius_power(g, e)
        assert frobenius_power(f + g, e) == frobenius_power(f, e) + frobenius_power(g, e)


def test_frobenius_power_composes(R1):
    f = R1.poly("x^2 + 3*x*y")
    assert frobenius_power(f, 3) == frobenius_power(frobenius_power(f, 1), 2)


def test_bracket_ideal_and_matrix(R1):
    gens = bracket_ideal([R1.poly("x"), R1.poly("y")], 1)
    assert [str(g) for g in gens] == ["x^5", "y^5"]
    gens2 = bracket_ideal([R1.poly("x^2"), R1.poly("x*y")], 1)
    assert [str(g) for g in gens2] == ["x^10", "x^5*y^5"]
    # Entrywise bracket powers of a matrix, as the twist of a one-map complex.
    C = FreeComplex(R1, [1, 2], [[0], [1, 1]], [[[R1.poly("x")], [R1.poly("y")]]])
    tw = twist_complex(C, BracketLevel(5, 2))
    assert [str(col[0]) for col in tw.matrix(1)] == ["x^25", "y^25"]


def test_twist_complex(R1, R2, K1, K2):
    res2 = resolve(K2, 2)
    tw = twist_complex(res2, 1)
    assert str(tw.matrix(1)[0][0]) == "x^5"
    assert homology_length(tw, 1) == 0

    res1 = resolve(K1, 2)
    tw1 = twist_complex(res1, 1)
    assert [str(col[0]) for col in tw1.matrix(1)] == ["x^5", "y^5"]
    assert tw1.degrees(1) == [5, 5]
    assert homology_length(tw1, 0) == 6

    same = twist_complex(res1, 0)
    assert [
        [[str(e) for e in col] for col in same.matrix(j)] for j in (1, 2)
    ] == [[[str(e) for e in col] for col in res1.matrix(j)] for j in (1, 2)]


def test_twist_is_complex(R1, R3, K1, K3):
    cubic = make_ring(5, list("xyz"), ["x^3 + y^3 + z^3"])
    cone = make_ring(3, list("xyz"), ["x^2 + y^2 + z^2"])
    for module in (K1, K3, residue_field(cubic), residue_field(cone)):
        res = resolve(module, 3)
        for e in (1, 2):
            tw = twist_complex(res, e)
            assert tw.check_complex()
            assert composes_to_zero(tw)


def test_overflow_guard(R2):
    f = R2.poly("x^1000000")
    with pytest.raises(Overflow):
        frobenius_power(f, 5)
    # The twist of a complex keeps the same bound, q * e < 2^31 for every
    # exponent e, which the packed fields of a term would not catch.
    S = make_ring(5, ["x", "y"], [])

    def one_map(entry, degree):
        return FreeComplex(S, [1, 1], [[0], [degree]], [[[S.poly(entry)]]])

    with pytest.raises(Overflow):
        twist_complex(one_map("x^1000000", 1000000), 5)
    tw = twist_complex(one_map("x^687194", 687194), 5)
    assert tw.degrees(1) == [2147481250]
    assert str(tw.matrix(1)[0][0]) == "x^2147481250"
    # The bound is per exponent, not on the degree.
    tw = twist_complex(one_map("x^400000*y^400000", 800000), 5)
    assert str(tw.matrix(1)[0][0]) == "x^1250000000*y^1250000000"


def test_ehk_identity(R1, R4):
    # lambda(R/J^[q]) equals lambda(Tor_0(R/J, eR)) for irrelevant-primary J
    for ring in (R1, R4):
        J = ["x", "y"]
        M = quotient_module(ring, J)
        for e in (1, 2, 3):
            powered = [str(frobenius_power(ring.poly(g), e)) for g in J]
            direct = quotient_module(ring, powered).length()
            assert tor_length(M, 0, e, "R") == direct
