"""Frobenius-twisted lengths read the stored maps twisted one Frobenius step
at a time and reduced modulo I, memoised beside the module's resolution.

The references are the literal routes: the normal form of the bracket power
``_bracket_vec(v, q, layout)`` against I * G, and the lengths of
``twist_complex``, whose maps are the unreduced bracket powers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobetti import (
    beta_sequence,
    ext_length,
    groebner,
    hk_sequence,
    make_ring,
    mu_sequence,
    quotient_module,
    resolve,
    tor_length,
    verify_laws,
)
from frobetti import frobenius
from frobetti.errors import Overflow
from frobetti.groebner import column_to_vec
from frobetti.homology import coefficient_ring

from conftest import (
    R5_QUADRICS,
    random_form,
    reference_ext_length,
    reference_tor_length,
    residue_field,
)

CUBIC = ["x^3 + y^3 + z^3"]
CONE = ["x^2 + y^2 + z^2"]
RINGS = {
    "R1": (5, "xy", ["x^2", "x*y"]),
    "R5": (101, "xyzuv", R5_QUADRICS),
    "cubic5": (5, "xyz", CUBIC),
    "cubic7": (7, "xyz", CUBIC),
    "cone3": (3, "xyz", CONE),
}


def _ring(name):
    p, variables, gens = RINGS[name]
    return make_ring(p, list(variables), gens)


@st.composite
def _vectors(draw):
    """A fixture ring, a random homogeneous vector of rank 1-4 with random
    twists, and a level e = 1..3."""
    ring = _ring(draw(st.sampled_from(sorted(RINGS))))
    rank = draw(st.integers(1, 4))
    degrees = [draw(st.integers(0, 1)) for _ in range(rank)]
    degree = max(degrees) + draw(st.integers(0, 2))
    column = [random_form(draw, ring, degree - d) for d in degrees]
    return ring, column_to_vec(column, ring), rank, degrees, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_vectors())
def test_stepwise_normal_form_matches_the_literal_bracket(case):
    """NF(v^[p^e]) = NF(NF(v^[p^(e-1)])^[p]), from NF(v) at level 0, as I^[p]
    lies in I.  The stepwise side reduces with the ring's one basis of I
    (``QuotientRing.nf_vec``); the literal side against an engine-built
    basis of I * G."""
    ring, vec, rank, degrees, e = case
    stepwise = [ring.nf_vec(vec)]
    for _ in range(e):
        stepwise = frobenius.frobenius_step(stepwise, ring)
    ideal = groebner.groebner_basis([], ring, rank, degrees)
    literal = ideal.normal_form_vec(frobenius._bracket_vec(vec, ring.p**e, ring._layout))
    assert stepwise == [literal]


@pytest.mark.parametrize("name", ["R1", "R3", "cubic5", "cone3"])
def test_twisted_lengths_match_the_literal_twist(name):
    """``tor_length`` and ``ext_length`` over R and over R/(x), the
    additivity prime of R1, at e = 0..3 and i = 0..2, equal the lengths of
    the literal twist; every call shares the module's resolution and memo,
    and a second call reads the memo."""
    ring = make_ring(5, ["x", "y"], ["x*y"]) if name == "R3" else _ring(name)
    module = residue_field(ring)
    res = resolve(module, 3)
    for coefficients in ("R", ["x"]):
        target = ring if coefficients == "R" else coefficient_ring(ring, coefficients)
        for e in range(4):
            for i in range(3):
                tor = tor_length(module, i, e, coefficients)
                ext = ext_length(module, i, e, coefficients)
                assert tor == reference_tor_length(res, i, e, target)
                assert ext == reference_ext_length(res, i, e, target)
                assert (tor_length(module, i, e, coefficients), ext_length(module, i, e, coefficients)) == (
                    tor,
                    ext,
                )


def _count_brackets(monkeypatch):
    calls = []
    real = frobenius._bracket_vec

    def counting(vec, q, layout):
        calls.append(q)
        return real(vec, q, layout)

    monkeypatch.setattr(frobenius, "_bracket_vec", counting)
    return calls


def test_a_sequence_takes_one_step_per_column_per_level(monkeypatch):
    """beta_2 of K1 over e = 1..3 reads phi_2 and phi_3 (3 and 5 columns):
    24 bracket powers, each by p.  The literal twist bracketed every map of
    the resolution by q at every level, 30 calls.  mu_2 reads the same maps
    and a second beta_2 the same levels, so they bracket nothing."""
    calls = _count_brackets(monkeypatch)
    K1 = residue_field(_ring("R1"))
    assert beta_sequence(K1, 2, range(1, 4)).raw_values() == [13, 53, 253]
    assert calls == [5] * 24
    calls.clear()
    mu_sequence(K1, 2, range(1, 4))
    beta_sequence(K1, 2, range(1, 4))
    assert calls == []
    # hk carries its two generators from level to level the same way.
    assert hk_sequence(_ring("R1"), ["x", "y"], range(1, 4)).raw_values() == [6, 26, 126]
    assert calls == [5] * 6


def test_verify_laws_measures_each_twisted_cokernel_once(monkeypatch):
    """verify_laws on R1's residue field over e = 1..4 builds 39 engines:
    32 twisted cokernels (phi_1, phi_2 on the Tor side over R and R/(x),
    phi_0..phi_3 on the Ext side, four levels each), five for the
    resolution, one for the module's dimension and one for R/(x).  Before
    the memo, every sequence measured its own cokernels: 55 engines."""
    made = []

    class CountingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    K1 = residue_field(_ring("R1"))
    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    report = verify_laws(K1, [(["x"], 1)], range(1, 5))
    assert report.passed
    assert len(made) == 39


def test_reduced_twists_reach_levels_the_literal_bracket_cannot():
    """Over a ring with I != 0 the stepwise twist keeps exponents small, so
    a level whose literal bracket power raises Overflow gets an answer; the
    level itself must still satisfy q < 2^31 (``BracketLevel``)."""
    ring = make_ring(2, ["x"], ["x^3"])
    module = quotient_module(ring, ["x^2"])
    with pytest.raises(Overflow):
        reference_tor_length(resolve(module, 2), 1, 30, ring)
    assert tor_length(module, 1, 30) == 3
    with pytest.raises(Overflow):
        tor_length(module, 1, 31)
