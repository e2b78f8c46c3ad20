import pytest

from frobetti import (
    INFINITE,
    SubmodulePresentation,
    buchsbaum_flag,
    choose_parameter,
    decide_beta_vanishing,
    decide_finite_pd_1dim,
    diagnose_onedim,
    h0_ring,
    ideal,
    lemma_h0_check,
    make_ring,
    minimal_primes_monomial,
    quotient_module,
    resolve,
    syzygy_length_survey,
    tor_length,
    tor_vanishing_vs_minimal_primes,
)
from frobetti import cli, groebner
from frobetti.errors import InfiniteLength, NotMonomial, WrongDimension
from frobetti.homology import coefficient_ring

from conftest import fixture_rings, residue_field
from reference import homology_length, random_instances, xi_alternating_sum_check


def test_h0_ring(R1, R2, R3, R5):
    assert h0_ring(R1).same_span(ideal(R1, ["x"]))
    assert h0_ring(R5).same_span(ideal(R5, ["x", "z", "u", "v"]))
    assert [str(c[0]) for c in h0_ring(R5).columns] == ["x", "z", "u", "v"]
    assert h0_ring(R3).is_zero_submodule()
    assert h0_ring(R2).is_zero_submodule()


def test_ring_memo_holds_h0_and_coefficient_rings(R1):
    assert coefficient_ring(R1, ["x"]) is coefficient_ring(R1, ["x"])
    assert h0_ring(R1) is h0_ring(R1)
    # The memo lives on the ring object: an equal ring starts cold.
    twin = make_ring(5, ["x", "y"], ["x^2", "x*y"])
    assert coefficient_ring(twin, ["x"]) is not coefficient_ring(R1, ["x"])
    assert h0_ring(twin) is not h0_ring(R1)
    assert h0_ring(twin).same_span(ideal(twin, ["x"]))


def test_coefficient_ring_matches_the_string_route(R1):
    """``coefficient_ring`` hands ``make_ring`` its generators as
    polynomials: R1 over (x), and each one-dimensional family of the
    benchmark over its H^0_m(R) generators, get the ideal generators and the
    reduced basis of I, term order included, that printing the generators
    and parsing them again gives."""
    cases = [(R1, ["x"])]
    for gens in (["x^2", "x*y", "x*z", "y*z"], ["x^2 - x*y", "x*z", "y*z"], ["x^2", "x*y - x*z", "y*z"]):
        ring = make_ring(5, list("xyz"), gens)
        cases.append((ring, [col[0] for col in h0_ring(ring).columns]))
    for ring, extra in cases:
        got = coefficient_ring(ring, extra)
        printed = [str(g) for g in ring.ideal_gens] + [str(ring.poly(g)) for g in extra]
        parsed = make_ring(ring.p, ring.variables, printed)
        assert [g.terms for g in got.ideal_gens] == [g.terms for g in parsed.ideal_gens]
        assert [list(v.items()) for v in got._gb_vecs] == [list(v.items()) for v in parsed._gb_vecs]


def test_tor_over_r_mod_h0_matches_the_homology_route(R1):
    """``lemma_h0_check`` reads Tor_i(k, R/H^0_m(R)) through ``tor_length``;
    ``homology_length`` over ``coefficient_ring`` is the reference route.
    Both agree on the residue field of R1 and of each one-dimensional family
    of the benchmark (H^0 = 0 for the second), for i = 1..4."""
    cases = [(R1, [1, 2, 3, 5])]
    for gens, expected in (
        (["x^2", "x*y", "x*z", "y*z"], [1, 3, 7, 17]),
        (["x^2 - x*y", "x*z", "y*z"], [0, 0, 0, 0]),
        (["x^2", "x*y - x*z", "y*z"], [1, 2, 3, 5]),
    ):
        cases.append((make_ring(5, list("xyz"), gens), expected))
    for ring, expected in cases:
        module = residue_field(ring)
        h0_gens = [col[0] for col in h0_ring(ring).columns]
        target = coefficient_ring(ring, h0_gens)
        assert [tor_length(module, i, 0, h0_gens) for i in range(1, 5)] == expected
        assert [homology_length(resolve(module, i + 1), i, target) for i in range(1, 5)] == expected


def test_decide_beta_vanishing_examples(R1, R2, R3, K1, K2):
    assert decide_beta_vanishing(quotient_module(R3, ["x+y"]), 1) is True
    assert decide_beta_vanishing(K1, 1) is False
    assert decide_beta_vanishing(K1, 0) is False
    assert decide_beta_vanishing(K2, 1) is True
    assert decide_beta_vanishing(K2, 0) is False


def _entries_in_h0(module, i):
    """The entry-by-entry reference: every entry of phi_{i+1} lies in H^0 + I."""
    h0 = h0_ring(module.ring)
    res = resolve(module, i + 1)
    return all(entry.is_zero() or h0.contains([entry]) for col in res.matrix(i + 1) for entry in col)


def test_decide_beta_vanishing_matches_entrywise_reference(R1, R3, R4, R5):
    modules = [residue_field(ring) for ring in (R1, R3, R4, R5)]
    modules += [quotient_module(R3, ["x+y"]), quotient_module(R4, ["x+y"])]
    modules += [module for ring, module in random_instances(11, 30) if ring.dim == 1]
    answers = set()
    for module in modules:
        for i in (0, 1, 2):
            exact = decide_beta_vanishing(module, i)
            assert exact == _entries_in_h0(module, i), (module.ring, i)
            answers.add(exact)
    assert answers == {True, False}


def test_decide_beta_vanishing_guards(R5, K1):
    Kbig = residue_field(make_ring(5, ["x", "y"], []))  # dim 2
    with pytest.raises(WrongDimension):
        decide_beta_vanishing(Kbig, 0)
    M = quotient_module(K1.ring, ["x"])
    with pytest.raises(InfiniteLength):
        decide_beta_vanishing(M, 0)


def test_minimal_primes_monomial(R1, R2, R3):
    assert minimal_primes_monomial(["x^2", "x*y"], R1) == [["x"]]
    assert minimal_primes_monomial(["x*y"], R3) == [["x"], ["y"]]
    assert minimal_primes_monomial(["x"], R1) == [["x"]]
    assert minimal_primes_monomial([], R2) == [[]]
    with pytest.raises(NotMonomial):
        minimal_primes_monomial(["x + y"], R1)


def test_tor_vanishing_reports(R1, R3, K1):
    reports = tor_vanishing_vs_minimal_primes(K1, 1, [["x"]], range(0, 3))
    assert len(reports) == 1 and not reports[0].all_zero
    assert reports[0].first_nonzero[0] == 0

    Mf = quotient_module(R3, ["x+y"])
    reports = tor_vanishing_vs_minimal_primes(Mf, 1, [["x"], ["y"]], range(0, 3))
    assert all(r.all_zero for r in reports)

    # i = 0 with M != 0: Tor_0 = M/pM is never zero
    reports = tor_vanishing_vs_minimal_primes(K1, 0, [["x"]], range(0, 2))
    assert not reports[0].all_zero


def test_decide_finite_pd(R1, R2, R3, K1, K2):
    Mf = quotient_module(R3, ["x+y"])
    dec = decide_finite_pd_1dim(Mf, 1)
    assert dec.finite and dec.rule == "cm-single-vanishing" and dec.certificate == 2

    dec_k = decide_finite_pd_1dim(K1, 1)
    assert not dec_k.finite and dec_k.rule == "general-consecutive-vanishing"
    assert dec_k.vanishing == {1: False, 2: False}

    assert decide_finite_pd_1dim(K2, 1).finite


def test_choose_parameter_r1(R1):
    choice = choose_parameter(R1)
    assert str(choice.y) == "y" and choice.n == 1 and str(choice.x) == "y"
    assert choice.verified


def test_choose_parameter_r3(R3):
    choice = choose_parameter(R3)
    assert choice.verified
    # no single variable is a parameter on R3, so a linear form was needed
    assert str(choice.y) not in ("x", "y")


def test_choose_parameter_r5(R5):
    choice = choose_parameter(R5)
    assert choice.verified
    # y is the first variable that is a parameter; one power of it does not
    # kill all of H^0 here, so the suitable parameter is y^2
    assert str(choice.y) == "y" and choice.n == 2
    colon = SubmodulePresentation(R5, [], 1).colon(choice.x)
    assert colon.same_span(h0_ring(R5))
    # the colon by y itself is the example ideal (u, v, z^2)
    assert SubmodulePresentation(R5, [], 1).colon(choice.y).same_span(
        ideal(R5, ["u", "v", "z^2"])
    )


def test_choose_parameter_annihilating(R1):
    M = quotient_module(R1, ["x", "y^2"])
    choice = choose_parameter(R1, annihilate=M)
    assert choice.flags["kills_module"]
    assert choice.n == 2  # y itself does not kill y mod (x, y^2)


def test_no_parameter_found():
    # over F_2 every linear form divides xy(x+y), so no linear parameter exists
    from frobetti.errors import NoParameterFound

    ring = make_ring(2, ["x", "y"], ["x^2*y + x*y^2"])
    assert ring.dim == 1
    with pytest.raises(NoParameterFound):
        choose_parameter(ring, attempts=30)


def test_survey_five_variable_module(R5):
    from frobetti import cokernel_presentation

    module = cokernel_presentation(
        R5, [[R5.poly("u"), R5.poly("v"), R5.poly("z^2")]], 3, [0, 0, -1]
    )
    survey = syzygy_length_survey(module, 3)
    assert survey.passed
    assert survey.module_length is INFINITE
    assert survey.rows[1].length is not INFINITE
    assert survey.rows[3].length is not INFINITE


def test_buchsbaum_flag(R1, R2, R3):
    assert buchsbaum_flag(R1) == "holds"
    assert buchsbaum_flag(R3) == "vacuous"
    assert buchsbaum_flag(R2) == "vacuous"
    bad = make_ring(5, ["x", "y"], ["x^3", "x^2*y^2"])
    assert buchsbaum_flag(bad) == "fails"


def test_xi_gates(R1, R3, K1):
    Mf = quotient_module(R3, ["x+y"])
    rep = xi_alternating_sum_check(Mf, 2)
    assert not rep.applicable and rep.reason == "finite projective dimension"

    rep = xi_alternating_sum_check(K1, 2)
    assert not rep.applicable and rep.reason == "syzygy length infinite"

    zero = quotient_module(R1, ["1"])
    rep = xi_alternating_sum_check(zero, 2)
    assert not rep.applicable and rep.reason == "zero module"

    rep = xi_alternating_sum_check(K1, 1)
    assert not rep.applicable and rep.reason == "index below 2"


def test_lemma_h0_check(R1, R3, K1):
    rep = lemma_h0_check(K1, 1)
    assert not rep.applicable and rep.reason == "syzygy length infinite"

    Mf = quotient_module(R3, ["x+y"])
    rep = lemma_h0_check(Mf, 1)
    assert rep.applicable and rep.passed
    rep2 = lemma_h0_check(Mf, 2)
    assert rep2.applicable and rep2.passed


def test_survey_residue_field_r1(K1):
    survey = syzygy_length_survey(K1, 3)
    assert survey.passed
    dims = [row.dim for row in survey.rows]
    lengths = [row.length for row in survey.rows]
    assert dims[0] == 0 and lengths[0] == 1
    assert dims[1] == 1 and lengths[1] is INFINITE
    assert dims[3] == 1 and lengths[3] is INFINITE


def test_survey_finite_syzygy_module(R1):
    M = quotient_module(R1, ["x"])
    survey = syzygy_length_survey(M, 2)
    assert survey.passed
    assert survey.module_length is INFINITE
    assert survey.rows[1].length == 1 and survey.rows[1].dim == 0
    assert survey.rows[2].length is INFINITE


# The base ideals of the benchmark's one-dimensional families over F_5, and
# the engines ``fb syz --idx 3`` builds on their residue fields.  It built
# 20, 19 and 21 when each syzygy's length took an engine run of its own and
# the survey resolved one step further.
ONEDIM_SYZ3_ENGINES = {
    "x^2, x*y, x*z, y*z": 13,
    "x^2 - x*y, x*z, y*z": 12,
    "x^2, x*y - x*z, y*z": 14,
}


def test_syzygy_survey_resolves_only_what_it_reads(monkeypatch, R1):
    """A survey to i_max reads Omega_0 .. Omega_{i_max+1}, so it resolves
    through step i_max + 1, and a syzygy of a stored resolution runs no
    engine once the module's Hilbert numerator is known."""
    made = []

    class CountingEngine(groebner._Engine):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(groebner, "_Engine", CountingEngine)
    module = residue_field(R1)
    syzygy_length_survey(module, 3)
    assert len(module._resolution[2]) == 4
    made.clear()
    res = resolve(module, 4)
    assert [res.syzygy(i).dimension for i in range(5)] == [0, 1, 1, 1, 1]
    assert made == []
    for gens, engines in ONEDIM_SYZ3_ENGINES.items():
        problem = cli.parse_problem("char: 5\nvars: x, y, z\nideal: %s\n" % gens)
        made.clear()
        cli.run("syz", problem, {"idx": 3})
        assert len(made) == engines, gens


def test_survey_random_instances():
    vacuous = 0
    for ring, module in random_instances(2026, 25):
        survey = syzygy_length_survey(module, 3)
        assert survey.passed, (ring, [str(c[0]) for c in module.columns])
        vacuous += sum(1 for c in survey.checks if not c.applicable)
    # vacuous gates are recorded, not hidden
    assert vacuous > 0


def test_diagnose_onedim(R1, R3, K1):
    diag = diagnose_onedim(K1, 1, [["x"]])
    assert diag.consistent
    assert not diag.condition_entries_in_h0
    assert diag.beta_estimate.estimate > 0

    Mf = quotient_module(R3, ["x+y"])
    diag2 = diagnose_onedim(Mf, 1, [["x"], ["y"]])
    assert diag2.consistent and diag2.condition_entries_in_h0
    assert diag2.finite_pd.finite


def test_theorem_equiv_coherence_battery():
    # exact decision vs sampled Tor vanishing vs estimator behavior
    from fractions import Fraction

    from frobetti import beta_sequence

    for p in (2, 3, 5):
        rings = fixture_rings(p)
        battery = []
        for name in ("R1", "R2", "R3", "R4"):
            ring = rings[name]
            primes = minimal_primes_monomial([str(g) for g in ring.ideal_gens], ring)
            battery.append((residue_field(ring), primes))
        battery.append((quotient_module(rings["R3"], ["x+y"]), [["x"], ["y"]]))
        battery.append((quotient_module(rings["R4"], ["x+y"]), [["x"]]))
        for module, primes in battery:
            for i in (0, 1, 2):
                exact = decide_beta_vanishing(module, i)
                reports = tor_vanishing_vs_minimal_primes(module, i, primes, range(0, 4))
                sampled = all(r.all_zero for r in reports)
                assert exact == sampled, (p, i, exact, sampled)
                seq = beta_sequence(module, i, range(1, 5))
                if exact:
                    assert seq.levels[-1].normalized < Fraction(1, 20)
                else:
                    assert seq.estimate > Fraction(1, 10)
