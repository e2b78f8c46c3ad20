"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the lines.  Criterion 2 asserts the minimal Betti string (3, 1, 1, 2)
of the five-variable example.  The third syzygy module is 0 : y = (u, v, z^2),
and z^2 is zero in that ring, so it needs two minimal generators, not three;
the string (3, 1, 1, 3) counts the redundant generator z^2 and comes from no
minimal resolution.  The test confirms the value independently of the
resolver's pruning: the normal form of z^2, the minimal generators of 0 : y,
and Tor dimensions against the residue field.
"""

from fractions import Fraction

import jsonschema
import pytest

from frobetti import (
    INFINITE,
    SubmodulePresentation,
    beta_sequence,
    cli,
    cokernel_presentation,
    decide_beta_vanishing,
    decide_finite_pd_1dim,
    degreewise_homology_oracle,
    finite_pd_certificate,
    h0_ring,
    hk_sequence,
    homology_length,
    ideal,
    lemma_h0_check,
    make_ring,
    minimal_primes_monomial,
    mu_sequence,
    quotient_module,
    resolve,
    syzygy_length_survey,
    tor_length,
    tor_vanishing_vs_minimal_primes,
    twist_complex,
    xi_alternating_sum_check,
)
from frobetti.homology import coefficient_ring
from frobetti.onedim import random_instances

from conftest import R5_QUADRICS, brute_force_monomial_count, fixture_rings, residue_field

TOL_SMALL = Fraction(1, 20)
TOL_BIG = Fraction(1, 10)


def _report(number, ok, detail):
    print("criterion %2d [%s] %s" % (number, "PASS" if ok else "FAIL", detail))


def test_criterion_01_finite_length_example(R1):
    ok = True
    ok = ok and R1.dim == 1
    ok = ok and h0_ring(R1).same_span(ideal(R1, ["x"]))
    M = quotient_module(R1, ["x"])
    res = resolve(M, 7)
    omega1, omega2 = res.syzygy(1), res.syzygy(2)
    ok = ok and omega1.length == 1
    ok = ok and omega2.length is INFINITE
    betti_positive = all(res.rank(j) > 0 for j in range(7))
    ok = ok and betti_positive
    _report(
        1,
        ok,
        "dim=%d, H0=(x), lambda(Omega_1)=%s, lambda(Omega_2)=%s, betti %s"
        % (R1.dim, omega1.length, omega2.length, res.betti[:7]),
    )
    assert ok


def test_criterion_02_five_variable_example():
    expected_betti = (3, 1, 1, 2)
    results = {}
    for p in (101, 32003):
        ring = make_ring(p, list("xyzuv"), R5_QUADRICS)
        zero = SubmodulePresentation(ring, [], 1)
        colon_ok = zero.colon(ring.poly("y")).same_span(ideal(ring, ["u", "v", "z^2"]))
        parameter_ok = quotient_module(ring, ["y"]).dimension() == 0
        column = [[ring.poly("u"), ring.poly("v"), ring.poly("z^2")]]
        module = cokernel_presentation(ring, column, 3, [0, 0, -1])
        res = resolve(module, 4)
        omega1, omega3 = res.syzygy(1), res.syzygy(3)
        lengths_ok = (
            omega1.length is not INFINITE
            and omega3.length is not INFINITE
            and module.length() is INFINITE
        )
        # Independent routes to the minimal string: z^2 vanishes in the ring,
        # 0 : y has two minimal generators, and dim_K Tor_i(M, K) = betti_i.
        z2_zero = ring.nf(ring.poly("z^2")).is_zero()
        colon_mingens = len(zero.colon(ring.poly("y")).minimal_generators())
        residue = coefficient_ring(ring, list(ring.variables))
        tor_dims = tuple(homology_length(res, i, residue) for i in range(4))
        routes_ok = z2_zero and colon_mingens == 2 and tor_dims == res.betti[:4]
        results[p] = (colon_ok, parameter_ok, res.betti[:4], lengths_ok, routes_ok)
    all_side_ok = all(c and pm and lo for c, pm, b, lo, x in results.values())
    cross_ok = all(x for *_, x in results.values())
    betti_observed = {p: r[2] for p, r in results.items()}
    betti_ok = all(b == expected_betti for b in betti_observed.values())
    _report(
        2,
        all_side_ok and cross_ok and betti_ok,
        "colon/parameter/lengths %s; cross-checks %s; betti %s vs expected %s"
        % (all_side_ok, cross_ok, betti_observed, expected_betti),
    )
    assert all_side_ok
    assert cross_ok, "z^2 normal form, mingens of 0:y or Tor dimensions disagree"
    # The minimal resolution has betti (3, 1, 1, 2): the third colon
    # generator z^2 lies in the defining ideal, so the third syzygy module
    # needs only two minimal generators.  A third rank of 3 would mean the
    # resolution kept the redundant generator z^2, which is zero in the ring.
    assert betti_ok, "minimal betti %s != expected %s" % (
        betti_observed,
        expected_betti,
    )


def test_criterion_03_hilbert_kunz(R1, R2, R4):
    seq1 = hk_sequence(R1, ["x", "y"], range(1, 4))
    ok = seq1.estimate == 1 and seq1.differences()[0] == 1 and seq1.stabilized
    for lv in seq1.levels:
        gens = [(2, 0), (1, 1), (lv.q, 0), (0, lv.q)]
        ok = ok and lv.raw == brute_force_monomial_count(gens, 2, 2 * lv.q)

    seq4 = hk_sequence(R4, ["x", "y"], range(1, 4))
    ok = ok and seq4.estimate == 2
    for lv in seq4.levels:
        gens = [(2, 0), (lv.q, 0), (0, lv.q)]
        ok = ok and lv.raw == brute_force_monomial_count(gens, 2, 2 * lv.q)

    seq2 = hk_sequence(R2, ["x"], range(1, 4))
    ok = ok and seq2.estimate == 1 and all(lv.normalized == 1 for lv in seq2.levels)
    _report(3, ok, "e_HK estimates: R1=%s R4=%s R2=%s" % (seq1.estimate, seq4.estimate, seq2.estimate))
    assert ok


def test_criterion_04_theorem_equiv_coherence():
    instances = 0
    failures = []
    for p in (2, 3, 5):
        rings = fixture_rings(p)
        battery = []
        for name in ("R1", "R2", "R3", "R4"):
            ring = rings[name]
            primes = minimal_primes_monomial([str(g) for g in ring.ideal_gens], ring)
            battery.append((name, residue_field(ring), primes))
        battery.append(("R3/(x+y)", quotient_module(rings["R3"], ["x+y"]), [["x"], ["y"]]))
        battery.append(("R4/(x+y)", quotient_module(rings["R4"], ["x+y"]), [["x"]]))
        battery.append(("R1/m2", quotient_module(rings["R1"], ["x", "y^2"]), [["x"]]))
        for name, module, primes in battery:
            for i in (0, 1, 2):
                instances += 1
                exact = decide_beta_vanishing(module, i)
                sampled = all(
                    r.all_zero
                    for r in tor_vanishing_vs_minimal_primes(module, i, primes, range(0, 4))
                )
                seq = beta_sequence(module, i, range(1, 5))
                if exact:
                    good = sampled and seq.levels[-1].normalized < TOL_SMALL
                else:
                    good = (not sampled) and seq.estimate > TOL_BIG
                if not good:
                    failures.append((p, name, i))
    ok = not failures
    _report(4, ok, "%d instances, failures: %s" % (instances, failures))
    assert ok


def test_criterion_05_duality_and_bass():
    ok = True
    details = []
    for gens in (["x^2", "x*y"], ["x*y"]):
        ring = make_ring(2, ["x", "y"], gens)
        K = residue_field(ring)
        mu0 = mu_sequence(K, 0, range(1, 5))
        ok = ok and abs(mu0.estimate) <= TOL_SMALL
        for i in (0, 1):
            b = beta_sequence(K, i, range(1, 5))
            m = mu_sequence(K, i + 1, range(1, 5))
            ok = ok and abs(b.estimate - m.estimate) <= TOL_SMALL
            details.append("beta_%d=%s mu_%d=%s" % (i, b.estimate, i + 1, m.estimate))
    _report(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_additivity(R1, R3, K1, K3):
    ok = True
    details = []
    for module, primes in ((K1, [(["x"], 1)]), (K3, [(["x"], 1), (["y"], 1)])):
        for i in (0, 1):
            lhs = beta_sequence(module, i, range(1, 4))
            parts = [
                (beta_sequence(module, i, range(1, 4), coefficients=gens), mult)
                for gens, mult in primes
            ]
            lhs_diffs = lhs.differences()
            rhs_diffs = [
                sum((mult * s.differences()[k] for s, mult in parts), Fraction(0))
                for k in range(len(lhs_diffs))
            ]
            term_ok = lhs_diffs == rhs_diffs
            est_ok = lhs.estimate == sum(
                (mult * s.estimate for s, mult in parts), Fraction(0)
            )
            ok = ok and term_ok and est_ok
            details.append("i=%d %s" % (i, lhs_diffs))
    _report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_finite_pd_certificates(R1, R2, R3, K1, K2, K3):
    finite_fixtures = [
        (quotient_module(R3, ["x+y"]), 1),
        (K2, 1),
    ]
    ok = True
    for module, depth in finite_fixtures:
        for i in (1, 2, 3):
            for e in (0, 1, 2, 3):
                ok = ok and tor_length(module, i, e, "R") == 0
        ok = ok and finite_pd_certificate(module, 1, depth)
    ok = ok and not finite_pd_certificate(K1, 1, 0)
    # Cohen-Macaulay rule on R3-based instances
    ok = ok and decide_finite_pd_1dim(quotient_module(R3, ["x+y"]), 1).finite
    ok = ok and not decide_finite_pd_1dim(K3, 1).finite
    # the consecutive-vanishing rule never certifies the residue field of R1
    for i in (1, 2, 3):
        ok = ok and not decide_finite_pd_1dim(K1, i).finite
    _report(7, ok, "vanishing + certificates on finite-pd fixtures, refusals on K")
    assert ok


def test_criterion_08_oracle_equivalence():
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
        count += 1
    ok = count >= 20
    _report(8, ok, "%d random instances, oracle == subquotient route" % count)
    assert ok


def test_criterion_09_syzygy_dimension_laws(R1, R3, R4, K1, K3):
    ok = True
    vacuous = 0
    fixtures = [
        K1,
        K3,
        residue_field(R4),
        quotient_module(R1, ["x"]),
        quotient_module(R3, ["x+y"]),
        quotient_module(R1, ["x", "y^2"]),
    ]
    for module in fixtures:
        survey = syzygy_length_survey(module, 4)
        ok = ok and survey.passed
        vacuous += sum(1 for c in survey.checks if not c.applicable)
    for ring, module in random_instances(2026, 50):
        survey = syzygy_length_survey(module, 3)
        ok = ok and survey.passed
        vacuous += sum(1 for c in survey.checks if not c.applicable)
    # first/third syzygy dimensions for finite-length infinite-pd instances
    for module in (K1, K3, residue_field(R4), quotient_module(R1, ["x", "y^2"])):
        res = resolve(module, 5)
        if all(res.rank(j) > 0 for j in range(6)):
            ok = ok and res.syzygy(1).dimension == 1
            ok = ok and res.syzygy(3).dimension == 1
    # conditional checkers report, never violate
    for module in fixtures:
        for i in (2, 3):
            rep = xi_alternating_sum_check(module, i)
            if rep.applicable:
                ok = ok and rep.passed
            else:
                vacuous += 1
            rep2 = lemma_h0_check(module, i)
            if rep2.applicable:
                ok = ok and rep2.passed
            else:
                vacuous += 1
    _report(9, ok, "all rows satisfy the dimension laws; %d vacuous gates recorded" % vacuous)
    assert ok


def test_criterion_10_cli_contract(tmp_path):
    problem_text = "char: 5\nvars: x, y\nideal: x^2, x*y\nmodule: quotient x, y\n"
    prob = cli.parse_problem(problem_text)
    schema = cli.load_schema()
    ok = True

    first = cli.run("hk", prob, {"emax": 3})
    second = cli.run("hk", prob, {"emax": 3})
    jsonschema.validate(first, schema)
    ok = ok and cli.result_bytes(first) == cli.result_bytes(second)

    cache = str(tmp_path / "cache")
    miss = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    hit = cli.run("resolve", prob, {"steps": 2, "cache_dir": cache})
    jsonschema.validate(hit, schema)
    ok = ok and miss["timing"]["cache"] == "miss"
    ok = ok and hit["timing"]["cache"] == "hit"
    ok = ok and cli.result_bytes(miss) == cli.result_bytes(hit)

    bad = tmp_path / "bad.fbr"
    bad.write_text("nonsense\n")
    ok = ok and cli.main(["hk", "-i", str(bad)]) == 2
    np_file = tmp_path / "np.fbr"
    np_file.write_text("char: 5\nvars: x, y\nideal: x*y\nmodule: quotient x\n")
    ok = ok and cli.main(["hk", "-i", str(np_file)]) == 3
    of_file = tmp_path / "of.fbr"
    of_file.write_text(problem_text)
    ok = ok and cli.main(["beta", "-i", str(of_file), "--emax", "50"]) == 4
    _report(10, ok, "determinism, schema, cache equivalence, exit codes 2/3/4")
    assert ok
