"""Exact vanishing and finite-projective-dimension decisions in dimension one.

Over a one-dimensional ring with a finite-length module M, vanishing of the
i-th Frobenius Betti number is equivalent to the entries of the (i+1)-st
resolution matrix landing in H^0_m(R); the decision is exact, no limits.
The surveys cross those exact decisions against sampled twisted Tor values
and syzygy dimension laws.
"""

import itertools
import random
from dataclasses import dataclass, field

from .asymptotics import beta_sequence
from .errors import InfiniteLength, NoParameterFound, NotMonomial, WrongDimension
from .groebner import (
    INFINITE,
    SubmodulePresentation,
    _carrying_basis,
    _minimal_generator_indices,
    quotient_module,
)
from .homology import tor_length
from .resolution import resolve
from .ring import _reduce_vec


def h0_ring(ring):
    """H^0_m(R) = (I : m^infinity)/I as a rank-one submodule with generators in S.

    They are minimal generators of the saturation's reduced basis, so monic;
    their span is the saturation's, so the result carries its basis.
    """
    got = ring._memo.get("h0")
    if got is None:
        sat = SubmodulePresentation(ring, [], 1).saturate()
        kept = _minimal_generator_indices(sat.vecs, ring, 1, sat.row_degrees)
        got = _carrying_basis([sat.vecs[i] for i in kept], sat.gb())
        ring._memo["h0"] = got
    return got


def _require_dim_one(ring):
    if ring.dim != 1:
        raise WrongDimension("this decision procedure needs a one-dimensional ring")


def _require_finite_length(module):
    if module.dimension() > 0:
        raise InfiniteLength("a finite-length module is required")


def decide_beta_vanishing(module, i):
    """Exact test for vanishing of the i-th Frobenius Betti number of M.

    True iff every entry of phi_{i+1} lies in H^0_m(R), i.e. the (i+1)-st
    syzygy has finite length; for free ambients this entrywise test agrees
    with the module-level containment.  The entries lie in H^0 + I = J iff
    each stored column reduces to zero against J * G_i, read from the one
    lead list of J's reduced basis at every position (``_reduce_vec``).
    """
    ring = module.ring
    _require_dim_one(ring)
    _require_finite_length(module)
    if i < 0:
        raise ValueError("index must be nonnegative")
    res = resolve(module, i + 1)
    gb = h0_ring(ring).gb()
    leads = gb.by_pos.get(0, [])
    return not any(_reduce_vec(dict(v), leads, gb.vecs, ring) for v in res.vectors(i + 1))


@dataclass
class PrimeTorReport:
    prime: list
    values: dict
    all_zero: bool
    first_nonzero: tuple = None


def tor_vanishing_vs_minimal_primes(module, i, primes=None, e_range=range(0, 4)):
    """Twisted Tor lengths against each minimal prime; reports first nonzero level."""
    _require_dim_one(module.ring)
    _require_finite_length(module)
    if primes is None:
        primes = minimal_primes_monomial(
            [g for g in module.ring.ideal_gens], module.ring
        )
    out = []
    for prime in primes:
        values = {}
        first = None
        for e in e_range:
            v = tor_length(module, i, e, list(prime) if prime else "R")
            values[e] = v
            if v and first is None:
                first = (e, v)
        out.append(PrimeTorReport(list(prime), values, first is None, first))
    return out


@dataclass
class FinitePdDecision:
    finite: bool
    rule: str
    vanishing: dict
    certificate: int = None


def decide_finite_pd_1dim(module, probe_index):
    """Finite-projective-dimension decision from exact beta vanishing.

    Cohen-Macaulay case (H^0_m(R) = 0): vanishing at one index decides;
    otherwise vanishing at two consecutive indices is required.  A "finite"
    verdict attaches the resolution-termination certificate (the first
    homological degree with rank zero).
    """
    _require_dim_one(module.ring)
    _require_finite_length(module)
    if probe_index < 1:
        raise ValueError("probe index must be at least 1")
    ring = module.ring
    cm = h0_ring(ring).is_zero_submodule()
    v_i = decide_beta_vanishing(module, probe_index)
    vanishing = {probe_index: v_i}
    if cm:
        finite = v_i
        rule = "cm-single-vanishing"
    else:
        v_next = decide_beta_vanishing(module, probe_index + 1)
        vanishing[probe_index + 1] = v_next
        finite = v_i and v_next
        rule = "general-consecutive-vanishing"
    certificate = None
    if finite:
        bound = probe_index + 3
        res = resolve(module, bound)
        for j in range(bound + 1):
            if res.rank(j) == 0:
                certificate = j
                break
    return FinitePdDecision(finite, rule, vanishing, certificate)


@dataclass
class ParameterChoice:
    y: object
    n: int
    x: object
    flags: dict

    @property
    def verified(self):
        return all(self.flags.values())


POWER_BOUND = 512


def choose_parameter(ring, annihilate=None, attempts=50):
    """A parameter x = y^n with H^0_m(R) = 0 : x, optionally killing a module.

    Variables are tried first, then random linear forms of seed 0, with
    n <= ``POWER_BOUND``.  Every flag is re-verified by Groebner computations
    rather than trusted from the construction.
    """
    _require_dim_one(ring)
    rng = random.Random(0)
    h0 = h0_ring(ring)
    h0_gens = [col[0] for col in h0.columns]
    candidates = list(ring.gens())
    for _ in range(attempts):
        coeffs = [rng.randrange(ring.p) for _ in range(ring.n)]
        if not any(coeffs):
            continue
        form = ring.zero
        for c, v in zip(coeffs, ring.gens()):
            form = form + c * v
        candidates.append(form)
    tried = set()
    for y in candidates:
        key = str(y)
        if key in tried:
            continue
        tried.add(key)
        if quotient_module(ring, [y]).dimension() != 0:
            continue
        n = _annihilating_power(ring, y, h0_gens, annihilate)
        if n is None:
            continue
        x = y**n
        flags = {
            "parameter": quotient_module(ring, [y]).dimension() == 0,
            "kills_h0": all(ring.is_zero_mod(x * g) for g in h0_gens),
            "h0_equals_colon": SubmodulePresentation(ring, [], 1).colon(x).same_span(h0),
        }
        if annihilate is not None:
            flags["kills_module"] = _kills_module(ring, x, annihilate)
        return ParameterChoice(y, n, x, flags)
    raise NoParameterFound(
        "no parameter found in %d attempts; enlarge the attempt budget or the field"
        % attempts
    )


def _annihilating_power(ring, y, h0_gens, annihilate):
    power = ring.one
    for n in range(1, POWER_BOUND + 1):
        power = power * y
        if all(ring.is_zero_mod(power * g) for g in h0_gens):
            if annihilate is None or _kills_module(ring, power, annihilate):
                return n
    return None


def _kills_module(ring, x, module):
    """x * ambient lies in the span of the module's relations."""
    r = module.ambient_rank
    return all(module.contains([x if k == pos else ring.zero for k in range(r)]) for pos in range(r))


@dataclass
class GateReport:
    applicable: bool
    reason: str = ""
    detail: dict = field(default_factory=dict)
    passed: bool = None


def lemma_h0_check(module, i):
    """Vanishing of Tor_i(M, R/H^0_m(R)) when the (i+1)-st syzygy is finite.

    Returns a vacuous report when the gate fails; otherwise asserts the
    vanishing computed by tensoring the resolution with R/H^0.  The
    resolution runs through step i + 1, which both the syzygy's length and
    Tor_i need.
    """
    ring = module.ring
    if module.dimension() > 0:
        return GateReport(False, "module length infinite")
    if i < 1:
        return GateReport(False, "index below 1")
    res = resolve(module, i + 1)
    omega = res.syzygy(i + 1)
    if omega.length is INFINITE:
        return GateReport(False, "syzygy length infinite")
    h0 = h0_ring(ring)
    coefficients = "R" if h0.is_zero_submodule() else [col[0] for col in h0.columns]
    value = tor_length(module, i, 0, coefficients)
    return GateReport(True, "", {"tor_length": value}, passed=(value == 0))


@dataclass
class SurveyRow:
    index: int
    betti: int
    dim: int
    length: object


@dataclass
class SyzygySurvey:
    ring_dim: int
    module_length: object
    rows: list
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.applicable)


def syzygy_length_survey(module, i_max):
    """Table of (i, beta_i, dim Omega_i, lambda(Omega_i)) with the dimension laws.

    Asserts on every applicable row that dim Omega_i is never strictly
    between 0 and d; in dimension one with a finite-length module of
    infinite projective dimension it checks that the first and third
    syzygies have dimension d, and it runs the conditional checks tied to
    non-decreasing Betti numbers.  Vacuous gates are recorded, not hidden.
    """
    ring = module.ring
    d = ring.dim
    res = resolve(module, i_max + 1)
    mod_len = module.length()
    # Omega_0 .. Omega_{i_max+1}, each measured once from the Hilbert series
    # of the resolution through step i_max + 1.
    omega = [res.syzygy(i) for i in range(i_max + 2)]
    rows = [SurveyRow(i, res.rank(i), omega[i].dimension, omega[i].length) for i in range(i_max + 1)]
    checks = []

    finite_m = mod_len is not INFINITE
    for row in rows:
        if row.index == 0:
            continue
        applicable = finite_m or d <= 1
        ok = not (0 < row.dim < d)
        checks.append(
            GateReport(
                applicable,
                "" if applicable else "module has infinite length and dim > 1",
                {"law": "syzygy-dimension", "index": row.index, "dim": row.dim},
                passed=ok if applicable else None,
            )
        )
        lam_consistent = (row.length is INFINITE) == (row.dim > 0)
        checks.append(
            GateReport(
                True,
                "",
                {"law": "length-dimension-consistency", "index": row.index},
                passed=lam_consistent,
            )
        )

    infinite_pd = all(res.rank(j) > 0 for j in range(i_max + 2))
    if d == 1 and finite_m and infinite_pd and i_max >= 3:
        ok = rows[1].dim == d and rows[3].dim == d
        checks.append(
            GateReport(
                True,
                "",
                {"law": "first-third-syzygy-dimension", "dims": (rows[1].dim, rows[3].dim)},
                passed=ok,
            )
        )
    else:
        checks.append(
            GateReport(
                False,
                "needs d=1, finite length, infinite pd, i_max >= 3",
                {"law": "first-third-syzygy-dimension"},
            )
        )

    for i in range(1, i_max + 1):
        gate = (
            finite_m
            and omega[i + 1].length is not INFINITE
            and infinite_pd
            and res.rank(i) >= res.rank(i - 1)
        )
        if not gate:
            checks.append(
                GateReport(
                    False,
                    "gate: finite lengths with non-decreasing betti",
                    {"law": "non-decreasing-betti-consequence", "index": i},
                )
            )
            continue
        ok = omega[i - 1].length is not INFINITE and d == 1
        checks.append(
            GateReport(
                True,
                "",
                {
                    "law": "non-decreasing-betti-consequence",
                    "index": i,
                    "previous_length": omega[i - 1].length,
                    "ring_dim": d,
                },
                passed=ok,
            )
        )
        checks.append(
            GateReport(True, "", {"law": "h0-tor-vanishing", "index": i}, passed=lemma_h0_check(module, i).passed)
        )

    # The K-vector-space argument behind this termination bound needs a
    # nonzero H^0, so the vacuous (Cohen-Macaulay) case is excluded.
    if d == 1 and finite_m and buchsbaum_flag(ring) == "holds":
        for i in range(2, i_max + 1):
            if omega[i + 1].length is INFINITE:
                continue
            ok = res.rank(i - 1) == 0
            checks.append(
                GateReport(
                    True,
                    "",
                    {"law": "buchsbaum-termination", "index": i},
                    passed=ok,
                )
            )

    return SyzygySurvey(d, mod_len, rows, checks)


def minimal_primes_monomial(gens, ring):
    """Minimal primes of a monomial ideal as variable lists (minimal covers).

    Each generator's support must be hit; the minimal transversals of those
    supports are exactly the minimal primes.  The zero ideal yields the
    single empty cover, i.e. the zero prime of a domain.
    """
    exps = []
    for g in gens:
        poly = ring.poly(g)
        if poly.is_zero():
            continue
        if len(poly.terms) != 1:
            raise NotMonomial("generator %s is not a monomial" % poly)
        exps.append(next(iter(poly.terms)))
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in exps]
    n = ring.n
    covers = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            t = frozenset(combo)
            if any(c <= t for c in covers):
                continue
            if all(s & t for s in supports):
                covers.append(t)
    covers.sort(key=lambda t: (len(t), sorted(t)))
    out = []
    for t in covers:
        out.append([ring.variables[i] for i in sorted(t)])
    return out


def buchsbaum_flag(ring):
    """Test the necessary condition m * H^0_m(R) = 0.

    Returns "vacuous" when H^0 = 0 (the Cohen-Macaulay case), "holds" when
    the product vanishes, and "fails" otherwise; the ring being Buchsbaum is
    never asserted positively.
    """
    _require_dim_one(ring)
    h0 = h0_ring(ring)
    if h0.is_zero_submodule():
        return "vacuous"
    h0_gens = [col[0] for col in h0.columns]
    if any(not ring.is_zero_mod(v * g) for v in ring.gens() for g in h0_gens):
        return "fails"
    return "holds"


@dataclass
class DiagnosisReport:
    index: int
    condition_entries_in_h0: bool
    condition_tor_primes: list
    beta_estimate: object
    consistent: bool
    finite_pd: FinitePdDecision


def diagnose_onedim(module, i, primes=None, e_range=range(0, 3), estimate_range=range(1, 4)):
    """Run the equivalent vanishing conditions side by side and compare them."""
    exact = decide_beta_vanishing(module, i)
    prime_reports = tor_vanishing_vs_minimal_primes(module, i, primes, e_range)
    est = beta_sequence(module, i, estimate_range)
    sampled_zero = all(r.all_zero for r in prime_reports)
    consistent = exact == sampled_zero
    decision = decide_finite_pd_1dim(module, max(i, 1))
    return DiagnosisReport(i, exact, prime_reports, est, consistent, decision)
