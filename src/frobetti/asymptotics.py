"""Estimator sequences for Hilbert-Kunz and Frobenius Betti/mu asymptotics.

Every level stores the raw length and its exact rational normalization by
q^d; the limit estimate is the first difference (raw_{k+1} - raw_k) /
(q_{k+1}^d - q_k^d), which is exact once the raw sequence becomes linear in
q.  A sequence is flagged stabilized when the last two differences agree as
rationals.  No floating point enters the raw data.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfiniteLength, MissingMultiplicities, NotPrimary
from .groebner import quotient_module
from .homology import ext_length, tor_length


@dataclass(frozen=True)
class Level:
    e: int
    q: int
    raw: int
    normalized: Fraction


@dataclass
class AsymptoticEstimate:
    kind: str
    index: int
    d: int
    levels: list
    estimate: Fraction = None
    stabilized: bool = False

    def differences(self):
        out = []
        for a, b in zip(self.levels, self.levels[1:]):
            if self.d == 0:
                out.append(Fraction(b.raw - a.raw))
            else:
                out.append(Fraction(b.raw - a.raw, b.q**self.d - a.q**self.d))
        return out

    def raw_values(self):
        return [lv.raw for lv in self.levels]

    def __repr__(self):
        est = "n/a" if self.estimate is None else str(self.estimate)
        return "<%s_%d sequence, %d levels, estimate %s%s>" % (
            self.kind,
            self.index,
            len(self.levels),
            est,
            ", stabilized" if self.stabilized else "",
        )


def _normalize_range(e_range):
    es = sorted(set(int(e) for e in e_range))
    if not es:
        raise ValueError("empty level range")
    return es


def _sequence(kind, index, ring, e_range, raw_at):
    """Levels raw_at(e) with their q^d normalization and the limit estimate."""
    d = ring.dim
    levels = []
    for e in _normalize_range(e_range):
        q = ring.p**e
        raw = raw_at(e)
        levels.append(Level(e, q, raw, Fraction(raw, q**d)))
    est = AsymptoticEstimate(kind, index, d, levels)
    if d == 0:
        # q^0 = 1: the sequence itself converges, no differencing.
        est.estimate = Fraction(levels[-1].raw)
        est.stabilized = len(levels) >= 2 and levels[-1].raw == levels[-2].raw
        return est
    diffs = est.differences()
    if diffs:
        est.estimate = diffs[-1]
        est.stabilized = len(diffs) >= 2 and diffs[-1] == diffs[-2]
    return est


def hk_sequence(ring, ideal_gens, e_range):
    """Levels lambda(R/J^[q]) with the first-difference multiplicity estimate.

    R/J^[q] is Tor_0(R/J, eR), so a level is ``tor_length(R/J, 0, e)`` and
    the limit is e_HK(J, R) = beta^F_0(R/J)."""
    module = quotient_module(ring, [ring.poly(g) for g in ideal_gens])
    if module.dimension() > 0:
        raise NotPrimary("the ideal is not irrelevant-primary; lengths would be infinite")
    return _sequence("hk", 0, ring, e_range, lambda e: tor_length(module, 0, e))


def _homology_sequence(kind, length_fn, module, i, e_range, coefficients):
    if module.dimension() > 0:
        raise InfiniteLength("%s sequences need a finite-length module" % kind)
    return _sequence(kind, i, module.ring, e_range, lambda e: length_fn(module, i, e, coefficients))


def beta_sequence(module, i, e_range, coefficients="R"):
    """Levels lambda(Tor_i(M, eN)) / q^d; the Frobenius Betti estimator."""
    return _homology_sequence("beta", tor_length, module, i, e_range, coefficients)


def mu_sequence(module, i, e_range, coefficients="R"):
    """Levels lambda(Ext^i(M, eN)) / q^d; the dual estimator."""
    return _homology_sequence("mu", ext_length, module, i, e_range, coefficients)


@dataclass
class LawCheck:
    name: str
    passed: bool
    applicable: bool = True
    detail: dict = field(default_factory=dict)


@dataclass
class LawReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.applicable)

    def add(self, name, passed, applicable=True, **detail):
        self.checks.append(LawCheck(name, passed, applicable, detail))

    def __repr__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else ("fail" if c.applicable else "n/a")
            lines.append("%-28s %s" % (c.name, status))
        return "\n".join(lines)


DEFAULT_TOLERANCE = Fraction(1, 20)


def verify_laws(
    module,
    primes_with_multiplicities=None,
    e_range=range(1, 4),
    indices=(0, 1),
    nzd=None,
):
    """Check the limit laws on a finite-length module.

    * vanishing of mu below the ring dimension,
    * Tor/Ext duality beta_i ~ mu_{d+i},
    * additivity over supplied minimal primes with local multiplicities
      (both estimate-level within ``DEFAULT_TOLERANCE`` and exact termwise
      agreement of stabilized first differences),
    * the nonzerodivisor inequality when a quotient fixture is supplied as
      ``nzd=(module_over_quotient,)``.
    """
    ring = module.ring
    d = ring.dim
    report = LawReport()
    betas = {i: beta_sequence(module, i, e_range) for i in indices}

    # (a) mu vanishing below the dimension.
    for i in range(d):
        seq = mu_sequence(module, i, e_range)
        ok = seq.estimate is not None and abs(seq.estimate) <= DEFAULT_TOLERANCE
        report.add(
            "mu_%d vanishes (below dim)" % i,
            ok,
            detail={"estimate": seq.estimate, "raw": seq.raw_values()},
        )

    # (b) duality: beta_i against mu_{d+i}.
    for i in indices:
        seq = mu_sequence(module, d + i, e_range)
        b = betas[i]
        ok = (
            b.estimate is not None
            and seq.estimate is not None
            and abs(b.estimate - seq.estimate) <= DEFAULT_TOLERANCE
        )
        report.add(
            "duality beta_%d = mu_%d" % (i, d + i),
            ok,
            detail={
                "beta": b.estimate,
                "mu": seq.estimate,
                "beta_raw": b.raw_values(),
                "mu_raw": seq.raw_values(),
            },
        )

    # (c) additivity over minimal primes.
    if primes_with_multiplicities is not None:
        if not primes_with_multiplicities:
            raise MissingMultiplicities("additivity requested without prime data")
        for i in indices:
            lhs = betas[i]
            parts = []
            for gens, mult in primes_with_multiplicities:
                seq = beta_sequence(module, i, e_range, coefficients=list(gens))
                parts.append((seq, mult))
            rhs_estimate = sum((mult * s.estimate for s, mult in parts), Fraction(0))
            est_ok = lhs.estimate is not None and abs(lhs.estimate - rhs_estimate) <= DEFAULT_TOLERANCE
            lhs_diffs = lhs.differences()
            rhs_diffs = [
                sum((mult * s.differences()[k] for s, mult in parts), Fraction(0))
                for k in range(len(lhs_diffs))
            ]
            termwise_ok = lhs_diffs == rhs_diffs
            report.add(
                "additivity beta_%d" % i,
                est_ok and termwise_ok,
                detail={
                    "lhs_estimate": lhs.estimate,
                    "rhs_estimate": rhs_estimate,
                    "lhs_differences": lhs_diffs,
                    "rhs_differences": rhs_diffs,
                },
            )

    # (d) nonzerodivisor inequality against a supplied quotient fixture.
    if nzd is not None:
        (quotient_module_,) = nzd
        for i in indices:
            over = beta_sequence(quotient_module_, i, e_range)
            b = betas[i]
            ok = (
                b.estimate is not None
                and over.estimate is not None
                and b.estimate <= over.estimate + DEFAULT_TOLERANCE
            )
            report.add(
                "nzd inequality beta_%d" % i,
                ok,
                detail={"base": b.estimate, "quotient": over.estimate},
            )

    return report
