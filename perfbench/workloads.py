"""The benchmark's workloads: problem lists drawn from a seed, with the exact
answer each operation must return.

An operation is one call of a public entry point of frobetti, including
building its ring and module from problem text.  Library operations pass
generator strings to ``make_ring``; CLI operations pass ``.fbr`` text to
``cli.parse_problem`` and ``cli.run``.

Seeded problems scale a fixed base ideal by a torus element: the seed draws a
nonzero scale ``lam_i`` per variable and ``mu_k`` per generator, and term
``c * x^a`` of generator ``k`` becomes ``mu_k * lam^a * c * x^a``.  Only the
nonzero coefficients change, on fixed monomial supports, and every draw is
isomorphic to the base problem by ``x_i -> lam_i * x_i``.  So every seed has
the same exact answers (Betti numbers, lengths, decisions) and the same
Groebner-basis shapes, hence the same work: the reference answers below hold
for every seed, and run-to-run spread does not depend on the seed.
"""

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Warm-disk-cache reads per pass; on resolve and frobenius they are not part
# of the pass (not in solve_s), so that every workload has cached_op_p50_s.
CACHE_HITS = 40

R5_VARS = "xyzuv"
R5_IDEAL = [
    "x^2", "x*z", "z^2", "x*u", "z*v", "u^2", "v^2", "z*u + x*v + u*v",
    "y*u", "y*v", "y*x - z*u", "y*z - x*v",
]
R1_IDEAL = ["x^2", "x*y"]
FERMAT_CUBIC = ["x^3 + y^3 + z^3"]

# Four-variable quadric rings for the resolve workload, over F_101.
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
QUADRIC_BETTI = {
    "ci": [1, 4, 10, 20],
    "cycle": [1, 4, 10, 24],
    "tcubic": [1, 4, 9, 18],
    "four": [1, 4, 10, 21],
    "path": [1, 4, 11, 28],
    "bin5": [1, 4, 11, 29],
    "mix": [1, 4, 10, 22],
    "six": [1, 4, 12, 36],
    "three": [1, 4, 9, 18],
}

# One-dimensional rings over F_5 for the onedim workload.
ONEDIM_FAMILIES = {
    "base": ["x^2", "x*y", "x*z", "y*z"],
    "b3": ["x^2 - x*y", "x*z", "y*z"],
    "b4": ["x^2", "x*y - x*z", "y*z"],
}

K1_BETTI = [1, 2, 3, 5, 8, 13, 21, 34, 55]
R5_BETTI = [1, 5, 22, 96]


@dataclass
class Op:
    """One operation: ``run(lib, cache_dir)`` returns its answer as bytes."""

    id: str
    run: object
    expected: str  # the answer itself, or "sha256:<hex>" of it
    cached: bool = False  # answered from a warm disk cache
    in_pass: bool = True  # counted in solve_s


@dataclass
class Workload:
    name: str
    ops: list  # one pass, in order
    warmup: list  # run once, untimed, during set-up
    min_passes: int
    # Run once during set-up; each pass's fresh cache directory starts as a copy.
    cache_template: list = field(default_factory=list)


# -- problem text ---------------------------------------------------------------

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def _parse_terms(text, variables):
    """Terms ``(coeff, exps)`` of a polynomial written as in the .fbr grammar
    without parentheses, e.g. ``"x*z - 2*y^2"``."""
    terms = []
    for sign, body in _TERM.findall(text):
        coeff = -1 if sign == "-" else 1
        exps = [0] * len(variables)
        for factor in body.strip().split("*"):
            factor = factor.strip()
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exps[variables.index(name)] += int(power or 1)
        terms.append((coeff, tuple(exps)))
    return terms


def _render(terms, variables):
    out = []
    for coeff, exps in terms:
        factors = [] if coeff == 1 else [str(coeff)]
        for v, e in zip(variables, exps):
            if e:
                factors.append(v if e == 1 else "%s^%d" % (v, e))
        out.append("*".join(factors) or "1")
    return " + ".join(out)


def torus_draw(gens, variables, p, rng):
    """The generators with coefficients scaled by a random torus element."""
    lam = [rng.randrange(1, p) for _ in variables]
    out = []
    for gen in gens:
        mu = rng.randrange(1, p)
        terms = []
        for coeff, exps in _parse_terms(gen, variables):
            c = coeff * mu
            for l, e in zip(lam, exps):
                c *= pow(l, e, p)
            terms.append((c % p, exps))
        out.append(_render(terms, variables))
    return out


def fbr_text(p, variables, ideal, module=None, extra=()):
    lines = ["char: %d" % p, "vars: %s" % ", ".join(variables), "ideal: %s" % ", ".join(ideal)]
    if module:
        lines.append("module: %s" % module)
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def sha(data):
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _dump(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


# -- operations -------------------------------------------------------------------


def resolve_op(op_id, p, variables, ideal, steps, betti):
    def run(lib, cache_dir=None):
        ring = lib.ring.make_ring(p, list(variables), ideal)
        module = lib.groebner.quotient_module(ring, list(variables))
        return _dump(list(lib.resolution.resolve(module, steps).betti))

    return Op(op_id, run, _dump(betti).decode())


def sequence_op(op_id, kind, p, variables, ideal, index, levels, raws):
    """hk_sequence of the irrelevant ideal, or beta/mu_sequence of the residue field."""

    def run(lib, cache_dir=None):
        ring = lib.ring.make_ring(p, list(variables), ideal)
        if kind == "hk":
            seq = lib.asymptotics.hk_sequence(ring, list(variables), levels)
        else:
            module = lib.groebner.quotient_module(ring, list(variables))
            entry = getattr(lib.asymptotics, kind + "_sequence")
            seq = entry(module, index, levels)
        return _dump(seq.raw_values())

    return Op(op_id, run, _dump(raws).decode())


def verify_op(op_id, p, variables, ideal, primes, levels, expected):
    def run(lib, cache_dir=None):
        ring = lib.ring.make_ring(p, list(variables), ideal)
        module = lib.groebner.quotient_module(ring, list(variables))
        report = lib.asymptotics.verify_laws(module, primes, levels)
        checks = [
            [c.name, c.passed, c.applicable, {k: str(v) for k, v in c.detail.items()}]
            for c in report.checks
        ]
        return _dump([report.passed, checks])

    return Op(op_id, run, expected)


def cli_op(op_id, command, text, flags, expected, cache=None, in_pass=True):
    """``fb <command>`` on problem text.  ``cache`` is None (no cache directory),
    "miss" (a fresh one) or "hit" (a warm one); the envelope must agree."""

    def run(lib, cache_dir=None):
        problem = lib.cli.parse_problem(text)
        opts = dict(flags, threads=1)
        if cache is not None:
            opts["cache_dir"] = cache_dir
        envelope = lib.cli.run(command, problem, opts)
        state = envelope["timing"]["cache"]
        if state != (cache or "off"):
            raise AssertionError("cache state %s, expected %s" % (state, cache or "off"))
        return lib.cli.result_bytes(envelope)

    return Op(op_id, run, expected, cached=(cache == "hit"), in_pass=in_pass)


# -- the three workloads -------------------------------------------------------------

R1_FBR = fbr_text(5, "xy", R1_IDEAL, "quotient x, y", ["minprimes: (x)", "localmult: 1"])
K1_RESOLVE_BYTES = "sha256:0a213b4a88aa25b2ae21019e194b4caad94072447bd898a909531a2e7ad5aa19"


def _cache_writer():
    """``fb resolve --steps 8`` on R1's residue field, writing a fresh cache."""
    return cli_op("cache.miss", "resolve", R1_FBR, {"steps": 8}, K1_RESOLVE_BYTES, "miss")


def _with_cache_reads(ops, in_pass):
    """``ops`` with CACHE_HITS warm-cache reads of the same answer spread
    evenly between them, so the reads sample the whole pass."""
    reads = [
        cli_op("cache.hit.%02d" % i, "resolve", R1_FBR, {"steps": 8}, K1_RESOLVE_BYTES, "hit", in_pass)
        for i in range(CACHE_HITS)
    ]
    out = []
    for i, op in enumerate(ops):
        out.append(op)
        out.extend(reads[CACHE_HITS * i // len(ops) : CACHE_HITS * (i + 1) // len(ops)])
    return out


def _resolve_workload(seed):
    ops = [
        resolve_op("R5.resolve2", 101, R5_VARS, R5_IDEAL, 2, R5_BETTI[:3]),
        resolve_op("K1.resolve8", 5, "xy", R1_IDEAL, 8, K1_BETTI),
        resolve_op("K4.resolve8", 5, "xy", ["x^2"], 8, [1] + [2] * 8),
        resolve_op("CI2.resolve8", 5, "xy", ["x^2", "y^2"], 8, list(range(1, 10))),
    ]
    for name, gens in QUADRIC_FAMILIES.items():
        rng = random.Random("resolve:%d:%s" % (seed, name))
        ideal = torus_draw(gens, "xyzw", 101, rng)
        ops.append(resolve_op(name + ".resolve3", 101, "xyzw", ideal, 3, QUADRIC_BETTI[name]))
    warmup = [resolve_op("warm.K1.resolve3", 5, "xy", R1_IDEAL, 3, K1_BETTI[:4])]
    return Workload(
        "resolve", _with_cache_reads(ops, False), warmup, 6, cache_template=[_cache_writer()]
    )


def _frobenius_workload(seed):
    rng = random.Random("frobenius:%d" % seed)
    cone = torus_draw(["x^2 + y^2 + z^2"], "xyz", 3, rng)
    lv12, lv14 = [1, 2], [1, 2, 3, 4]
    ops = [
        sequence_op("F7cubic.hk", "hk", 7, "xyz", FERMAT_CUBIC, 0, lv12, [109, 5401]),
        sequence_op("F7cubic.beta1", "beta", 7, "xyz", FERMAT_CUBIC, 1, [1], [108]),
        sequence_op("F7cubic.mu1", "mu", 7, "xyz", FERMAT_CUBIC, 1, [1], [0]),
        sequence_op("cone.beta1", "beta", 3, "xyz", cone, 1, lv12, [8, 80]),
        sequence_op("cone.mu2", "mu", 3, "xyz", cone, 2, lv12, [13, 121]),
        sequence_op("cone.mu1", "mu", 3, "xyz", cone, 1, lv12, [0, 0]),
        sequence_op("cone.hk", "hk", 3, "xyz", cone, 0, lv14, [13, 121, 1093, 9841]),
        sequence_op("cubic5.beta1", "beta", 5, "xyz", FERMAT_CUBIC, 1, lv12, [55, 1405]),
        sequence_op("cubic5.beta2", "beta", 5, "xyz", FERMAT_CUBIC, 2, lv12, [55, 1405]),
        sequence_op("cubic5.mu1", "mu", 5, "xyz", FERMAT_CUBIC, 1, lv12, [0, 0]),
        sequence_op("cubic5.hk", "hk", 5, "xyz", FERMAT_CUBIC, 0, [1, 2, 3], [55, 1405, 35155]),
        sequence_op("R1.hk", "hk", 5, "xy", R1_IDEAL, 0, lv14, [6, 26, 126, 626]),
        sequence_op("R1.mu2", "mu", 5, "xy", R1_IDEAL, 2, lv14, [8, 28, 128, 628]),
        verify_op("R1.verify", 5, "xy", R1_IDEAL, [(["x"], 1)], lv14, R1_VERIFY),
    ]
    warmup = [
        sequence_op("warm.R1.hk", "hk", 5, "xy", R1_IDEAL, 0, lv12, [6, 26]),
        sequence_op("warm.R1.beta1", "beta", 5, "xy", R1_IDEAL, 1, lv12, [7, 27]),
        sequence_op("warm.R1.mu2", "mu", 5, "xy", R1_IDEAL, 2, lv12, [8, 28]),
    ]
    return Workload(
        "frobenius", _with_cache_reads(ops, False), warmup, 6, cache_template=[_cache_writer()]
    )


def _onedim_workload(seed):
    ops = []
    for name, gens in ONEDIM_FAMILIES.items():
        for draw in range(3):
            rng = random.Random("onedim:%d:%s:%d" % (seed, name, draw))
            text = fbr_text(5, "xyz", torus_draw(gens, "xyz", 5, rng))
            if draw == 0 and name != "base":
                ops.append(cli_op(name + ".syz3", "syz", text, {"idx": 3}, SYZ3[name]))
            for idx in (0, 1, 2):
                ops.append(
                    cli_op("%s.%d.beta%d.exact" % (name, draw, idx), "beta", text,
                           {"idx": idx, "exact": True}, BETA_FALSE % idx)
                )
    ops += [
        cli_op("R1.diagnose1", "diagnose1", R1_FBR, {"idx": 1}, R1_DIAGNOSE1),
        cli_op("R1.verify", "verify", R1_FBR, {}, R1_CLI_VERIFY),
        cli_op("R1.hk", "hk", R1_FBR, {"emax": 4}, R1_CLI_HK),
    ]
    warmup = [
        cli_op("warm.R1.beta1.exact", "beta", R1_FBR, {"idx": 1, "exact": True}, BETA_FALSE % 1),
        cli_op("warm.R1.verify", "verify", R1_FBR, {"emax": 2},
               "sha256:ea90488dfa9bd4ae3b0ec0ab8be500966ffc1881f29cd95d3dafa656da87f148"),
        cli_op("warm.R1.resolve3", "resolve", R1_FBR, {"steps": 3},
               "sha256:7850dc92b40db22e19be26c8325bf25bbb49cfd9679d0de592192ef3af4a5214"),
    ]
    # A fresh cache directory each pass: one miss that writes, then reads.
    return Workload("onedim", [_cache_writer()] + _with_cache_reads(ops, True), warmup, 4)


BETA_FALSE = '{"index":%d,"rule":"image-in-h0","vanishes":false}'

# Reference answers recorded at the default seed; by the torus argument above
# they hold for every seed.  Long payloads are stored as digests.
R1_VERIFY = "sha256:77c777eccb7d1f29168e38891a7feb1577aaaadeebef27e54f0fe5e4c513b3b8"
R1_DIAGNOSE1 = "sha256:188e0f8ffdc597067e095988eb3a97014964afc817bc4c98c2499aa491e4d043"
R1_CLI_VERIFY = "sha256:ddddf50d00e46e5bc690fb992b577a480755873ad7985b3928d03d9e4bc16239"
R1_CLI_HK = "sha256:2f6a8757f196e3430e90da90e79e80e47a4548333c53337d707a5d63dc0cb690"
SYZ3 = {
    "base": "sha256:7444e7aa8ece1e051f5ff01ccfc2f2df78f47e86e1997fd694a091ac09bd025d",
    "b3": "sha256:4371cea74ff3bd7a4eac440cfb748ddac916a5234009028bb7f7eeb123882d97",
    "b4": "sha256:5f2e6765dfc2bfc241ced5f937ef7265b57748794e230cc4d059af99439b83db",
}

WORKLOADS = {
    "resolve": _resolve_workload,
    "frobenius": _frobenius_workload,
    "onedim": _onedim_workload,
}


def build(name, seed):
    return WORKLOADS[name](seed)


def check(op, answer):
    """True when ``answer`` (bytes) is the reference answer of ``op``."""
    if op.expected.startswith("sha256:"):
        return sha(answer) == op.expected
    return answer == op.expected.encode()
