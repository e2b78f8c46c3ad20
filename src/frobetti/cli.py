"""Batch entry point: problem files, command dispatch, reports, disk cache.

Problem files are line-oriented (``key: value``, ``#`` comments).  Reports
are JSON envelopes with canonical key order, so identical inputs produce
byte-identical result payloads; timing is reported but excluded from the
determinism contract.  The cache is content-addressed by a digest of the
canonical problem text, written atomically, and guarded by a versioned
header; corrupt entries trigger a warning and a recomputation.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .asymptotics import beta_sequence, hk_sequence, mu_sequence, verify_laws
from .errors import (
    CacheCorrupt,
    FrobettiError,
    InconsistentBlocks,
    InfiniteLength,
    MissingMultiplicities,
    NoParameterFound,
    NotHomogeneous,
    NotMonomial,
    NotPrimary,
    NotPrime,
    Overflow,
    ParseError,
    ResourceBound,
    UnitIdeal,
    UnknownVariable,
    WrongDimension,
    ZeroDivisorQuery,
)
from .groebner import INFINITE, cokernel_presentation, quotient_module, vec_to_strings
from .onedim import (
    decide_beta_vanishing,
    diagnose_onedim,
    minimal_primes_monomial,
    syzygy_length_survey,
)
from .resolution import resolve
from .ring import make_ring

CACHE_HEADER = "FBCACHE 1"
SCHEMA_FILE = os.path.join(os.path.dirname(__file__), "data", "report_schema.json")

PARSE_EXIT = 2
INAPPLICABLE_EXIT = 3
RESOURCE_EXIT = 4

_PARSE_ERRORS = (ParseError, NotHomogeneous, NotPrime, UnitIdeal, UnknownVariable, InconsistentBlocks)
_INAPPLICABLE_ERRORS = (
    WrongDimension,
    InfiniteLength,
    NotPrimary,
    MissingMultiplicities,
    NoParameterFound,
    ZeroDivisorQuery,
    NotMonomial,
)
_RESOURCE_ERRORS = (ResourceBound, Overflow)


class ProblemFile:
    """Parsed problem description: ring block, module block, prime data."""

    __slots__ = ("p", "variables", "ideal_gens", "module_kind", "module_data", "rowdegs", "minprimes", "localmult")

    def __init__(self, p, variables, ideal_gens, module_kind, module_data, rowdegs, minprimes, localmult):
        self.p = p
        self.variables = variables
        self.ideal_gens = ideal_gens
        self.module_kind = module_kind
        self.module_data = module_data
        self.rowdegs = rowdegs
        self.minprimes = minprimes
        self.localmult = localmult


def _split_top_level(text, sep):
    """Split on sep outside parentheses/brackets."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail or parts:
        parts.append(tail)
    return [p for p in parts if p]


def parse_problem(text):
    """Parse problem text; errors carry the offending line number."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno)
        key, value = line.split(":", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in data:
            raise ParseError("duplicate block %r" % key, line=lineno)
        if key not in ("char", "vars", "ideal", "module", "rowdegs", "minprimes", "localmult"):
            raise ParseError("unknown block %r" % key, line=lineno)
        data[key] = (value, lineno)

    if "char" not in data:
        raise ParseError("missing 'char' block")
    if "vars" not in data:
        raise ParseError("missing 'vars' block")
    try:
        p = int(data["char"][0])
    except ValueError:
        raise ParseError("characteristic must be an integer", line=data["char"][1])
    variables = [v.strip() for v in data["vars"][0].split(",") if v.strip()]
    ideal_gens = []
    if "ideal" in data:
        ideal_gens = _split_top_level(data["ideal"][0], ",")

    module_kind = None
    module_data = None
    if "module" in data:
        value, lineno = data["module"]
        if value.startswith("quotient"):
            module_kind = "quotient"
            module_data = _split_top_level(value[len("quotient"):].strip(), ",")
        elif value.startswith("coker"):
            module_kind = "coker"
            body = value[len("coker"):].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise ParseError("coker matrix must be bracketed", line=lineno)
            rows = _split_top_level(body[1:-1], ";")
            module_data = [_split_top_level(r, ",") for r in rows]
            widths = {len(r) for r in module_data}
            if len(widths) > 1:
                raise ParseError("ragged coker matrix", line=lineno)
        else:
            raise ParseError("module must be 'quotient ...' or 'coker [...]'", line=lineno)

    rowdegs = None
    if "rowdegs" in data:
        value, lineno = data["rowdegs"]
        try:
            rowdegs = [int(v) for v in value.split(",")]
        except ValueError:
            raise ParseError("rowdegs must be integers", line=lineno)

    minprimes = None
    if "minprimes" in data:
        value, lineno = data["minprimes"]
        minprimes = []
        for chunk in _split_top_level(value, ";"):
            chunk = chunk.strip()
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ParseError("each minimal prime must be parenthesized", line=lineno)
            minprimes.append(_split_top_level(chunk[1:-1], ","))

    localmult = None
    if "localmult" in data:
        value, lineno = data["localmult"]
        try:
            localmult = [int(v) for v in value.split(",")]
        except ValueError:
            raise ParseError("localmult must be integers", line=lineno)

    if localmult is not None and minprimes is not None and len(localmult) != len(minprimes):
        raise InconsistentBlocks(
            "localmult has %d entries but minprimes has %d" % (len(localmult), len(minprimes))
        )
    if localmult is not None and minprimes is None:
        raise InconsistentBlocks("localmult given without minprimes")
    if rowdegs is not None and module_kind != "coker":
        raise InconsistentBlocks("rowdegs given without a coker module")
    if rowdegs is not None and len(rowdegs) != len(module_data):
        raise InconsistentBlocks(
            "rowdegs has %d entries but the coker matrix has %d rows" % (len(rowdegs), len(module_data))
        )

    return ProblemFile(p, variables, ideal_gens, module_kind, module_data, rowdegs, minprimes, localmult)


def canonical_problem_text(problem, ring, module):
    """Deterministic re-serialization used for the content digest.

    The ideal and module generators print as ``make_ring`` and
    ``build_module`` parsed them: ``ring.ideal_gens`` and the stored vectors
    of ``module`` (``vec_to_strings``), a zero generator as "0".  As
    ``make_ring`` drops zero generators, only an ideal that lists one is
    parsed again here, to keep its place; the minimal primes are parsed
    here, as nothing before the digest reads them."""
    lines = ["char: %d" % problem.p, "vars: %s" % ", ".join(problem.variables)]
    ideal = ring.ideal_gens
    if len(ideal) != len(problem.ideal_gens):
        ideal = [ring.poly(g) for g in problem.ideal_gens]
    lines.append("ideal: %s" % ", ".join(map(str, ideal)))
    if problem.module_kind is not None:
        rank = module.ambient_rank
        columns = [vec_to_strings(v, rank, ring) for v in module.vecs]
        if problem.module_kind == "quotient":
            lines.append("module: quotient %s" % ", ".join(col[0] for col in columns))
        else:
            rows = [", ".join(col[r] for col in columns) for r in range(rank)]
            lines.append("module: coker [%s]" % "; ".join(rows))
    if problem.rowdegs is not None:
        lines.append("rowdegs: %s" % ", ".join(str(d) for d in problem.rowdegs))
    if problem.minprimes is not None:
        chunks = ["(%s)" % ", ".join(str(ring.poly(g)) for g in gens) for gens in problem.minprimes]
        lines.append("minprimes: %s" % "; ".join(chunks))
    if problem.localmult is not None:
        lines.append("localmult: %s" % ", ".join(str(m) for m in problem.localmult))
    return "\n".join(lines) + "\n"


def problem_digest(problem, ring, module):
    return hashlib.sha256(canonical_problem_text(problem, ring, module).encode()).hexdigest()


def build_ring(problem):
    """Construct the ring; its Groebner basis is always computed, never cached."""
    return make_ring(problem.p, problem.variables, problem.ideal_gens)


def build_module(problem, ring):
    """The module block, defaulting to the residue field when absent."""
    if problem.module_kind is None:
        return quotient_module(ring, list(ring.variables))
    if problem.module_kind == "quotient":
        return quotient_module(ring, problem.module_data)
    rows = problem.module_data
    rank = len(rows)
    width = len(rows[0]) if rows else 0
    columns = []
    for c in range(width):
        columns.append([ring.poly(rows[r][c]) for r in range(rank)])
    return cokernel_presentation(ring, columns, rank, problem.rowdegs)


# -- cache ------------------------------------------------------------------


def _cache_path(cache_dir, digest, kind):
    return os.path.join(cache_dir, digest, "%s.dat" % kind)


def cache_put(cache_dir, digest, kind, payload):
    """Atomic content-addressed write: temp file then rename."""
    path = _cache_path(cache_dir, digest, kind)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    body = CACHE_HEADER + "\n" + json.dumps(payload, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The fields every payload of a cache kind must carry, with their types.
CACHE_FIELDS = {
    "resolution": {"steps": int, "ranks": list, "row_degrees": list, "matrices": list},
}


def cache_get(cache_dir, digest, kind):
    """Payload dict, or None when absent; raises CacheCorrupt on bad entries.

    A payload that decodes but is not a dict with the fields of CACHE_FIELDS
    is corrupt too.
    """
    path = _cache_path(cache_dir, digest, kind)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r") as handle:
            content = handle.read()
    except OSError as exc:
        raise CacheCorrupt(str(exc))
    header, _, body = content.partition("\n")
    if header != CACHE_HEADER:
        raise CacheCorrupt("bad cache header in %s" % path)
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise CacheCorrupt("undecodable cache payload in %s: %s" % (path, exc))
    fields = CACHE_FIELDS[kind]
    if not (isinstance(payload, dict) and all(isinstance(payload.get(k), t) for k, t in fields.items())):
        wanted = ", ".join("%s %s" % (t.__name__, k) for k, t in fields.items())
        raise CacheCorrupt("%s payload is not a dict with %s in %s" % (kind, wanted, path))
    if kind == "resolution" and not _resolution_shape_ok(payload):
        raise CacheCorrupt("resolution payload has lengths that disagree with its ranks in %s" % path)
    return payload


def _resolution_shape_ok(entry):
    """Lengths agree: steps + 1 ranks and twist lists, steps matrices, and
    matrix j has ranks[j + 1] columns of ranks[j] entries."""
    steps, ranks, degs, mats = (entry[k] for k in ("steps", "ranks", "row_degrees", "matrices"))
    try:
        return (
            len(ranks) == steps + 1
            and list(map(len, degs)) == ranks
            and list(map(len, mats)) == ranks[1:]
            and all(set(map(len, mat)) <= {rows} for mat, rows in zip(mats, ranks))
        )
    except TypeError:
        return False


# -- payload helpers -----------------------------------------------------------


def _sequence_payload(seq):
    return {
        "kind": seq.kind,
        "index": seq.index,
        "d": seq.d,
        "levels": [[lv.e, lv.q, lv.raw, float(lv.normalized)] for lv in seq.levels],
        "normalized_exact": [_jsonable(lv.normalized) for lv in seq.levels],
        "estimate": None if seq.estimate is None else float(seq.estimate),
        "estimate_exact": _jsonable(seq.estimate),
        "stabilized": seq.stabilized,
    }


def _resolution_payload(data, steps):
    return {
        "betti": data["ranks"][: steps + 1],
        "row_degrees": data["row_degrees"][: steps + 1],
        "matrices": data["matrices"][:steps],
        "minimal": True,
        "steps": steps,
    }


def _serialize_resolution(res):
    return {
        "steps": res.length,
        "ranks": list(res.ranks),
        "row_degrees": [list(d) for d in res.row_degrees],
        "matrices": [
            [vec_to_strings(v, res.rank(j - 1), res.ring) for v in res.vectors(j)]
            for j in range(1, res.length + 1)
        ],
    }


def _flag(flags, name, default, least=0):
    """flags[name], or ``default`` when it is None (so 0 means 0); a value
    below ``least`` is a ParseError."""
    value = flags.get(name)
    if value is not None and value < least:
        raise ParseError("--%s must be at least %d, got %d" % (name, least, value))
    return default if value is None else value


def _e_range(flags):
    return range(1, _flag(flags, "emax", 3, 1) + 1)


def run(command, problem, flags=None):
    """Dispatch a command; returns the ReportEnvelope as a dict."""
    flags = dict(flags or {})
    warnings = []
    started = time.perf_counter()
    cache_state = "off"

    ring = build_ring(problem)
    module = build_module(problem, ring)
    digest = problem_digest(problem, ring, module)

    if command == "resolve":
        steps = _flag(flags, "steps", 3)
        data = None
        cache_dir = flags.get("cache_dir") or os.environ.get("FB_CACHE_DIR")
        if cache_dir:
            cache_state = "miss"
            try:
                entry = cache_get(cache_dir, digest, "resolution")
            except CacheCorrupt as exc:
                warnings.append("cache: %s; recomputing" % exc)
                entry = None
            if entry is not None and entry["steps"] >= steps:
                data = entry
                cache_state = "hit"
        if data is None:
            res = resolve(module, steps)
            data = _serialize_resolution(res)
            if cache_dir:
                cache_put(cache_dir, digest, "resolution", data)
        payload = _resolution_payload(data, steps)
    elif command == "hk":
        if problem.module_kind not in (None, "quotient"):
            raise NotPrimary("hk needs a quotient module block (the ideal J)")
        gens = list(ring.variables) if problem.module_kind is None else problem.module_data
        seq = hk_sequence(ring, gens, _e_range(flags))
        payload = _sequence_payload(seq)
    elif command == "beta":
        idx = _flag(flags, "idx", 0)
        if flags.get("exact"):
            vanishes = decide_beta_vanishing(module, idx)
            payload = {"index": idx, "vanishes": vanishes, "rule": "image-in-h0"}
        else:
            seq = beta_sequence(module, idx, _e_range(flags))
            payload = _sequence_payload(seq)
    elif command == "mu":
        idx = _flag(flags, "idx", 0)
        seq = mu_sequence(module, idx, _e_range(flags))
        payload = _sequence_payload(seq)
    elif command == "diagnose1":
        idx = _flag(flags, "idx", 0)
        primes = problem.minprimes
        if primes is None:
            primes = minimal_primes_monomial(problem.ideal_gens, ring)
        emax = _flag(flags, "emax", 3, 1)
        diag = diagnose_onedim(module, idx, primes, range(0, emax), range(1, emax + 1))
        payload = {
            "index": idx,
            "entries_in_h0": diag.condition_entries_in_h0,
            "tor_primes": [
                {
                    "prime": [str(ring.poly(g)) for g in rep.prime],
                    "values": {str(e): v for e, v in sorted(rep.values.items())},
                    "all_zero": rep.all_zero,
                }
                for rep in diag.condition_tor_primes
            ],
            "beta": _sequence_payload(diag.beta_estimate),
            "consistent": diag.consistent,
            "finite_pd": {
                "finite": diag.finite_pd.finite,
                "rule": diag.finite_pd.rule,
                "certificate": diag.finite_pd.certificate,
            },
        }
    elif command == "syz":
        i_max = _flag(flags, "idx", 3)
        survey = syzygy_length_survey(module, i_max)
        payload = {
            "ring_dim": survey.ring_dim,
            "module_length": _jsonable(survey.module_length),
            "rows": [
                {"i": r.index, "betti": r.betti, "dim": r.dim, "length": _jsonable(r.length)}
                for r in survey.rows
            ],
            "checks": [
                {
                    "law": c.detail.get("law"),
                    "applicable": c.applicable,
                    "passed": c.passed,
                    "reason": c.reason,
                }
                for c in survey.checks
            ],
            "passed": survey.passed,
        }
    elif command == "verify":
        primes = None
        if problem.minprimes is not None:
            if problem.localmult is None:
                raise MissingMultiplicities("verify needs localmult alongside minprimes")
            primes = list(zip(problem.minprimes, problem.localmult))
        report = verify_laws(module, primes, _e_range(flags))
        payload = {
            "passed": report.passed,
            "laws": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "applicable": c.applicable,
                    "detail": {k: _jsonable(v) for k, v in sorted(c.detail.items())},
                }
                for c in report.checks
            ],
        }
    else:
        raise ParseError("unknown command %r" % command)

    elapsed = time.perf_counter() - started
    return {
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "ring": {
            "char": ring.p,
            "vars": list(ring.variables),
            "ideal": [str(g) for g in ring.ideal_gens],
        },
        "result": payload,
        "timing": {"elapsed_s": round(elapsed, 6), "cache": cache_state},
        "warnings": warnings,
    }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if value is INFINITE:
        return "Infinity"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


def result_bytes(envelope):
    """Canonical bytes of the determinism-relevant part of an envelope."""
    return json.dumps(envelope["result"], sort_keys=True, separators=(",", ":")).encode()


def write_csv(envelope, path):
    payload = envelope["result"]
    if "levels" not in payload:
        raise FrobettiError("csv output is only defined for sequence payloads")
    with open(path, "w") as handle:
        handle.write("e,q,raw,normalized\n")
        for e, q, raw, normalized in payload["levels"]:
            handle.write("%d,%d,%d,%r\n" % (e, q, raw, normalized))


def load_schema():
    with open(SCHEMA_FILE, "r") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fb",
        description="Exact Frobenius Betti, Hilbert-Kunz, and syzygy computations over F_p quotient rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes the flags its branch of ``run`` reads, and the
    # output paths it can fill: --csv only where the result is a sequence.
    commands = {
        "resolve": ("steps", "cache-dir", "json"),
        "hk": ("emax", "json", "csv"),
        "beta": ("idx", "exact", "emax", "json", "csv"),
        "mu": ("idx", "emax", "json", "csv"),
        "diagnose1": ("idx", "emax", "json"),
        "syz": ("idx", "json"),
        "verify": ("emax", "json"),
    }
    for name, names in commands.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("-i", "--input", required=True, help="problem file (.fbr)")
        for flag in names:
            if flag == "exact":
                cmd.add_argument("--exact", action="store_true")
            else:
                cmd.add_argument("--" + flag, type=int if flag in ("idx", "emax", "steps") else str)
    args = parser.parse_args(argv)
    flags = vars(args)
    if flags.get("exact") and (flags["emax"] is not None or flags["csv"] is not None):
        sub.choices["beta"].error("--exact reads neither --emax nor --csv")

    try:
        with open(args.input, "r") as handle:
            text = handle.read()
        problem = parse_problem(text)
        envelope = run(args.command, problem, flags)
        text = json.dumps(envelope, sort_keys=True, indent=2)
        if flags["json"]:
            with open(flags["json"], "w") as handle:
                handle.write(text + "\n")
        if flags.get("csv"):
            write_csv(envelope, flags["csv"])
    except _PARSE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return PARSE_EXIT
    except _INAPPLICABLE_ERRORS as exc:
        print("inapplicable: %s" % exc, file=sys.stderr)
        return INAPPLICABLE_EXIT
    except _RESOURCE_ERRORS as exc:
        print("resource bound: %s" % exc, file=sys.stderr)
        return RESOURCE_EXIT
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return PARSE_EXIT
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
