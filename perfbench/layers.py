"""Spans and counters recorded around calls into each frobetti module.

The program under test is not edited: ``Tracer.install`` replaces public
functions (and methods, on their class) with wrappers that record a span
``(id, parent, name, start, end, operation)`` and update counters, and
``uninstall`` puts the originals back.  A name bound by ``from .x import y``
is a separate reference, so every frobetti module whose attribute is the
original function is rebound too.

Buchberger work is counted at the single engine entry ``groebner._run_engine``
and attributed to the outermost enclosing public groebner call (its call
site); ``groebner.<site>.s`` is the time inside the calls that are outermost
in this sense, so the call-site times do not overlap.  Other inclusive times
count only the outermost span of each group, so recursion is not counted
twice.  A layer's self time is its spans' durations
minus the time their child spans cover.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ring", "groebner", "resolution", "frobenius", "homology", "asymptotics", "onedim", "cli")
SITES = ("mingens", "syzygy", "saturate", "lift", "contains", "length", "other")
SITE_TIMES = ("mingens", "syzygy", "saturate", "length", "lift", "contains")

# (module, attribute or Class.method, span group, groebner call site)
TARGETS = [
    ("ring", "make_ring", "ring.make_ring", None),
    ("ring", "QuotientRing.nf", "ring.nf", None),
    ("groebner", "_run_engine", "groebner.engine", None),
    ("groebner", "groebner_basis", "groebner.basis", "other"),
    ("groebner", "reduced_ideal_groebner", "groebner.basis", "other"),
    ("groebner", "syzygy_generators", "groebner.syzygy", "syzygy"),
    ("groebner", "kernel_over_quotient", "groebner.syzygy", "syzygy"),
    ("groebner", "SubmodulePresentation.syzygies", "groebner.syzygy", "syzygy"),
    ("groebner", "SubmodulePresentation.minimal_generators", "groebner.mingens", "mingens"),
    ("groebner", "SubmodulePresentation.saturate", "groebner.saturate", "saturate"),
    ("groebner", "SubmodulePresentation.colon_by_elements", "groebner.colon", "other"),
    ("groebner", "SubmodulePresentation.lift", "groebner.lift", "lift"),
    ("groebner", "SubmodulePresentation.contains", "groebner.contains", "contains"),
    ("groebner", "SubmodulePresentation.same_span", "groebner.contains", "contains"),
    ("groebner", "SubmodulePresentation.is_zero_submodule", "groebner.contains", "contains"),
    ("groebner", "SubmodulePresentation.length", "groebner.length", "length"),
    ("groebner", "SubmodulePresentation.dimension", "groebner.length", "length"),
    ("resolution", "resolve", "resolution.resolve", None),
    ("resolution", "minimize", "resolution.minimize", None),
    ("resolution", "syzygy", "resolution.syzygy", None),
    ("frobenius", "twist_complex", "frobenius.twist", None),
    ("homology", "subquotient_presentation", "homology.subquotient", None),
    ("homology", "tor_length", "homology.tor", None),
    ("homology", "ext_length", "homology.ext", None),
    ("homology", "coefficient_ring", "homology.coefficient_ring", None),
    ("asymptotics", "hk_sequence", "asymptotics.sequence", None),
    ("asymptotics", "beta_sequence", "asymptotics.sequence", None),
    ("asymptotics", "mu_sequence", "asymptotics.sequence", None),
    ("asymptotics", "verify_laws", "asymptotics.verify", None),
    ("onedim", "h0_ring", "onedim.h0", None),
    ("onedim", "decide_beta_vanishing", "onedim.decide", None),
    ("onedim", "decide_finite_pd_1dim", "onedim.finite_pd", None),
    ("onedim", "tor_vanishing_vs_minimal_primes", "onedim.tor_primes", None),
    ("onedim", "choose_parameter", "onedim.parameter", None),
    ("onedim", "lemma_h0_check", "onedim.lemma_h0", None),
    ("onedim", "syzygy_length_survey", "onedim.survey", None),
    ("onedim", "buchsbaum_flag", "onedim.buchsbaum", None),
    ("onedim", "diagnose_onedim", "onedim.diagnose", None),
    ("cli", "parse_problem", "cli.parse", None),
    ("cli", "build_ring", "cli.build_ring", None),
    ("cli", "build_module", "cli.build_module", None),
    ("cli", "cache_get", "cli.cache_get", None),
    ("cli", "cache_put", "cli.cache_put", None),
    ("cli", "run", "cli.run", None),
    ("cli", "result_bytes", "cli.result_bytes", None),
]

# Per-layer metrics and units, in report order.
METRICS = (
    [("groebner.runs", "count"), ("groebner.run_s", "s")]
    + [("groebner.runs." + site, "count") for site in SITES]
    + [("groebner.%s.s" % site, "s") for site in SITE_TIMES]
    + [
        ("groebner.mingens.kept_ratio", "ratio"),
        ("groebner.saturate.rounds", "ratio"),
        ("groebner.basis_len.max", "count"),
        ("ring.make_ring.calls", "count"),
        ("ring.make_ring.s", "s"),
        ("ring.nf.calls", "count"),
        ("ring.nf.s", "s"),
        ("resolution.resolve.calls", "count"),
        ("resolution.resolve.s", "s"),
        ("resolution.betti_sum", "count"),
        ("resolution.minimize.calls", "count"),
        ("frobenius.twist.calls", "count"),
        ("frobenius.twist.s", "s"),
        ("frobenius.twist.entries", "count"),
        ("homology.subquotient.calls", "count"),
        ("homology.subquotient.s", "s"),
        ("homology.tor.calls", "count"),
        ("homology.ext.calls", "count"),
        ("asymptotics.levels", "count"),
        ("asymptotics.s", "s"),
        ("onedim.h0.calls", "count"),
        ("onedim.h0.s", "s"),
        ("onedim.decide.calls", "count"),
        ("onedim.survey.s", "s"),
        ("cli.parse.s", "s"),
        ("cli.build_ring.s", "s"),
        ("cli.cache.hits", "count"),
        ("cli.cache.misses", "count"),
        ("cli.cache_get.s", "s"),
        ("cli.cache_put.s", "s"),
        ("cli.cache_put.bytes", "bytes"),
        ("cli.result_bytes.s", "s"),
    ]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("trace.spans", "count"), ("trace.solve_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Records spans and counters while installed; one instance per pass."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_s = defaultdict(float)  # layer -> time in its outermost spans
        self.runs = Counter()
        self.site_s = defaultdict(float)  # call site -> time in calls that own it
        self.counts = Counter()
        self.basis_len_max = 0
        self.resolve_runs = defaultdict(Counter)  # op -> site -> runs inside resolve()
        self._stack = []  # [span id, start, child seconds]
        self._depth = Counter()  # span group or layer -> open spans
        self._site = None
        self._restore = []
        self.missing = []

    # -- installation ---------------------------------------------------------

    def install(self):
        hooks = {
            "groebner._run_engine": self._after_engine,
            "groebner.SubmodulePresentation.minimal_generators": self._after_mingens,
            "groebner.SubmodulePresentation.colon_by_elements": self._after_colon,
            "resolution.resolve": self._after_resolve,
            "frobenius.twist_complex": self._after_twist,
            "asymptotics.hk_sequence": self._after_sequence,
            "asymptotics.beta_sequence": self._after_sequence,
            "asymptotics.mu_sequence": self._after_sequence,
            "cli.cache_get": self._after_cache_get,
            "cli.cache_put": self._after_cache_put,
        }
        befores = {"groebner.SubmodulePresentation.minimal_generators": _mingens_candidates}
        modules = [m for k, m in list(sys.modules.items()) if k == "frobetti" or k.startswith("frobetti.")]
        for modname, attr, group, site in TARGETS:
            key = modname + "." + attr
            module = sys.modules.get("frobetti." + modname)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:  # a method, wrapped on its class
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if owner else None
            else:
                owner, original = module, getattr(module, member, None)
            if original is None:
                self.missing.append(key)
                continue
            wrapper = self._wrap(original, group, modname, site, befores.get(key), hooks.get(key))
            if owner_name:
                setattr(owner, member, wrapper)
                self._restore.append((owner, member, original))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _wrap(self, fn, group, layer, site, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            outer = tracer._depth[group] == 0
            layer_outer = tracer._depth[layer] == 0
            tracer._depth[group] += 1
            tracer._depth[layer] += 1
            owns_site = site is not None and tracer._site is None
            if owns_site:
                tracer._site = site
            entry = [sid, time.perf_counter(), 0.0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - entry[1]
                tracer.spans[sid] = (sid, parent, group, entry[1], end, tracer.op)
                tracer.self_s[layer] += dur - entry[2]
                if stack:
                    stack[-1][2] += dur
                tracer._depth[group] -= 1
                tracer._depth[layer] -= 1
                tracer.calls[group] += 1
                if outer:
                    tracer.incl[group] += dur
                if layer_outer:
                    tracer.layer_s[layer] += dur
                if owns_site:
                    tracer._site = None
                    tracer.site_s[site] += dur
            if after:
                after(args, result, state)
            return result

        return wrapper

    # -- counters taken from arguments and results --------------------------------

    def _after_engine(self, args, result, state):
        site = self._site or "other"
        self.runs[site] += 1
        if self._depth["resolution.resolve"]:
            self.resolve_runs[self.op][site] += 1
        engine = result[0] if isinstance(result, tuple) else result
        self.basis_len_max = max(self.basis_len_max, len(getattr(engine, "basis", ())))

    def _after_mingens(self, args, result, candidates):
        if candidates is not None:
            self.counts["mingens.tested"] += candidates
            self.counts["mingens.kept"] += len(result)

    def _after_colon(self, args, result, state):
        if self._depth["groebner.saturate"]:
            self.counts["saturate.rounds"] += 1

    def _after_resolve(self, args, result, state):
        self.counts["betti_sum"] += sum(result.betti)

    def _after_twist(self, args, result, state):
        self.counts["twist.entries"] += sum(len(col) for mat in result.maps[1:] for col in mat)

    def _after_sequence(self, args, result, state):
        self.counts["levels"] += len(result.levels)

    def _after_cache_get(self, args, result, state):
        self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def _after_cache_put(self, args, result, state):
        cache_path = getattr(sys.modules["frobetti.cli"], "_cache_path", None)
        if cache_path is not None:
            self.counts["cache_put.bytes"] += os.path.getsize(cache_path(*args[:3]))

    # -- report -----------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values of everything recorded so far."""
        c, t = self.calls, self.incl
        tested = self.counts["mingens.tested"]
        saturations = c["groebner.saturate"]
        out = {
            "groebner.runs": c["groebner.engine"],
            "groebner.run_s": t["groebner.engine"],
        }
        for site in SITES:
            out["groebner.runs." + site] = self.runs[site]
        for site in SITE_TIMES:
            out["groebner.%s.s" % site] = self.site_s[site]
        out.update(
            {
                "groebner.mingens.kept_ratio": self.counts["mingens.kept"] / tested if tested else 0.0,
                "groebner.saturate.rounds": self.counts["saturate.rounds"] / saturations if saturations else 0.0,
                "groebner.basis_len.max": self.basis_len_max,
                "ring.make_ring.calls": c["ring.make_ring"],
                "ring.make_ring.s": t["ring.make_ring"],
                "ring.nf.calls": c["ring.nf"],
                "ring.nf.s": t["ring.nf"],
                "resolution.resolve.calls": c["resolution.resolve"],
                "resolution.resolve.s": t["resolution.resolve"],
                "resolution.betti_sum": self.counts["betti_sum"],
                "resolution.minimize.calls": c["resolution.minimize"],
                "frobenius.twist.calls": c["frobenius.twist"],
                "frobenius.twist.s": t["frobenius.twist"],
                "frobenius.twist.entries": self.counts["twist.entries"],
                "homology.subquotient.calls": c["homology.subquotient"],
                "homology.subquotient.s": t["homology.subquotient"],
                "homology.tor.calls": c["homology.tor"],
                "homology.ext.calls": c["homology.ext"],
                "asymptotics.levels": self.counts["levels"],
                "asymptotics.s": self.layer_s["asymptotics"],
                "onedim.h0.calls": c["onedim.h0"],
                "onedim.h0.s": t["onedim.h0"],
                "onedim.decide.calls": c["onedim.decide"],
                "onedim.survey.s": t["onedim.survey"],
                "cli.parse.s": t["cli.parse"],
                "cli.build_ring.s": t["cli.build_ring"],
                "cli.cache.hits": self.counts["cache.hits"],
                "cli.cache.misses": self.counts["cache.misses"],
                "cli.cache_get.s": t["cli.cache_get"],
                "cli.cache_put.s": t["cli.cache_put"],
                "cli.cache_put.bytes": self.counts["cache_put.bytes"],
                "cli.result_bytes.s": t["cli.result_bytes"],
                "trace.spans": len(self.spans),
            }
        )
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        return out


def _mingens_candidates(args):
    """Nonzero columns a fresh minimal_generators call will test, or None when
    the presentation already holds its answer."""
    pres = args[0]
    if getattr(pres, "_mingens", None) is not None:
        return None
    return sum(1 for col in pres.columns if any(not poly.is_zero() for poly in col))

