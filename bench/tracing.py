"""Span tracing of the cubictrace layers from outside the library.

`Tracer.install` replaces the public functions of each package module with
wrappers, in every module that holds them as an attribute (the defining
module and each module that imported the name), so calls between modules
are caught without touching `src/`.  Each call records a span: name, call
site (the module whose attribute was called), start, end, parent, and an
optional probe value.  Spans stay in memory; `layer_metrics` reduces them
after the timed region and `write` dumps them.

A layer is a package module.  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("enumeration", "poly", "padic", "fields", "arith", "eisenstein",
          "verify", "cli")

# Public functions traced per defining module.  Names a later version of the
# library no longer has are skipped.
TRACED = {
    "enumeration": ("b_range", "classified_polys_for_a", "polys_for_a",
                    "enumerate_field", "enumerate_all", "min_height"),
    "poly": ("parse_poly", "is_irreducible", "is_cyclic"),
    "padic": ("splitting_type", "roots_mod_p", "lift_root_zp",
              "lift_root_unramified", "dedekind_index_test"),
    "fields": ("conductor_of", "splitting_subgroup", "field_invariants",
               "is_isomorphic"),
    "arith": ("factorize", "divisors", "subgroup_closure", "euler_phi"),
    "eisenstein": ("ideal_count", "ideal_count_oracle", "series_coeff",
                   "formula3_count", "p1_part"),
    "verify": ("verify_theorem", "verify_corollary", "verify_formula3",
               "formula3_divergences", "reproduce_tables",
               "norm_proportionality_check", "real_roots"),
    "cli": ("main",),
}

# (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "enumeration.self_s": ("s", "lower"),
    "enumeration.scan_us_per_a": ("us", "lower"),
    "enumeration.candidates": ("count", "lower"),
    "enumeration.square_disc": ("count", "lower"),
    "enumeration.yield": ("ratio", "higher"),
    "enumeration.cache_hit_ratio": ("ratio", "higher"),
    "poly.self_s": ("s", "lower"),
    "poly.irreducible_calls": ("count", "lower"),
    "poly.irreducible_s": ("s", "lower"),
    "poly.reducible_rejects": ("count", "lower"),
    "padic.self_s": ("s", "lower"),
    "padic.splitting_type_calls": ("count", "lower"),
    "padic.splitting_type_s": ("s", "lower"),
    "padic.index_branch_calls": ("count", "lower"),
    "padic.cache_hit_ratio": ("ratio", "higher"),
    "fields.self_s": ("s", "lower"),
    "fields.conductor_s": ("s", "lower"),
    "fields.key_s": ("s", "lower"),
    "fields.subgroup_s": ("s", "lower"),
    "fields.classify_calls": ("count", "lower"),
    "fields.primes_per_key": ("count", "lower"),
    "arith.self_s": ("s", "lower"),
    "arith.closure_s": ("s", "lower"),
    "arith.closure_residues": ("count", "lower"),
    "arith.factorize_calls": ("count", "lower"),
    "arith.factorize_s": ("s", "lower"),
    "arith.factorize_hit_ratio": ("ratio", "higher"),
    "eisenstein.self_s": ("s", "lower"),
    "eisenstein.ideal_count_s": ("s", "lower"),
    "eisenstein.oracle_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.failed_checks": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _index_branch(args, _out):
    f, p = args[0], args[1]
    a, b = f.a, f.b
    return (a * a - 4 * a**3 - 18 * a * b + 4 * b - 27 * b * b) % p == 0


def _report_checks(_args, out):
    checks = getattr(out, "checks", None)
    if checks is None:
        return None
    return len(checks), sum(not c.passed for c in checks)


PROBES = {
    "enumeration.b_range": lambda _args, out: len(out),
    "poly.is_irreducible": lambda _args, out: out,
    "padic.splitting_type": _index_branch,
    "arith.subgroup_closure": lambda _args, out: len(out),
    **{f"verify.{name}": _report_checks for name in TRACED["verify"]},
}

CACHED = {
    "enumeration.cache_hit_ratio": "enumeration.classified_polys_for_a",
    "padic.cache_hit_ratio": "padic.splitting_type",
    "arith.factorize_hit_ratio": "arith.factorize",
}

# Span record fields.
NAME, SITE, START, END, PARENT, PROBE = range(6)


class Tracer:
    def __init__(self, package: str = "cubictrace"):
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.originals: dict[str, object] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, names in TRACED.items():
            for name in names:
                fn = getattr(self.modules[layer], name, None)
                if fn is None:
                    continue
                key = f"{layer}.{name}"
                self.originals[key] = fn
                for site, mod in self.modules.items():
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, self._wrap(key, site, fn))

    def _wrap(self, key, site, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [key, site, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if probe is not None:
                rec[PROBE] = probe(args, out)
            return out

        return traced

    def write(self, path) -> None:
        """One span per line: name, site, start, end, parent index, probe."""
        with open(path, "w") as fh:
            fh.writelines(f"{n}\t{s}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{probe}\n"
                          for n, s, t0, t1, parent, probe in self.spans)

    def cache_info(self, key: str):
        """cache_info() of a traced lru_cache function, or None."""
        fn = self.originals.get(key)
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    def hit_ratio(self, key: str) -> float:
        info = self.cache_info(key)
        if info is None or info.hits + info.misses == 0:
            return 0.0
        return info.hits / (info.hits + info.misses)

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the list of failed consistency checks."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        dur: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, rec in enumerate(spans):
            key = rec[NAME]
            d = rec[END] - rec[START]
            dur[key] = dur.get(key, 0.0) + d
            self_t[key] = self_t.get(key, 0.0) + d - child[i]
            calls[key] = calls.get(key, 0) + 1
            layer_self[key.split(".", 1)[0]] += d - child[i]

        def spans_of(key):
            return [rec for rec in spans if rec[NAME] == key]

        irreducible = spans_of("poly.is_irreducible")
        square_disc = sum(rec[SITE] == "enumeration" for rec in irreducible)
        enum_rejects = sum(rec[SITE] == "enumeration" and not rec[PROBE]
                           for rec in irreducible)
        classified = sum(rec[SITE] == "enumeration"
                         for rec in spans_of("fields.field_invariants"))
        candidates = sum(rec[PROBE] for rec in spans_of("enumeration.b_range"))
        info = self.cache_info("enumeration.classified_polys_for_a")
        misses = info.misses if info is not None else 0
        scan_s = (self_t.get("enumeration.classified_polys_for_a", 0.0)
                  + dur.get("enumeration.b_range", 0.0))
        key_ids = {i for i, rec in enumerate(spans)
                   if rec[NAME] == "fields.splitting_subgroup"}
        key_primes = sum(rec[PARENT] in key_ids
                         for rec in spans_of("padic.splitting_type"))
        reports = [rec[PROBE] for rec in spans
                   if rec[NAME].startswith("verify.") and rec[PROBE] is not None
                   and (rec[PARENT] < 0
                        or not spans[rec[PARENT]][NAME].startswith("verify."))]

        m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        m.update({
            "enumeration.scan_us_per_a": 1e6 * scan_s / misses if misses else 0.0,
            "enumeration.candidates": candidates,
            "enumeration.square_disc": square_disc,
            "enumeration.yield": classified / candidates if candidates else 0.0,
            "poly.irreducible_calls": len(irreducible),
            "poly.irreducible_s": dur.get("poly.is_irreducible", 0.0),
            "poly.reducible_rejects": sum(not rec[PROBE] for rec in irreducible),
            "padic.splitting_type_calls": calls.get("padic.splitting_type", 0),
            "padic.splitting_type_s": dur.get("padic.splitting_type", 0.0),
            "padic.index_branch_calls": sum(
                bool(rec[PROBE]) for rec in spans_of("padic.splitting_type")),
            "fields.conductor_s": dur.get("fields.conductor_of", 0.0),
            "fields.key_s": self_t.get("fields.splitting_subgroup", 0.0),
            "fields.subgroup_s": dur.get("fields.splitting_subgroup", 0.0),
            "fields.classify_calls": calls.get("fields.field_invariants", 0),
            "fields.primes_per_key": key_primes / len(key_ids) if key_ids else 0.0,
            "arith.closure_s": dur.get("arith.subgroup_closure", 0.0),
            "arith.closure_residues": sum(
                rec[PROBE] for rec in spans_of("arith.subgroup_closure")),
            "arith.factorize_calls": calls.get("arith.factorize", 0),
            "arith.factorize_s": dur.get("arith.factorize", 0.0),
            "eisenstein.ideal_count_s": dur.get("eisenstein.ideal_count", 0.0),
            "eisenstein.oracle_s": dur.get("eisenstein.ideal_count_oracle", 0.0),
            "verify.checks": sum(n for n, _ in reports),
            "verify.failed_checks": sum(bad for _, bad in reports),
        })
        m.update({name: self.hit_ratio(key) for name, key in CACHED.items()})

        problems = []
        if not candidates >= square_disc >= square_disc - enum_rejects == classified:
            problems.append(
                f"trace counters inconsistent: candidates {candidates}, "
                f"square_disc {square_disc}, irreducible "
                f"{square_disc - enum_rejects}, classified {classified}")
        return m, problems
