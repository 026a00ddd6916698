"""Traced run of one workload: the per-layer split.

Run as a fresh process (so `@cache`s start cold, as in a CLI run):

    PYTHONPATH=src python3 perfbench/tracer.py --workload q_factored \
        --seed 0 --report OUT.json --spans OUT.spans

It imports hookforge, replaces the public functions of each module (and
every module's `from ... import` binding of them) with wrappers that record
a span (group, parent span, start, end) in memory, runs `hookforge.cli.main`
on the workload, writes the report to --report and the spans to --spans,
and prints the per-layer metrics as one JSON line.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all groups add up to the traced time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from array import array

from workloads import WORKLOADS

# Functions wrapped in a span, by layer group.  Methods are named
# "Class.method"; every alias of a method in its class dict (such as
# `__radd__ = __add__`) is wrapped as well.
SPANS = {
    "factored.phi_n": [("identity", "phi_n")],
    "factored.weight_lambda": [("identity", "weight_lambda")],
    "factored.lemma1": [("identity", "verify_lemma1")],
    "factored.prop2": [("identity", "verify_prop2")],
    "identity": [
        ("identity", name)
        for name in (
            "verify_theorem1prime",
            "verify_theorem1",
            "verify_corner_hooks",
            "verify_prop2_for_shape",
            "verify_prop3",
            "verify_prop3_residues",
            "verify_prop3_alternating",
            "verify_weight_substitution",
            "weight_w",
            "rho",
            "hook_weight_sum",
            "sample_distinct_rationals",
        )
    ]
    + [("involutions", "verify_involution_egf")],
    "exact.ratfunc": [
        ("exact", f"RationalFunction.{m}")
        for m in (
            "__init__",
            "__add__",
            "__sub__",
            "__rsub__",
            "__neg__",
            "__mul__",
            "__truediv__",
            "__rtruediv__",
            "__pow__",
            "__call__",
        )
    ],
    "exact.gcd": [("exact", "poly_gcd")],
    "exact.poly_mul": [("exact", "Polynomial.__mul__"), ("exact", "Polynomial.__pow__")],
    "exact.poly_divmod": [
        ("exact", "Polynomial.__divmod__"),
        ("exact", "Polynomial.__floordiv__"),
        ("exact", "Polynomial.__mod__"),
    ],
    "exact.poly_eval": [("exact", "Polynomial.__call__")],
    "exact.series_exp": [("exact", "series_exp"), ("exact", "PowerSeries.exp")],
    "partitions": [
        ("partitions", name)
        for name in (
            "partitions_of",
            "hooks",
            "hook_length",
            "f_lambda",
            "corner_profile",
            "addable_cells",
            "removable_cells",
            "add_cell",
            "remove_cell",
        )
    ],
    "tableaux.enumerate": [
        ("tableaux", "enumerate_syt"),
        ("tableaux", "enumerate_syt_of_size"),
    ],
    "tableaux.insert": [
        ("tableaux", "reverse_row_insert"),
        ("tableaux", "forward_row_insert"),
    ],
    "tableaux.validate": [("tableaux", "StandardTableau.__post_init__")],
    "involutions.enumerate": [("involutions", "enumerate_involutions")],
    "involutions.psi_n": [("involutions", "psi_n")],
}

# Calls whose result's length is counted: shapes and involutions enumerated.
LENGTH_COUNTS = {
    "partitions_of": "partitions.shapes",
    "enumerate_involutions": "involutions.count",
}

CHECKS = (
    "theorem1",
    "theorem1prime",
    "lemma1",
    "prop2",
    "prop3",
    "bijection",
    "egf",
    "substitution",
)

CACHED = (
    ("identity", "phi_n"),
    ("involutions", "psi_n"),
    ("identity", "weight_lambda"),
    ("identity", "rho"),
    ("identity", "hook_weight_sum"),
    ("identity", "weight_w"),
)


class Tracer:
    """Spans and counters kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.group = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def gid(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, group: str, on_result=None):
        """`fn` inside a span of `group`; `on_result(span id, result)` runs
        after each call that returns."""
        g = self.gid(group)
        groups, parents, starts, ends, stack = (
            self.group, self.parent, self.start, self.end, self.stack,
        )
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(groups)
            groups.append(g)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = now()
                stack.pop()
            if on_result is not None:
                on_result(sid, result)
            return result

        return traced

    def count(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def split(self) -> dict[str, dict[str, float]]:
        """Per group: number of spans, total and self seconds."""
        n = len(self.group)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.group[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - covered[i]) / 1e9
        return out

    def write_spans(self, path: str):
        """Group names as a JSON line, then the four int64 columns."""
        with open(path, "wb") as fh:
            header = {"groups": self.names, "spans": len(self.group), "columns":
                      ["group", "parent", "start_ns", "end_ns"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.group, self.parent, self.start, self.end):
                col.tofile(fh)


def _modules():
    import hookforge
    from hookforge import cli, exact, identity, involutions, partitions, tableaux

    return {
        "hookforge": hookforge,
        "cli": cli,
        "exact": exact,
        "identity": identity,
        "involutions": involutions,
        "partitions": partitions,
        "tableaux": tableaux,
    }


def _patch_function(mods, owner: str, name: str, make):
    """Replace a module-level function in its module and in every module
    that bound it with `from ... import`; returns the original."""
    original = getattr(mods[owner], name)
    wrapper = make(original)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    return original


def _patch_method(mods, owner: str, qualname: str, make):
    """Replace a method and every alias of it in its class dict."""
    cls_name, meth = qualname.split(".")
    cls = getattr(mods[owner], cls_name)
    original = vars(cls)[meth]
    wrapper = make(original)
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, wrapper)


def _tally(tracer: Tracer, name: str):
    """What a call of the traced function `name` adds to the counters."""
    if name.startswith("verify_"):
        return lambda sid, result: tracer.count("verify.calls")
    if name in LENGTH_COUNTS:
        key = LENGTH_COUNTS[name]
        return lambda sid, result: tracer.count(key, len(result))
    return None


def install(tracer: Tracer, mods) -> dict:
    """Wrap every traced function; returns the originals of cached ones."""
    originals = {}
    for group, targets in SPANS.items():
        for owner, name in targets:

            def make(fn, group=group, tally=_tally(tracer, name)):
                return tracer.wrap(fn, group, tally)

            if "." in name:
                _patch_method(mods, owner, name, make)
            else:
                originals[(owner, name)] = _patch_function(mods, owner, name, make)

    # The factored path's common reduction; counted, not spanned, so that
    # its time stays in the self time of the factored entry points.
    def count_materialize(fn):
        @functools.wraps(fn)
        def counted_fn(terms):
            result = fn(terms)
            tracer.count("factored.out_den_degree", max(result.den.degree, 0))
            return result

        return counted_fn

    identity = mods["identity"]
    identity._materialize = count_materialize(identity._materialize)

    # Each CLI unit becomes a span named after the check its report names.
    cli = mods["cli"]
    build_units = cli.build_units

    def traced_build_units(cfg):
        def unit_span(unit):
            def rename(sid, report):
                tracer.group[sid] = tracer.gid(f"verify.{report.check}")

            return tracer.wrap(unit, "cli.unit", rename)

        return [unit_span(u) for u in build_units(cfg)]

    cli.build_units = traced_build_units
    return {key: originals[key] for key in CACHED}


def layer_metrics(tracer: Tracer, cached: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    split = tracer.split()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def g(name):
        return split.get(name, zero)

    m: dict[str, tuple[float, str]] = {}
    units = sum(g(f"verify.{c}")["calls"] for c in CHECKS)
    m["cli.units"] = (units, "count")
    m["cli.self_s"] = (g("cli.main")["self_s"], "s")
    m["cli.unit_self_s"] = (sum(g(f"verify.{c}")["self_s"] for c in CHECKS), "s")
    for c in CHECKS:
        m[f"verify.{c}.s"] = (g(f"verify.{c}")["s"], "s")
    m["verify.calls"] = (tracer.counts.get("verify.calls", 0), "count")
    m["identity.self_s"] = (g("identity")["self_s"], "s")
    m["factored.phi_n.self_s"] = (g("factored.phi_n")["self_s"], "s")
    m["factored.phi_n.calls"] = (g("factored.phi_n")["calls"], "count")
    m["factored.lemma1.self_s"] = (g("factored.lemma1")["self_s"], "s")
    m["factored.prop2.self_s"] = (g("factored.prop2")["self_s"], "s")
    m["factored.out_den_degree"] = (
        tracer.counts.get("factored.out_den_degree", 0), "count",
    )
    for layer in ("ratfunc", "gcd", "poly_mul", "poly_divmod", "poly_eval"):
        m[f"exact.{layer}.calls"] = (g(f"exact.{layer}")["calls"], "count")
        m[f"exact.{layer}.s"] = (g(f"exact.{layer}")["self_s"], "s")
    m["exact.series_exp.s"] = (g("exact.series_exp")["self_s"], "s")
    m["partitions.shapes"] = (tracer.counts.get("partitions.shapes", 0), "count")
    m["partitions.s"] = (g("partitions")["self_s"], "s")
    m["tableaux.enumerate.s"] = (g("tableaux.enumerate")["self_s"], "s")
    m["tableaux.insert.calls"] = (g("tableaux.insert")["calls"], "count")
    m["tableaux.insert.s"] = (g("tableaux.insert")["self_s"], "s")
    m["tableaux.validations"] = (g("tableaux.validate")["calls"], "count")
    m["tableaux.validate.s"] = (g("tableaux.validate")["self_s"], "s")
    m["involutions.enumerate.s"] = (g("involutions.enumerate")["self_s"], "s")
    m["involutions.count"] = (tracer.counts.get("involutions.count", 0), "count")
    m["involutions.psi_n.s"] = (g("involutions.psi_n")["self_s"], "s")
    for (_, name), fn in cached.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        m[f"cache.{name}.hits"] = (info.hits, "count")
        m[f"cache.{name}.misses"] = (info.misses, "count")
        m[f"cache.{name}.lookups"] = (lookups, "count")
        m[f"cache.{name}.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    m["trace.spans"] = (len(tracer.group), "count")
    m["trace.traced_s"] = (g("cli.main")["s"], "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", required=True, help="where the CLI writes its report")
    ap.add_argument("--spans", required=True, help="where the spans are written")
    args = ap.parse_args()

    tracer = Tracer()
    mods = _modules()
    cached = install(tracer, mods)
    argv = WORKLOADS[args.workload].argv(args.seed) + ["--out", args.report]
    main_span = tracer.wrap(mods["cli"].main, "cli.main")
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        status = main_span(argv)
    finished = time.perf_counter()
    metrics = layer_metrics(tracer, cached)
    tracer.write_spans(args.spans)
    metrics["trace.postprocess_s"] = (time.perf_counter() - finished, "s")
    print(json.dumps({"status": status, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
