"""Spans around the package's layer functions, installed from outside.

install() rebinds every module-level name (in any fusionwitt module)
that refers to a traced function, plus the traced methods on their
classes, to a wrapper that records a span: (name, start, end, parent
index, job id, nested flag).  uninstall() puts the originals back.  No
file of the package changes; only this process's module objects do.

Span names double as metric prefixes.  Several functions may share one
name: cli.parse is argument-parser construction plus file parsing, and
cli.verb is any _cmd_* handler, whose self time is report building and
rendering.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (span name, module, attribute); "Class.attr" traces a method
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.parse", "cli", "build_parser"),
    ("cli.parse", "cli", "parse_ring_file"),
    ("cli.parse", "cli", "parse_metric_file"),
    ("cli.parse", "cli", "_sniff_kind"),
    *(("cli.verb", "cli", f"_cmd_{v}") for v in
      ("validate", "analyze", "witt_class", "witt_order", "witt_subgroup", "classify", "scan")),
    *((f"fusion_ring.{f}", "fusion_ring", f) for f in
      ("validate_ring", "invertibles", "stabilizer", "tensor_square_check", "universal_grading", "nilpotency")),
    *((f"fpdim.{f}", "fpdim", f) for f in ("fp_dim_data", "perron_root", "charpoly")),
    *((f"metric_group.{f}", "metric_group", f) for f in
      ("metric_group", "gauss_sum", "sylow_decompose", "direct_sum", "inverse_form")),
    ("cyclotomic.CycInt.mul", "cyclotomic", "CycInt.__mul__"),
    ("cyclotomic.from_exponent_counts", "cyclotomic", "CycInt.from_exponent_counts"),
    ("cyclotomic.cyclotomic_polynomial", "cyclotomic", "cyclotomic_polynomial"),
    *((f"snf.{f}", "snf", f) for f in ("smith_normal_form", "integer_kernel", "rebase_presentation")),
    *((f"witt.{f}", "witt", f) for f in
      ("isotropic_elements", "reduce_once", "anisotropic_reduction", "pointed_witt_class",
       "metric_iso", "class_eq", "class_multiply", "class_order", "generated_subgroup")),
    *((f"classifier.{f}", "classifier", f) for f in ("scan_exceptions", "verdict_dimension", "factor_paqbc")),
    *((f"arith.{f}", "arith", f) for f in ("factorize", "smallest_factor_sieve")),
)
LAYERS = ("cli", "fusion_ring", "fpdim", "metric_group", "cyclotomic", "snf", "witt", "classifier", "arith")
PACKAGE = "fusionwitt"
INCLUSIVE = sorted({name for name, _, _ in TARGETS} - {"cli.parse", "cli.verb", "cli.main"})


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [("cli.parse.self_s", "s", "lower"), ("cli.verb.self_s", "s", "lower")]
    for name in INCLUSIVE:
        if name == "cyclotomic.cyclotomic_polynomial":
            out.append((name + ".misses", "count", "lower"))
            continue
        out.append((name + ".s", "s", "lower"))
        out.append((name + ".calls", "count", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [("fpdim.certified_ratio", "ratio", "higher"), ("witt.class_eq.true_ratio", "ratio", "higher"),
            ("trace.traced_jobs_per_s", "1/s", "higher"), ("trace.untraced_jobs_per_s", "1/s", "higher"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    """Span recorder for one process; spans of a pass stay in memory."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.ratios = {"certified": 0, "simples": 0, "eq_true": 0, "eq_calls": 0}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, depth, clock, tracer = self.spans, self._stack, self._depth, time.perf_counter, self
        depth.setdefault(name, 0)
        observe = {"fpdim.fp_dim_data": self._observe_dims, "witt.class_eq": self._observe_eq}.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[name] > 0
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job, nested)
            if observe is not None:
                observe(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe_dims(self, data) -> None:
        self.ratios["certified"] += sum(s is not None for s in data.exact_square)
        self.ratios["simples"] += len(data.exact_square)

    def _observe_eq(self, equal) -> None:
        self.ratios["eq_true"] += bool(equal)
        self.ratios["eq_calls"] += 1

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, mod, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(name, fn)
                setattr(cls, meth, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                self._saved.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._saved.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        for k in self.ratios:
            self.ratios[k] = 0

    def aggregate(self) -> dict[str, float]:
        """Per-name inclusive seconds (outermost spans only), self seconds
        (duration minus direct children) and calls for the current spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            dur = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child[i]
            if not nested:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in out.items() if k.endswith(".self_s") and k.split(".")[0] == layer and k.count(".") > 1
            )
        r = self.ratios
        out["fpdim.certified_ratio"] = r["certified"] / r["simples"] if r["simples"] else 0.0
        out["witt.class_eq.true_ratio"] = r["eq_true"] / r["eq_calls"] if r["eq_calls"] else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")


def combine(passes: list[dict[str, float]], misses: int) -> dict[str, float]:
    """Report counts and ratios from the first (cold) pass and times as
    the median over the later passes, or the first when it is alone."""
    first, timed = passes[0], passes[1:] or passes[:1]
    out = {}
    for name, _, _ in metric_names():
        if name.startswith("trace."):
            continue
        if name.endswith(".misses"):
            out[name] = misses
        elif name.endswith((".calls", "_ratio")):
            out[name] = first.get(name, 0)
        else:
            out[name] = statistics.median(p.get(name, 0.0) for p in timed)
    return out
