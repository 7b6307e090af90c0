"""Per-layer spans recorded from outside pellcrit.

``install`` wraps the public functions each layer exposes to the others,
plus ``ClassGroup.is_principal``, and rebinds every pellcrit module
attribute that refers to the original function object, because the
modules import names directly (``artin.find_local_point`` is the same
object as ``localanalysis.find_local_point``).  Nothing is wrapped unless
``install`` is called, so an untraced run executes the program untouched.

A span is [name, start_ns, end_ns, parent index, request id, outermost,
extra]: ``outermost`` is false when a span of the same name is already
open (recursion), so inclusive times are not counted twice, and ``extra``
holds the entry count of ``class_images_of_norm``.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = (
    "intcore",
    "symbols",
    "quadring",
    "localanalysis",
    "pellsolver",
    "artin",
    "criteria",
    "cli",
)

TARGETS = (
    ("intcore", "factor"),
    ("intcore", "is_prime"),
    ("symbols", "jacobi"),
    ("quadring", "classify_order"),
    ("quadring", "find_twist_point"),
    ("localanalysis", "local_solvable"),
    ("localanalysis", "find_local_point"),
    ("localanalysis", "hilbert_ev"),
    ("localanalysis", "two_adic_context"),
    ("pellsolver", "solve"),
    ("pellsolver", "cf_fundamental"),
    ("artin", "joint_artin_decide"),
    ("artin", "class_group"),
    ("artin", "class_images_of_norm"),
    ("artin", "twist_symbol"),
    ("artin", "canonical_twist"),
    ("criteria", "classify_pq"),
    ("criteria", "classify_2p"),
    ("criteria", "decide_221"),
    ("cli", "main"),
)

# lru_caches whose statistics are read in every run, traced or not.
CACHES = (
    ("artin", "class_group"),
    ("artin", "canonical_twist"),
    ("pellsolver", "cf_fundamental"),
    ("pellsolver", "plus_unit"),
    ("localanalysis", "two_adic_context"),
)

# Per-layer metrics every traced run reports, in BENCHMARK.json order.
NAMED_TIMES = (
    "artin.class_group",
    "artin.twist_symbol",
    "artin.canonical_twist",
    "pellsolver.solve",
    "pellsolver.cf_fundamental",
    "localanalysis.find_local_point",
    "localanalysis.hilbert_ev",
    "localanalysis.two_adic_context",
    "quadring.find_twist_point",
)
NAMED_CALLS = (
    "localanalysis.find_local_point",
    "localanalysis.local_solvable",
    "quadring.classify_order",
    "intcore.factor",
    "intcore.is_prime",
    "symbols.jacobi",
)


def cache_snapshot(caches: dict) -> dict:
    """(hits, misses) of each lru_cache."""
    return {name: tuple(fn.cache_info())[:2] for name, fn in caches.items()}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = {}
        self.request = 0

    def wrap(self, name: str, fn, extra=None):
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = open_.get(name, 0)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.request, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] = depth + 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                open_[name] = depth
            if extra is not None:
                rec[6] = extra(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each pellcrit attribute bound to it."""
        mods = [m for k, m in sys.modules.items() if k == "pellcrit" or k.startswith("pellcrit.")]
        for modname, attr in TARGETS:
            orig = getattr(sys.modules[f"pellcrit.{modname}"], attr)
            extra = (lambda r: len(r.entries)) if attr == "class_images_of_norm" else None
            wrapped = self.wrap(f"{modname}.{attr}", orig, extra)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
        cg = sys.modules["pellcrit.artin"].ClassGroup
        cg.is_principal = self.wrap("artin.ClassGroup.is_principal", cg.is_principal)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,request,parent,start_ns,end_ns\n")
            for i, (name, t0, t1, parent, rid, _, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{rid},{parent},{t0},{t1}\n")

    def summary(self, decisions: int) -> dict:
        """Per-layer counts, self times and the named span figures."""
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, _, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        crosscheck = entries = 0
        for i, (name, t0, t1, parent, _, outer, extra) in enumerate(spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += (t1 - t0 - child[i]) / 1e9
            calls[name] = calls.get(name, 0) + 1
            if outer:
                incl[name] = incl.get(name, 0) + t1 - t0
            if name == "pellsolver.solve" and parent >= 0 and spans[parent][0] == "artin.joint_artin_decide":
                crosscheck += t1 - t0
            if extra is not None:
                entries += extra
        for name in NAMED_TIMES:
            out[f"{name}.time_s"] = incl.get(name, 0) / 1e9
        for name in NAMED_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        out["artin.class_images_of_norm.entries"] = entries
        principal = calls.get("artin.ClassGroup.is_principal", 0)
        out["artin.choices_examined_ratio"] = principal / entries if entries else 0.0
        out["artin.oracle_crosscheck.time_s"] = crosscheck / 1e9
        out["pellsolver.solve.calls_per_decision"] = calls.get("pellsolver.solve", 0) / max(decisions, 1)
        return out
