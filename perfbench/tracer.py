"""Outside-in tracing of the srgddg package from the benchmark's side.

The tracer wraps public functions of each module without touching the
package's source: every ``srgddg.*`` module attribute that *is* the
original function object is rebound to a wrapper, which covers both
``from .x import f`` sites and calls inside the defining module, and
``Graph.__init__`` is wrapped on the class.  Each call records a span
(name, start, end, parent span, top-level span) in memory; nothing is
written until :meth:`Tracer.dump`.

Self time of a span is its duration minus the durations of its direct
children.  Calls are single-threaded and properly nested, so the
children never overlap.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "srgddg"

# Traced functions, as "module.attribute" under the package.
TRACED = [
    "graphcore.decode_graph6",
    "graphcore.encode_graph6",
    "graphcore.induced_subgraph",
    "graphcore.Graph",
    "recognize.srg_params",
    "recognize.deza_params",
    "recognize.ddg_recognize",
    "recognize.quotient_matrix",
    "coclique.hoffman_cocliques",
    "assembly.decompose",
    "assembly.attach_coclique",
    "designs.verify_design",
    "theory.family_from",
    "iso.canonical_form",
    "exact.integral_spectrum",
    "exact.char_poly",
    "exact.rank",
    "galois.symplectic_complement",
]
CLI = "cli.run"


# Observers turn a call's arguments and result into exact counts.
def _obs_hoffman(tr, rec, args, result):
    tr.counts["cocliques_found"] += len(result)
    if rec[3] >= 0 and tr.spans[rec[3]][0] == "assembly.decompose":
        tr.counts["cocliques_tried"] += len(result)


def _obs_decompose(tr, rec, args, result):
    tr.counts["witnesses"] += len(result)


def _obs_ddg(tr, rec, args, result):
    tr.counts["ddg_hits"] += bool(result)


def _obs_canon(tr, rec, args, result):
    tr.certificates.add(result.certificate)


def _obs_char_poly(tr, rec, args, result):
    m = args[0]
    nnz = sum(1 for row in m for x in row if x)
    # Faddeev-LeVerrier does n products M @ W, each n * nnz(M) scalar adds
    tr.counts["scalar_adds"] += len(m) * len(m) * nnz


def _obs_decode(tr, rec, args, result):
    tr.counts["decode_bytes"] += len(args[0])


def _obs_encode(tr, rec, args, result):
    tr.counts["encode_bytes"] += len(result)


OBSERVERS = {
    "coclique.hoffman_cocliques": _obs_hoffman,
    "assembly.decompose": _obs_decompose,
    "recognize.ddg_recognize": _obs_ddg,
    "iso.canonical_form": _obs_canon,
    "exact.char_poly": _obs_char_poly,
    "graphcore.decode_graph6": _obs_decode,
    "graphcore.encode_graph6": _obs_encode,
}


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, root]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.certificates: set[bytes] = set()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, spans[parent][4] if stack else idx]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, rec, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target in TRACED + [CLI]:
            importlib.import_module(f"{PACKAGE}.{target.split('.')[0]}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target in TRACED + [CLI]:
            mod_name, attr = target.split(".")
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            orig = getattr(mod, attr)
            if isinstance(orig, type):
                init = orig.__init__
                self._restore.append((orig, "__init__", init))
                setattr(orig, "__init__", self.wrap(target, init))
                continue
            wrapper = self.wrap(target, orig, OBSERVERS.get(target))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        max_s: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            name, dur = rec[0], rec[2] - rec[1]
            calls[name] += 1
            self_s[name] += own
            total_s[name] += dur
            max_s[name] = max(max_s[name], dur)
        out: dict[str, float] = {}
        for fn in TRACED:
            out[f"{fn}.calls"] = calls[fn]
            out[f"{fn}.self_s"] = self_s[fn]
            out[f"{fn}.total_s"] = total_s[fn]
        c = self.counts
        canon_calls = calls["iso.canonical_form"]
        out["cli.self_s"] = self_s[CLI]
        out["coclique.cocliques_found"] = c["cocliques_found"]
        out["assembly.witness_yield"] = (
            c["witnesses"] / c["cocliques_tried"] if c["cocliques_tried"] else 0.0)
        ddg_calls = calls["recognize.ddg_recognize"]
        out["recognize.ddg_recognize.hit_ratio"] = c["ddg_hits"] / ddg_calls if ddg_calls else 0.0
        out["iso.distinct_ratio"] = len(self.certificates) / canon_calls if canon_calls else 0.0
        out["iso.canonical_form.max_s"] = max_s["iso.canonical_form"]
        out["exact.char_poly.scalar_adds"] = c["scalar_adds"]
        out["graphcore.decode_graph6.bytes"] = c["decode_bytes"]
        out["graphcore.encode_graph6.bytes"] = c["encode_bytes"]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names table plus
        [name index, start, end, parent, root] rows."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, root in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, root])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh)
