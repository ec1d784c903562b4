"""Outside-in tracing for the traced benchmark run.

Wrappers are installed at run time around the public functions named in
LAYERS.  effpath modules import each other's functions by name
(``from .pca import tabulate``), so a wrapper replaces the function in every
``effpath.*`` module whose globals bind it, not only in the defining module.
Spans are kept in memory and written out once the workload ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions timed in the traced run
LAYERS = {
    "pca": ("apply", "apply_many", "tabulate", "compile_term"),
    "core": ("make_object", "check_object", "check_morphism",
             "synthesize_morphism"),
    "path": ("path_object", "fibration_decide", "is_equivalence_decide",
             "synthesize_fibration_witness"),
    "constructions": ("transport_properties_check", "hexp_J", "pi_type"),
    "classify": ("hlevel_check", "discrete_decide", "classify_prop_discrete",
                 "resize"),
    "eff1": ("make_object1", "synthesize_morphism1", "check_object1",
             "check_morphism1", "check_fibration1", "path_object1",
             "product1", "hlevel1_check", "truncate1",
             "is_equivalence1_decide", "pi_type1", "hexp_J1"),
    "fixtures": ("fixture_library",),
    "fixture_io": ("parse_fixture_file",),
    "cli": ("main",),
}


def layer_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {"apply_raised": 0, "tabulate_entries": 0,
                       "tabulate_bits": 0}
        self._tables: set[int] = set()
        self._decode_start = None

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def install(self):
        """Wrap every function in LAYERS that the program still defines."""
        from effpath import pca

        def count_table(args, out):
            self.counts["tabulate_entries"] += len(args[0])
            self.counts["tabulate_bits"] += out.bit_length()
            self._tables.add(out)

        raising = (pca.Diverges, pca.FuelExhausted)

        def apply_counting(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except raising:
                    self.counts["apply_raised"] += 1
                    raise
            return inner

        effpath_modules = [m for name, m in list(sys.modules.items())
                           if name == "effpath" or name.startswith("effpath.")]
        for mod, fns in LAYERS.items():
            home = sys.modules.get(f"effpath.{mod}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:  # removed by a later change: 0 calls
                    continue
                name = f"{mod}.{fn}"
                target = apply_counting(orig) if name == "pca.apply" else orig
                after = count_table if name == "pca.tabulate" else None
                wrapped = self._wrap(name, target, after)
                for m in effpath_modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        info = getattr(pca.decode, "cache_info", None)
        self._decode_start = info() if info else None

    def layer_metrics(self) -> dict:
        """Calls and self time per wrapped function, plus the counters."""
        from effpath import pca
        calls = {n: 0 for n in layer_names()}
        total = {n: 0.0 for n in layer_names()}
        child = {n: 0.0 for n in layer_names()}
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        out = {}
        for n in layer_names():
            out[f"{n}.calls"] = calls[n]
            out[f"{n}.self_s"] = total[n] - child[n]
        tab_calls = calls["pca.tabulate"]
        out["pca.tabulate.entries"] = self.counts["tabulate_entries"]
        out["pca.tabulate.mbit"] = self.counts["tabulate_bits"] / 1e6
        out["pca.tabulate.distinct"] = len(self._tables)
        out["pca.tabulate.distinct_ratio"] = (
            len(self._tables) / tab_calls if tab_calls else 0.0)
        out["pca.apply.raised"] = self.counts["apply_raised"]
        info = getattr(pca.decode, "cache_info", None)
        hits = misses = 0
        if info and self._decode_start is not None:
            now = info()
            hits = now.hits - self._decode_start.hits
            misses = now.misses - self._decode_start.misses
        out["pca.decode.hits"] = hits
        out["pca.decode.misses"] = misses
        out["pca.decode.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
