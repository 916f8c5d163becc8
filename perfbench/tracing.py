"""Spans around calls into costpcf's modules, recorded from outside.

Tracing swaps the module attributes that callers look up (for example
`machine.run`, `syntax.subst`, `cli.run_suite`) for timing wrappers, so no
code under `src/` changes.  A recursive function recurses through its own
module global, so while its outermost call runs the wrapper puts the
original back: recursion is then direct, adds no stack frame, and counts as
the outer span's own time.

Two things are not plain functions.  `CostModel.add` is a method, so it is
wrapped on the class.  A `Later` is unwrapped by calling its thunk, so
`denote.Later` is replaced by a subclass whose thunk bumps a counter; that
counts the Laters every observation spends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("syntax", "typecheck", "machine", "denote", "cost", "harness", "cli")

# Public entry points per module.  Names imported with `from x import f`
# are swapped in every costpcf module that holds the same function object.
WRAPPED = {
    "syntax": ("parse", "print_term", "subst", "shift"),
    "typecheck": ("infer", "check_program"),
    "machine": ("run", "out", "profile", "eval_term"),
    "denote": ("observe", "laters_needed", "denote_closed", "denote"),
    "harness": ("run_suite", "load_corpus", "gen_programs", "gen_sequencing_instances",
                "gen_ni_functions", "gen_ni_arg_pairs", "check_laws", "check_soundness",
                "check_adequacy", "check_sequencing_laws", "check_noninterference"),
    "cli": ("main",),
}

# Raw spans kept for export; past this only the per-name aggregates grow.
MAX_SPANS = 200_000


class Tracer:
    """Span stack, per-name aggregates and the raw span log of one run."""

    def __init__(self):
        # One frame per open span: [layer, span id, child ns].
        self.stack = [["bench", 0, 0]]
        self.next_id = 1
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.dropped = 0
        # name -> [calls, ns, self ns, ns of calls entered from another layer]
        self.stats = defaultdict(lambda: [0, 0, 0, 0])
        self.machine_steps = 0
        self.laters = 0
        self.exhausted_laters = 0
        self.parse_chars = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _span(self, name, layer, fn, args, kwargs):
        clock = time.perf_counter_ns
        stack = self.stack
        span_id = self.next_id
        self.next_id = span_id + 1
        frame = [layer, span_id, 0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            parent = stack[-1]
            dur = end - start
            parent[2] += dur
            st = self.stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent[0] != layer:
                st[3] += dur
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent[1], name, start, end))
            else:
                self.dropped += 1

    def _wrap(self, name, fn):
        """Wrapper for a module-level function; recursion runs unwrapped."""
        tracer = self
        layer = name.split(".", 1)[0]
        g = fn.__globals__
        key = fn.__name__
        if g.get(key) is not fn:
            def traced(*args, **kwargs):
                return tracer._span(name, layer, fn, args, kwargs)
            return traced

        def traced(*args, **kwargs):
            outer = g[key]
            g[key] = fn
            try:
                return tracer._span(name, layer, fn, args, kwargs)
            finally:
                g[key] = outer
        return traced

    # -- counting hooks ----------------------------------------------------

    def _counted_later(self, later_cls):
        tracer = self

        class CountedLater(later_cls):
            def __init__(self, thunk):
                def counted():
                    tracer.laters += 1
                    return thunk()
                super().__init__(counted)

        return CountedLater

    def _hook(self, name, fn, dn, mc):
        """Wrapper that also records a layer's work count from the call."""
        traced = self._wrap(name, fn)
        tracer = self
        if name == "denote.observe":
            def observe(d, fuel, *rest, **kw):
                before = tracer.laters
                res = traced(d, fuel, *rest, **kw)
                if isinstance(res, dn.Exhausted):
                    tracer.exhausted_laters += tracer.laters - before
                return res
            return observe
        if name == "machine.run":
            def run(e, fuel, *rest, **kw):
                res = traced(e, fuel, *rest, **kw)
                tracer.machine_steps += fuel if res is None else res[2]
                return res
            return run
        if name == "machine.out":
            def out(e, *rest, **kw):
                res = traced(e, *rest, **kw)
                if isinstance(res, mc.Next):
                    tracer.machine_steps += 1
                return res
            return out
        if name == "syntax.parse":
            def parse(source, *rest, **kw):
                tracer.parse_chars += len(source)
                return traced(source, *rest, **kw)
            return parse
        return traced

    # -- install / remove --------------------------------------------------

    def install(self):
        """Swap every wrapped attribute in the loaded costpcf modules."""
        from costpcf import cost, denote as dn, machine as mc

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "costpcf" or n.startswith("costpcf."))]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"costpcf.{layer}"]
            for attr in names:
                fn = getattr(home, attr)
                wrapper = self._hook(f"{layer}.{attr}", fn, dn, mc)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, key, wrapper)

        add = cost.CostModel.add
        traced_add = self._wrap("cost.add", add)
        self._set(cost.CostModel, "add", traced_add)
        self._set(dn, "Later", self._counted_later(dn.Later))

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def remove(self):
        """Put every original attribute back, newest first."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- summaries ---------------------------------------------------------

    def layer_self_ns(self):
        out = {layer: 0 for layer in LAYERS}
        for name, (_calls, _ns, self_ns, _entry_ns) in self.stats.items():
            out[name.split(".", 1)[0]] += self_ns
        return out

    def layer_entry_seconds(self, layer):
        """Seconds inside `layer`, counted from each entry from outside it."""
        return sum(st[3] for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer) / 1e9

    def write_spans(self, path):
        """Write the recorded spans as CSV: id, parent id, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def seconds(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats) / 1e9
