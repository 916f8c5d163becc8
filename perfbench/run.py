"""costpcf benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; costpcf is imported from its `src/`.

--trace 0 times passes of the workload with nothing wrapped and prints the
end-to-end metrics.  --trace 1 runs some passes untraced, then as many with
every public costpcf function wrapped in a span (see tracing.py), and
prints the per-layer metrics, per pass, plus the tracing overhead.  Either
way every answer is checked, and the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a {"detail": ...} object with what is reported but
not gated: error_rate, sample counts, the battery's stdout digests and the
deep-input probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-ups per run: a few before the passes and about SETUPS spread over
# them; setup_s is the median of all of them.
SETUPS_FIRST = 3
SETUPS = 8

SUITE_CHECKS = {
    "laws": "harness.check_laws",
    "soundness": "harness.check_soundness",
    "adequacy": "harness.check_adequacy",
    "sequencing": "harness.check_sequencing_laws",
    "noninterference": "harness.check_noninterference",
}
GENERATORS = ("harness.gen_programs", "harness.gen_sequencing_instances",
              "harness.gen_ni_functions", "harness.gen_ni_arg_pairs")


def _import_workloads():
    """Import costpcf from this checkout's src/, or exit without a result."""
    if not (SRC / "costpcf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no costpcf sources at {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    pc = workloads.import_costpcf()
    if Path(pc.cli.__file__).resolve().parent != SRC / "costpcf":
        sys.exit(f"perfbench: imported costpcf from {pc.cli.__file__}, not {SRC}")
    return workloads


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


def _build(n):
    if n <= 1:
        return n
    return _Node(_build(n // 2), _build(n - n // 2))


def _fold(t):
    if isinstance(t, _Node):
        return _fold(t.left) + _fold(t.right)
    return t


# The calibration job's fastest time on an unloaded 2-core x86 VM running
# Python 3.11.  Scaled timings are seconds at that speed.
CAL_REF_S = 0.027

# Calibrate after at least this much timed work.
CAL_EVERY_S = 0.5


def calibrate():
    """Seconds a fixed pure-Python job takes now: the host's current speed.

    The host is shared.  Load from elsewhere slowed the same costpcf pass by
    up to 1.7x for minutes at a time, far beyond any bound.  This job
    (allocation, recursion, isinstance dispatch and attribute reads over a
    50,000-node tree, like the code under test) slows down with it; of the
    jobs tried, its ratio to a battery pass was the steadiest.  Every timing
    is scaled by CAL_REF_S over the mean of the calibrations around it.
    """
    start = time.perf_counter()
    tree = _build(50_000)
    if _fold(tree) + _fold(tree) != 100_000:
        raise AssertionError("calibration job miscounted")
    return time.perf_counter() - start


class Tally:
    """Pass times and per-item mean times, scaled to the reference speed,
    and failures, in O(items) memory."""

    def __init__(self):
        self.pass_seconds = []  # scaled
        self.raw_seconds = []
        self.item_sums = None  # scaled, per item, in input order
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few notes
        self.digests = set()

    def add(self, seconds, items, scale):
        self.pass_seconds.append(seconds * scale)
        self.raw_seconds.append(seconds)
        times = [it.seconds * scale for it in items]
        self.item_sums = times if self.item_sums is None else [
            a + b for a, b in zip(self.item_sums, times)]
        self.attempted += len(items)
        for it in items:
            if not it.ok:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(it.note)
            if it.digest:
                self.digests.add(it.digest)

    @property
    def wall(self):
        return statistics.median(self.pass_seconds)

    def item_means(self):
        n = len(self.pass_seconds)
        return [s / n for s in self.item_sums]


class Workload:
    """A workload's current costpcf modules and inputs, and its set-up times.

    Each set-up imports costpcf afresh and builds the inputs again (the same
    ones: they depend only on the seed).  Set-ups are spread over the run.
    Set-ups and passes are timed between calibrations and scaled by
    CAL_REF_S over their mean.
    """

    def __init__(self, workloads, name, seed, size):
        self.workloads = workloads
        self.setup_fn, self.run_pass = workloads.WORKLOADS[name]
        self.seed, self.size = seed, size
        self.setup_times = []  # scaled
        self.pc = self.inputs = None
        self.cal = calibrate()  # the latest calibration

    def _recalibrate(self):
        """Calibrate now; return the scale for the work since the last one."""
        before = self.cal
        self.cal = calibrate()
        return 2 * CAL_REF_S / (before + self.cal)

    def setup(self):
        start = time.perf_counter()
        self.pc = self.workloads.import_costpcf()
        self.inputs = self.setup_fn(self.pc, self.seed, self.size)
        seconds = time.perf_counter() - start
        self.setup_times.append(seconds * self._recalibrate())

    def passes(self, seconds, min_passes, max_passes=None, resetup=False):
        """Closed-loop passes until the next one would end after `seconds`.

        With `resetup`, about SETUPS more set-ups happen between passes.
        """
        tally = Tally()
        pending = []  # (seconds, items) timed since the last calibration
        raw = []

        def flush():
            scale = self._recalibrate()
            for p in pending:
                tally.add(*p, scale)
            pending.clear()

        start = last_setup = time.perf_counter()
        self._recalibrate()
        while True:
            if resetup and raw and time.perf_counter() - last_setup >= seconds / SETUPS:
                flush()
                self.setup()
                last_setup = time.perf_counter()
            t0 = time.perf_counter()
            items = self.run_pass(self.pc, self.inputs)
            raw.append(time.perf_counter() - t0)
            pending.append((raw[-1], items))
            elapsed = time.perf_counter() - start
            done = ((max_passes is not None and len(raw) >= max_passes)
                    or (len(raw) >= min_passes and elapsed + statistics.median(raw) > seconds))
            if done or sum(p for p, _ in pending) >= CAL_EVERY_S:
                flush()
            if done:
                return tally


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(tracer, traced, untraced, deep_raised):
    """Per-layer metrics, each per traced pass."""
    per = 1.0 / len(traced.pass_seconds)
    self_ns = tracer.layer_self_ns()
    sec = tracer.seconds
    calls = tracer.calls

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = sec("syntax.parse")
    unwrap_s = sec("denote.observe", "denote.laters_needed")  # the two Later-unwrapping loops
    m = {
        "syntax.parse_s": (parse_s * per, "s"),
        "syntax.parse_chars_per_s": (ratio(tracer.parse_chars, parse_s), "chars/s"),
        "syntax.print_s": (sec("syntax.print_term") * per, "s"),
        "syntax.subst_s": (sec("syntax.subst") * per, "s"),
        "syntax.subst_calls": (calls("syntax.subst") * per, "count"),
        "syntax.shift_calls": (calls("syntax.shift") * per, "count"),
        "typecheck.check_s": (tracer.layer_entry_seconds("typecheck") * per, "s"),
        "typecheck.infer_calls": (calls("typecheck.infer") * per, "count"),
        "machine.run_s": (sec("machine.run") * per, "s"),
        "machine.steps": (tracer.machine_steps * per, "count"),
        "machine.us_per_step": (ratio(self_ns["machine"] / 1e3, tracer.machine_steps), "us"),
        "machine.out_calls": (calls("machine.out") * per, "count"),
        "denote.observe_s": (sec("denote.observe") * per, "s"),
        "denote.laters": (tracer.laters * per, "count"),
        "denote.us_per_later": (ratio(unwrap_s * 1e6, tracer.laters), "us"),
        "denote.exhausted_frac": (ratio(tracer.exhausted_laters, tracer.laters), "ratio"),
        "denote.denote_closed_s": (sec("denote.denote_closed") * per, "s"),
        "cost.add_calls": (calls("cost.add") * per, "count"),
        "cost.add_s": (sec("cost.add") * per, "s"),
    }
    for suite, fn in SUITE_CHECKS.items():
        m[f"harness.{suite}_s"] = (sec(fn) * per, "s")
    m["harness.gen_s"] = (sec(*GENERATORS) * per, "s")
    m["harness.load_corpus_s"] = (sec("harness.load_corpus") * per, "s")
    m["cli.main_s"] = (sec("cli.main") * per, "s")
    for layer, ns in self_ns.items():
        m[f"{layer}.self_s"] = (ns / 1e9 * per, "s")
    in_spans = tracer.stack[0][2] / 1e9
    m["bench.self_s"] = ((sum(traced.raw_seconds) - in_spans) * per, "s")
    m["trace.spans"] = ((len(tracer.spans) + tracer.dropped) * per, "count")
    m["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    m["probe.deep_raised"] = (deep_raised, "count")
    return m


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload and return (result, detail) as the JSON lines print them."""
    workloads = _import_workloads()
    from tracing import Tracer

    wl = Workload(workloads, workload, seed, size)
    for _ in range(SETUPS_FIRST):
        wl.setup()
    probe = workloads.deep_probe(wl.pc)
    deep_raised = sum(1 for v in probe.values() if v)
    detail = {"workload": workload, "seed": seed, "size": size, "deep_probe": probe}

    if trace:
        untraced = wl.passes(seconds / 4, min_passes=1)
        tracer = Tracer()
        with tracer:
            traced = wl.passes(float("inf"), min_passes=1,
                                    max_passes=len(untraced.pass_seconds))
        if size == "full":
            tracer.write_spans(HERE / "spans" / f"{workload}-seed{seed}.csv")
        tallies = [untraced, traced]
        metrics = _layer_metrics(tracer, traced, untraced, deep_raised)
        detail.update(untraced_wall_s=untraced.wall, traced_wall_s=traced.wall,
                      spans_recorded=len(tracer.spans), spans_dropped=tracer.dropped)
    else:
        tally = wl.passes(seconds, min_passes=3, resetup=True)
        tallies = [tally]
        item_ms = [s * 1e3 for s in tally.item_means()]
        metrics = {
            "setup_s": (statistics.median(wl.setup_times), "s"),
            "wall_s": (tally.wall, "s"),
            "item_p50_ms": (_quantile(item_ms, 50), "ms"),
            "item_p90_ms": (_quantile(item_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update(raw_median_pass_s=statistics.median(tally.raw_seconds),
                      raw_fastest_pass_s=min(tally.raw_seconds),
                      setups=len(wl.setup_times))

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    detail.update(passes=sum(len(t.pass_seconds) for t in tallies), items=attempted,
                  error_rate=failed / attempted,
                  failures=[note for t in tallies for note in t.failures][:10])
    if workload == "battery":
        detail["stdout_sha256"] = sorted(set().union(*(t.digests for t in tallies)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("battery", "scaled_eval", "frontend"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
