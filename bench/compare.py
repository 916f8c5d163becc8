"""Benchmark a base commit against HEAD and write BENCH_<n>.json.

    python3 bench/compare.py --base <rev> --out BENCH_6.json

Run from the root of a checkout.  The committed files of both commits are
exported with `git archive` into a temporary directory, so each side runs
the same `perfbench/run.py` command from its own tree, the change side is
exactly HEAD (uncommitted edits are not measured; commit them first), and
nothing is registered in the repository.  For each workload:seed in RUNS,
PAIRS pairs of untraced runs (`--trace 0`, BENCHMARK.json's `run_seconds`
long) alternate which side runs first; then TRACED_RUNS pairs of traced
runs (`--trace 1`, TRACED_SECONDS long) alternate likewise, for the
per-layer metrics.

The JSON holds both commits' shas, every run's result line, and per
workload and seed:
- per end-to-end metric, each side's median and quartiles, the ratio of the
  medians with its base (the base commit's median), and how many pairs HEAD
  won (ties count for neither side);
- per per-layer metric, each side's median and range over its traced runs,
  the ratio of the medians, and whether the values repeat exactly.  Counts
  should: a count that does not is reported on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Ten pairs per row: the fewest from which a gain on nine of ten can be read.
PAIRS = 10

# workload:seed rows.  battery ignores its seed; 47 is the held-out seed.
RUNS = ("battery:1", "scaled_eval:1", "scaled_eval:47", "frontend:47")

# Traced runs per side.  The per-layer counts repeat exactly from run to
# run, but the per-layer times spread as the end-to-end ones do, so one
# traced run is one sample of them, not a measurement.
TRACED_RUNS = 3
TRACED_SECONDS = 5


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def export(rev, dest):
    """Write the files of commit `rev` under `dest`; returns `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return Path(dest)


def run_once(command, tree, workload, seed, seconds, trace):
    """One perfbench invocation; its last stdout line, parsed."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(pairs, metrics):
    """Per metric: each side's median and quartiles, the ratio and its base,
    and HEAD's wins over the pairs."""
    out = {}
    for m in metrics:
        name, better = m["name"], m["better"]
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        out[name] = {
            "unit": m["unit"], "better": better, "bound": m["bound"],
            "base_median": b_med, "base_quartiles": quartiles(base),
            "change_median": c_med, "change_quartiles": quartiles(change),
            "ratio": c_med / b_med if b_med else None,
            "ratio_base": "base median",
            "change_wins": wins, "pairs": len(pairs),
        }
    return out


def summarise_layers(traced, metrics):
    """Per per-layer metric: each side's median and range over its traced
    runs, the ratio of the medians, and whether each side's values repeat."""
    out = {}
    for m in metrics:
        name = m["name"]
        row = {"unit": m["unit"], "better": m["better"]}
        for side, runs in traced.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row[side] = {"median": statistics.median(values), "range": (min(values), max(values)),
                         "repeats": len(set(values)) == 1}
        b_med, c_med = row["base"]["median"], row["change"]["median"]
        row["ratio"] = c_med / b_med if b_med else None
        out[name] = row
    return out


def rev_parse(rev):
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None):
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit HEAD is compared with")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    args = ap.parse_args(argv)

    command = bench["command"]
    seconds = bench["run_seconds"]
    shas = {"base": rev_parse(args.base), "change": rev_parse("HEAD")}
    result = {
        "base": shas["base"],
        "change": shas["change"],
        "command": command,
        "seconds": seconds,
        "traced_runs": TRACED_RUNS,
        "traced_seconds": TRACED_SECONDS,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: export(sha, Path(tmp) / side) for side, sha in shas.items()}
        for spec in RUNS:
            workload, seed = spec.split(":")
            pairs = []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(command, sides[side], workload, seed, seconds, 0)
                    print(f"{workload}:{seed} pair {i} {side}: "
                          f"wall_s {pair[side]['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            traced = {"base": [], "change": []}
            for i in range(TRACED_RUNS):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    traced[side].append(run_once(command, sides[side], workload, seed,
                                                 TRACED_SECONDS, 1))
            layers = summarise_layers(traced, bench["per_layer"])
            for name, row in layers.items():
                for side in sides:
                    if row["unit"] == "count" and not row[side]["repeats"]:
                        print(f"{workload}:{seed} {side}: {name} differs between traced runs: "
                              f"{row[side]['range']}", file=sys.stderr, flush=True)
            result["workloads"].append({
                "workload": workload, "seed": int(seed), "pairs": pairs,
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in sides},
                "summary": summarise(pairs, bench["end_to_end"]),
                "layers": layers,
                "traced": traced,
            })
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    result["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
