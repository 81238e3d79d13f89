#!/usr/bin/env python3
"""Host-performance benchmark of the SSP simulator.

Builds bench/perf (a standalone CMake project over src/) into build-perf/,
runs each workload in its own ssp_perf process, checks every cell's
outputs, prints every metric by name with its unit, and appends a
results record to a JSON file.

  python3 bench/perf/run.py                      # all workloads
  python3 bench/perf/run.py --workload mesh-c256 --seed 7
  python3 bench/perf/run.py --workload paper-c1 --trace 1 --trace-out t.json
  python3 bench/perf/run.py --smoke              # one cell each (ctest)
  python3 bench/perf/run.py compare A.json B.json

A run's length is a fixed number of passes per workload: --seconds
(default: run_seconds in BENCHMARK.json) divided by the workload's
nominal pass time in PASS_SECONDS.  It never depends on how fast the
code under test runs, so two commits compared at the same settings run
the same passes.

A cell fails if it throws, fails Workload::verify(), differs between
passes (a traced pass is compared with the untraced one), or — at seed
42, the seed the checked-in grids were generated with — if its report
metrics differ from the same-label cell of BENCH_<figure>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Metric names, units
and bounds come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-perf"
REFERENCE_SEED = 42
MIN_PAIRS = 10
RUN_TIMEOUT_S = 160
# What one slice of ssp_perf's host-speed probe takes on a quiet 4-vCPU
# host of the kind the first numbers were taken on.  Host times are
# reported scaled to this speed; see README.md.
REF_PROBE_S = 0.005
# Nominal seconds of one untraced pass (cells plus probe slices) on that
# host.  Only the pass count is derived from them; they are constants so
# that the count is the same on every commit.
PASS_SECONDS = {
    "paper-c1": 1.55,
    "contended-c64": 2.05,
    "mesh-c256": 1.65,
    "serve-c16": 1.2,
    "cluster-fault": 1.25,
}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------

def build():
    """Configure and build ssp_perf (quick no-ops once up to date);
    return the binary path."""
    jobs = str(os.cpu_count() or 1)

    def attempt():
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "--target", "ssp_perf",
                  "-j", jobs]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        return True

    if not attempt():
        # A cache left by another source location cannot be reused.
        log("run.py: build failed; retrying in a fresh build directory")
        shutil.rmtree(BUILD, ignore_errors=True)
        if not attempt():
            sys.exit("run.py: cannot build bench/perf")
    return BUILD / "ssp_perf"


# ---- one workload ----------------------------------------------------

def pass_count(workload, args):
    """ssp_perf's --passes for --seconds.  A traced pass costs about
    twice an untraced one, and a traced run adds one untraced reference
    pass, so it runs half as many traced passes."""
    if args.smoke:
        return 1
    n = max(1, round(args.seconds / PASS_SECONDS[workload]))
    return max(1, n // 2) if args.trace else n


def run_ssp_perf(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--passes", str(pass_count(workload, args))]
    if args.trace:
        cmd.append("--trace")
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: ssp_perf --workload {workload} exited "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(figure):
    with open(ROOT / f"BENCH_{figure}.json") as f:
        doc = json.load(f)
    return {c["label"]: c.get("metrics") for c in doc["cells"]}


def check_cells(doc, seed):
    """Return (attempted, failure messages) over every cell of every
    pass."""
    reference = (load_reference(doc["figure"])
                 if seed == REFERENCE_SEED else None)
    first = {}
    attempted = 0
    failures = []
    for i, p in enumerate(doc["passes"]):
        for cell in p["cells"]:
            attempted += 1
            label = cell["label"]
            metrics = cell.get("metrics")
            first.setdefault(label, metrics)
            why = None
            if not cell["ok"]:
                why = f"threw: {cell.get('error')}"
            elif not cell["verified"]:
                why = "failed verify()"
            elif reference is not None and reference.get(label) != metrics:
                why = "differs from the checked-in reference"
            elif metrics != first[label]:
                why = ("traced pass differs from the untraced pass"
                       if p["traced"] else "differs between passes")
            if why:
                failures.append(f"pass {i} {label}: {why}")
    return attempted, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values, unit):
    q1, q3 = quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def scaled(p, key):
    """A pass's host time scaled to the reference host speed: times the
    reference probe slice over that pass's mean slice."""
    return p[key] * REF_PROBE_S / p["probe_s"]


def end_to_end(doc, spec):
    passes = [p for p in doc["passes"] if not p["traced"]]
    txs = passes[0]["sim_txs"]
    series = {
        "wall_s": [scaled(p, "wall_s") for p in passes],
        "setup_s": [scaled(p, "setup_s") for p in passes],
        "sim_tx_per_s": [txs / scaled(p, "run_s") for p in passes],
        "peak_rss_mb": [doc["peak_rss_mb"]],
        "sim_cycles_per_tx": [p["sim_cycles"] / txs for p in passes],
        "nvram_writes_per_tx": [p["nvram_writes"] / txs for p in passes],
    }
    return {m["name"]: summarize(series[m["name"]], m["unit"])
            for m in spec["end_to_end"]}


def raw_host_times(doc):
    """Unscaled medians, kept in the results file beside the metrics."""
    passes = [p for p in doc["passes"] if not p["traced"]]
    return {k: statistics.median(p[k] for p in passes)
            for k in ("wall_s", "setup_s", "run_s", "probe_s")}


def per_layer(doc, spec):
    untraced = [p for p in doc["passes"] if not p["traced"]]
    traced = [p for p in doc["passes"] if p["traced"]]
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            # Traced over untraced run phase, each at reference speed.
            base = statistics.median(scaled(p, "run_s") for p in untraced)
            values = [scaled(p, "run_s") / base for p in traced]
        else:
            values = [p["layers"][name] for p in traced]
        out[name] = summarize(values, m["unit"])
    return out


def measure(binary, workload, args, spec):
    doc = run_ssp_perf(binary, workload, args)
    attempted, failures = check_cells(doc, args.seed)
    for f in failures:
        log(f"run.py: {workload}: {f}")
    result = {"figure": doc["figure"], "nproc": doc["nproc"],
              "passes": len(doc["passes"]),
              "correct": not failures, "attempted": attempted,
              "failed": len(failures), "failures": failures,
              "end_to_end": end_to_end(doc, spec),
              "raw_host_times": raw_host_times(doc)}
    if args.trace:
        result["per_layer"] = per_layer(doc, spec)
    return result


# ---- output ----------------------------------------------------------

def print_metrics(workload, result, key):
    print(f"{workload} ({result['figure']}, {result['passes']} passes, "
          f"{result['failed']}/{result['attempted']} cell runs failed)")
    for name, m in result[key].items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']:<10} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")


def append_run(path, record):
    doc = {"schema": "ssp-perf-results-v1", "runs": []}
    if path.exists():
        with open(path) as f:
            doc = json.load(f)
    doc["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    tmp.replace(path)


def cmd_measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if args.workload and args.workload not in names:
        sys.exit(f"run.py: unknown workload '{args.workload}' "
                 f"(known: {', '.join(names)})")
    if args.trace_out and len(workloads) != 1:
        sys.exit("run.py: --trace-out needs --workload")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = Path(args.binary) if args.binary else build()

    started = time.time()
    results = {w: measure(binary, w, args, spec) for w in workloads}
    key = "per_layer" if args.trace else "end_to_end"
    for w, r in results.items():
        print_metrics(w, r, key)

    if args.out:
        append_run(Path(args.out), {
            "started": started,
            "date": time.strftime("%Y-%m-%d", time.localtime(started)),
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke, "workloads": results})

    correct = all(r["correct"] for r in results.values())
    metrics = {}
    for w, r in results.items():
        prefix = "" if len(results) == 1 else f"{w}/"
        for name, m in r[key].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


# ---- compare ---------------------------------------------------------

def verdict(a, b, better, bound):
    """Choosing-metrics section 8 on one metric: a = parent values,
    b = change values, paired by index."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    iqr_a = q3_a - q1_a
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if len(set(a)) == 1 and len(set(b)) == 1:
        # Deterministic at this seed (the simulated metrics): the bound
        # only covers their spread across seeds, so any move is real.
        label = ("regression" if worse > 0 else
                 "gain" if worse < 0 else "unchanged")
    elif wins >= 0.9 * len(a) and worse < 0 and abs(med_b - med_a) > iqr_a:
        label = "gain"
    elif worse > bound and (all_worse or iqr_a <= bound * abs(med_a)):
        label = "regression"
    elif iqr_a > bound * abs(med_a) and not all_better:
        # The parent's own spread is wider than the bound: "no
        # regression" cannot be told apart from noise.
        label = "unresolved"
    else:
        label = "within bound"
    return wins, worse, label


def settings(record, workload):
    """What must match between the two runs of a pair."""
    return {"seed": record["seed"], "seconds": record["seconds"],
            "passes": record["workloads"][workload]["passes"]}


def cmd_compare(args):
    spec = load_spec()

    def runs(path):
        with open(path) as f:
            return [r for r in json.load(f)["runs"]
                    if not r["trace"] and not r["smoke"]]

    a_runs, b_runs = runs(args.parent), runs(args.change)
    status = 0
    for w in (x["name"] for x in spec["workloads"]):
        pa = [r for r in a_runs if w in r["workloads"]]
        pb = [r for r in b_runs if w in r["workloads"]]
        n = min(len(pa), len(pb))
        if n < MIN_PAIRS:
            print(f"{w}: {n} pair(s); need at least {MIN_PAIRS}, "
                  "every metric unresolved")
            status = max(status, 2)
            continue
        pa, pb = pa[:n], pb[:n]
        for i, (ra, rb) in enumerate(zip(pa, pb)):
            sa, sb = settings(ra, w), settings(rb, w)
            if sa != sb:
                sys.exit(f"run.py compare: {w} pair {i} ran with different "
                         f"settings: parent {sa}, change {sb}")
        firsts = [ra["started"] < rb["started"] for ra, rb in zip(pa, pb)]
        alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
        fail_a = sum(r["workloads"][w]["failed"] for r in pa)
        fail_b = sum(r["workloads"][w]["failed"] for r in pb)
        print(f"{w}: {n} pairs, "
              f"{'alternating' if alternating else 'NOT alternating'}, "
              f"failed cell runs parent {fail_a} / change {fail_b}")
        print(f"  {'metric':<22} {'parent median [q1, q3]':>36} "
              f"{'change median [q1, q3]':>36} {'worse':>8} "
              f"{'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["workloads"][w]["end_to_end"][name]["value"] for r in pa]
            b = [r["workloads"][w]["end_to_end"][name]["value"] for r in pb]
            wins, worse, label = verdict(a, b, m["better"], m["bound"])
            if label == "gain" and fail_b > fail_a:
                label = "no gain (more failures)"
            if label == "regression":
                status = max(status, 1)
            cols = []
            for v in (a, b):
                q1, q3 = quartiles(v)
                cols.append(f"{statistics.median(v):.6g} "
                            f"[{q1:.6g}, {q3:.6g}]")
            print(f"  {name:<22} {cols[0]:>36} {cols[1]:>36} "
                  f"{worse:>+8.1%} {wins:>3}/{n:<3} {label} "
                  f"(bound {m['bound']:.0%})")
    return status


# ---- command line ----------------------------------------------------

def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two results files of alternating runs "
                        "(parent first) by the parent-IQR rule.")
        ap.add_argument("parent")
        ap.add_argument("change")
        return cmd_compare(ap.parse_args(sys.argv[2:]))

    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED,
                    help="grid base seed (default 42)")
    ap.add_argument("--seconds", type=float,
                    help="nominal run length per workload, turned into a "
                         "fixed pass count (default: run_seconds in "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--trace-out", help="Chrome trace-event JSON file of "
                                        "the first traced pass")
    ap.add_argument("--smoke", action="store_true",
                    help="first cell of each workload, traced, one pass")
    ap.add_argument("--binary", help="prebuilt ssp_perf (skips the build)")
    ap.add_argument("--out", help="results file to append this run to "
                                  "(default build-perf/perf_results.json; "
                                  "none with --smoke)")
    args = ap.parse_args()
    if args.trace_out:
        args.trace = 1
    if args.smoke:
        args.trace = 1
    elif args.out is None:
        args.out = str(BUILD / "perf_results.json")
    return cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
