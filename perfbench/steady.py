#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarise every metric.

    python3 perfbench/steady.py --workload paper_4pct --runs 10 --seed0 1

Runs seeds seed0 .. seed0+N-1 through run.py (as the benchmark command
does), then seed0 again. For each end-to-end metric it prints the median,
quartiles, min and max of the N runs and the quartile spread (q3 - q1) as a
share of the median, next to the metric's bound from BENCHMARK.json.

With --trace 1 every run is made twice, untraced and traced, and the
per-layer metrics are summarised together with the tracing overhead
(untraced kreq_per_s over traced trace.kreq_per_s, per seed).

Exits non-zero when a run fails, when the repeated seed0 run's simulated
or counted metrics (sim_*, nvm_reads_per_klookup, space_amp) differ from
the first run's, or when a traced run's differ from its untraced twin's.
Spreads over a bound are reported, not failed: the benchmark's bound is
checked by whoever compares two sets of runs.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DETERMINISTIC_PREFIX = "# deterministic "


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    det = None
    for line in lines:
        if line.startswith(DETERMINISTIC_PREFIX):
            det = json.loads(line[len(DETERMINISTIC_PREFIX):])
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, det
    return json.loads(lines[-1]), det


def summarise(name, values, unit, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    verdict = ""
    if bound is not None:
        verdict = "ok" if spread < bound / 3 else (
            "within bound" if spread <= bound else "OVER BOUND")
    bound_s = f"{bound:.3f}" if bound is not None else "-"
    print(f"{name:36s} {q2:12.5g} {q1:12.5g} {q3:12.5g} {min(values):12.5g} "
          f"{max(values):12.5g} {spread:8.4f} {bound_s:>6s}  {unit} {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    results, dets, overhead = [], [], []
    for i in range(args.runs):
        seed = args.seed0 + i
        res, det = run_once(args.workload, seed, seconds, 0)
        if res is None or not res["correct"] or res["failed"]:
            print(f"seed {seed}: run failed")
            ok = False
            continue
        results.append(res)
        dets.append(det)
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        if args.trace:
            traced, tdet = run_once(args.workload, seed, seconds, 1)
            if traced is None or tdet != det:
                print(f"seed {seed}: traced run failed or its simulated and "
                      f"counted metrics differ: {tdet} vs {det}")
                ok = False
                continue
            results[-1] = traced
            overhead.append(res["metrics"]["kreq_per_s"]["value"] /
                            traced["metrics"]["trace.kreq_per_s"]["value"])

    rerun, rerun_det = run_once(args.workload, args.seed0, seconds, 0)
    if rerun is None or not dets or rerun_det != dets[0]:
        print(f"seed {args.seed0} repeated: simulated or counted metrics "
              f"differ: {rerun_det} vs {dets[0] if dets else None}")
        ok = False
    else:
        print(f"seed {args.seed0} repeated: simulated and counted metrics "
              f"identical")

    if len(results) >= 2:
        print(f"\n{args.workload}: {len(results)} runs, {seconds:g} s each")
        print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>8s} {'bound':>6s}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            summarise(name, values, m["unit"], bounds.get(name))
        if overhead:
            summarise("tracing overhead (untraced/traced)", overhead, "x",
                      None)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
