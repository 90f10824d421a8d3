#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_4pct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --short      # every workload's checks, in seconds

Run from the root of a source checkout. The build goes to .bench_build/ and
scratch files to .bench_work/, both under the checkout. The last line of
standard output is the benchmark's JSON result; build output goes to
standard error. Exits non-zero when the build fails, when any output check
fails, or when the workload cannot run.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "bandana_perf"
WORKLOADS = ("paper_4pct", "hot_cluster", "retrain_drift")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src").is_dir():
        sys.exit("run.py: no library sources at src/ - run from a source checkout")
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def source_id():
    """The git commit when there is one, and a digest of the sources that
    identifies a plain checkout too."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none (not a git checkout)"
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, short, capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if short:
        cmd.append("--short")
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny inputs; with no --workload, run all")
    args = parser.parse_args()
    if args.workload is None and not args.short:
        parser.error("--workload is required (or --short for all workloads)")

    build()
    sha, digest = source_id()
    print(f"# source: git {sha}, tree sha256 {digest}", flush=True)

    if args.workload is not None:
        proc = run_workload(args.workload, args.seed, args.seconds,
                            args.trace, args.short)
        sys.exit(proc.returncode)

    # Short mode over every workload: one summary line at the end.
    attempted = failed = 0
    ok = True
    for workload in WORKLOADS:
        proc = run_workload(workload, args.seed, 0.5, args.trace, True,
                            capture=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 1}
        attempted += result["attempted"]
        failed += result["failed"]
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"# {workload}: {'ok' if proc.returncode == 0 else 'FAILED'}",
              flush=True)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
