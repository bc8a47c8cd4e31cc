#!/usr/bin/env python3
"""Builds the benchmark runner from source (first use) and runs one workload.

usage (from the repository root):
  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1> [--smoke]

The build lives in .bench_build/ at the repository root (CMake, Release,
the root project's flags). The runner is started inside that directory, so
everything a run writes (the serving socket) stays there.

BENCHMARK.json is the metric catalogue. The runner reports the metrics it
measured, by name; this script checks that each is declared for the mode
(end_to_end with --trace 0, per_layer with --trace 1), that no end-to-end
metric is missing, and reads a per-layer metric the workload does not run
as 0. It prints every metric with its unit from BENCHMARK.json, writes the
results file compare.py reads (.bench_build/results/<workload>-seed<n>-
trace<t>.json), and prints as the last line one JSON object with
"correct", "attempted", "failed" and "metrics". Exit status: 0 on a correct
run, 1 when a correctness gate fails or the run breaks, 2 on a usage error
or when the program cannot be built.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "satd_bench")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("benchmark/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no library sources at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    cmake = shutil.which("cmake")
    if cmake is None:
        fail(2, "cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    steps = [cmake, "--build", BUILD, "--target", "satd_bench", "-j", jobs]
    if subprocess.run(steps, stdout=sys.stderr).returncode != 0:
        fail(2, "build failed")


def declared_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(2, "no BENCHMARK.json at %s" % ROOT)
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def complete(result, trace):
    """The runner's metrics, by name, as BENCHMARK.json's {value, unit}."""
    declared = declared_metrics(trace)
    names = set(name for name, _ in declared)
    unknown = sorted(set(result["metrics"]) - names)
    if unknown:
        fail(1, "runner reported metrics BENCHMARK.json does not declare "
             "for --trace %d: %s" % (trace, unknown))
    missing = sorted(names - set(result["metrics"]))
    if missing and not trace:
        fail(1, "runner did not report %s" % missing)
    broken = sorted(n for n, v in result["metrics"].items() if v is None)
    if broken:
        fail(1, "runner measured no finite value for %s" % broken)
    return {name: {"value": result["metrics"].get(name, 0), "unit": unit}
            for name, unit in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmark/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main():
    args = parse_args(sys.argv[1:])
    build()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    path = os.path.join(BUILD, "results", "%s-seed%s-trace%s%s.json"
                        % (args.workload, args.seed, args.trace,
                           "-smoke" if args.smoke else ""))
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.smoke:
        command.append("--smoke")

    child = subprocess.Popen(command, cwd=BUILD, stdout=subprocess.PIPE,
                             text=True)

    def stop_child(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(1, "run exceeded %d s" % RUN_TIMEOUT_S)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(1, "runner exited %d without a result line" % child.returncode)
    trace = args.trace == "1"
    metrics = complete(result, trace)
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    with open(path, "w") as f:
        json.dump({"schema": "satd-benchmark-1", "workload": args.workload,
                   "seed": int(args.seed), "seconds": float(args.seconds),
                   "trace": trace, "smoke": args.smoke,
                   "host": result["host"], "correct": result["correct"],
                   "attempted": result["attempted"],
                   "failed": result["failed"], "gates": result["gates"],
                   "metrics": metrics, "extra": result["extra"]},
                  f, indent=2)
        f.write("\n")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
