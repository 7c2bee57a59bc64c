#!/usr/bin/env python3
"""End-to-end benchmark of the Paresy reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload table2-cpu --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-reference > perfbench/reference.tsv

The first call configures and builds the repository's library and
paresy_cli together with the benchmark driver (Release) under
.bench_build/perfbench. A workload run prints a context line (nproc,
steal share over the run, build type, commit), then as its last line one
JSON object with the keys correct, attempted, failed and metrics; the
same object plus the context is kept in .bench_out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds; returns the two binaries or exits."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("error: the repository sources are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log = open(os.path.join(BUILD, "build.log"), "w")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "paresy_cli", "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            sys.exit("error: build failed, see " + log.name)
    driver = os.path.join(BUILD, "perfbench")
    cli = os.path.join(BUILD, "paresy", "paresy_cli")
    return driver, cli


def cpu_times():
    """The aggregate cpu line of /proc/stat as (steal, total) ticks."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(cmd):
    """Runs the driver in its own process group; kills the group on
    timeout so no server it launched outlives the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("error: the run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--make-reference", action="store_true")
    a = p.parse_args()

    driver, cli = build()
    reference = os.path.join(HERE, "reference.tsv")
    if a.make_reference:
        sys.exit(subprocess.call([driver, "--make-reference"]))
    if a.self_test:
        sys.exit(subprocess.call([driver, "--self-test",
                                  "--reference", reference]))
    if not a.workload:
        p.error("--workload is required")

    os.makedirs(OUT, exist_ok=True)
    before, start = cpu_times(), time.time()
    code, out = run_driver([driver, "--workload", a.workload,
                            "--seed", str(a.seed),
                            "--seconds", str(a.seconds),
                            "--trace", str(a.trace), "--cli", cli,
                            "--reference", reference, "--out", OUT])
    after = cpu_times()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit("error: the benchmark driver failed (exit %d)" % code)
    result = json.loads(lines[-1])
    steal = None
    if before and after and after[1] > before[1]:
        steal = round((after[0] - before[0]) / (after[1] - before[1]), 4)
    context = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
               "nproc": os.cpu_count(), "steal_share": steal,
               "build_type": BUILD_TYPE, "commit": commit(),
               "wall_s": round(time.time() - start, 3)}
    name = "%s-s%d-t%d.json" % (a.workload, a.seed, a.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("context: " + json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
