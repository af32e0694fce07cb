#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles the
analysis libraries from src/ plus the benchmark binary into the build
directory (CARGO_TARGET_DIR when set, else .bench_build); later runs only
re-check it. --trace 0 builds and runs perfbench, which calls only the
libraries' public entry points; --trace 1 builds and runs
perfbench_traced, which also replays core's sub-layers. The binary's last
stdout line is the JSON result, and its exit code is this script's.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "bigprog", "batchheavy", "serve")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def binary(trace):
    return "perfbench_traced" if trace else "perfbench"


def build(target):
    """Configures and builds one benchmark binary; returns its path or
    None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt next to perfbench/: nothing to build")
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        # One build at a time per build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.run(["cmake", "--build", out, "--target", target,
                           "-j", jobs], stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    return os.path.join(out, target)


def source_commit():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds, so two result sets can be matched."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")

    exe = build(binary(args.trace))
    if exe is None:
        return 2
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    # The PDT_* knobs change what the program does (threads, batching,
    # telemetry sinks, fault injection); the benchmark runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDT_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--expected", os.path.join(HERE, "expected.json"),
           "--out-dir", traces, "--commit", source_commit()]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=3 * args.seconds + 150).returncode
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1


if __name__ == "__main__":
    sys.exit(main())
