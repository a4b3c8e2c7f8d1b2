#!/usr/bin/env python3
"""Build the engine and its benchmark driver from source, then run one workload.

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench-<hash of this checkout's path> (default
.bench_build/...), so checkouts sharing one CARGO_TARGET_DIR never build each
other's sources. Oracle results and traces go to <build>/cache/<hash of the
sources>, spill files to <build>/spill. The last line of standard output is
the result: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpch_power", "tpch_budget", "predict_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Everything the engine, its Volcano oracle and the benchmark's statements are
# built from; oracle results are kept per digest of these.
SOURCES = ("CMakeLists.txt", "src", "perfbench")
# A measuring run must end well inside three minutes; the build and the
# one-off oracle computation get their own, longer limits.
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, env=None, capture=False):
    """Runs cmd to completion (killing it on timeout); returns (code, stdout)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        return 1, ""
    return proc.returncode, out or ""


def cached_source_dir(build_dir):
    """The source directory a configured build directory belongs to, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    source = cached_source_dir(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        log(f"{build_dir} was configured for {source}; configuring it afresh")
        shutil.rmtree(build_dir, ignore_errors=True)
        source = None
    if source is None:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs, "--target", "tqp_perfbench"],
                  BUILD_TIMEOUT_S)
    return code


def source_digest():
    """Digest of every file under SOURCES (paths and contents)."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    checkout = hashlib.sha256(os.path.realpath(HERE).encode()).hexdigest()[:12]
    build_dir = os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             f"perfbench-{checkout}")
    if build(build_dir) != 0:
        log("build failed")
        return 1

    # Oracle results computed from other sources are stale: drop them.
    digest = source_digest()
    cache_root = os.path.join(build_dir, "cache")
    cache_dir = os.path.join(cache_root, digest)
    if os.path.isdir(cache_root):
        for old in os.listdir(cache_root):
            if old != digest:
                shutil.rmtree(os.path.join(cache_root, old), ignore_errors=True)
    spill_dir = os.path.join(build_dir, "spill")
    os.makedirs(cache_dir, exist_ok=True)
    os.makedirs(spill_dir, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = spill_dir  # the engine's spill tier writes here
    binary = os.path.join(build_dir, "tqp_perfbench")
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--cache-dir", cache_dir]

    code, _ = run(common + ["--prepare"], PREPARE_TIMEOUT_S, env=env)
    if code != 0:
        log("computing oracle results failed")
        return 1
    code, out = run(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    RUN_TIMEOUT_S, env=env, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or not lines[-1].startswith('{"correct"'):
        log(f"benchmark exited with code {code}")
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
