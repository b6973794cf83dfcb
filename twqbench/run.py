#!/usr/bin/env python3
"""Build and run the tap-wise int8 F4 runtime benchmark.

Run from the repository root:

    python3 twqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-r20-int8, batch-r34-int8, batch-r34-fp (see
twqbench/README.md). The first call configures and builds the library
and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build) and runs the harness self-test; later calls only check
that the build is up to date. Build output goes to stderr; standard
output is the benchmark's own, whose last line is the JSON result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"twqbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
        sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs,
               "--target", "twqbench", "twqbench_selftest"])
    stamp = os.path.join(build_dir, "selftest.ok")
    selftest = os.path.join(build_dir, "twqbench_selftest")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        run_quiet([selftest])
        with open(stamp, "w", encoding="utf-8") as f:
            f.write("ok\n")


def revision():
    """The git commit, or a digest of the library and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no library sources under {ROOT}/src")
        return 1
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    cmd = [os.path.join(build_dir, "twqbench")] + sys.argv[1:]
    cmd += ["--commit", revision()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
