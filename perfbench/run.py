#!/usr/bin/env python3
"""Builds and runs the repository benchmark (zdr_perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload api_get --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (and the library sources
under src/ it links) into .bench_build/perfbench with CMake, Release
build type; later calls rebuild incrementally. The benchmark binary then
runs from the checkout root and its standard output is passed through:
the last line is the JSON result, the line before it a fuller report
(host fingerprint, sample counts, failure breakdown). Any build or run
failure, or a failed self-check, exits non-zero without a result line.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("api_get", "bulk_body", "zdr_release")
RUN_TIMEOUT_S = 170


def build(root: str, build_dir: str, env: dict) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=root, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "zdr_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, cwd=root, env=env)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(root, build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "zdr_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # Socket Takeover leaves its UNIX socket path behind when a run is
        # cut short; remove any the binary did not unlink.
        for name in os.listdir(build_root):
            if name.startswith("tko_") and name.endswith(".sock"):
                try:
                    os.unlink(os.path.join(build_root, name))
                except OSError:
                    pass
    if proc.returncode != 0:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
