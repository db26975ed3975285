#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload opt-narrow --seed 1 --seconds 10 --trace 0

The benchmark is its own dune project (perfbench/dune-project) that links
the repository's public libraries, so it builds inside the checkout's dune
workspace.  Build output goes to .bench_build; run records (deterministic
cells, span traces) go to .bench_out.  The last line of standard output is
the JSON result; the exit status is the benchmark's own (nonzero when an
output check failed or the build failed).
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def build():
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "-j", "2", "--display", "quiet", TARGET,
    ]
    # The shared dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def main():
    if not os.path.isfile("perfbench/dune-project"):
        sys.exit("perfbench: run from the root of a checkout")
    build()
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    proc = subprocess.run([exe] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
