#!/usr/bin/env python3
"""Build the pchls benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is synth-capped, synth-uncapped, serve-mix, serve-renumbered, or all
(every workload from one process, as a table and one JSON line). The
build's output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    return ["opam", "exec", "--", "dune"]


def main():
    build = dune() + ["build", "--root", ROOT, "./perfbench/bench.exe", "./bin/pchls.exe"]
    # the shared dune cache lives outside the checkout: build without it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot build: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    bench = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    pchls = os.path.join(ROOT, "_build", "default", "bin", "pchls.exe")
    args = [bench, "--pchls", pchls, "--dir", os.path.join(ROOT, ".perfbench")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
