#!/usr/bin/env python3
"""Builds the dtrainlib benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark program) into perfbench/.build; later calls
rebuild only what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Any other flag
(--write-pins, --pins, --out) is passed through; see perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
BUILD = BENCH / ".build"
PROGRAM = BUILD / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {REPO / 'src'}; run from a full checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_rev():
    if not (REPO / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the sources the benchmark is built from (path + bytes)."""
    h = hashlib.sha256()
    roots = [REPO / "src", REPO / "bench" / "bench_common.hpp", BENCH]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        for path in root.rglob("*"):
            rel = path.relative_to(BENCH) if BENCH in path.parents else None
            if rel is not None and rel.parts[0] in (".build", ".out"):
                continue
            if path.is_file():
                files.append(path)
    for path in sorted(files):
        h.update(str(path.relative_to(REPO)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    build()
    args = [str(PROGRAM), *sys.argv[1:],
            "--git-rev", git_rev(), "--src-digest", src_digest()]
    if "--pins" not in args:
        args += ["--pins", str(BENCH / "pins.txt")]
    if "--out" not in args:
        args += ["--out", str(BENCH / ".out")]
    sys.stdout.flush()
    os.execv(str(PROGRAM), args)


if __name__ == "__main__":
    main()
