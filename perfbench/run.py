#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--small] [--perturb]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root); the first run configures and compiles,
later runs only check that the binary is up to date. The binary's own
output is passed through: its last line is the JSON result. Exit status is
the binary's (0 = every checked operation passed), or 2 when the build
fails, or 3 when the run exceeds its time limit; neither of the latter
prints a result line.
"""
import argparse
import fcntl
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    root.mkdir(parents=True, exist_ok=True)
    cmake_dir = root / "cmake"
    log_path = root / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(root / "build.lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                      "--target", "perfbench"])
        for step in steps:
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" + "\n".join(tail) + "\n")
                sys.exit(2)
    return cmake_dir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def source_digest():
    """SHA-256 over the library sources (paths and contents), so results
    name the code they measured even in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--small", action="store_true",
                        help="small inputs (self-tests)")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one checked result (self-tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: no library sources next to the benchmark\n")
        sys.exit(2)
    root = build_root()
    binary = build(root)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(root / "out"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.small:
        command.append("--small")
    if args.perturb:
        command.append("--perturb")
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        sys.exit(3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
