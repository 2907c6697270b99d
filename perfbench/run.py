#!/usr/bin/env python3
"""Build and run one workload of the desyn benchmark.

    python3 perfbench/run.py --workload verify|explore --seed N \\
        --seconds S --trace 0|1 [--fault SPEC]

Run from the root of a source checkout. The first run configures and
builds the library, `desyn_cli` and the benchmark driver (Release) under
the build directory (`$CARGO_TARGET_DIR`, default `.bench_build`); later
runs only re-check the build. Build output goes to stderr; the driver's
stdout passes through, so its last line is the JSON result. Reports,
traces and the determinism ledger (one per source digest, so a change to
the sources starts a new one) land in `<build dir>/perfbench-runs`.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit():
    """The git commit of the checkout, "+dirty" when its files differ from
    it, or "none" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2 or \
                pathlib.Path(lines[0]).resolve() != ROOT:
            return "none"
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        return lines[1] + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """A digest of every source the build reads: the same sources, in git or
    not, committed or not, give the same digest."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
                digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def build(build_root):
    """Configure (once) and build; returns the build directory."""
    build_dir = build_root / "perfbench"
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        rc = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=log, stderr=log).returncode
        if rc != 0:
            sys.exit("perfbench: cmake configure failed")
    rc = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", "4", "--target",
         "desyn_perfbench", "desyn_cli"],
        cwd=ROOT, stdout=log, stderr=log).returncode
    if rc != 0:
        sys.exit("perfbench: build failed")
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify", "explore"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--fault", default="",
                    help="fault::Spec armed for the timed phase")
    args = ap.parse_args()

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build(build_root)
    # Relative paths keep the server's unix-socket path short.
    out_dir = os.path.relpath(build_root / "perfbench-runs", ROOT)
    cmd = [str(build_dir / "desyn_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", str(build_dir / "desyn" / "examples" / "desyn_cli"),
           "--out-dir", out_dir, "--commit", git_commit(),
           "--source-digest", source_digest()]
    if args.fault:
        cmd += ["--fault", args.fault]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
