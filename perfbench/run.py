#!/usr/bin/env python3
"""Build the workspace benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary and the workspace's
`approx-worker` (the process backend's worker) are built in release mode
into $CARGO_TARGET_DIR (default: .bench_build). The binary's report goes
to standard output; its last line is the JSON result. With
`--workload all` every workload runs in turn and the exit code is
non-zero if any of them failed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["log-ratio", "log-target", "log-process", "service-mix"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    for manifest, extra in (
        (os.path.join(ROOT, "perfbench", "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "approx-worker"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        # Cargo's own output goes to stderr so stdout stays the report.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def host_record(env):
    rustc = subprocess.run(["rustc", "-V"], env=env, capture_output=True, text=True)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return rustc.stdout.strip() or "unknown", commit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"workspace sources not found ({needed} missing beside perfbench/)")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)
    rustc, commit = host_record(env)

    binary = os.path.join(target, "release", "perfbench")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(target, "perfbench-out"),
               "--rustc", rustc, "--commit", commit]
        sys.stdout.flush()
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if code != 0:
            status = code
    sys.exit(status)


if __name__ == "__main__":
    main()
