#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `xmltad`/`xmlta` binaries
and the load generator (`perfbench/`) from source into $CARGO_TARGET_DIR
(default `.bench_build`), runs the load generator in a private run
directory under the target directory, then kills any serving process the
run left alive and removes the run directory. The load generator's last
stdout line is the JSON result; its exit code is passed through.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "xmlta-server", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def reap(run_dir):
    """Kills serving processes recorded by the run that are still alive."""
    try:
        with open(os.path.join(run_dir, "pids")) as f:
            pids = [int(line) for line in f if line.strip()]
    except OSError:
        pids = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        # The pid may have been reused: only touch our own binaries.
        if b"xmltad" in cmdline or b"xmlta" in cmdline:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    shutil.rmtree(run_dir, ignore_errors=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(ROOT, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    # Socket paths are short relative paths under the run directory: an
    # absolute checkout path could exceed the Unix socket path limit.
    run_dir = os.path.relpath(os.path.join(target, "perfbench-runs", str(os.getpid())), ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(release, "xmlta-perfbench"), *sys.argv[1:],
           "--bin-dir", os.path.relpath(release, ROOT), "--run-dir", run_dir]
    child = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        reap(run_dir)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    reap(run_dir)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
