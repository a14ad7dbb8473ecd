#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the repository root:

    python3 rpqbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Builds the `pathlearn` server binary (the repository's workspace) and the
`rpqbench` load generator (its own package in this directory) in release
mode, then runs the load generator. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); the run's scratch files and
its JSON report go under that directory too. The last line of standard
output is the result JSON. The exit code is non-zero, with no result
line, when the repository's sources are missing or a build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds the load generator may run before it is killed as hung; its own
# watchdog fires earlier with a named failure.
RUN_TIMEOUT_S = 175


def fail(message):
    sys.stderr.write("rpqbench: %s\n" % message)
    sys.exit(2)


def source_digest(root):
    """A digest of the sources built, standing in for a commit id when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", os.path.relpath(HERE, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".py")))
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest(root)


def cargo_build(args, cwd, env):
    # Build chatter goes to stderr: stdout carries only the result.
    result = subprocess.run(["cargo", "build", "--release", "--offline", "-q"] + args,
                            cwd=cwd, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed: cargo build %s" % " ".join(args))


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "pathlearn", "Cargo.toml"),
                   os.path.join("crates", "server", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["--bin", "pathlearn"], root, env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], root, env)

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    command = [
        os.path.join(target, "release", "rpqbench"),
        "--server", os.path.join(target, "release", "pathlearn"),
        "--work-dir", os.path.join(target, "rpqbench-work"),
        "--out-dir", os.path.join(target, "rpqbench-out"),
        "--commit", commit_id(root),
        "--rustc", rustc or "unknown",
    ] + sys.argv[1:]
    # A session of its own, so every process the run starts can be
    # killed together if it hangs or this script is terminated.
    child = subprocess.Popen(command, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("rpqbench: killed after %d s\n" % RUN_TIMEOUT_S)
        code = 3
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
