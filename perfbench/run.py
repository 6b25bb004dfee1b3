#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload des_spmv_262k|suite|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package and the
`deep-serve` daemon in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the benchmark with the same arguments. Exits
non-zero, printing no result, when either build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "deep-serve", "--bin", "deep-serve"],
    ]
    for cmd in builds:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            sys.stderr.write("run.py: %s not found; run from the repository root\n"
                             % cmd[cmd.index("--manifest-path") + 1])
            return 1
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--deep-serve", os.path.join(release, "deep-serve")]
    return subprocess.call(cmd, cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
