#!/usr/bin/env python3
"""Build dnscentral and the perfbench harness from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload <calibrated|fleet|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build in the checkout); scratch files go to
.bench_work. The last stdout line is the harness's JSON result. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "dnscentral"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # build output goes to stderr so stdout ends with the result line
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--bin", os.path.join(release, "dnscentral"),
        "--work", os.path.join(root, ".bench_work"),
    ] + sys.argv[1:]
    return subprocess.run(harness, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
