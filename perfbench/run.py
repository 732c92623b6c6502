#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-qz --seed 42 --seconds 20 --trace 0

The Go build cache, the binary and every file a run writes stay under
.bench_build/ in the checkout. The arguments pass through to the command;
its last line of standard output is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "bin", "perfbench")
    # Keep the toolchain local and every cache, temporary and telemetry file
    # inside the checkout.
    env = dict(
        os.environ,
        GOTOOLCHAIN="local",
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    for d in (os.path.dirname(binary), env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
    )
    if built.returncode != 0:
        print("perfbench: build failed; run from the root of a quetzal checkout", file=sys.stderr)
        return 1
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
