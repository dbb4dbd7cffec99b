#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

The Go program in this directory is compiled from source into the build
directory ($CARGO_TARGET_DIR, else .bench_build) with its Go build cache
kept there too, then executed with the same arguments. Its standard
output ends with the result line; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)

    env = dict(os.environ)
    env.update(
        {
            # Keep every Go cache and setting inside the build directory
            # and never reach for the network or another toolchain.
            "GOCACHE": os.path.join(build, "gocache"),
            "GOPATH": os.path.join(build, "gopath"),
            "XDG_CONFIG_HOME": os.path.join(build, "config"),
            "XDG_CACHE_HOME": os.path.join(build, "cache"),
            "GOPROXY": "off",
            "GOTOOLCHAIN": "local",
            "GOWORK": "off",
            "GOFLAGS": "-mod=readonly",
        }
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."], cwd=bench, env=env, stdout=sys.stderr
        )
    except OSError as err:
        print(f"perfbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, *sys.argv[1:], "--outdir", build]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
