#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fanin-1k --seed 1 --seconds 10 --trace 0

Every argument is passed on to the Go command (see main.go and
README.md). Build outputs, the Go build cache, traces, CPU profiles and
post-mortems all go under .bench_build/ in the checkout (or under
$CARGO_TARGET_DIR when it is set). A failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    exe = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env)
    except OSError as e:
        print(f"perfbench: cannot run the go toolchain: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(build, "perfbench", "out")
    return subprocess.run([exe, *sys.argv[1:], "-out", out], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
