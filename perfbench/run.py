#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ and cmd/mcserver with the local Go toolchain into the
build directory ($CARGO_TARGET_DIR, default .bench_build), keeping Go's
build cache there too, then runs the benchmark binary. Its last line of
standard output is the JSON result. Build time is not part of any metric.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ucr-pipelined-get", "ipoib-lookaside", "tcp-lookaside")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("go.mod", os.path.join("cmd", "mcserver"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            sys.exit("run.py: %s not found; run from the repository root" % need)

    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "gotmp"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them in the build directory too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    for d in (bindir, env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)

    bench = os.path.join(bindir, "perfbench")
    mcserver = os.path.join(bindir, "mcserver")
    builds = (
        (["go", "build", "-o", bench, "."], os.path.join(root, "perfbench")),
        (["go", "build", "-o", mcserver, "./cmd/mcserver"], root),
    )
    for cmd, cwd in builds:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))

    cmd = [
        bench,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-mcserver", mcserver,
        "-out", os.path.join(bindir, "trace"),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
