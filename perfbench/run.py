#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mixgraph_server --seed 1 --seconds 25 --trace 0

The script compiles the benchmark program (perfbench/, a Go module of its own
that imports the repository's packages through a replace directive) and the
cmd/kvserver binary from source into the build directory, then runs the
program with the given arguments. Everything it writes stays inside the
checkout: binaries, the Go build cache, data directories and span files all
live under the build directory (CARGO_TARGET_DIR when set, else
.bench_build). The last line of standard output is the program's JSON result.
"""

import os
import signal
import subprocess
import sys

# The program enforces its own 170 s deadline; this is the backstop should it
# hang before arming it.
RUN_TIMEOUT_S = 178
# A cold build compiles the standard library into the private cache.
BUILD_TIMEOUT_S = 850


def main() -> int:
    root = os.getcwd()
    here = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(here, "go.mod")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(build, "bin")
    os.makedirs(bindir, exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        # Keeps go's telemetry counters inside the checkout.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    env.pop("GOMAXPROCS", None)  # the load generator runs at GOMAXPROCS = nproc
    try:
        subprocess.run(
            ["go", "build", "-o", bindir + os.sep, ".", "repro/cmd/kvserver"],
            cwd=here, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
        )
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(bindir, "perfbench"),
        "-kvserver", os.path.join(bindir, "kvserver"),
        "-workdir", os.path.join(build, "run"),
        "-root", root,
    ] + sys.argv[1:]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out; killing it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
