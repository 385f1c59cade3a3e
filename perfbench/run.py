#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-request --seed 1 --seconds 10 --trace 0

The arguments go to the perfbench program unchanged; its last line of
output is the JSON result. The Go build cache, temporary files, the
binary and the benchmark's scratch files all live under the build
directory ($CARGO_TARGET_DIR, default .bench_build), so a run reads and
writes nothing outside the checkout. The toolchain never downloads: the
benchmark needs only the standard library and this repository.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850  # a first build compiles the standard library
RUN_TIMEOUT_S = 170


def go_env(build_dir):
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    return env


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build_dir)
    exe = os.path.join(build_dir, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", exe + ".tmp", "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    os.replace(exe + ".tmp", exe)

    child = subprocess.Popen([exe] + sys.argv[1:] + ["--out", os.path.join(build_dir, "perfbench-out")], env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench ran over %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    # A terminated driver still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
