#!/usr/bin/env python3
"""Build the simulator's benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <paper_apps|shard_mixed|openloop_hot_reads> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/, as an optimised (Release) CMake build of perfbench/ and
the simulator's src/. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j3", "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    leaked = sorted(name for name in os.environ if name.startswith("SLEDS_"))
    if leaked:
        fail("refusing to run with " + ", ".join(leaked) +
             " set: the simulator reads these once per process and they change "
             "the program under test")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    target = "perfbench_selftest" if argv == ["--selftest"] else "perfbench"
    try:
        binary = build(build_dir, target)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    args = [] if target == "perfbench_selftest" else argv
    # SIGTERM unwinds through the finally below, so `perfbench` never outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen([binary] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
