#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the benchmark, its
self-test and the `subsidization` executable with dune (scratch output
goes to `_build/` and `.perfbench/`), runs the self-test, then runs
`perfbench.exe` and passes its output through: the last line of
standard output is the result object. Workloads: sweep, serve-warm,
serve-cold (see perfbench/README.md).
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("sweep", "serve-warm", "serve-cold")
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 120


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def run_group(cmd, timeout, env):
    """Run cmd in its own process group; stop the whole group on exit."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            return fail(f"{need} not found: run from the root of a source checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("SUBSIDIZATION_JOBS", None)
    exe = os.path.join("_build", "default")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe",
         "./perfbench/selftest.exe", "./bin/main.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        return fail("build failed")

    # One CPU for the measured processes: the reference slices then time
    # the core the solver, the client and the daemon all run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code, out = run_group(
        [os.path.join(exe, "perfbench", "selftest.exe"), os.path.join("perfbench", "dune")],
        60, env)
    sys.stdout.write(out or "")
    if code != 0:
        return fail("self-test failed", 3)

    code, out = run_group(
        [os.path.join(exe, "perfbench", "perfbench.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--daemon", os.path.join(exe, "bin", "main.exe"), "--out", ".perfbench"],
        args.seconds + RUN_SLACK_S, env)
    if out is None:
        return fail("run timed out", 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
