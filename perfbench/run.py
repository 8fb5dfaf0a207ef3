#!/usr/bin/env python3
"""Build the benchmark from this checkout's source and run one workload.

    python3 perfbench/run.py --workload fill --seed 1 --seconds 16 --trace 0

Run it from the root of the repository. Everything it builds or writes
goes under .bench_build/ there: the Go build cache, the benchmark binary,
the databases of the run (removed when it ends) and the span files of
traced runs. The last line of standard output is the result as one JSON
object; the exit code is 0 only when the run completed and every read was
correct.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# One run must end within 180 s; the first, which builds, within 900 s.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 700


def source_digest():
    """Names the source under test: the git commit, with a digest of the
    engine's Go files appended when the working tree differs from it, or
    the digest alone outside a git checkout."""
    commit = None
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and head.stdout.strip() and status.returncode == 0:
            commit = head.stdout.strip()
            if not status.stdout.strip():
                return commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    digest = "sha256:" + h.hexdigest()[:16]
    return commit + "+dirty:" + digest if commit else digest


def run_child(cmd, cwd, env, limit):
    """Runs cmd in its own process group, passing its standard output
    through; kills the whole group if it outlives limit seconds or this
    script is told to stop. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)

    old = {s: signal.signal(s, stop) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        return None
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isfile(os.path.join(ROOT, "bolt.go")):
        print("perfbench: the engine's source is not next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2

    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "go-cache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOTMPDIR=os.path.join(BUILD, "tmp"),
               # The go command keeps its settings and telemetry under the
               # user config directory; keep those inside the checkout too.
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               CGO_ENABLED="0",
               PERFBENCH_SOURCE=source_digest())
    binary = os.path.join(BUILD, "perfbench")
    started = time.monotonic()
    code = run_child(["go", "build", "-o", binary, "."], HERE, env, BUILD_LIMIT_S)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    built = time.monotonic() - started

    # The benchmark removes its run directory itself; clearing runs/ on
    # both sides also covers a run that was killed.
    runs = os.path.join(BUILD, "runs")
    shutil.rmtree(runs, ignore_errors=True)
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace), "-out", BUILD]
    try:
        code = run_child(cmd, ROOT, env, max(RUN_LIMIT_S - min(built, 10), 60))
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    if code is None:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
