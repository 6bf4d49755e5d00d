#!/usr/bin/env python3
"""Layered VStore benchmark: build the program with the benchmark, run one
workload, and print its result as the last line of standard output.

    python3 perfbench/run.py --workload configure --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run compiles the checkout's
``src/main/scala`` together with ``perfbench/src`` (sbt, offline) and caches
the classpath under ``.bench_build/perfbench``; later runs reuse it until a
source file changes. Reports and spans go to ``.bench_build/perfbench/results``.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "main" / "scala" / "repro"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("configure", "query", "ingest_erode")
BUILD_TIMEOUT_S = 850
# JVM and Spark start-up, set-up and warm-up take under 60 s on 4 cores; a
# traced run measures up to three times --seconds.
RUN_BASE_TIMEOUT_S = 110
HEAP = "2g"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_bounded(cmd, cwd, env, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=None, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:  # timeout, or this process told to stop
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def source_hash():
    """sha256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    files += sorted(p for p in (HERE / "src").rglob("*") if p.is_file())
    files += sorted(p for p in (ROOT / "src" / "main").rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts = ["-Dsbt.override.build.repos=true",
                    f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    return env


def build(digest):
    """Return the runtime classpath, compiling when the sources changed."""
    stamp = OUT / "build.json"
    if stamp.is_file():
        cached = json.loads(stamp.read_text())
        if cached.get("source") == digest and all(
                Path(p).exists() for p in cached["classpath"].split(os.pathsep)):
            return cached["classpath"]
    log("compiling program and benchmark (sbt, offline)")
    t0 = time.time()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Compile/fullClasspath"], HERE, sbt_env(), BUILD_TIMEOUT_S)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out)
        raise RuntimeError(f"sbt build failed (exit {code})")
    classpath = lines[-1].strip()
    OUT.mkdir(parents=True, exist_ok=True)
    stamp.write_text(json.dumps({"source": digest, "classpath": classpath}))
    log(f"compiled in {time.time() - t0:.1f} s")
    return classpath


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        code, out = run_bounded(["git", "rev-parse", "HEAD"], ROOT, None, 30)
        return out.strip() if code == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    # Stopping this process stops the JVM or sbt too (see run_bounded).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not PROGRAM.is_dir():
        log(f"program sources not found at {PROGRAM.relative_to(ROOT)}; "
            "run from the root of a full checkout")
        return 2
    digest = source_hash()
    try:
        classpath = build(digest)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 3

    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-cp", classpath,
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", str(OUT / "results"), "--commit", commit(), "--source", digest]
    timeout = RUN_BASE_TIMEOUT_S + 4 * a.seconds
    try:
        code, out = run_bounded(cmd, ROOT, dict(os.environ), timeout)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {timeout:.0f} s and was stopped")
        return 4
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        log(f"benchmark failed (exit {code})")
        return 5
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
