#!/usr/bin/env python3
"""End-to-end benchmark of ipass: served requests and offline trade studies.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --table --seed 1 --seconds 10   # traced, all workloads
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run builds the library, the
ipass_serve daemon and the perfbench program into .bench_build/perfbench.
Workloads and metrics are declared in BENCHMARK.json; perfbench/METRICS.md
says what each metric means on each workload and which layer moves it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics untraced, per-layer
metrics with --trace 1).  The line before it records the machine context.
The exit code is 0 only when every output was checked correct.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
SEGMENTS = 5
P99_WINDOW = 4000


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout():
    needed = ["CMakeLists.txt", "src/serve/service.hpp", "tools/ipass_serve_main.cpp",
              "BENCHMARK.json", "perfbench/CMakeLists.txt"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        fail(f"not an ipass checkout (missing {', '.join(missing)})")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure once, then build incrementally; output goes to build.log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench", "ipass_serve"])
    with open(BUILD / "build.log", "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text()[-4000:]
                print(tail, file=sys.stderr)
                print("perfbench: build failed", file=sys.stderr)
                sys.exit(1)


def run_perfbench(args, timeout):
    """Run the perfbench program in its own process group; whatever it
    started (the daemon) is gone when this returns."""
    proc = subprocess.Popen([str(BUILD / "perfbench")] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # Normally nothing is left (perfbench drains and reaps the daemon);
        # after a failure, kill the group and wait until it is gone.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return proc.returncode, out


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_sha():
    """git SHA when the checkout is a repository, else a digest of the
    program's sources (the benchmark's checkout is a plain file tree)."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
        if sha:
            return "git:" + sha
    h = hashlib.sha256()
    for base in ["CMakeLists.txt", "src", "tools"]:
        paths = [ROOT / base] if (ROOT / base).is_file() else sorted((ROOT / base).rglob("*"))
        for p in paths:
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def machine_context():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "kernel": platform.release(), "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "source": source_sha()}


def quantile(values, q):
    """Linear-interpolated quantile, the same rule as perfbench's."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def windowed_p99(latency):
    """Median over windows of P99_WINDOW consecutive requests of each
    window's p99.  A stall of the shared host moves the windows it falls
    in, not the figure; each window still has P99_WINDOW / 100 requests
    beyond its p99."""
    windows = [latency[i:i + P99_WINDOW]
               for i in range(0, len(latency) - P99_WINDOW + 1, P99_WINDOW)] or [latency]
    return quantile([quantile(w, 0.99) for w in windows], 0.5)


def pool(segments):
    """End-to-end metrics of an untraced run from its segments' raw samples.

    Each segment is a fresh process (and, for serve, a fresh daemon), so a
    run's figures do not hang on one process's thread placement."""
    def joined(name):
        return [x for seg in segments for x in seg["samples"][name]]

    latency = joined("latency_us")
    metrics = {
        "throughput_rps": quantile(joined("rate_rps"), 0.5),
        "latency_p50_us": quantile(latency, 0.50),
        "latency_p99_us": windowed_p99(latency),
        "study_s": quantile(joined("study_s"), 0.5),
        "setup_s": quantile(joined("setup_s"), 0.5),
        "rss_peak_mb": max(seg["info"]["rss_peak_mb"] for seg in segments),
    }
    info = dict(segments[0]["info"])
    info.pop("rss_peak_mb")
    info.update(segments=len(segments), latency_samples=len(latency),
                p99_windows=max(1, len(latency) // P99_WINDOW),
                rate_samples=len(joined("rate_rps")),
                study_samples=len(joined("study_s")), setup_samples=len(joined("setup_s")))
    return metrics, info


def run_workload(spec, workload, seed, seconds, trace):
    """One measured run; returns (result line dict, context dict).  An
    untraced run is SEGMENTS perfbench processes of seconds / SEGMENTS each."""
    workdir = ROOT / ".bench_build" / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    segments = 1 if trace else SEGMENTS
    args = [workload, "--seed", str(seed), "--seconds", repr(seconds / segments),
            "--trace", "1" if trace else "0"]
    if workload.startswith("serve-"):
        args += ["--serve-bin", str(BUILD / "ipass" / "ipass_serve"), "--workdir", str(workdir)]
    else:
        args += ["--digests", str(ROOT / "perfbench" / "digests.txt")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    raws = []
    try:
        for segment in range(segments):
            code, out = run_perfbench(args + ["--segment", str(segment)],
                                      max(1.0, deadline - time.monotonic()))
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(out[-4000:], file=sys.stderr)
                print(f"perfbench: {workload} exited with code {code}", file=sys.stderr)
                sys.exit(1)
            raws.append(json.loads(lines[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        reported, info = raws[0]["metrics"], raws[0]["info"]
    else:
        reported, info = pool(raws)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    extra = set(reported) - {m["name"] for m in declared}
    if extra:
        fail(f"perfbench reported undeclared metrics: {sorted(extra)}")
    metrics = {}
    for m in declared:
        value = reported.get(m["name"])
        if value is None:
            if not trace:
                fail(f"perfbench did not report {m['name']}")
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    context = dict(machine_context(), workload=workload, seed=seed, seconds=seconds,
                   trace=int(trace), **info)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, context


def print_table(columns):
    """columns: list of (workload, result); one row per metric."""
    names = list(columns[0][1]["metrics"])
    width = max(len(n) for n in names) + 2
    print("metric".ljust(width) + "".join(w.rjust(16) for w, _ in columns) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:16.6g}" for _, r in columns)
        print(name.ljust(width) + cells + "  " + columns[0][1]["metrics"][name]["unit"])
    rates = "".join(
        f"{(r['failed'] / r['attempted']) if r['attempted'] else 0:16.6g}" for _, r in columns)
    print("error_rate".ljust(width) + rates + "  ratio (failed / attempted)")
    print("attempted".ljust(width) + "".join(f"{r['attempted']:16d}" for _, r in columns))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--table", action="store_true",
                        help="traced run of every workload, one per-layer table")
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own code")
    opts = parser.parse_args()
    started = time.monotonic()
    spec = check_checkout()
    workloads = [w["name"] for w in spec["workloads"]]
    build()

    if opts.selftest:
        code, out = run_perfbench(["selftest"], RUN_TIMEOUT_S)
        print(out, end="")
        sys.exit(code)

    if opts.table:
        columns = [(w, run_workload(spec, w, opts.seed, opts.seconds, True)[0])
                   for w in workloads]
        print_table(columns)
        sys.exit(0 if all(r["correct"] for _, r in columns) else 1)

    if opts.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    result, context = run_workload(spec, opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    context["wall_s"] = round(time.monotonic() - started, 3)
    print_table([(opts.workload, result)])
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
