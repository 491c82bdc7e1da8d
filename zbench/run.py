#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 zbench/run.py --workload stock-seq --seed 1 --seconds 30 --trace 0
    python3 zbench/run.py --smoke
    python3 zbench/run.py --record-reference 0-63

Run from the repository root. Each run builds zbench_runner (Release) into
.bench_build/zbench, runs one workload for one seed, checks the matches
against zbench/reference.json, and prints a report followed by one JSON
result line. --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 the per_layer ones. Full results (every sample, quartiles and
host provenance) and the traced run's spans are written under
.bench_build/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "zbench")
RUNNER = os.path.join(BUILD_DIR, "zbench_runner")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["stock-seq", "weblog-keyed", "wire-rally"]
# A run must end within 180 s once the program is built.
RUN_LIMIT_S = 170
# Set-up time is steady within a process but bimodal across processes
# (~20 vs ~34 us on stock-seq on the defining host), so setup_s is the mean
# over this many fresh processes of each one's median set-up time; a
# median would flip between the two modes from run to run.
SETUP_PROCESSES = 16


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "zbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "zbench_runner",
              "-j", jobs]]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed: %s\n%s" % (" ".join(cmd), tail))


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "governor": read_first("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        or "unreadable",
        "kernel": platform.release(),
        "git_sha": sha or "unknown (not a git checkout)",
        "build_type": build_type(),
    }


def summary(samples):
    if not samples:
        return None
    qs = statistics.quantiles(samples, n=4) if len(samples) >= 2 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": qs[0], "q3": qs[2],
            "n": len(samples), "samples": samples}


def run_runner(args, extra, deadline):
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("runner timed out after %.0f s" % timeout)
    if proc.returncode != 0:
        fail("runner exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing:\n" + proc.stderr[-4000:])
    return json.loads(lines[-1])


def setup_per_process(args, doc, deadline):
    """Replaces the run's setup_s with the mean over SETUP_PROCESSES
    processes (the run's own plus fresh --setup-only ones)."""
    metric = next(m for m in doc["metrics"] if m["name"] == "setup_s")
    values = [metric["value"]]
    for _ in range(SETUP_PROCESSES - 1):
        extra = run_runner(args, ["--setup-only"], deadline)
        doc["checks"] += extra["checks"]
        values += [m["value"] for m in extra["metrics"] if m["name"] == "setup_s"]
    metric["value"] = statistics.fmean(values)
    metric["samples"] = values


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args, deadline):
    extra = []
    if args.tiny:
        extra.append("--tiny")
    spans = None
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans",
                             "%s-s%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        extra += ["--spans", spans]
    doc = run_runner(args, extra, deadline)
    if not args.trace:
        setup_per_process(args, doc, deadline)

    checks = doc["checks"]
    if not args.tiny:
        ref = load_reference().get(args.workload, {}).get(str(args.seed))
        if ref is None:
            doc["notes"].append("seed %d has no recorded reference digest; "
                                "cross-path checks only" % args.seed)
        else:
            ok = (ref["count"] == doc["match_count"]
                  and ref["digest"] == doc["digest"])
            checks.append({"name": "recorded_reference", "ok": ok,
                           "detail": "recorded %s (%d) vs %s (%d)" % (
                               ref["digest"], ref["count"], doc["digest"],
                               doc["match_count"])})
    correct = all(c["ok"] for c in checks)
    failed = doc["failed"] if correct else doc["attempted"]
    metrics = {m["name"]: dict(m, summary=summary(m["samples"]))
               for m in doc["metrics"]}
    return doc, correct, failed, metrics, spans


def print_report(args, doc, correct, failed, metrics, prov, spans):
    print("zbench %s seed=%d trace=%d seconds=%s" % (
        args.workload, args.seed, args.trace, args.seconds))
    print("host: nproc=%s cpu=%s governor=%s kernel=%s" % (
        prov["nproc"], prov["cpu_model"], prov["governor"], prov["kernel"]))
    print("build: git=%s type=%s" % (prov["git_sha"], prov["build_type"]))
    print("matches=%d digest=%s correct=%s attempted=%d failed=%d "
          "failed_frac=%.6g" % (doc["match_count"], doc["digest"], correct,
                                doc["attempted"], failed,
                                failed / max(1, doc["attempted"])))
    for c in doc["checks"]:
        print("  check %-28s %s  %s" % (c["name"], "ok" if c["ok"] else "FAIL",
                                        c["detail"]))
    for name, m in metrics.items():
        s = m["summary"]
        spread = ("  median=%.6g q1=%.6g q3=%.6g n=%d" % (
            s["median"], s["q1"], s["q3"], s["n"])) if s else ""
        print("  %-32s %16.6g %-6s%s" % (name, m["value"], m["unit"], spread))
    for note in doc["notes"]:
        print("  note: " + note)
    if spans:
        print("  spans: " + os.path.relpath(spans, ROOT))


def result_line(doc, correct, failed, metrics, wanted):
    out = {}
    for spec in wanted:
        m = metrics.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            fail("metric %s (%s) missing from the runner output" % (
                spec["name"], spec["unit"]))
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": doc["attempted"],
            "failed": failed, "metrics": out}


def measure(args):
    spec = benchmark_spec()
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    doc, correct, failed, metrics, spans = run_once(args, deadline)
    prov = provenance()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = result_line(doc, correct, failed, metrics, wanted)
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "runner": doc, "metrics": metrics,
                   "result": line}, f, indent=1)
    print_report(args, doc, correct, failed, metrics, prov, spans)
    print(json.dumps(line))


def smoke():
    """Runs every workload on tiny inputs in both modes and asserts that
    each metric BENCHMARK.json names is printed with its unit."""
    spec = benchmark_spec()
    build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", "1", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_LIMIT_S)
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d %s" % (label, proc.returncode,
                                                    proc.stderr[-2000:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                fails = [l.strip() for l in proc.stdout.splitlines()
                         if " FAIL " in l]
                problems.append("%s: incorrect or failed events %s" % (
                    label, fails))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: %s [%s] not printed" % (
                        label, m["name"], m["unit"]))
            print("smoke %-24s ok=%s metrics=%d" % (
                label, result["correct"], len(result["metrics"])))
    for p in problems:
        print("SMOKE FAIL " + p)
    sys.exit(1 if problems else 0)


def record_reference(seed_range):
    """Records each workload's match count and digest for a seed range."""
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    build()
    table = load_reference()
    for workload in WORKLOADS:
        for seed in seeds:
            args = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                                      trace=0)
            doc = run_runner(args, ["--verify-only"],
                             time.monotonic() + RUN_LIMIT_S)
            if not all(c["ok"] for c in doc["checks"]):
                fail("cross-path checks failed for %s seed %d: %s" % (
                    workload, seed, doc["checks"]))
            table.setdefault(workload, {})[str(seed)] = {
                "count": doc["match_count"], "digest": doc["digest"]}
            print("%s seed=%d count=%d digest=%s" % (
                workload, seed, doc["match_count"], doc["digest"]))
    with open(REFERENCE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (smoke checks)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", metavar="LO-HI")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.smoke:
        smoke()
    elif args.record_reference:
        record_reference(args.record_reference)
    elif args.workload:
        measure(args)
    else:
        parser.error("--workload, --smoke or --record-reference is required")


if __name__ == "__main__":
    main()
