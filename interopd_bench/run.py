#!/usr/bin/env python3
"""The interopd benchmark: build, run one workload, print its metrics.

Run from the root of a checkout:

    python3 interopd_bench/run.py --workload migrate_large --seed 1 \\
        --seconds 40 --trace 0
    python3 interopd_bench/run.py --self-test
    python3 interopd_bench/run.py --saturate --seed 1

The program is built from the checkout's own sources (an optimised CMake
build of interopd_bench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate
traced run with --trace 1. A traced run's Chrome trace must pass the
repository's tools/trace_check, or the result is marked incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_id():
    """The commit when the checkout is a git repository, else a digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once and build incrementally. Exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.hpp")):
        log("run.py: no repository sources next to", BENCH_DIR)
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "interopd_bench", "trace_check"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)
    return out


def run_once(out, workload, seed, seconds, trace):
    """One benchmark process. Returns (result dict, its other stdout lines)."""
    work = os.path.join(out, "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_out = os.path.join(out, "traces", workload + ".json")
    cmd = [os.path.join(out, "interopd_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work,
           "--trace-out", trace_out, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("\n".join(lines))
        log("run.py: benchmark exited with", proc.returncode)
        sys.exit(1)
    result = json.loads(lines.pop())
    if trace:
        check = subprocess.run([os.path.join(out, "trace_check"), trace_out],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        lines.append("trace_check: " + check.stdout.strip())
        if check.returncode != 0:
            result["correct"] = False
    return result, lines


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def digest_of(lines):
    for line in lines:
        if line.startswith("inputs:"):
            return line.split("digest=")[1].split()[0]
    return None


def self_test(out):
    """Each workload briefly: every named metric printed with its unit, no
    failures, and the same seed giving the same input digest."""
    spec = load_benchmark_json()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        before = len(problems)
        digests = {}
        for trace, seed in ((0, 7), (1, 7), (0, 7), (0, 8)):
            result, lines = run_once(out, workload, seed, 2, trace)
            names = spec["per_layer" if trace else "end_to_end"]
            where = "%s trace=%d seed=%d" % (workload, trace, seed)
            for metric in names:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s: metric %s missing or unit %r"
                                    % (where, metric["name"], got))
            extra = set(result["metrics"]) - {m["name"] for m in names}
            if extra:
                problems.append("%s: unlisted metrics %s" % (where, sorted(extra)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d"
                                % (where, result["correct"], result["failed"]))
            if trace and result["metrics"].get("failed_share", {}).get("value") != 0:
                problems.append("%s: failed_share is not 0" % where)
            if not trace:
                digests.setdefault(seed, []).append(digest_of(lines))
        if len(set(digests[7])) != 1 or None in digests[7]:
            problems.append("%s: seed 7 gave digests %s" % (workload, digests[7]))
        if digests[7][0] == digests[8][0]:
            problems.append("%s: seeds 7 and 8 gave the same digest" % workload)
        log("self-test %s: %s"
            % (workload, "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        log("  " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--saturate", action="store_true",
                    help="measure the closed-loop saturation rate of service_mix")
    args = ap.parse_args()

    out = build()
    if args.self_test:
        return self_test(out)
    if args.saturate:
        proc = subprocess.run([os.path.join(out, "interopd_bench"), "--saturate",
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds)], timeout=RUN_TIMEOUT_S)
        return proc.returncode
    if not args.workload:
        ap.error("--workload is required")
    result, lines = run_once(out, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
