#!/usr/bin/env python3
"""Repository benchmark for ALT: host-measured tuning time and tuned-artifact
serving latency, end to end and layer by layer. See perfbench/README.md.

Run from the repository root:

  python3 perfbench/run.py --workload serve-alt --seed 1 --seconds 30 --trace 0

It builds the libraries and the perfbench binary from source into
.bench_build/perfbench (first run only), runs the workload, checks every
served output against the reference interpreter, prints a summary, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones. --save FILE also writes the full result for compare.py.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH_DIR, "perfbench")
WORKLOADS = ("tune-r18", "serve-alt", "serve-ol")

# Cold set-ups per untraced run, each in its own process (the kernel cache
# and the pretrained agent are process-wide); setup_s is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "tune_s": "s",
    "tuned_sim_us": "sim_us",
    "light.p50_ms": "ms",
    "heavy.p50_ms": "ms",
    "max_rps": "1/s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, env, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("ALT sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, out, err = run_child(cmd, env, 300)
        if code != 0:
            raise RuntimeError("cmake configure failed:\n" + out + err)
    jobs = str(os.cpu_count() or 1)
    code, out, err = run_child(["cmake", "--build", BUILD, "-j", jobs], env, 840)
    if code != 0:
        raise RuntimeError("build failed:\n" + out[-4000:] + err[-4000:])
    return os.path.join(BUILD, "perfbench")


def run_perfbench(binary, args, work, env, extra, timeout):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work] + extra
    code, out, err = run_child(cmd, env, timeout)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise RuntimeError("perfbench exited %d without a result:\n%s%s" %
                           (code, out[-4000:], err[-4000:]))
    if err.strip():
        log(err.rstrip())
    return code, "\n".join(lines[:-1]), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full result to this JSON file")
    args = parser.parse_args()

    tmp = os.path.join(BENCH_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # compiler and JIT temporary files stay in the tree
    try:
        binary = build(env)
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 2

    work = os.path.join(BENCH_DIR, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setups = []
        checks_ok = True
        for _ in range(SETUPS - 1 if args.trace == 0 else 0):
            code, _, res = run_perfbench(binary, args, work, env, ["--setup-only"], 60)
            checks_ok = checks_ok and code == 0 and res["checks"]["correct"]
            setups.append(res["setup_s"])
        code, text, res = run_perfbench(binary, args, work, env, [], 170 - 10 * len(setups))
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(text)
    checks = res["checks"]
    correct = checks_ok and code == 0 and checks["correct"]
    setups.append(res["setup_s"])

    if args.trace == 0:
        values = dict(res["end_to_end"])
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print("\n%s seed %d: setup_s median of %d set-ups %s" %
              (args.workload, args.seed, len(setups),
               ", ".join("%.3f" % s for s in setups)))
        samples = res["samples"]
        print("samples: tune_s n=%d, light n=%d, heavy n=%d" %
              (samples["tune"], samples["light"], samples["heavy"]))
        print("tails (printed, not gated): light.p95_ms %.3f, heavy.p95_ms %.3f" %
              (values["light.p95_ms"], values["heavy.p95_ms"]))
        print("error_rate %.6f (%d of %d requests failed or were refused)" %
              (values["error_rate"], checks["failed"], checks["attempted"]))
    else:
        metrics = res["per_layer"]
    width = max(len(n) for n in metrics)
    for name, m in metrics.items():
        print("  %-*s %16.6g %s" % (width, name, m["value"], m["unit"]))
    if not correct:
        print("CORRECTNESS CHECK FAILED: %s" % "; ".join(checks["check_failures"]))

    summary = {"correct": correct, "attempted": checks["attempted"],
               "failed": checks["failed"], "metrics": metrics}
    if args.save:
        full = dict(summary, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, steps=res["steps"],
                    setups_s=setups, tune_s_samples=res["tune_s_samples"])
        with open(args.save, "w") as f:
            json.dump(full, f, indent=1)
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
