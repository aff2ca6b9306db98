#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The simulator is compiled from ./src into
.bench_build/perfbench (Release); the first run builds, later runs only
check that the build is current. The last line of standard output is the
JSON result of perfbench (see perfbench/README.md). With --trace 1 the host
spans of the traced repetitions are written under .bench_build/spans/.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile, timeout):
    """Run a build step in its own process group, so that a timeout stops
    the compilers it started too."""
    with open(logfile, "ab") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            return p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            raise


def build():
    """Configure once, then bring the binaries up to date. Output goes to a
    log file so standard output stays clean."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            rc = run_logged(cmd, logfile, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if rc != 0:
            log(f"perfbench: build step failed ({' '.join(cmd)}); tail of {logfile}:")
            with open(logfile, errors="replace") as f:
                log("".join(f.readlines()[-30:]))
            return False
    return True


def result_line(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) else None


def check_result(res, spec, trace):
    """The result line must hold exactly the metrics BENCHMARK.json names."""
    errors = []
    if res is None:
        return ["no JSON result line"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in want}
    got = res.get("metrics", {})
    if set(got) != set(names):
        errors.append(f"metric set differs: missing {sorted(set(names) - set(got))}, "
                      f"extra {sorted(set(got) - set(names))}")
    for name, m in got.items():
        if not NAME_RE.match(name):
            errors.append(f"bad metric name {name!r}")
        if name in names and m.get("unit") != names[name]:
            errors.append(f"{name}: unit {m.get('unit')!r} != {names[name]!r}")
    return errors


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(args, spec):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        return 1
    res = result_line(p.stdout)
    errors = check_result(res, spec, args.trace)
    if errors:
        out = p.stdout
        if res is not None:  # withhold the result line that failed the check
            out = out.rstrip("\n").rsplit("\n", 1)[0] + "\n"
        sys.stdout.write(out)
        for e in errors:
            log(f"perfbench: {e}")
        return 1
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode if p.returncode != 0 else (0 if res["correct"] else 1)


def selftest(spec):
    """C++ self-tests, then a short run of every workload in both modes whose
    result line must match BENCHMARK.json."""
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], timeout=600).returncode
    ok = rc == 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            p = subprocess.run([os.path.join(BUILD, "perfbench"), "--workload", w["name"],
                                "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                               stdout=subprocess.PIPE, text=True, timeout=175)
            errors = check_result(result_line(p.stdout), spec, trace)
            if p.returncode != 0:
                errors.append(f"exit {p.returncode}")
            print(f"{'ok  ' if not errors else 'FAIL'} {w['name']} trace={trace} result line"
                  + "".join(f"\n     {e}" for e in errors), flush=True)
            ok &= not errors
    print("PASSED" if ok else "FAILED", flush=True)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    spec = load_spec()
    if not build():
        return 1
    return selftest(spec) if args.selftest else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
