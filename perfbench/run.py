#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the C++ benchmark from source into .bench_build/ (a
no-op when it is up to date), runs one workload, checks that the metrics it
reports are exactly the ones BENCHMARK.json declares for the mode (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1), saves
the result with the host fingerprint under .bench_build/results/, and prints
the result JSON as the last line of stdout. The exit status is non-zero when
the build fails, an output check fails, or the metrics do not match.

--smoke runs the benchmark's self-test (the tail-percentile rule) and then
every workload at tiny size for one second in both modes, with both oracles.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    """BENCHMARK.json, with every name and unit checked against the rules."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name) or name in seen:
                fail(f"invalid or repeated name {name!r} in {section}")
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                fail(f"invalid unit for {name!r}")
    return spec


def build():
    """Configures once, then builds only the benchmark target."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_binary(args):
    """Runs the benchmark binary, echoing its stdout; returns (code, lines)."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    return proc.returncode, lines


def check_result(spec, lines, trace):
    """Parses the result line and matches its metrics against the spec."""
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(declared):
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(declared) - set(got))}, undeclared "
             f"{sorted(set(got) - set(declared))}")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != declared[name]:
            fail(f"{name}: unit {m.get('unit')!r}, declared {declared[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    return result


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    fail("benchmark printed no fingerprint")


def run_workload(spec, workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (exit code, result, fingerprint)."""
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"workload {workload!r} is not in BENCHMARK.json")
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        args.append("--tiny")
    if trace:
        os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
        args += ["--trace-out", os.path.join(
            BUILD_DIR, "traces", f"{workload}.seed{seed}.json")]
    code, lines = run_binary(args)
    result = check_result(spec, lines, trace)
    return code, result, fingerprint(lines)


def save(workload, seed, trace, result, fp):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR,
                        f"{workload}.seed{seed}.trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": int(trace),
                   "fingerprint": fp, "result": result}, f)


def smoke(spec):
    code, lines = run_binary(["--self-test"])
    if code != 0:
        fail("self-test failed")
    print(lines[-1])
    for w in spec["workloads"]:
        for trace in (False, True):
            code, result, _ = run_workload(spec, w["name"], 1, 1, trace,
                                           tiny=True)
            if code != 0 or not result["correct"]:
                fail(f"smoke: {w['name']} trace={int(trace)} failed")
            print(f"smoke: {w['name']} trace={int(trace)} ok "
                  f"({result['attempted']} operations)")
    print(json.dumps({"smoke": "ok"}))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()

    spec = load_spec()
    build()
    if a.smoke:
        smoke(spec)
        return 0
    if not a.workload:
        fail("--workload is required")
    code, result, fp = run_workload(spec, a.workload, a.seed, a.seconds,
                                    a.trace == 1)
    save(a.workload, a.seed, a.trace == 1, result, fp)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
