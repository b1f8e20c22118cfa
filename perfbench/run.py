#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program is built from source
with dune into .bench_build/ (release profile), then run once. Its
standard output is passed through; the last line is the JSON result.
Every NESTQL_* variable is removed from the environment, and the verifier
and certifier are switched off, so the measured configuration does not
depend on the caller's shell. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
WORKLOADS = ["compile-corpus", "nest-scale", "apply-deep", "serve-mix"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            die("run from the repository root (%s is missing)" % path)


def clean_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NESTQL_") and k != "INSIDE_DUNE"}
    env["NESTQL_VERIFY"] = "0"
    env["NESTQL_CERTIFY"] = "0"
    return env


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, env=clean_env())
    except OSError as e:
        die("cannot run dune: %s" % e)
    if res.returncode != 0:
        die("build failed")


def git_commit():
    """HEAD's commit from .git, read directly; 'unknown' outside a clone."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Digest of the program's sources, which identifies the measured code
    when the checkout is not a git clone."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
    for p in paths:
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, tiny=False):
    """Run the built benchmark once; returns (exit code, stdout)."""
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit(), "--source", source_digest()]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out after %d s" % RUN_TIMEOUT_S, code=3)
    finally:
        # the daemon of serve-mix shares the process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    return proc.returncode, out


def parse_result(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and set(res) == RESULT_KEYS else None


METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)\s+n=(\d+)")


def selftest():
    """Each workload once at tiny size, on the default and the held-out
    seed, untraced and traced: every metric BENCHMARK.json names is
    printed with its unit and sample count, and fail_frac is 0."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    problems = []
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                code, out = run_once(workload, seed, 1, trace, tiny=True)
                res = parse_result(out)
                if code != 0 or res is None:
                    problems.append("%s: exit %d, no result" % (label, code))
                    continue
                lines = {m.group(1): m for m in
                         map(METRIC_LINE.match, out.splitlines()) if m}
                for metric in spec[key]:
                    name, unit = metric["name"], metric["unit"]
                    line = lines.get(name)
                    got = res["metrics"].get(name)
                    if line is None or got is None:
                        problems.append("%s: %s missing" % (label, name))
                    elif line.group(3) != unit or got["unit"] != unit:
                        problems.append("%s: %s unit %s, expected %s"
                                        % (label, name, got["unit"], unit))
                extra = set(res["metrics"]) - {m["name"] for m in spec[key]}
                if extra:
                    problems.append("%s: unlisted metrics %s"
                                    % (label, sorted(extra)))
                fail_frac = lines.get("fail_frac")
                if (fail_frac is None or float(fail_frac.group(2)) != 0
                        or res["failed"] != 0 or not res["correct"]):
                    problems.append("%s: failures\n%s" % (label, out))
                print("selftest %-40s %s" % (
                    label, "ok" if not problems else "problems so far: %d"
                    % len(problems)))
    for p in problems:
        print("SELFTEST: " + p)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    check_checkout()
    if not args.selftest and args.workload is None:
        die("--workload is required")
    if args.seconds < 1:
        die("--seconds must be at least 1")
    build()
    if args.selftest:
        selftest()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        die("benchmark exited with code %d" % code, code=1)
    if parse_result(out) is None:
        die("no result line", code=1)


if __name__ == "__main__":
    main()
