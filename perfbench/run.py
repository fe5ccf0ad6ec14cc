#!/usr/bin/env python3
"""Socket-level benchmark of xic-serve.

Builds `xic-serve` (from the repository's workspace) and the benchmark
benchmark client (the `xic-perfbench` package next to this script) from source,
then runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); run files go to `.bench_run` and are removed
when the run ends. The last line of standard output is the result JSON.

    python3 perfbench/run.py --selftest

runs the benchmark's own tests: the client's unit tests (verdict model
on the paper's Examples 1, 2 and 7, plan determinism), a short smoke run
of every workload in both modes, and a check that deterministic counts
repeat exactly across two runs of one seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-insert", "baseline-mixed", "tenant-shards"]


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(["cargo"] + args, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("run.py: cargo %s failed" % " ".join(args))


def build():
    """Builds both binaries; returns (client, server) paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at %s; run from a full checkout of the repository" % ROOT)
    cargo(["build", "--release", "--offline", "--quiet", "-p", "xicheck", "--bin", "xic-serve"])
    cargo(["build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "xic-perfbench"), os.path.join(release, "xic-serve")


def run(client, server, args, capture=False):
    command = [client, "--serve-bin", server, "--workdir", os.path.join(ROOT, ".bench_run")] + args
    if not capture:
        return subprocess.run(command, cwd=ROOT).returncode
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run.py: %s exited %d" % (" ".join(args), done.returncode))
    return done.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def counts(stdout):
    """Deterministic figures of one run: per-verb attempted/failed,
    commits, store and journal bytes per commit, work counters."""
    keep = {}
    for line in stdout.splitlines():
        words = line.split()
        if line.startswith("verb "):
            keep[words[1]] = " ".join(words[2:4])
        elif line.startswith("info "):
            keep["commits"] = words[1]
        elif line.startswith("metric store_bytes_per_commit"):
            keep["store_bytes_per_commit"] = words[3]
        elif line.startswith("layer ") and words[1].endswith(
                ("_nodes", "_bindings", "_constraints", "skip_share", "bytes_per_commit")):
            keep[words[1]] = words[3]
    return keep


def selftest():
    client, server = build()
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    if subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                       "--manifest-path", manifest], cwd=ROOT, env=env).returncode != 0:
        sys.exit("selftest: unit tests failed")
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            first = run(client, server, args, capture=True)
            second = run(client, server, args, capture=True)
            result = result_of(first)
            expected_failed = 1 if workload != "tenant-shards" else 0
            label = "%s trace=%s" % (workload, trace)
            if not result["correct"]:
                failures.append("%s: replies disagree with the model" % label)
            if result["failed"] != expected_failed:
                failures.append("%s: %d failed operations, expected %d (the single-document restart)"
                                % (label, result["failed"], expected_failed))
            if result_of(second)["attempted"] != result["attempted"]:
                failures.append("%s: attempted differs between runs of one seed" % label)
            a, b = counts(first), counts(second)
            if a != b:
                diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
                failures.append("%s: deterministic counts differ across runs of one seed: %s" % (label, diff))
            print("selftest %-28s correct=%s attempted=%d failed=%d counts=%d"
                  % (label, result["correct"], result["attempted"], result["failed"], len(a)))
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 1 if failures else 0


def main():
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    client, server = build()
    return run(client, server, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
