#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds S]

For every workload in BENCHMARK.json it runs the benchmark's own command
four times (untraced twice with one worker thread, untraced with two,
traced with one) and checks that:

- the result line has exactly the keys correct, attempted, failed and
  metrics, and attempted is at least 1;
- the printed metric names and units match BENCHMARK.json exactly, with
  none missing and none extra (end_to_end untraced, per_layer traced);
- the deterministic metrics and the sim_digest line are identical across
  the two runs, across 1 and 2 worker threads, and (sim_digest) between
  the untraced and the traced run;
- the traced run reported no simulated output that differs from its
  untraced passes.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

DETERMINISTIC = ("goodput_frac", "sim_p99_latency_us", "sim_cycles_per_msg")


def run(command, workload, seed, seconds, trace, threads):
    args = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--threads", str(threads),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), None)
    return result, digest, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=1.0, help="run length per invocation")
    ap.add_argument("--seed", type=int, default=7)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print(f"  FAIL {what}")

    for w in (x["name"] for x in bench["workloads"]):
        print(f"== {w}", flush=True)
        runs = {}
        for key, trace, threads in (("a", 0, 1), ("b", 0, 1), ("threads2", 0, 2), ("traced", 1, 1)):
            runs[key] = run(bench["command"], w, opts.seed, opts.seconds, trace, threads)
            result, digest, lines = runs[key]
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{w}/{key}: result keys {sorted(result)}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{w}/{key}: attempted {result['attempted']}")
            check(isinstance(result["failed"], int), f"{w}/{key}: failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect = want[trace]
            missing = sorted(set(expect) - set(got))
            extra = sorted(set(got) - set(expect))
            check(not missing and not extra, f"{w}/{key}: missing {missing}, extra {extra}")
            check(all(got[k] == expect[k] for k in got if k in expect), f"{w}/{key}: units differ from BENCHMARK.json")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()), f"{w}/{key}: non-numeric value")
            check(digest is not None, f"{w}/{key}: no sim_digest line")
            nondet = next((l.split()[1] for l in lines if l.startswith("nondeterministic_ops ")), None)
            check(nondet == "0", f"{w}/{key}: nondeterministic_ops {nondet}")
            print(f"  {key}: digest {digest}, attempted {result['attempted']}, failed {result['failed']}", flush=True)
        a, b, t2, traced = (runs[k] for k in ("a", "b", "threads2", "traced"))
        for name in DETERMINISTIC:
            vals = [r[0]["metrics"][name]["value"] for r in (a, b, t2)]
            check(len(set(vals)) == 1, f"{w}: {name} differs across runs/threads: {vals}")
        digests = [r[1] for r in (a, b, t2, traced)]
        check(len(set(digests)) == 1, f"{w}: sim_digest differs across runs/threads/tracing: {digests}")

    if problems:
        print(f"selftest: {len(problems)} problem(s)")
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
