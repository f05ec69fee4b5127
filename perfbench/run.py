#!/usr/bin/env python3
"""Build and run the W5 end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/w5bench.exe with dune (build output goes
to standard error) and runs it with the given arguments; its last line
of standard output is the JSON result. The second form runs every
workload twice with the same seed, in separate processes, and checks
that the deterministic per-operation counts and status mixes agree.
"""

import subprocess
import sys

EXE = "_build/default/perfbench/w5bench.exe"
WORKLOADS = ["browse", "post", "flash", "sync"]


def build():
    result = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/w5bench.exe"],
        stdout=sys.stderr,
    )
    return result.returncode


def self_test():
    failures = 0
    for workload in WORKLOADS:
        outputs = []
        for _ in range(2):
            run = subprocess.run(
                [EXE, "--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True,
            )
            counts = [line for line in run.stdout.splitlines()
                      if line.startswith("counts")]
            outputs.append((run.returncode, counts))
        (code_a, counts_a), (code_b, counts_b) = outputs
        same = code_a == 0 and code_b == 0 and counts_a == counts_b and counts_a
        print(f"self-test {workload}: {'ok' if same else 'FAILED'}")
        for line in counts_a:
            print("  " + line)
        if not same:
            failures += 1
            for line in counts_b:
                print("  second run: " + line)
    return 1 if failures else 0


def main(argv):
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    if argv == ["--self-test"]:
        return self_test()
    return subprocess.run([EXE] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
