"""Self-check of the benchmark: exact counters repeat, tracing changes no result.

    python3 perfbench/selfcheck.py --workload sysid-sweep --seed 0

Runs ``run.py`` three times on one seed, one pass each where possible: twice
traced and once untraced. Every count-valued per-layer metric must be equal
in the two traced runs, and the quality metrics (excess_mse,
markov_err_max, floor_gap) of the traced run must equal those of the
untraced run. Exits 1 and lists the differences otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, QUALITY


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                         text=True, check=True, timeout=300).stdout
    lines = out.strip().splitlines()
    report = next(json.loads(l[len("REPORT "):]) for l in lines
                  if l.startswith("REPORT "))
    return report, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    problems = []
    (_, first), (_, second) = (run_once(args.workload, args.seed, 1)
                               for _ in range(2))
    report, _ = run_once(args.workload, args.seed, 0)
    counters = [k for k, v in first["metrics"].items() if v["unit"] == "count"]
    for name in counters:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b}")
    for key, (name, _) in QUALITY.items():
        untraced = report["metrics"][key]["value"]
        traced = first["metrics"][name]["value"]
        if (untraced or 0.0) != traced:
            problems.append(f"{key}: untraced {untraced}, traced {traced}")

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counters_compared": len(counters),
                      "problems": problems}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
