"""Compare two source trees on one workload, in alternating pairs of runs.

    python3 perfbench/compare.py PARENT_ROOT CHANGE_ROOT --workload exact [--pairs 10]

Each root is a source checkout holding src/ and an identical copy of this
perfbench/ directory (the script refuses trees whose benchmark files differ).
Pair i runs both trees on seed FIRST_SEED + i, the parent first on even i
and the change first on odd i.  For every end-to-end metric it prints each
side's median and quartiles, how many pairs the change won, and a verdict:

  better      at least ten pairs ran, the change won nine tenths of them, and
              the medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json
  unresolved  neither, and the parent's spread exceeds the bound
  same        otherwise
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench_digest(root: str) -> str:
    digest = hashlib.sha256()
    bench = os.path.join(root, "perfbench")
    for name in sorted(os.listdir(bench)):
        path = os.path.join(bench, name)
        if os.path.isfile(path) and not name.endswith(".pyc"):
            digest.update(name.encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: run failed with code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {root} seed {seed}: {result['failed']} of {result['attempted']} answers failed", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description="parent-versus-change comparison of one workload")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    if _bench_digest(roots[0]) != _bench_digest(roots[1]):
        raise SystemExit("the two trees carry different perfbench/ files; copy one into both")
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {0: [], 1: []}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(_run(roots[side], args.workload, args.first_seed + i, spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for name, m in metrics.items():
        parent = [r[name] for r in runs[0]]
        change = [r[name] for r in runs[1]]
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p1, pm, p3 = _quartiles(parent)
        c1, cm, c3 = _quartiles(change)
        worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
        spread = (p3 - p1) / pm if pm else 0.0
        if args.pairs >= 10 and wins >= 0.9 * args.pairs and abs(cm - pm) > (p3 - p1):
            verdict = "better"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif spread > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{name:18s} {pm:12.6g} [{p1:9.4g}, {p3:9.4g}] {cm:12.6g} [{c1:9.4g}, {c3:9.4g}] {wins:3d}/{args.pairs}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
