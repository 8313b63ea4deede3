"""Steadiness of the end-to-end metrics, and comparison of two sets of runs.

    python3 perfbench/steady.py [--out runs.jsonl] [--against earlier.jsonl]

Runs run.py once per seed 1..10 on each workload of BENCHMARK.json, then
prints for each workload and end-to-end metric the median, the quartiles,
the spread (q3 - q1) / median and that spread as a share of the metric's
bound.  ``--out`` keeps every run's header and result as one JSON line.
``--against`` compares the medians with those of an earlier ``--out`` file
and refuses when the two sets ran on different rational backends.  Exit code
1 when a run failed, a spread exceeds its bound, or a median moved by more
than its bound in either direction.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HEADER = "# perfbench "
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"run.py --workload {workload} --seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    header = next(json.loads(line[len(HEADER):]) for line in lines if line.startswith(HEADER))
    return {"header": header, "result": json.loads(lines[-1])}


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def backends(runs: list[dict]) -> set[str]:
    return {run["header"]["backend"] for run in runs}


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["header"]["workload"], []).append(run)
    return out


def summarize(runs: list[dict], metrics: list[dict]) -> tuple[dict, bool]:
    """Print the spread table; return the medians and whether every spread held."""
    medians, steady = {}, True
    print(f"{'workload':12} {'metric':12} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'/bound':>7} failed")
    for workload, group in by_workload(runs).items():
        attempted = [r["result"]["attempted"] for r in group]
        failed = [r["result"]["failed"] for r in group]
        shares = sorted({f / a for f, a in zip(failed, attempted)})
        if any(not r["result"]["correct"] for r in group):
            steady = False
        for metric in metrics:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in group if metric["name"] in r["result"]["metrics"]]
            if len(values) < 2:
                steady = False
                print(f"{workload:12} {metric['name']:12} {len(values):>3} (too few correct runs)")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians[(workload, metric["name"])] = med
            if spread > metric["bound"]:
                steady = False
            print(f"{workload:12} {metric['name']:12} {len(values):>3} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread:>7.3f} {metric['bound']:>6} {spread / metric['bound']:>7.2f} {shares}")
    return medians, steady


def compare(now: dict, before: dict, metrics: list[dict]) -> bool:
    bounds = {m["name"]: m for m in metrics}
    ok = True
    print(f"{'workload':12} {'metric':12} {'before':>10} {'now':>10} {'change':>8} {'bound':>6}")
    for (workload, name), med in sorted(now.items()):
        if (workload, name) not in before:
            continue
        old = before[(workload, name)]
        change = (med - old) / old
        moved = abs(change) > bounds[name]["bound"]
        ok &= not moved
        print(f"{workload:12} {name:12} {old:>10.4f} {med:>10.4f} {change:>+8.3f} {bounds[name]['bound']:>6}"
              f"{'  MOVED' if moved else ''}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="append each run's header and result here as a JSON line")
    parser.add_argument("--against", help="compare medians with the runs in this earlier --out file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    runs = []
    for workload in bench["workloads"]:
        for seed in SEEDS:
            run = run_once(workload["name"], seed, bench["run_seconds"])
            runs.append(run)
            print(f"# {workload['name']} seed {seed}: {json.dumps(run['result'])}", flush=True)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(run) + "\n")
    if len(backends(runs)) != 1:
        print(f"refusing: runs on different rational backends {sorted(backends(runs))}", file=sys.stderr)
        return 2
    medians, steady = summarize(runs, metrics)
    if args.against:
        earlier = load(args.against)
        if backends(earlier) != backends(runs):
            print(f"refusing to compare backends {sorted(backends(earlier))} and {sorted(backends(runs))}",
                  file=sys.stderr)
            return 2
        before, _ = summarize(earlier, metrics)
        steady &= compare(medians, before, metrics)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
