"""hahnkit benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/hahnkit``; nothing is installed.  Every
round of a workload runs in a fresh single-threaded interpreter, so it pays
the cold cost a command-line user pays: the package's caches start empty.
Rounds repeat, whole, until the next one would end after ``--seconds``; each
round's outputs are checked against the references in reference.py after its
process has ended.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json: ``wall_s`` (launch to exit of one round, median over the
rounds), ``peak_rss_mb`` (peak resident memory of one round, median) and
``setup_s`` (interpreter start plus ``import hahnkit``, median of the samples
taken before, between and after the rounds).
With ``--trace 1`` it carries the per-layer metrics instead, from the layer
probes of workloads.probes (each in its own process) and from one traced and
one untraced round of the workload, whose wall-time difference is the
tracing overhead.  The traced round's own spans are not reported: they are
the work whose cost that difference measures.  The traced run does a fixed
amount of work and ignores ``--seconds``.

The last line of stdout is the result as JSON; a header line before it names
the commit, the versions and the rational backend.  Exit code 0 when every
checked output was right, 1 when an output was wrong or the program raised
(the result then counts the failed operations and carries no metrics), 2 when
the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_BATCH = 6
SETUP_CODE = "import hahnkit, hahnkit.cli"

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; reported with exit code 2."""


def child_env() -> dict:
    """The children's environment: the checkout's sources, one thread, and the
    bytecode cache on, as for an installed command, whatever the caller set."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def launch(argv: list[str]) -> tuple[float, bytes]:
    """Run argv to its end; its stdout and the wall time from launch to exit."""
    start = clock()
    run = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    wall = clock() - start
    if run.returncode != 0:
        raise BenchError(f"{' '.join(argv[:2])} exited with code {run.returncode}")
    return wall, run.stdout


def child(spec: dict) -> tuple[float, dict]:
    """One round or probe in a fresh process: (wall seconds, its output)."""
    wall, stdout = launch([sys.executable, str(HERE / "child.py"), json.dumps(spec)])
    return wall, json.loads(stdout)


def header(args) -> dict:
    _, info = child({"kind": "info"})
    if not Path(info["package"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hahnkit imported from {info['package']}, not from {SRC}")
    sha = "unknown"  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": info["backend"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Operations attempted and failed; the last round's notes and every error."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.errors: list[str] = []

    def add(self, name: str, spec: dict, out: dict) -> None:
        attempted, failed, notes = workloads.check(name, spec, out)
        self.attempted += attempted
        self.failed += failed
        if "error" in out:
            self.errors += notes
        elif notes:
            self.notes = notes


def measure_untraced(name: str, spec: dict, seconds: int, tally: Tally) -> dict:
    """Set-up samples in batches around the rounds, so they span the whole run."""
    start = clock()
    setup, walls, rss = [], [], []
    while True:
        setup += [launch([sys.executable, "-c", SETUP_CODE])[0] for _ in range(SETUP_BATCH)]
        wall, out = child(dict(spec, trace=False))
        tally.add(name, spec, out)
        walls.append(wall)
        rss.append(out["peak_rss_mb"])
        if clock() - start + wall > seconds:
            break
    setup += [launch([sys.executable, "-c", SETUP_CODE])[0] for _ in range(SETUP_BATCH)]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_traced(name: str, spec: dict, seed: int, tally: Tally) -> dict:
    metrics: dict[str, float] = {}
    traced_wall = None
    for probe in workloads.probes(seed):
        wall, out = child(probe)
        tally.add(probe["kind"], probe, out)
        if "error" in out:
            continue
        if probe["kind"] == "battery":
            metrics.update(battery_layers(out))
            if name == "battery":
                traced_wall = wall
        else:
            metrics.update(out["metrics"])
            if "rss_metric" in probe:
                metrics[probe["rss_metric"]] = out["peak_rss_mb"]
    if traced_wall is None:
        traced_wall, out = child(dict(spec, trace=True))
        tally.add(name, spec, out)
    wall, out = child(dict(spec, trace=False))
    tally.add(name, spec, out)
    metrics["trace.overhead_s"] = traced_wall - wall
    return metrics


def battery_layers(out: dict) -> dict:
    """Sum the battery's suite spans by name; the rest of cli.main is cli.self_s."""
    metrics: dict[str, float] = {}
    for span, start, end, results in out["spans"]:
        metrics[f"{span}_s"] = metrics.get(f"{span}_s", 0.0) + (end - start)
        if span.startswith("hahn_bi.check."):
            metrics[f"{span}.results"] = metrics.get(f"{span}.results", 0) + results
    metrics["cli.self_s"] = out["main_s"] - sum(end - start for _, start, end, _ in out["spans"])
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "hahnkit" / "__init__.py").is_file():
            raise BenchError(f"no hahnkit sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
        print("# perfbench " + json.dumps(header(args)), flush=True)
        spec = workloads.inputs(args.workload, args.seed)
        tally = Tally()
        if args.trace:
            values = measure_traced(args.workload, spec, args.seed, tally)
        else:
            values = measure_untraced(args.workload, spec, args.seconds, tally)
        missing = sorted(set(wanted) - set(values))
        if missing and not tally.failed:
            raise BenchError(f"no value measured for {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for note in tally.errors + tally.notes:
        print(f"# {note}")
    correct = tally.failed == 0
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in wanted.items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
