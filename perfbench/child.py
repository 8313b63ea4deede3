"""One round of a workload, or one layer probe, in a fresh interpreter.

Usage: python3 perfbench/child.py '<spec as JSON>'

The spec names a ``kind`` and carries the generated inputs.  The round calls
hahnkit's public names only, in the workload's own order, and prints one JSON
object: the program's outputs (rationals as ``p/q`` strings, floats as JSON
numbers) for run.py to check after the process has ended, and, when the spec
asks for tracing, one span per public call.  Checking happens in the parent so
that the reference arithmetic is not part of the measured process.  When the
program raises, the object carries ``error`` instead of outputs, and the
parent counts the round as a failed operation.
"""
from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

import hahnkit
import hahnkit.cli as cli
from hahnkit import Rat, RationalMatrix
from hahnkit.hahn_bi import BI_CHECK_NAMES, BiParams, overlap2, p2_eval, verify_bi
from hahnkit.hahn_uni import UniParams, hahn_eval, verify_uni
from hahnkit.oracle import chain_matrices, joint_eigenvectors
from reference import simplex

clock = time.perf_counter


class Tracer:
    """In-memory spans (name, start, end, results); a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = clock()
        out = fn(*args)
        end = clock()
        results = len(out.checks) if hasattr(out, "checks") else None
        self.spans.append([name, start, end, results])
        return out

    def wrap(self, name_of, fn):
        """fn with a span around every call, named by name_of(*args)."""
        return lambda *args: self.call(name_of(*args), fn, *args)


def verdicts(report) -> list:
    return [[c.name, c.passed, c.max_residual] for c in report.checks]


def uni_sweep(spec, tr: Tracer) -> dict:
    reports = []
    for a, b in spec["pairs"]:
        for N in range(spec["levels"]):
            p = UniParams(Rat(a), Rat(b), N)
            reports.append(verdicts(tr.call("hahn_uni.verify.orthogonality", verify_uni, "orthogonality", p)))
    values = []
    for pair, N, n, x in spec["sample"]:
        a, b = spec["pairs"][pair]
        values.append(str(tr.call("hahn_uni.hahn_eval", hahn_eval, n, x, UniParams(Rat(a), Rat(b), N))))
    return {"reports": reports, "values": values}


def bi_exact(spec, tr: Tracer) -> dict:
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    reports = [
        verdicts(tr.call(f"hahn_bi.check.{name}", verify_bi, name, p))
        for name in BI_CHECK_NAMES
        if not name.endswith("-float")
    ]
    grid = simplex(p.N)
    table = [[str(tr.call("hahn_bi.p2_eval", p2_eval, d, g, p)) for g in grid] for d in grid]
    return {"reports": reports, "table": table}


def float_plane(spec, tr: Tracer) -> dict:
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    overlap = tr.call("hahn_bi.overlap2", overlap2, p, "float")
    first, second = tr.call("oracle.chain_matrices", chain_matrices, p)
    reports = [
        verdicts(tr.call(f"hahn_bi.check.{name}", verify_bi, name, p))
        for name in BI_CHECK_NAMES
        if name.endswith("-float")
    ]
    return {
        "reports": reports,
        "overlap": [list(map(float, row)) for row in overlap.entries],
        "first": [list(map(float, row)) for row in first.entries],
        "second": [list(map(float, row)) for row in second.entries],
    }


def battery(spec, tr: Tracer) -> dict:
    """``hahnkit verify --suite all`` through cli.main, the console script's entry.

    When traced, each suite call that cli.main makes gets a span.
    """
    names = {
        "verify_classical": lambda *a: "classical.verify",
        "verify_uni": lambda check, p: f"hahn_uni.verify.{check}",
        "verify_bi": lambda check, p: f"hahn_bi.check.{check}",
        "verify_mv": lambda p: "hahn_multi.verify",
        "verify_oracle": lambda check, p: f"oracle.check.{check}",
    }
    if tr.enabled:
        for attr, name_of in names.items():
            setattr(cli, attr, tr.wrap(name_of, getattr(cli, attr)))
    buffer = io.StringIO()
    start = clock()
    with redirect_stdout(buffer):
        cli.main(["verify", "--suite", "all"])
    return {"main_s": clock() - start, "text": buffer.getvalue()}


def probe_eval(spec, tr: Tracer) -> dict:
    """Cold hahn_eval over every value of the uni-sweep set."""
    start = clock()
    for a, b in spec["pairs"]:
        for N in range(spec["levels"]):
            p = UniParams(Rat(a), Rat(b), N)
            for n in range(N + 1):
                for x in range(N + 1):
                    hahn_eval(n, x, p)
    return {"metrics": {"hahn_uni.eval_s": clock() - start}}


def probe_rat(spec, tr: Tracer) -> dict:
    """ns per rational multiply and add on values of the uni-sweep's top level."""
    a, b = spec["pair"]
    p = UniParams(Rat(a), Rat(b), spec["N"])
    values = [hahn_eval(n, x, p) for n in range(spec["N"] + 1) for x in range(spec["N"] + 1)]
    pairs = [(values[i], values[j]) for i, j in spec["operands"]]
    out = {}
    for op in ("mul", "add"):
        samples = []
        for _ in range(spec["repeats"]):
            start = clock()
            if op == "mul":
                for u, v in pairs:
                    u * v
            else:
                for u, v in pairs:
                    u + v
            samples.append((clock() - start) / len(pairs) * 1e9)
        out[f"numeric.rat_{op}_ns"] = sorted(samples)[len(samples) // 2]
    return {"metrics": out}


def probe_p_table(spec, tr: Tracer) -> dict:
    """Cold p2_eval over all degree pairs x grid points."""
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    grid = simplex(p.N)
    start = clock()
    for d in grid:
        for g in grid:
            p2_eval(d, g, p)
    return {"metrics": {"hahn_bi.p_table_s": clock() - start}}


def probe_q_table(spec, tr: Tracer) -> dict:
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    start = clock()
    overlap2(p, "float")
    return {"metrics": {"hahn_bi.q_table_s": clock() - start}}


def probe_chain(spec, tr: Tracer) -> dict:
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    start = clock()
    chain_matrices(p)
    return {"metrics": {"oracle.chain_matrices_s": clock() - start}}


def probe_joint(spec, tr: Tracer) -> dict:
    """Cold joint_eigenvectors, with the time spent in RationalMatrix.nullspace summed."""
    inner = Tracer(True)
    RationalMatrix.nullspace = inner.wrap(lambda self: "numeric.nullspace", RationalMatrix.nullspace)
    p = BiParams(*(Rat(a) for a in spec["alpha"]), spec["N"])
    start = clock()
    joint_eigenvectors(p)
    return {"metrics": {
        "oracle.joint_eigenvectors_s": clock() - start,
        "numeric.nullspace_s": sum(end - s for _, s, end, _ in inner.spans),
    }}


def backend_info(spec, tr: Tracer) -> dict:
    cls = type(hahnkit.Rat(0))
    return {"backend": f"{cls.__module__}.{cls.__qualname__}", "package": hahnkit.__file__}


KINDS = {
    "uni-sweep": uni_sweep,
    "bi-exact": bi_exact,
    "float-plane": float_plane,
    "battery": battery,
    "probe-eval": probe_eval,
    "probe-rat": probe_rat,
    "probe-p-table": probe_p_table,
    "probe-q-table": probe_q_table,
    "probe-chain": probe_chain,
    "probe-joint": probe_joint,
    "info": backend_info,
}


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec.

    VmHWM belongs to the process image; ru_maxrss would also count the
    parent's memory, which the child shares until it execs.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = Tracer(spec.get("trace", False))
    try:
        out = KINDS[spec["kind"]](spec, tracer)
    except (Exception, SystemExit) as err:
        out = {"error": f"{type(err).__name__}: {err}"}
    out["spans"] = tracer.spans
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
