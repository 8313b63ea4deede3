"""Seeded inputs and correctness gates for the four workloads.

``inputs(name, seed)`` returns the spec that child.py runs for one round;
``check(name, spec, out)`` compares the program's outputs against the
references in reference.py and returns (attempted, failed, notes).  An
operation is one program output that is checked: one check result, one
sampled value, one Gram table or one matrix property.  A round or probe in
which the program raised is one failed operation.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

import reference as ref

# The acceptance lattice of parameters.
LATTICE = ("-1/2", "0", "1/2", "3", "7/3")

UNI_LEVELS = 13  # N = 0..12, the criterion-01 workload
UNI_SAMPLE = 200
BI_EXACT_N = 5
BI_SAMPLE = 80
FLOAT_N = 8
# Triples whose rounds cost the same within a few percent, so that the
# seed moves the inputs but not the amount of work.
BI_EXACT_TRIPLES = (("0", "1/2", "7/3"), ("1/2", "0", "7/3"), ("7/3", "0", "1/2"))
FLOAT_TRIPLES = (("-1/2", "1/2", "3"), ("3", "1/2", "-1/2"), ("0", "1/2", "7/3"))
# The battery's oracle triple and level, for the joint-eigenvector probe.
ORACLE_TRIPLE, ORACLE_N = ("1/2", "-1/2", "3"), 4

WORKLOADS = ("battery", "uni-sweep", "bi-exact", "float-plane")


def inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "battery":
        return {"kind": "battery"}
    if name == "uni-sweep":
        pairs = [[a, b] for a in LATTICE for b in LATTICE]
        rng.shuffle(pairs)
        sample = []
        for _ in range(UNI_SAMPLE):
            N = rng.randrange(UNI_LEVELS)
            sample.append([rng.randrange(len(pairs)), N, rng.randint(0, N), rng.randint(0, N)])
        return {"kind": name, "pairs": pairs, "levels": UNI_LEVELS, "sample": sample}
    if name == "bi-exact":
        return {"kind": name, "alpha": list(rng.choice(BI_EXACT_TRIPLES)), "N": BI_EXACT_N,
                "sample_seed": rng.randrange(2**32)}
    if name == "float-plane":
        return {"kind": name, "alpha": list(rng.choice(FLOAT_TRIPLES)), "N": FLOAT_N}
    raise ValueError(f"unknown workload {name!r}")


def probes(seed: int) -> list[dict]:
    """Layer probes for the traced run, each run in its own fresh process.

    Each probe names its metrics; ``rss_metric`` names the probe process's
    peak resident memory.
    """
    uni = inputs("uni-sweep", seed)
    bi = inputs("bi-exact", seed)
    flt = inputs("float-plane", seed)
    rng = random.Random(f"probes:{seed}")
    top = UNI_LEVELS - 1
    values = (top + 1) ** 2
    return [
        {"kind": "battery", "trace": True},
        {"kind": "probe-eval", "pairs": uni["pairs"], "levels": UNI_LEVELS,
         "rss_metric": "hahn_uni.eval_rss_mb"},
        {"kind": "probe-rat", "pair": rng.choice(uni["pairs"]), "N": top, "repeats": 7,
         "operands": [[rng.randrange(values), rng.randrange(values)] for _ in range(4000)]},
        {"kind": "probe-p-table", "alpha": bi["alpha"], "N": bi["N"]},
        {"kind": "probe-q-table", "alpha": flt["alpha"], "N": flt["N"], "rss_metric": "hahn_bi.q_table_rss_mb"},
        {"kind": "probe-chain", "alpha": flt["alpha"], "N": flt["N"]},
        {"kind": "probe-joint", "alpha": list(ORACLE_TRIPLE), "N": ORACLE_N},
    ]


def _is_float_check(name: str) -> bool:
    return "-float" in name or name.startswith("chain-")


def _verdict_ok(name: str, passed: bool, residual: str) -> bool:
    """Exact checks must report residual "0"; float checks at most 1e-10."""
    if not passed:
        return False
    if _is_float_check(name):
        return float(residual) <= ref.FLOAT_TOL
    return Fraction(residual) == ref.expect(0)


def _tally(checks) -> tuple[int, int]:
    checks = list(checks)
    return len(checks), sum(not _verdict_ok(*c) for c in checks)


def check(name: str, spec: dict, out: dict) -> tuple[int, int, list[str]]:
    """Check one round's outputs; a layer probe has none unless the program raised."""
    if "error" in out:
        return 1, 1, [f"{name}: the program raised {out['error']}"]
    if name == "battery":
        return _check_battery(out)
    gate = {"uni-sweep": _check_uni, "bi-exact": _check_bi, "float-plane": _check_float}.get(name)
    return gate(spec, out) if gate else (0, 0, [])


def _check_battery(out: dict) -> tuple[int, int, list[str]]:
    payload = json.loads(out["text"])
    checks = [(c["name"], c["status"] == "pass", c["max_residual"])
              for suite in payload["suites"] for c in suite["checks"]]
    attempted, failed = _tally(checks)
    failed += payload["status"] != "pass" or not payload["suites"]
    exact = sum(not _is_float_check(c[0]) for c in checks)
    return attempted + 1, failed, [f"battery: {len(payload['suites'])} suites, {attempted} checks, {exact} exact"]


def _check_uni(spec: dict, out: dict) -> tuple[int, int, list[str]]:
    attempted, failed = _tally(c for report in out["reports"] for c in report)
    worst = Fraction(0)
    for (pair, N, n, x), got in zip(spec["sample"], out["values"], strict=True):
        a, b = spec["pairs"][pair]
        diff = abs(Fraction(got) - ref.expect(ref.hahn_3f2(n, x, Fraction(a), Fraction(b), N)))
        worst = max(worst, diff)
        failed += diff != 0
    attempted += len(spec["sample"])
    return attempted, failed, [f"uni-sweep: {len(spec['sample'])} values against the 3F2 sum, residual {worst}"]


def _check_bi(spec: dict, out: dict) -> tuple[int, int, list[str]]:
    attempted, failed = _tally(c for report in out["reports"] for c in report)
    N, alpha = spec["N"], spec["alpha"]
    grid = ref.simplex(N)
    table = [[Fraction(v) for v in row] for row in out["table"]]
    eligible = [(r, c) for r, (m, _) in enumerate(grid) for c, (i, k) in enumerate(grid) if m <= i + k]
    sample = random.Random(spec["sample_seed"]).sample(eligible, BI_SAMPLE)
    worst = Fraction(0)
    for r, c in sample:
        (m, n), (i, k) = grid[r], grid[c]
        diff = abs(table[r][c] - ref.expect(ref.p2_nested(m, n, i, k, *alpha, N)))
        worst = max(worst, diff)
        failed += diff != 0
    weights = [ref.simplex_weight(i, k, *alpha, N) for i, k in grid]
    gram = ref.gram_defect(table, weights)
    failed += gram != 0
    attempted += len(sample) + 1
    return attempted, failed, [
        f"bi-exact: {len(sample)} values against the nested 3F2 product, residual {worst}",
        f"bi-exact: weighted Gram sum of {len(grid)} polynomials, off-diagonal residual {gram}",
    ]


def _check_float(spec: dict, out: dict) -> tuple[int, int, list[str]]:
    attempted, failed = _tally(c for report in out["reports"] for c in report)
    overlap, first, second = (np.array(out[key]) for key in ("overlap", "first", "second"))
    defects = {
        "overlap orthogonality": ref.orthogonality_defect(overlap),
        "chain factor orthogonality": max(ref.orthogonality_defect(first), ref.orthogonality_defect(second)),
        "chain product minus overlap": ref.chain_defect(first, second, overlap),
    }
    failed += sum(not d <= ref.FLOAT_TOL for d in defects.values())
    attempted += len(defects)
    return attempted, failed, [f"float-plane: {what} {d:.3g}" for what, d in defects.items()]
