"""Acceptance battery: one test per shipped criterion, at the stated sizes.

Each test prints one pass line with its runtime; the stated budgets are
asserted where the criterion gives one.  Sizing choices that the criteria
leave open (which lattice triples, which levels) are fixed here so the
battery is deterministic.
"""
import time

import numpy as np
import pytest

from hahnkit.classical import RELATION_NAMES, verify_classical
from hahnkit.cli import main as cli_main
from hahnkit.hahn_bi import (
    BI_CHECK_NAMES,
    BiParams,
    bigLambda,
    overlap2,
    p2_eval,
    verify_bi,
    weight2,
)
from hahnkit.hahn_multi import MultiParams, mv_lambda, mv_p_eval, mv_weight, verify_mv
from hahnkit.hahn_uni import UniParams, hahn_eval, hahn_norm, hahn_weight, verify_uni
from hahnkit.numeric import Rat, RationalMatrix, pochhammer
from hahnkit.oracle import chain_matrices, su11_build, su11_spectrum_check, verify_oracle
from hahnkit.simplex import simplex_points
from test_golden import assert_battery_matches

LATTICE = [Rat(-1, 2), Rat(0), Rat(1, 2), Rat(3), Rat(7, 3)]

BI_TRIPLES_SMALL = [
    (Rat(0), Rat(0), Rat(0)),
    (Rat(1, 2), Rat(-1, 2), Rat(3)),
    (Rat(-1, 2), Rat(-1, 2), Rat(-1, 2)),
    (Rat(7, 3), Rat(1), Rat(1, 2)),
    (Rat(3), Rat(3), Rat(3)),
    (Rat(-1, 2), Rat(0), Rat(1, 2)),
    (Rat(1, 2), Rat(1, 2), Rat(-1, 2)),
    (Rat(0), Rat(3), Rat(7, 3)),
    (Rat(7, 3), Rat(7, 3), Rat(7, 3)),
    (Rat(1), Rat(0), Rat(-1, 2)),
]
BI_TRIPLES_LARGE = BI_TRIPLES_SMALL[:2]

EXACT_BI_CHECKS = (
    "orthogonality",
    "symmetry",
    "recurrence-x1",
    "recurrence-x2",
    "diff-L1",
    "diff-L2",
    "forward-shift-m",
    "forward-shift-n",
    "backward-shift-m",
    "backward-shift-n",
    "structure",
)
FLOAT_BI_CHECKS = (
    "normalized-recurrence-float",
    "normalized-structure-float",
    "normalized-lowering-float",
    "normalized-difference-float",
)


def finish(num: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {num:02d} {label}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


class TestAcceptance:
    def test_criterion_01_univariate_exact_orthogonality(self):
        started = time.monotonic()
        for a in LATTICE:
            for b in LATTICE:
                for N in range(13):
                    report = verify_uni("orthogonality", UniParams(a, b, N))
                    assert report.passed, (a, b, N)
                    assert all(c.max_residual == "0" for c in report.checks)
        finish(1, "univariate exact orthogonality", started, budget=5.0)

    def test_criterion_02_univariate_generating_functions(self):
        started = time.monotonic()
        for a in LATTICE:
            for b in LATTICE:
                for N in range(11):
                    p = UniParams(a, b, N)
                    assert verify_uni("genfun", p).passed, (a, b, N)
                    assert verify_uni("dual-genfun", p).passed, (a, b, N)
        finish(2, "univariate generating functions", started, budget=10.0)

    def test_criterion_03_bivariate_exact_suite(self):
        started = time.monotonic()
        jobs = [(t, 3 + idx % 3) for idx, t in enumerate(BI_TRIPLES_SMALL)]
        jobs += [(t, 8) for t in BI_TRIPLES_LARGE]
        for triple, N in jobs:
            p = BiParams(*triple, N)
            for name in EXACT_BI_CHECKS:
                report = verify_bi(name, p)
                assert report.passed, (triple, N, name)
                assert all(c.max_residual == "0" for c in report.checks)
            genfun_level = min(N, 6)
            report = verify_bi("genfun", BiParams(*triple, genfun_level))
            assert report.passed, (triple, genfun_level, "genfun")
        finish(3, "bivariate exact suite", started, budget=60.0)

    def test_criterion_04_normalized_float_suite(self):
        started = time.monotonic()
        triples = BI_TRIPLES_SMALL[:3]
        for triple in triples:
            for N in (5, 10):
                p = BiParams(*triple, N)
                for name in FLOAT_BI_CHECKS:
                    report = verify_bi(name, p)
                    assert report.passed, (triple, N, name)
                    for c in report.checks:
                        assert float(c.max_residual) <= 1e-10, (triple, N, c.name)
        finish(4, "normalized float suite", started, budget=30.0)

    def test_criterion_05_overlap_unitarity(self):
        started = time.monotonic()
        for triple in [BI_TRIPLES_SMALL[0], BI_TRIPLES_SMALL[1], BI_TRIPLES_SMALL[3]]:
            for N in range(11):
                matrix = np.array(overlap2(BiParams(*triple, N), mode="float").entries)
                eye = np.eye(matrix.shape[0])
                assert np.max(np.abs(matrix.T @ matrix - eye)) <= 1e-10, (triple, N)
                assert np.max(np.abs(matrix @ matrix.T - eye)) <= 1e-10, (triple, N)
        finish(5, "overlap unitarity", started)

    def test_criterion_06_chain_factorization(self):
        started = time.monotonic()
        for triple in [BI_TRIPLES_SMALL[0], BI_TRIPLES_SMALL[1], BI_TRIPLES_SMALL[3]]:
            for N in range(11):
                p = BiParams(*triple, N)
                first, second = chain_matrices(p)
                for factor in (first, second):
                    a = np.array(factor.entries)
                    assert np.max(np.abs(a.T @ a - np.eye(factor.side))) <= 1e-10
                product = np.array(first.entries) @ np.array(second.entries)
                target = np.array(overlap2(p, mode="float").entries)
                assert np.max(np.abs(product - target)) <= 1e-10, (triple, N)
        finish(6, "chain factorization", started)

    def test_criterion_07_oracle_equivalence(self):
        started = time.monotonic()
        for triple in BI_TRIPLES_SMALL[:3]:
            for N in range(7):
                p = BiParams(*triple, N)
                assert verify_oracle("commutation", p).passed, (triple, N)
                assert verify_oracle("joint-eigenvectors", p).passed, (triple, N)
        finish(7, "oracle equivalence", started)

    def test_criterion_08_multivariate_gram(self):
        started = time.monotonic()
        cases = [
            ((Rat(1, 2), Rat(0), Rat(3), Rat(7, 3)), 4),
            ((Rat(-1, 2), Rat(1, 2), Rat(0), Rat(3), Rat(7, 3)), 3),
            ((Rat(0), Rat(1, 2), Rat(-1, 2), Rat(3), Rat(7, 3), Rat(1)), 2),
        ]
        for alphas, N in cases:
            report = verify_mv(MultiParams(alphas, N))
            assert report.passed, (alphas, N)
            assert report.checks[0].max_residual == "0"

        # d = 1 specialization against the univariate module
        for N in range(7):
            p1 = MultiParams((Rat(1, 2), Rat(7, 3)), N)
            u = UniParams(Rat(1, 2), Rat(7, 3), N)
            for n in range(N + 1):
                assert mv_lambda((n,), p1) == hahn_norm(n, u)
                for x in range(N + 1):
                    assert mv_p_eval((n,), (x,), p1) == hahn_eval(n, x, u)
                    assert mv_weight((x,), p1) == hahn_weight(x, u)

        # d = 2 specialization against the bivariate module
        for N in range(5):
            p3 = MultiParams((Rat(1, 2), Rat(-1, 2), Rat(3)), N)
            p2 = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), N)
            for d in simplex_points(N, 2):
                pre = pochhammer(Rat(-N), d[0] + d[1])
                assert mv_lambda(d, p3) == bigLambda(d, p2)
                for g in simplex_points(N, 2):
                    assert mv_weight(g, p3) == weight2(g, p2)
                    assert mv_p_eval(d, g, p3) == p2_eval(d, g, p2) * pre
        finish(8, "multivariate gram diagonality", started)

    def test_criterion_09_classical_identities(self):
        started = time.monotonic()
        for relation in RELATION_NAMES:
            pairs = (
                [(a, b) for a in LATTICE for b in LATTICE]
                if relation.startswith("jacobi") or relation == "laguerre-addition"
                else [(a, Rat(0)) for a in LATTICE]
            )
            for a, b in pairs:
                for n in range(11):
                    assert verify_classical(relation, n, a, b).passed, (relation, n, a, b)
        finish(9, "classical identities", started)

    def test_criterion_10_su11_module(self):
        started = time.monotonic()
        for nu in (Rat(1, 4), Rat(1, 2), Rat(3, 4), Rat(2)):
            mod = su11_build(nu, 12)
            assert mod.casimir() == RationalMatrix.identity(13).scale(nu * (nu - 1))
            assert mod.k0.matmul(mod.kplus) - mod.kplus.matmul(mod.k0) == mod.kplus
            assert mod.k0.matmul(mod.kminus) - mod.kminus.matmul(mod.k0) == mod.kminus.scale(-1)
            ladder = mod.kminus.matmul(mod.kplus) - mod.kplus.matmul(mod.kminus)
            two_k0 = mod.k0.scale(2)
            for r in range(12):
                for c in range(13):
                    assert ladder.entry(r, c) == two_k0.entry(r, c)
        for triple in BI_TRIPLES_SMALL[:3]:
            report = su11_spectrum_check(BiParams(*triple, 6))
            assert report.passed, triple
            assert all(c.max_residual == "0" for c in report.checks)
        finish(10, "su(1,1) truncated module", started)

    def test_criterion_11_full_cli_battery(self, tmp_path, capsys):
        started = time.monotonic()
        out = tmp_path / "all.json"
        code = cli_main(["verify", "--suite", "all", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert '"status": "pass"' in out.read_text()
        assert_battery_matches(out.read_text())
        finish(11, "full verify battery", started, budget=120.0)
