"""Golden outputs: every bivariate report, the chain command and one
oracle suite, byte for byte.

tests/data/bi_reports.json holds verify_bi(...).to_dict() for all sixteen
checks on the four PARAM_TRIPLES at N = 0..3.  chain_N4.csv and
chain_N7.csv hold `hahnkit chain --format csv` on (1/2, -1/2, 3) at N = 4
and (-1/2, -1/2, -1/2) at N = 7, oracle_N6.json holds
`hahnkit verify --suite oracle` on (0, 0, 0) at N = 6, and overlap_N4.csv
and overlap_N5_exact.json hold `hahnkit overlap` on (1/2, -1/2, 3) at
N = 4 (float, CSV) and on (7/3, 1, 1/2) at N = 5 (exact signed squares).
All were made on the fractions backend.  Run this file as a script to write them again:

    PYTHONPATH=src python tests/test_golden.py

The battery's bytes (tests/data/verify_all.json) are compared inside
criterion 11 of the acceptance tests, which already runs the battery.

Every verify check is exact, the normalized "-float" rows and the oracle's
chain checks included, so every JSON golden is compared byte for byte on
every backend.  Only the float CSV goldens (the chain and float overlap
commands) are compared byte for byte on fractions alone, and elsewhere
entry by entry to 1e-12.
"""
import contextlib
import io
import json
import pathlib
import sys

import pytest

import hahnkit.hahn_bi as bi_mod
from hahnkit.cli import main
from hahnkit.hahn_bi import BI_CHECK_NAMES, BiParams, verify_bi
from hahnkit.numeric import Rat, Rational, format_rational, parse_rational

DATA = pathlib.Path(__file__).parent / "data"
BI_REPORTS = DATA / "bi_reports.json"
BATTERY = DATA / "verify_all.json"
FLOAT_LIMITS = DATA / "float_limits.json"

# golden file -> the command line that writes it
CLI_GOLDENS = {
    "chain_N4.csv": ["chain", "--alpha=1/2,-1/2,3", "--N", "4", "--format", "csv"],
    "chain_N7.csv": ["chain", "--alpha=-1/2,-1/2,-1/2", "--N", "7", "--format", "csv"],
    "oracle_N6.json": ["verify", "--suite", "oracle", "--alpha=0,0,0", "--N", "6", "--format", "json"],
    "overlap_N4.csv": ["overlap", "--alpha=1/2,-1/2,3", "--N", "4", "--format", "csv"],
    "overlap_N5_exact.json": ["overlap", "--alpha=7/3,1,1/2", "--N", "5", "--mode", "exact"],
}

TRIPLES = [
    (Rat(0), Rat(0), Rat(0)),
    (Rat(1, 2), Rat(-1, 2), Rat(3)),
    (Rat(-1, 2), Rat(-1, 2), Rat(-1, 2)),
    (Rat(7, 3), Rat(1), Rat(1, 2)),
]
LEVELS = range(4)

ON_FRACTIONS = Rational.__module__ == "fractions"


def case_key(check, triple, N) -> str:
    return f"{check} {','.join(format_rational(a) for a in triple)} N={N}"


def bi_reports() -> dict:
    return {
        case_key(check, triple, N): json.loads(json.dumps(verify_bi(check, BiParams(*triple, N)).to_dict()))
        for check in BI_CHECK_NAMES
        for triple in TRIPLES
        for N in LEVELS
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(BI_REPORTS.read_text())


@pytest.mark.parametrize("check", BI_CHECK_NAMES)
def test_bi_reports_match_golden(golden, check):
    for triple in TRIPLES:
        for N in LEVELS:
            key = case_key(check, triple, N)
            got = json.loads(json.dumps(verify_bi(check, BiParams(*triple, N)).to_dict()))
            assert json.dumps(got) == json.dumps(golden[key]), key


def test_float_limits_match_golden():
    """Exact limits of the float coefficient formulas, on either backend.

    tests/data/float_limits.json holds, for every _coef_* formula, both
    parameter orders (swap), the four TRIPLES, N = 0..3 and every m + n <= N + 2,
    the entry [formula, swap, triple, N, m, n, sign, value]: value is
    format_rational of the squared magnitude, or of the value itself for
    _coef_rec_e, and sign its sign.  It was made by the one-infinitesimal
    rational-function ring that the factor lists replaced.  That ring no
    longer exists, so the file cannot be regenerated.
    """
    entries = json.loads(FLOAT_LIMITS.read_text())["entries"]
    assert len(entries) == 9 * 2 * len(TRIPLES) * sum((N + 3) * (N + 4) // 2 for N in LEVELS)
    for name, swap, triple, N, m, n, sign, value in entries:
        at = bi_mod._Check(BiParams(*map(parse_rational, triple.split(",")), N)).at(0)
        leads = at.leads(getattr(bi_mod, name), m, n, bool(swap))
        if name == "_coef_rec_e":
            pair = bi_mod._limit(*leads)
            got = Rat(*pair)
            got = ((got > 0) - (got < 0), got)
        else:
            got = bi_mod._signed_square(*leads)
            pair = got[1]
            got = (got[0], Rat(*pair))
        assert all(type(v) is int for v in pair) and pair[1] > 0, (name, swap, triple, N, m, n)
        assert (got[0], format_rational(got[1])) == (sign, value), (name, swap, triple, N, m, n)


def cli_text(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def csv_cells(text: str) -> tuple:
    """The CSV labels, and the entries as one flat list of floats."""
    lines = [line.split(",") for line in text.splitlines()]
    labels = lines[0] + [row[0] for row in lines[1:]]
    return labels, [float(v) for row in lines[1:] for v in row[1:]]


@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_output_matches_golden(name):
    got, want = cli_text(CLI_GOLDENS[name]), (DATA / name).read_text()
    if ON_FRACTIONS or name.endswith(".json"):
        assert got == want
    else:
        (got_labels, got_entries), (want_labels, want_entries) = csv_cells(got), csv_cells(want)
        assert got_labels == want_labels
        assert got_entries == pytest.approx(want_entries, abs=1e-12)


def assert_battery_matches(text: str) -> None:
    assert text == BATTERY.read_text()


if __name__ == "__main__":
    if not ON_FRACTIONS:
        sys.exit("golden files are made on the fractions backend")
    BI_REPORTS.write_text(json.dumps(bi_reports(), indent=1) + "\n")
    for name, argv in CLI_GOLDENS.items():
        (DATA / name).write_text(cli_text(argv))
