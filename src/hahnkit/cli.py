"""Command-line front end: evaluation, matrix emission, verification suites
and an info line naming the versions and the rational backend.

Output is deterministic byte for byte: orderings are the fixed colex ones,
floats are printed at 17 significant digits, rationals as p/q.  Exit codes:
0 success or all checks pass, 1 any verification failure, 2 usage error.

Parameters are rationals only; decimal parameter input is rejected because
the exact plane is the point of the package.  The overlap command in exact
mode emits signed squared entries (the entry's sign times its square),
which are rational; the chain command is floating point by nature.

argparse and json are imported by the functions that use them, so
`import hahnkit.cli` loads neither; only a run of main() pays for them.
"""
from __future__ import annotations

import functools
import sys

from .classical import RELATION_NAMES, verify_classical
from .hahn_bi import BI_CHECK_NAMES, BiParams, overlap2, p2_eval, verify_bi
from .hahn_multi import MultiParams, mv_p_eval, verify_mv, verify_mv_check
from .hahn_uni import UNI_CHECK_NAMES, UniParams, hahn_eval, verify_uni
from .numeric import Rat, format_rational, parse_rational
from .oracle import ORACLE_CHECK_NAMES, chain_matrices, chain_product, verify_oracle
from .reports import VerificationReport

SUITES = ("uni", "bi", "mv", "oracle", "classical", "all")


def _fmt_float(value) -> str:
    return f"{float(value):.17g}"


def _dot(entries) -> str:
    return ".".join(str(v) for v in entries)


def _parse_alphas(text: str | None, count: int | None = None, what: str = "--alpha"):
    if text is None:
        raise ValueError(f"{what} is required")
    values = tuple(parse_rational(tok) for tok in text.split(","))
    if count is not None and len(values) != count:
        raise ValueError(f"{what} must list exactly {count} rationals")
    return values


def _parse_ints(text: str | None, what: str):
    if text is None:
        raise ValueError(f"{what} is required")
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None


def _require_level(N: int | None) -> int:
    if N is None:
        raise ValueError("--N is required")
    return N


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _matrix_text(params_echo, mode, row_labels, col_labels, cells, fmt) -> str:
    if fmt == "csv":
        lines = ["," + ",".join(col_labels)]
        for label, row in zip(row_labels, cells):
            lines.append(label + "," + ",".join(row))
        return "\n".join(lines) + "\n"
    import json

    payload = {
        "params": params_echo,
        "mode": mode,
        "rows": list(row_labels),
        "cols": list(col_labels),
        "entries": [cell for row in cells for cell in row],
    }
    return json.dumps(payload, indent=2) + "\n"


def _report_rows(report) -> list[str]:
    return [
        f"{report.suite},{c.name},{'pass' if c.passed else 'fail'},{c.max_residual}"
        for c in report.checks
    ]


def _reports_text(reports, fmt) -> str:
    if fmt == "csv":
        lines = ["suite,check,status,max_residual"]
        for report in reports:
            lines.extend(_report_rows(report))
        return "\n".join(lines) + "\n"
    import json

    if len(reports) == 1:
        return json.dumps(reports[0].to_dict(), indent=2) + "\n"
    status = "pass" if all(r.passed for r in reports) else "fail"
    payload = {"status": status, "suites": [r.to_dict() for r in reports]}
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands


def _cmd_eval(args) -> int:
    degrees = _parse_ints(args.degrees, "--degrees")
    point = _parse_ints(args.point, "--point")
    N = _require_level(args.N)
    if args.family == "hahn1":
        alphas = _parse_alphas(args.alpha, 2)
        if len(degrees) != 1 or len(point) != 1:
            raise ValueError("hahn1 takes one degree and one point coordinate")
        value = hahn_eval(degrees[0], point[0], UniParams(*alphas, N))
        echo = UniParams(*alphas, N).echo()
    elif args.family == "hahn2":
        alphas = _parse_alphas(args.alpha, 3)
        if len(degrees) != 2 or len(point) != 2:
            raise ValueError("hahn2 takes two degrees and two point coordinates")
        p = BiParams(*alphas, N)
        value = p2_eval(degrees, point, p)
        echo = p.echo()
    elif args.family == "hahnd":
        alphas = _parse_alphas(args.alpha)
        p = MultiParams(alphas, N)
        if len(degrees) != p.d or len(point) != p.d:
            raise ValueError(f"hahnd with {p.d + 1} parameters takes {p.d} degrees and {p.d} point coordinates")
        value = mv_p_eval(degrees, point, p)
        echo = p.echo()
    else:
        raise ValueError(f"unknown family {args.family!r}")
    mode = args.mode or "exact"
    cell = _fmt_float(value) if mode == "float" else format_rational(value)
    text = _matrix_text(echo, mode, [_dot(point)], [_dot(degrees)], [[cell]], args.format)
    _emit(text, args.out)
    return 0


def _cmd_overlap(args) -> int:
    alphas = _parse_alphas(args.alpha, 3)
    p = BiParams(*alphas, _require_level(args.N))
    mode = args.mode or "float"
    matrix = overlap2(p, mode="squared" if mode == "exact" else "float")
    if mode == "exact":
        cells = [[format_rational(v) for v in row] for row in matrix.entries]
    else:
        cells = [[_fmt_float(v) for v in row] for row in matrix.entries]
    text = _matrix_text(
        p.echo(), mode, [_dot(g) for g in matrix.rows], [_dot(d) for d in matrix.cols],
        cells, args.format,
    )
    _emit(text, args.out)
    return 0


def _cmd_chain(args) -> int:
    alphas = _parse_alphas(args.alpha, 3)
    p = BiParams(*alphas, _require_level(args.N))
    first, second = chain_matrices(p)
    cells = [[_fmt_float(v) for v in row] for row in chain_product(first, second)]
    text = _matrix_text(
        p.echo(), "float", [_dot(g) for g in first.rows], [_dot(d) for d in second.cols],
        cells, args.format,
    )
    _emit(text, args.out)
    return 0


def _cmd_genfun(args) -> int:
    """The generating-function checks: uni at d = 1, bi at d = 2, mv above."""
    alphas = _parse_alphas(args.alpha)
    N = _require_level(args.N)
    if len(alphas) == 2:
        u = UniParams(*alphas, N)
        report = verify_uni("genfun", u).merged(verify_uni("dual-genfun", u))
    elif len(alphas) == 3:
        report = verify_bi("genfun", BiParams(*alphas, N))
    else:
        report = verify_mv_check("genfun", MultiParams(alphas, N))
    _emit(_reports_text([report], args.format), args.out)
    return 0 if report.passed else 1


def _merged(reports) -> VerificationReport:
    """One report: the first one's suite and parameters, every check in order."""
    return functools.reduce(VerificationReport.merged, reports)


def _suite_report(suite: str, check: str | None, alpha: str | None, N: int | None) -> VerificationReport:
    """One suite, or one check of it, on the --alpha text and the level N.
    Each verify_* is read as a module global at call time, once per check,
    so a wrapper set on this module sees every check."""
    if suite == "uni":
        p = UniParams(*_parse_alphas(alpha, 2), _require_level(N))
        names = (check,) if check else UNI_CHECK_NAMES
        reports = [verify_uni(name, p) for name in names]
    elif suite == "bi":
        p = BiParams(*_parse_alphas(alpha, 3), _require_level(N))
        names = (check,) if check else BI_CHECK_NAMES
        reports = [verify_bi(name, p) for name in names]
    elif suite == "mv":
        p = MultiParams(_parse_alphas(alpha), _require_level(N))
        reports = [verify_mv(p) if check is None else verify_mv_check(check, p)]
    elif suite == "oracle":
        p = BiParams(*_parse_alphas(alpha, 3), _require_level(N))
        names = (check,) if check else ORACLE_CHECK_NAMES
        reports = [verify_oracle(name, p) for name in names]
    elif suite == "classical":
        alphas = _parse_alphas(alpha)
        if len(alphas) not in (1, 2):
            raise ValueError("--alpha for classical lists one or two rationals")
        beta = alphas[1] if len(alphas) == 2 else Rat(0)
        n = _require_level(N)
        names = (check,) if check else RELATION_NAMES
        params = {
            "n": n,
            "alpha": format_rational(alphas[0]),
            "beta": format_rational(beta),
        }
        checks = []
        for name in names:
            checks.extend(verify_classical(name, n, alphas[0], beta).checks)
        return VerificationReport(suite="classical", params=params, checks=tuple(checks))
    else:
        raise ValueError(f"unknown suite: {suite}")
    return _merged(reports)


# The fixed parameter sample behind `verify --suite all`: (suite, --alpha, --N).
BATTERY = (
    ("classical", "1/2,7/3", 6),
    ("uni", "0,0", 6),
    ("uni", "1/2,7/3", 6),
    ("uni", "-1/2,-1/2", 5),
    ("bi", "1/2,-1/2,3", 4),
    ("bi", "0,0,0", 4),
    ("mv", "1/2,0,3,7/3", 3),
    ("mv", "0,0,0,0,0", 2),
    ("oracle", "1/2,-1/2,3", 4),
)


def _cmd_verify(args) -> int:
    if args.suite == "all":
        if args.alpha is not None or args.N is not None or args.check is not None:
            raise ValueError("--suite all uses the built-in parameter battery; drop --alpha/--N/--check")
        runs = [(suite, None, alpha, N) for suite, alpha, N in BATTERY]
    else:
        runs = [(args.suite, args.check, args.alpha, args.N)]
    reports = [_suite_report(*run) for run in runs]
    _emit(_reports_text(reports, args.format), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_info(args) -> int:
    """The package version, the Python version and the rational backend
    (module.qualname of Rat's class), as one JSON object."""
    import json
    import platform

    from . import __version__

    backend = type(Rat(0))
    payload = {
        "hahnkit": __version__,
        "python": platform.python_version(),
        "backend": f"{backend.__module__}.{backend.__qualname__}",
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_shared(sub: argparse.ArgumentParser, mode: bool = False) -> None:
    """Every command's flags but info's; --mode only where read."""
    sub.add_argument("--alpha", help="comma-separated rationals, e.g. 1/2,0,3; "
                     "a negative first one needs the form --alpha=-1/2,0,3")
    sub.add_argument("--N", type=int, help="simplex level (classical suite: the degree)")
    if mode:
        sub.add_argument("--mode", choices=("exact", "float"))
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--out", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog="hahnkit")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="evaluate one polynomial at one grid point")
    sub.add_argument("--family", required=True, choices=("hahn1", "hahn2", "hahnd"))
    sub.add_argument("--degrees", help="comma-separated degree indices")
    sub.add_argument("--point", help="comma-separated grid coordinates")
    _add_shared(sub, mode=True)

    sub = commands.add_parser("overlap", help="full interbasis overlap matrix")
    _add_shared(sub, mode=True)

    sub = commands.add_parser("chain", help="composed two-step overlap factorization")
    _add_shared(sub)

    sub = commands.add_parser("genfun", help="generating function verification")
    _add_shared(sub)

    sub = commands.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", required=True, choices=SUITES)
    sub.add_argument("--check", help="run a single named check of the suite")
    _add_shared(sub)

    commands.add_parser("info", help="package version, Python version and rational backend")

    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "overlap": _cmd_overlap,
    "chain": _cmd_chain,
    "genfun": _cmd_genfun,
    "verify": _cmd_verify,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
