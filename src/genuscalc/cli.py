"""Command-line interface for exact characteristic-class computations.

Every subcommand prints either deterministic plain text or JSON in which all
rationals are rendered as ``num/den`` strings (denominator omitted when 1).
Errors of any kind exit nonzero after a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .manifolds import MODEL_MAX_WEIGHT, a_hat_genus, parse_descriptor, signature
from .multseq import ahat_genus_table, factored_str, l_genus_table, partition_terms, pont_character
from .rational import format_rational, parse_rational
from .series import ahat_genus_series, l_genus_series
from .surgery import (
    NormalInvariantParams,
    a_hat_total_space,
    p1_cubed_total_space,
    solve_bundle,
    surgery_obstruction,
    xi_total_class,
)

__all__ = ["main", "run"]

_SERIES = {"L": l_genus_series, "Ahat": ahat_genus_series}
_TABLES = {"L": l_genus_table, "Ahat": ahat_genus_table}
_REPORTS = ("pontryagin", "signature", "ahat")
_RATIONAL_FLAGS = ("--A", "--B", "--C", "--lambda")

# Largest --weight each subcommand accepts; both finish in well under a second
# at the cap, and the cost grows quickly past it.
COEFF_MAX_WEIGHT = 150
GENUS_MAX_WEIGHT = 16


class CommandError(Exception):
    """A usage or input problem that should surface as one diagnostic line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse takes a separate "-2/7" for an option, not a value
        for flag in _RATIONAL_FLAGS:
            if message == f"argument {flag}: expected one argument":
                message += f" (write a negative value as {flag}=-num/den)"
        raise CommandError(message)


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonneg_int_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise argparse.ArgumentTypeError(f"{len(text)}-digit integer is too large") from None


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_nonneg_int_arg, required=True, help="fibre projective dimension")
    parser.add_argument("--A", type=_rational_arg, default=parse_rational("0"), help="parameter A (num/den)")
    parser.add_argument("--B", type=_rational_arg, default=parse_rational("0"), help="parameter B (num/den), n = 2 only")
    parser.add_argument("--C", type=_rational_arg, default=parse_rational("0"), help="parameter C (num/den)")
    parser.add_argument("--lambda", dest="lam", type=_rational_arg, default=parse_rational("1"), help="scale lambda (num/den), nonzero")


def _params_from(args: argparse.Namespace) -> NormalInvariantParams:
    _check_cap("--n", args.n, MODEL_MAX_WEIGHT - 1)
    return NormalInvariantParams(args.n, A=args.A, B=args.B, C=args.C, lam=args.lam)


def _params_payload(params: NormalInvariantParams) -> dict:
    return {
        "A": format_rational(params.A),
        "B": format_rational(params.B),
        "C": format_rational(params.C),
        "lambda": format_rational(params.lam),
    }


def _params_lines(params: NormalInvariantParams) -> list[str]:
    return [f"n: {params.n}"] + [f"{k}: {v}" for k, v in _params_payload(params).items()]


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise CommandError(f"argument {flag}: at most {cap} is supported, got {value}")


def _cmd_coeff(args: argparse.Namespace):
    _check_cap("--weight", args.weight, COEFF_MAX_WEIGHT)
    series = _SERIES[args.series](args.weight)
    values = [format_rational(c) for c in series.coefficients]
    lines = [f"z^{k}: {v}" for k, v in enumerate(values)]
    payload = {"series": args.series, "weight": args.weight, "coefficients": values}
    return lines, payload


def _cmd_genus(args: argparse.Namespace):
    _check_cap("--weight", args.weight, GENUS_MAX_WEIGHT)
    table = _TABLES[args.series](args.weight)
    lines = []
    polys = []
    for i in range(1, args.weight + 1):
        poly = table.poly(i)
        text = factored_str(poly)
        lines.append(f"K_{i} = {text}")
        terms = [
            {"partition": list(part), "coefficient": format_rational(coeff)}
            for part, coeff in sorted(
                partition_terms(poly).items(), key=lambda kv: tuple(-p for p in kv[0])
            )
        ]
        polys.append({"weight": i, "text": text, "terms": terms})
    payload = {"series": args.series, "weight": args.weight, "polys": polys}
    return lines, payload


def _cmd_manifold(args: argparse.Namespace):
    model = parse_descriptor(args.descriptor)
    wanted = [r.strip() for r in args.report.split(",") if r.strip()]
    for r in wanted:
        if r not in _REPORTS:
            raise CommandError(
                f"unknown report {r!r}, expected one of {', '.join(_REPORTS)}"
            )
        if wanted.count(r) > 1:
            raise CommandError(f"duplicate report {r!r}")
    if not wanted:
        raise CommandError("empty report list")
    lines = [f"manifold: {model.name}", f"dimension: {model.dimension}"]
    payload: dict = {"manifold": model.name, "dimension": model.dimension}
    for r in wanted:
        if r == "pontryagin":
            value = str(model.tangent_pontryagin)
        elif r == "signature":
            value = format_rational(signature(model))
        else:
            value = format_rational(a_hat_genus(model))
        lines.append(f"{r}: {value}")
        payload[r] = value
    return lines, payload


def _cmd_pontryagin(args: argparse.Namespace):
    params = _params_from(args)
    total = xi_total_class(params)
    character = pont_character(total, params.n + 1)
    classes = [str(total.homogeneous_part(4 * i)) for i in range(1, params.n + 2)]
    ph = str(sum(character, total.presentation.zero()))
    lines = _params_lines(params)
    lines.append(f"ph: {ph}")
    lines.append(f"p: {total}")
    lines.extend(f"p_{i}: {text}" for i, text in enumerate(classes, start=1))
    payload = {
        "n": params.n,
        "params": _params_payload(params),
        "ph": ph,
        "total": str(total),
        "classes": classes,
    }
    return lines, payload


def _invariant_output(params: NormalInvariantParams, sigma, a_hat, p1_cubed):
    """Lines and payload shared by `surgery` and `solve-bundle`; p1_cubed is
    None when n != 2 and then has no text line."""
    values = {"sigma": sigma, "a_hat": a_hat, "p1_cubed": p1_cubed}
    shown = {k: None if v is None else format_rational(v) for k, v in values.items()}
    lines = _params_lines(params) + [f"{k}: {v}" for k, v in shown.items() if v is not None]
    return lines, {"n": params.n, "params": _params_payload(params), **shown}


def _cmd_surgery(args: argparse.Namespace):
    params = _params_from(args)
    p1_cubed = p1_cubed_total_space(params) if params.n == 2 else None
    return _invariant_output(
        params, surgery_obstruction(params), a_hat_total_space(params), p1_cubed
    )


def _cmd_solve_bundle(args: argparse.Namespace):
    _check_cap("--n", args.n, MODEL_MAX_WEIGHT - 1)
    solution = solve_bundle(args.n, require_section=args.require_section)
    lines, payload = _invariant_output(
        solution.params, solution.sigma, solution.a_hat, solution.p1_cubed
    )
    basis = [[format_rational(c) for c in vec] for vec in solution.kernel_basis]
    payload["kernel_basis"] = basis
    lines.append("kernel_basis: " + "; ".join("[" + ", ".join(vec) + "]" for vec in basis))
    return lines, payload


def build_parser() -> _Parser:
    parser = _Parser(prog="genuscalc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"genuscalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    coeff = sub.add_parser("coeff", help="characteristic series coefficients")
    coeff.add_argument("--series", choices=sorted(_SERIES), required=True)
    coeff.add_argument("--weight", type=_nonneg_int_arg, required=True)
    _add_format_flag(coeff)
    coeff.set_defaults(handler=_cmd_coeff)

    genus = sub.add_parser("genus", help="genus polynomials K_1..K_N")
    genus.add_argument("--series", choices=sorted(_SERIES), required=True)
    genus.add_argument("--weight", type=_nonneg_int_arg, required=True)
    _add_format_flag(genus)
    genus.set_defaults(handler=_cmd_genus)

    manifold = sub.add_parser("manifold", help="tangent class and genera of a catalog manifold")
    manifold.add_argument("--descriptor", required=True, help="hp:<n>, s:<k>, or product:a,b")
    manifold.add_argument("--report", default=",".join(_REPORTS), help="comma-separated subset of: " + ", ".join(_REPORTS))
    _add_format_flag(manifold)
    manifold.set_defaults(handler=_cmd_manifold)

    pont = sub.add_parser("pontryagin", help="bundle classes from character parameters")
    _add_params_flags(pont)
    _add_format_flag(pont)
    pont.set_defaults(handler=_cmd_pontryagin)

    surgery = sub.add_parser("surgery", help="surgery obstruction and A-hat genus of the total space")
    _add_params_flags(surgery)
    _add_format_flag(surgery)
    surgery.set_defaults(handler=_cmd_surgery)

    solve = sub.add_parser("solve-bundle", help="parameters with sigma = 0 and nonzero A-hat genus")
    solve.add_argument("--n", type=_nonneg_int_arg, required=True, help="fibre projective dimension")
    solve.add_argument("--require-section", action="store_true", dest="require_section", help="pin A = 0 (n = 2 only)")
    _add_format_flag(solve)
    solve.set_defaults(handler=_cmd_solve_bundle)

    return parser


def run(argv: list[str]) -> int:
    """Execute one invocation; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        lines, payload = args.handler(args)
    except (CommandError, ValueError, RuntimeError) as exc:
        # argparse quotes unrecognized arguments raw; keep the diagnostic one line
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"genuscalc: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help and --version
        code = exc.code
        return 0 if code is None else int(code)
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))
