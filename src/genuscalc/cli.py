"""Command-line interface for exact characteristic-class computations.

Every subcommand prints either deterministic plain text or JSON in which all
rationals are rendered as ``num/den`` strings (denominator omitted when 1).
Errors of any kind exit nonzero after a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .multseq import ahat_genus_table, factored_str, l_genus_table, partition_terms, pont_character
from .rational import _parse_natural, format_rational, parse_rational
from .series import ahat_genus_series, l_genus_series

# `manifolds` and `surgery` are imported by the handlers that use them, so the
# `genus` and `coeff` commands never load them.

__all__ = ["main", "run"]

_SERIES = {"L": l_genus_series, "Ahat": ahat_genus_series}
_TABLES = {"L": l_genus_table, "Ahat": ahat_genus_table}
_REPORTS = ("pontryagin", "signature", "ahat")
_RATIONAL_FLAGS = ("--A", "--B", "--C", "--lambda")

# Largest --weight each subcommand accepts; both finish in well under a second
# at the cap, and the cost grows quickly past it.  On a 2-vCPU VM, cold
# `coeff --weight 150` takes ~0.25 s and cold `genus --weight 16` ~0.1 s, of
# which building K_1..K_16 is ~18 ms.
COEFF_MAX_WEIGHT = 150
GENUS_MAX_WEIGHT = 16


def __getattr__(name: str):
    # `from genuscalc.cli import MODEL_MAX_WEIGHT` keeps working without
    # loading `manifolds` on every import
    if name == "MODEL_MAX_WEIGHT":
        from .manifolds import MODEL_MAX_WEIGHT

        return MODEL_MAX_WEIGHT
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CommandError(Exception):
    """A usage or input problem that should surface as one diagnostic line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse takes a separate "-2/7" for an option, not a value
        for flag in _RATIONAL_FLAGS:
            if message == f"argument {flag}: expected one argument":
                message += f" (write a negative value as {flag}=-num/den)"
        raise CommandError(message)


def _argument_type(parse):
    """An argparse type from a parser whose ValueError names the fault."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_rational_arg = _argument_type(parse_rational)
_nonneg_int_arg = _argument_type(_parse_natural)


def _check_cap(flag: str, value: int, cap: int) -> int:
    if value > cap:
        raise CommandError(f"argument {flag}: at most {cap} is supported, got {value}")
    return value


def _fibre_n(args: argparse.Namespace) -> int:
    from .manifolds import MODEL_MAX_WEIGHT

    return _check_cap("--n", args.n, MODEL_MAX_WEIGHT - 1)


def _params_from(args: argparse.Namespace):
    from .surgery import NormalInvariantParams

    return NormalInvariantParams(_fibre_n(args), A=args.A, B=args.B, C=args.C, lam=args.lam)


def _params_payload(params, **values) -> dict:
    named = {"A": params.A, "B": params.B, "C": params.C, "lambda": params.lam}
    return {"n": params.n, "params": {k: format_rational(v) for k, v in named.items()}, **values}


def _lines(payload: dict) -> list[str]:
    """Text lines ``key: value`` of a payload; a nested dict's fields go inline
    and a None value has no line."""
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.extend(_lines(value))
        elif value is not None:
            lines.append(f"{key}: {value}")
    return lines


def _cmd_coeff(args: argparse.Namespace):
    _check_cap("--weight", args.weight, COEFF_MAX_WEIGHT)
    values = [format_rational(c) for c in _SERIES[args.series](args.weight).coefficients]
    payload = {"series": args.series, "weight": args.weight, "coefficients": values}
    return [f"z^{k}: {v}" for k, v in enumerate(values)], payload


def _cmd_genus(args: argparse.Namespace):
    _check_cap("--weight", args.weight, GENUS_MAX_WEIGHT)
    table = _TABLES[args.series](args.weight)
    polys = []
    for i, poly in enumerate(table.polys, start=1):
        terms = [
            {"partition": list(part), "coefficient": format_rational(coeff)}
            for part, coeff in partition_terms(poly).items()
        ]
        polys.append({"weight": i, "text": factored_str(poly), "terms": terms})
    payload = {"series": args.series, "weight": args.weight, "polys": polys}
    return [f"K_{p['weight']} = {p['text']}" for p in polys], payload


def _cmd_manifold(args: argparse.Namespace):
    from .manifolds import a_hat_genus, parse_descriptor, signature

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
    payload: dict = {"manifold": model.name, "dimension": model.dimension}
    for r in wanted:
        if r == "pontryagin":
            payload[r] = str(model.tangent_pontryagin)
        elif r == "signature":
            payload[r] = format_rational(signature(model))
        else:
            payload[r] = format_rational(a_hat_genus(model))
    return _lines(payload), payload


def _cmd_pontryagin(args: argparse.Namespace):
    from .surgery import xi_total_class

    params = _params_from(args)
    total = xi_total_class(params)
    character = pont_character(total, params.n + 1)
    classes = [str(total.homogeneous_part(4 * i)) for i in range(1, params.n + 2)]
    payload = _params_payload(params, ph=str(sum(character, total.presentation.zero())))
    lines = _lines(payload) + [f"p: {total}"]
    lines.extend(f"p_{i}: {text}" for i, text in enumerate(classes, start=1))
    return lines, {**payload, "total": str(total), "classes": classes}


def _invariant_payload(params, sigma, a_hat, p1_cubed) -> dict:
    """Payload shared by `surgery` and `solve-bundle`; p1_cubed is None when n != 2."""
    values = {"sigma": sigma, "a_hat": a_hat, "p1_cubed": p1_cubed}
    return _params_payload(params, **{k: None if v is None else format_rational(v) for k, v in values.items()})


def _cmd_surgery(args: argparse.Namespace):
    from .surgery import a_hat_total_space, p1_cubed_total_space, surgery_obstruction

    params = _params_from(args)
    p1_cubed = p1_cubed_total_space(params) if params.n == 2 else None
    payload = _invariant_payload(params, surgery_obstruction(params), a_hat_total_space(params), p1_cubed)
    return _lines(payload), payload


def _cmd_solve_bundle(args: argparse.Namespace):
    from .surgery import solve_bundle

    solution = solve_bundle(_fibre_n(args), require_section=args.require_section)
    payload = _invariant_payload(solution.params, solution.sigma, solution.a_hat, solution.p1_cubed)
    basis = [[format_rational(c) for c in vec] for vec in solution.kernel_basis]
    lines = _lines(payload) + ["kernel_basis: " + "; ".join("[" + ", ".join(vec) + "]" for vec in basis)]
    return lines, {**payload, "kernel_basis": basis}


# Each flag's argparse keywords; a string default goes through the flag's type.
_FLAGS = {
    "--series": {"choices": sorted(_SERIES), "required": True},
    "--weight": {"type": _nonneg_int_arg, "required": True},
    "--descriptor": {"required": True, "help": "hp:<n>, s:<k>, or product:a,b"},
    "--report": {"default": ",".join(_REPORTS), "help": "comma-separated subset of: " + ", ".join(_REPORTS)},
    "--n": {"type": _nonneg_int_arg, "required": True, "help": "fibre projective dimension"},
    "--A": {"type": _rational_arg, "default": "0", "help": "parameter A (num/den)"},
    "--B": {"type": _rational_arg, "default": "0", "help": "parameter B (num/den), n = 2 only"},
    "--C": {"type": _rational_arg, "default": "0", "help": "parameter C (num/den)"},
    "--lambda": {"dest": "lam", "type": _rational_arg, "default": "1", "help": "scale lambda (num/den), nonzero"},
    "--require-section": {"action": "store_true", "help": "pin A = 0 (n = 2 only)"},
    "--format": {"choices": ("text", "json"), "default": "text", "help": "output format"},
}

# (name, help, handler, flags); every subcommand also takes --format
_COMMANDS = (
    ("coeff", "characteristic series coefficients", _cmd_coeff, ("--series", "--weight")),
    ("genus", "genus polynomials K_1..K_N", _cmd_genus, ("--series", "--weight")),
    ("manifold", "tangent class and genera of a catalog manifold", _cmd_manifold, ("--descriptor", "--report")),
    ("pontryagin", "bundle classes from character parameters", _cmd_pontryagin, ("--n", *_RATIONAL_FLAGS)),
    ("surgery", "surgery obstruction and A-hat genus of the total space", _cmd_surgery, ("--n", *_RATIONAL_FLAGS)),
    ("solve-bundle", "parameters with sigma = 0 and nonzero A-hat genus", _cmd_solve_bundle, ("--n", "--require-section")),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="genuscalc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"genuscalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text, handler, flags in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--format"):
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
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
