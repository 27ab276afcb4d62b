"""Closed forms and output parsers for every value the benchmark checks.

Nothing here imports genuscalc.  Bernoulli numbers come from the
Akiyama-Tanigawa triangle (the package uses a binomial recurrence), the genus
constants from their Bernoulli closed forms, and the surgery invariants from
the formulas below, so a faster but wrong answer fails a check instead of
counting as a speed-up.

    h_k = 2^{2k} (2^{2k-1} - 1) |B_{2k}| / (2k)!      (coefficient of p_k in L_k)
    a_k = -|B_{2k}| / (2 (2k)!)                        (coefficient of p_k in Ahat_k)
    8 sigma = lam (-A sig(HP^n)/3 + C h_{n+1} (2n+1)! (-1)^{n+1})   [+ 28 lam B/45 at n = 2]
    Ahat(total space) = lam C a_{n+1} (2n+1)! (-1)^{n+1}           [+ lam B/2880 at n = 2]
    p_1^3 = -12 lam A                                               (n = 2)
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


class CheckError(Exception):
    """An output disagrees with its closed form."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


# --- Bernoulli numbers and genus constants ----------------------------------


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m by the Akiyama-Tanigawa triangle (B_1 = +1/2; even indices agree)."""
    row = [Fraction(1, j + 1) for j in range(m + 1)]
    for i in range(1, m + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    return row[0]


def h(k: int) -> Fraction:
    """Coefficient of p_k in the k-th signature-genus polynomial."""
    return Fraction(2 ** (2 * k) * (2 ** (2 * k - 1) - 1)) * abs(bernoulli(2 * k)) / factorial(2 * k)


def a(k: int) -> Fraction:
    """Coefficient of p_k in the k-th A-hat-genus polynomial."""
    return -abs(bernoulli(2 * k)) / (2 * factorial(2 * k))


def series_coefficient(series: str, k: int) -> Fraction:
    """z^k coefficient of sqrt(z)/tanh(sqrt(z)) ("L") or (sqrt(z)/2)/sinh(sqrt(z)/2) ("Ahat")."""
    b = bernoulli(2 * k)
    if series == "L":
        return Fraction(2 ** (2 * k)) * b / factorial(2 * k)
    return Fraction(2 - 2 ** (2 * k)) * b / (factorial(2 * k) * 4**k)


def leading(series: str, k: int) -> Fraction:
    return h(k) if series == "L" else a(k)


# --- manifolds and surgery invariants ----------------------------------------


def sig_hp(k: int) -> Fraction:
    return Fraction(1 + (-1) ** k, 2)


def hp_pontryagin(k: int) -> dict:
    """(1+z)^{2k+2} (1+4z)^{-1} truncated at z^k, keyed by monomial."""
    out = {}
    for j in range(k + 1):
        c = sum(comb(2 * k + 2, i) * (-4) ** (j - i) for i in range(j + 1))
        if c:
            out[mono(z=j)] = Fraction(c)
    return out


def manifold_expected(descriptor: str) -> dict:
    """Name, dimension, tangent class, signature and A-hat genus of a catalog manifold."""
    if descriptor.startswith("hp:"):
        k = int(descriptor[3:])
        return {"manifold": f"HP{k}", "dimension": 4 * k, "pontryagin": hp_pontryagin(k),
                "signature": sig_hp(k), "ahat": Fraction(0)}
    if descriptor.startswith("s:"):
        k = int(descriptor[2:])
        return {"manifold": f"S{k}", "dimension": k, "pontryagin": {(): Fraction(1)},
                "signature": Fraction(0), "ahat": Fraction(0)}
    factors = descriptor[len("product:"):].split(",")
    expect(factors[0] == "s:4" and factors[1].startswith("hp:"), f"unsupported {descriptor}")
    k = int(factors[1][3:])
    return {"manifold": f"S4 x HP{k}", "dimension": 4 + 4 * k, "pontryagin": hp_pontryagin(k),
            "signature": Fraction(0), "ahat": Fraction(0)}


def eight_sigma(n: int, A, B, C, lam) -> Fraction:
    value = -A * sig_hp(n) / 3 + C * h(n + 1) * factorial(2 * n + 1) * (-1) ** (n + 1)
    if n == 2:
        value += Fraction(28, 45) * B
    return lam * value


def ahat_total_space(n: int, A, B, C, lam) -> Fraction:
    value = C * a(n + 1) * factorial(2 * n + 1) * (-1) ** (n + 1)
    if n == 2:
        value += B / Fraction(2880)
    return lam * value


def p1_cubed(A, lam) -> Fraction:
    return -12 * lam * A


def xi_total(n: int, A, B, C, lam) -> dict:
    """Total Pontryagin class of the candidate bundle over S^4 x HP^n."""
    terms = {(): Fraction(1), mono(u=1): lam * A}
    if n == 2:
        terms[mono(u=1, z=1)] = -6 * lam * B
        terms[mono(u=1, z=2)] = 120 * lam * C
    else:
        terms[mono(u=1, z=n)] = lam * C * factorial(2 * n + 1) * (-1) ** n
    return {m: c for m, c in terms.items() if c}


def xi_character(n: int, A, B, C, lam) -> dict:
    """ph(xi) = lam u (A + B z + C z^2) at n = 2 and lam u (A + C z^n) otherwise."""
    terms = {mono(u=1): lam * A, mono(u=1, z=n): lam * C}
    if n == 2:
        terms[mono(u=1, z=1)] = lam * B
    return {m: c for m, c in terms.items() if c}


# --- parsing rendered polynomials --------------------------------------------

_FACTOR = re.compile(r"([A-Za-z]+\d*)(?:\^(\d+))?")


def mono(**exponents: int) -> tuple:
    """A monomial as sorted (variable, exponent) pairs; () is the constant."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e))


def parse_poly(text: str) -> dict:
    """Parse a signed sum such as ``1 + 2/3*z - u*z^2`` into {monomial: Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    out: dict = {}
    sign = 1
    for i, tok in enumerate(tokens):
        if tok in "+-" and i:
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff = Fraction(1)
        factors = tok.split("*")
        if factors[0][:1].isdigit():
            coeff = Fraction(factors.pop(0))
        exps: dict = {}
        for f in factors:
            m = _FACTOR.fullmatch(f)
            expect(m is not None, f"unparsable factor {f!r} in {text!r}")
            exps[m.group(1)] = exps.get(m.group(1), 0) + int(m.group(2) or 1)
        key = mono(**exps)
        expect(key not in out, f"repeated monomial {key} in {text!r}")
        out[key] = sign * coeff
        sign = 1
    return out


def parse_factored(text: str) -> dict:
    """Parse a genus polynomial over a common denominator, e.g. ``(7*p2 - p1^2)/45``."""
    body, denom = text, 1
    if text.startswith("(") and ")/" in text:
        body, d = text[1:].rsplit(")/", 1)
        denom = int(d)
    elif "/" in text:
        body, d = text.rsplit("/", 1)
        denom = int(d)
    return {m: c / denom for m, c in parse_poly(body).items()}


def partition_of(monomial: tuple) -> tuple:
    parts = []
    for var, e in monomial:
        expect(var[0] == "p" and var[1:].isdigit(), f"bad genus variable {var!r}")
        parts += [int(var[1:])] * e
    return tuple(sorted(parts, reverse=True))


# --- normalising CLI output ---------------------------------------------------


def _text_fields(lines: list[str]) -> dict:
    fields = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        expect(bool(sep), f"unparsable line {line!r}")
        fields[key] = value
    return fields


def _params(fields: dict) -> dict:
    return {k: Fraction(fields[k]) for k in ("A", "B", "C", "lambda")}


def normalize(command: str, stdout: str, fmt: str) -> dict:
    """Turn one CLI stdout, text or JSON, into the same comparable structure."""
    if fmt == "json":
        data = json.loads(stdout)
    else:
        lines = stdout.splitlines()
    if command == "genus":
        if fmt == "json":
            polys = []
            for entry in data["polys"]:
                from_terms = {}
                for t in entry["terms"]:
                    key = mono(**{f"p{p}": e for p, e in Counter(t["partition"]).items()})
                    from_terms[key] = Fraction(t["coefficient"])
                expect_equal(from_terms, parse_factored(entry["text"]), f"K_{entry['weight']} terms vs text")
                polys.append(from_terms)
            return {"series": data["series"], "weight": data["weight"], "polys": polys}
        polys = []
        for i, line in enumerate(lines, start=1):
            prefix = f"K_{i} = "
            expect(line.startswith(prefix), f"unexpected genus line {line!r}")
            polys.append(parse_factored(line[len(prefix):]))
        return {"polys": polys}
    if command == "coeff":
        if fmt == "json":
            return {"coefficients": [Fraction(c) for c in data["coefficients"]]}
        coeffs = []
        for k, line in enumerate(lines):
            prefix = f"z^{k}: "
            expect(line.startswith(prefix), f"unexpected coeff line {line!r}")
            coeffs.append(Fraction(line[len(prefix):]))
        return {"coefficients": coeffs}
    if command == "manifold":
        fields = data if fmt == "json" else _text_fields(lines)
        return {"manifold": fields["manifold"], "dimension": int(fields["dimension"]),
                "pontryagin": parse_poly(fields["pontryagin"]),
                "signature": Fraction(fields["signature"]), "ahat": Fraction(fields["ahat"])}
    if command in ("surgery", "solve-bundle"):
        if fmt == "json":
            params = {k: Fraction(v) for k, v in data["params"].items()}
            out = {"n": data["n"], "params": params, "sigma": Fraction(data["sigma"]),
                   "a_hat": Fraction(data["a_hat"]),
                   "p1_cubed": None if data["p1_cubed"] is None else Fraction(data["p1_cubed"])}
            if command == "solve-bundle":
                out["kernel_basis"] = [[Fraction(c) for c in v] for v in data["kernel_basis"]]
            return out
        fields = _text_fields(lines)
        out = {"n": int(fields["n"]), "params": _params(fields), "sigma": Fraction(fields["sigma"]),
               "a_hat": Fraction(fields["a_hat"]),
               "p1_cubed": Fraction(fields["p1_cubed"]) if "p1_cubed" in fields else None}
        if command == "solve-bundle":
            out["kernel_basis"] = [
                [Fraction(c) for c in v.strip("[]").split(", ")]
                for v in fields["kernel_basis"].split("; ")
            ]
        return out
    if command == "pontryagin":
        if fmt == "json":
            return {"n": data["n"], "params": {k: Fraction(v) for k, v in data["params"].items()},
                    "ph": parse_poly(data["ph"]), "total": parse_poly(data["total"]),
                    "classes": [parse_poly(c) for c in data["classes"]]}
        fields = _text_fields(lines)
        n = int(fields["n"])
        return {"n": n, "params": _params(fields), "ph": parse_poly(fields["ph"]),
                "total": parse_poly(fields["p"]),
                "classes": [parse_poly(fields[f"p_{i}"]) for i in range(1, n + 2)]}
    raise CheckError(f"unknown command {command!r}")


# --- checks against the closed forms -------------------------------------------


def check_genus(series: str, weight: int, out: dict) -> None:
    polys = out["polys"]
    expect_equal(len(polys), weight, "number of genus polynomials")
    for k, poly in enumerate(polys, start=1):
        terms = {partition_of(m): c for m, c in poly.items()}
        for part in terms:
            expect_equal(sum(part), k, f"weight of a monomial of K_{k}")
        expect_equal(terms.get((k,), Fraction(0)), leading(series, k), f"{series} K_{k} coefficient of p_{k}")
        expect_equal(terms.get((1,) * k, Fraction(0)), series_coefficient(series, k),
                     f"{series} K_{k} coefficient of p_1^{k}")


def check_coeff(series: str, weight: int, out: dict) -> None:
    want = [Fraction(1)] + [series_coefficient(series, k) for k in range(1, weight + 1)]
    expect_equal(out["coefficients"], want, f"{series} series coefficients")


def check_manifold(descriptor: str, out: dict) -> None:
    expect_equal(out, manifold_expected(descriptor), f"manifold {descriptor}")


def check_surgery(n: int, params: dict, out: dict) -> None:
    A, B, C, lam = params["A"], params["B"], params["C"], params["lambda"]
    expect_equal(out["n"], n, "n")
    expect_equal(out["params"], params, "echoed parameters")
    expect_equal(8 * out["sigma"], eight_sigma(n, A, B, C, lam), f"8 sigma at n = {n}")
    expect_equal(out["a_hat"], ahat_total_space(n, A, B, C, lam), f"total-space A-hat at n = {n}")
    expect_equal(out["p1_cubed"], p1_cubed(A, lam) if n == 2 else None, "p1^3")


def check_solve_bundle(n: int, require_section: bool, out: dict) -> None:
    params = out["params"]
    A, B, C, lam = params["A"], params["B"], params["C"], params["lambda"]
    expect_equal(out["n"], n, "n")
    expect_equal(out["sigma"], Fraction(0), "sigma of the solution")
    expect_equal(eight_sigma(n, A, B, C, lam), Fraction(0), "closed-form 8 sigma of the solution")
    expect(out["a_hat"] != 0, "solution has vanishing A-hat genus")
    expect_equal(out["a_hat"], ahat_total_space(n, A, B, C, lam), "A-hat of the solution")
    expect_equal(out["p1_cubed"], p1_cubed(A, lam) if n == 2 else None, "p1^3 of the solution")
    if require_section:
        expect_equal(A, Fraction(0), "A with a required section")
    basis = out["kernel_basis"]
    expect_equal(len(basis), 2 if n == 2 else 1, "kernel dimension")
    for vec in basis:
        abc = vec if n == 2 else [vec[0], Fraction(0), vec[1]]
        expect_equal(eight_sigma(n, *abc, Fraction(1)), Fraction(0), f"8 sigma on kernel vector {vec}")


def check_pontryagin(n: int, params: dict, out: dict) -> None:
    A, B, C, lam = params["A"], params["B"], params["C"], params["lambda"]
    total = xi_total(n, A, B, C, lam)
    expect_equal(out["n"], n, "n")
    expect_equal(out["params"], params, "echoed parameters")
    expect_equal(out["total"], total, "total class")
    expect_equal(out["ph"], xi_character(n, A, B, C, lam), "Pontryagin character")
    for i, got in enumerate(out["classes"], start=1):
        want = {m: c for m, c in total.items() if _ring_degree(m) == i}
        expect_equal(got, want, f"p_{i}")


def _ring_degree(monomial: tuple) -> int:
    """Weight (degree / 4) of a monomial in u and z, both of degree 4."""
    return sum(e for _, e in monomial)


def check_cli(argv: list[str], out: dict) -> None:
    """Dispatch a normalised CLI output to its closed-form check."""
    command, opts = argv[0], _options(argv[1:])
    if command == "genus":
        check_genus(opts["series"], int(opts["weight"]), out)
    elif command == "coeff":
        check_coeff(opts["series"], int(opts["weight"]), out)
    elif command == "manifold":
        check_manifold(opts["descriptor"], out)
    elif command == "surgery":
        params = {k: Fraction(opts.get(k, "0")) for k in ("A", "B", "C")}
        params["lambda"] = Fraction(opts.get("lambda", "1"))
        check_surgery(int(opts["n"]), params, out)
    elif command == "pontryagin":
        params = {k: Fraction(opts.get(k, "0")) for k in ("A", "B", "C")}
        params["lambda"] = Fraction(opts.get("lambda", "1"))
        check_pontryagin(int(opts["n"]), params, out)
    elif command == "solve-bundle":
        check_solve_bundle(int(opts["n"]), "require-section" in opts, out)
    else:
        raise CheckError(f"unknown command {command!r}")


def _options(args: list[str]) -> dict:
    """``--key value``, ``--key=value`` and bare ``--flag`` into a dict."""
    opts: dict = {}
    i = 0
    while i < len(args):
        key, sep, value = args[i][2:].partition("=")
        if sep:
            opts[key] = value
        elif i + 1 < len(args) and not args[i + 1].startswith("--"):
            opts[key] = args[i + 1]
            i += 1
        else:
            opts[key] = True
        i += 1
    return opts
