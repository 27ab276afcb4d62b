"""The CLI contract over generated argv: every argument list built from the
real subcommands and flags, with valid and hostile values, either succeeds
(exit 0, nothing on stderr) or exits 2 with exactly one line on stderr and
nothing on stdout.  Accepted sizes stay small (weight <= 8, n <= 6); values
past the caps are drawn only where they are refused before anything is built."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from genuscalc.cli import COEFF_MAX_WEIGHT, run
from genuscalc.manifolds import MODEL_MAX_WEIGHT

SETTINGS = settings(max_examples=200, deadline=None)

HOSTILE = st.sampled_from(
    [
        "",
        " ",
        "٣",  # ARABIC-INDIC DIGIT THREE
        "²",  # SUPERSCRIPT TWO
        "３",  # FULLWIDTH DIGIT THREE
        "-2/7",
        "-1",
        "1.5",
        "1/0",
        "x\ny",
        "9" * 5000,
        "--help",
        "xml",
        "X",
    ]
)

_RARELY = st.sampled_from([False] * 7 + [True])


def _mostly(common, rare):
    """Values from common, and about one time in eight from rare."""
    return _RARELY.flatmap(lambda r: rare if r else common)


_WEIGHTS = _mostly(st.integers(0, 8), st.integers(COEFF_MAX_WEIGHT + 1, 10**40)).map(str)
_SIZES = _mostly(st.integers(0, 6), st.integers(MODEL_MAX_WEIGHT, 10**40)).map(str)
_RATIONALS = _mostly(
    st.fractions(min_value=0, max_value=50, max_denominator=50),
    st.fractions(min_value=-50, max_value=0, max_denominator=50) | st.integers(-(10**40), 10**40),
).map(str)
_ATOMS = _mostly(
    st.integers(0, 6).map("hp:{}".format) | st.integers(0, 24).map("s:{}".format),
    st.integers(MODEL_MAX_WEIGHT + 1, 10**40).map("hp:{}".format)
    | st.integers(4 * MODEL_MAX_WEIGHT + 1, 10**40).map("s:{}".format),
)
_DESCRIPTORS = _ATOMS | st.lists(_ATOMS, max_size=3).map(lambda a: "product:" + ",".join(a))
_REPORTS = st.lists(
    st.sampled_from(["pontryagin", "signature", "ahat", "volume", "", " "]), max_size=4
).map(",".join)
_FORMAT = ("--format", st.sampled_from(["text", "json"]))
_SERIES = ("--series", st.sampled_from(["L", "Ahat"]))
_PARAMS = [
    ("--n", _SIZES),
    ("--A", _RATIONALS),
    ("--B", _RATIONALS),
    ("--C", _RATIONALS),
    ("--lambda", _RATIONALS),
    _FORMAT,
]
FLAGS = {
    "coeff": [_SERIES, ("--weight", _WEIGHTS), _FORMAT],
    "genus": [_SERIES, ("--weight", _WEIGHTS), _FORMAT],
    "manifold": [("--descriptor", _DESCRIPTORS), ("--report", _REPORTS), _FORMAT],
    "pontryagin": _PARAMS,
    "surgery": _PARAMS,
    "solve-bundle": [("--n", _SIZES), ("--require-section", None), _FORMAT],
}
_COMMANDS = _mostly(st.sampled_from(sorted(FLAGS)), st.sampled_from(["frobnicate", "Ahat"]) | HOSTILE)
_STRAYS = st.sampled_from(["--unknown", "--", "-x", "--lam", "--weight", "stray"]) | HOSTILE


@st.composite
def argvs(draw):
    command = draw(_COMMANDS)
    argv = [command]
    for flag, values in draw(st.permutations(FLAGS.get(command, [_FORMAT]))):
        if draw(_RARELY):
            continue  # leave the flag out, required or not
        if values is None:
            argv.append(flag)
            continue
        value = draw(HOSTILE if draw(_RARELY) else values)
        if draw(_RARELY):
            argv.append(flag)  # its value goes missing
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if draw(_RARELY):
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAYS))
    return argv


@SETTINGS
@given(argvs())
def test_every_argv_succeeds_or_fails_with_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        assert err == ""
    else:
        assert status == 2
        assert out == ""
        assert err.startswith("genuscalc: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
