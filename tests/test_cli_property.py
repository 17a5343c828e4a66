"""Property: no argument list makes ``rhetor`` print a traceback.

Each drawn argument list gives valid values to all its flags but one, the
probe, which may take any value: an empty string, a comma, a blank, a
non-number, a bad layer or node name, a missing file, a directory, or a
fixture of the wrong kind.  Every subcommand and flag is covered.  Depths
stay at most 2 and accepted widths stay inside their caps, so a run stays
fast.  A successful json call must print strict JSON: no ``NaN`` or
``Infinity``.
"""
import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rhetor import errors
from rhetor.capacity import MAX_WIDTH
from rhetor.cli import FORMATS, main
from rhetor.entropy import MAX_ENTROPY_WIDTH

FIXTURES = Path(__file__).parent / "fixtures"
LESSON = str(FIXTURES / "lesson_nature_of_memory.rma")
LESSON_MAP = str(FIXTURES / "lesson_map.json")
REGISTRY = str(FIXTURES / "extension_registry.json")

BROKEN = ["", " ", ",", "x", "1.5", "-1", "0"]
FILES = ["", " ", str(FIXTURES / "no-such-file.json"), str(FIXTURES),
         *(str(path) for path in sorted(FIXTURES.iterdir()))]
NODES = ["", " ", ",", ":", "C:", ":observe", "X:observe", "C:nonesuch", "nonesuch"]
PROFILES = ["", " ", "bogus"]
# Floats that parse but are not finite, or overflow once divided.
NON_REALS = ["nan", "inf", "-inf", "1e400", "1e308", "1e-320"]

# Per subcommand: flag -> (valid values, other values), or None for a
# switch.  "FILE" is analyze's positional argument; leaving it out is a
# usage error like any other.
OPTIONS = {
    "tables": {"--max-k": (["1", "7", "30", str(MAX_WIDTH)], BROKEN + [str(MAX_WIDTH + 1)])},
    "capacity": {
        "--k": (["1", "14", str(MAX_WIDTH)], BROKEN + [str(MAX_WIDTH + 1)]),
        "--ln": (["0.5", "1", "2.5"], BROKEN + NON_REALS),
        "--c0": (["0.5", "1"], BROKEN + NON_REALS),
        "--used": (["0", "5", "14"], BROKEN + ["10000000000"]),
    },
    "entropy": {
        "--k": (["1", "18", "200"], BROKEN + [str(MAX_ENTROPY_WIDTH + 1)]),
        "--layers": (["4,4", "2, 3,2"], BROKEN + [",,", "4, x", "0,3", "2,1001"]),
        "--flat": (["18", "20"], BROKEN + [str(MAX_ENTROPY_WIDTH + 1)]),
    },
    "derive": {
        "--ops": (["split", "fb,ortho", "unite", "split,unite,fb,expand,reduce,ortho"],
                  BROKEN + [", ,", "merge", "split,merge", "unite,,"]),
        "--depth": (["1", "2"], BROKEN),
        "--rules": ([], FILES),
        "--atoms-only-base": None,
        "--registry": ([REGISTRY], FILES),
    },
    "map": {
        "--profile": (["default", "academic-writing"], PROFILES),
        "--file": ([], FILES),
        "--realizers": (["C:observe", "c: Observe", "E:teaching-learning", "R:narration"],
                        NODES),
        "--compose": (["knowledge-formation", "communication"], NODES),
        "--stats": None,
        "--registry": ([REGISTRY], FILES),
    },
    "analyze": {
        "FILE": ([LESSON], FILES),
        "--k": (["7", "30", "1000"], BROKEN),
        "--map": ([LESSON_MAP], FILES),
        "--profile": (["default", "academic-writing"], PROFILES),
        "--registry": ([REGISTRY], FILES),
    },
    "cone": {"--schedule": ([], FILES),
             "--c0": (["0.5", "1"], BROKEN + ["nan", "inf", "1e308", "1e-320"])},
}

ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, errors.RhetorError)}

# How a successful ``map`` call starts, by query: the first column header in
# table and csv output, the opening bracket in json.
MAP_OUTPUT_START = {"--realizers": ("id", "["), "--compose": ("mode", "["),
                    "--stats": ("layer", "{"), None: ("layer", "{")}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    probe = draw(st.sampled_from(sorted(options)))
    rest = sorted(set(options) - {probe})
    others = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    argv = [command]
    for flag in [probe, *others]:
        if options[flag] is None:
            argv.append(flag)
            continue
        valid, other = options[flag]
        if flag == probe:
            # Half the probes are empty, as from an unset shell variable.
            value = draw(st.one_of(st.just(""), st.sampled_from(valid + other)))
        elif valid:
            value = draw(st.sampled_from(valid))
        else:
            continue
        argv += [value] if flag == "FILE" else [flag, value]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(FORMATS))]
    return argv


def _is_json(argv: list[str]) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _check_map_output(argv: list[str], out: str) -> None:
    query = next((flag for flag in MAP_OUTPUT_START if flag in argv), None)
    header, bracket = MAP_OUTPUT_START[query]
    if _is_json(argv):
        assert out[0] == bracket, argv
    else:
        assert re.split("[ ,\n]", out, maxsplit=1)[0] == header, argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_no_argument_list_gives_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            lines = err.getvalue().splitlines()
            assert lines[0].startswith("usage:") and lines[-1].startswith("rhetor"), argv
            assert "error:" in lines[-1], argv
            return
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
        if _is_json(argv):
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        if argv[0] == "map":
            _check_map_output(argv, out.getvalue())
    elif code == 1:
        assert err.getvalue().split(":")[0] in ERROR_CLASSES, argv
    else:
        assert err.getvalue().split()[0] == "error:", argv
