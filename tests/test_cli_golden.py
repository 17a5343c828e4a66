"""Byte-exact stdout of every subcommand in every format, and the error contract.

The expected output lives in ``fixtures/cli_golden.json``, keyed by case
id.  An ``error/<case>`` entry holds an error call's exit status and its
stderr: all of it on exit 1, only the last line on exit 2, because argparse
wraps the usage lines to the terminal width.  After a deliberate output
change, regenerate it with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rhetor.cli import _emit, build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
LESSON = str(FIXTURES / "lesson_nature_of_memory.rma")
LESSON_MAP = str(FIXTURES / "lesson_map.json")
EMPTY_SCHEDULE = str(FIXTURES / "empty_schedule.json")

CASES = {
    "tables": ["tables", "--max-k", "12"],
    "capacity": ["capacity", "--k", "14"],
    "capacity-growth-coverage": ["capacity", "--k", "20", "--ln", "1.0", "--used", "5"],
    "entropy": ["entropy", "--k", "18"],
    "entropy-layered": ["entropy", "--k", "20", "--layers", "4,4", "--flat", "20"],
    "entropy-wide": ["entropy", "--k", "500"],
    "derive": ["derive", "--ops", "split,fb", "--depth", "2"],
    "derive-empty": ["derive", "--ops", "split", "--atoms-only-base"],
    "map": ["map"],
    "map-realizers": ["map", "--realizers", "C:observe"],
    "map-compose": ["map", "--compose", "knowledge-formation"],
    "map-stats": ["map", "--stats"],
    "map-academic": ["map", "--profile", "academic-writing"],
    "analyze": ["analyze", LESSON],
    "analyze-map": ["analyze", LESSON, "--map", LESSON_MAP],
    "cone": ["cone"],
    "cone-empty": ["cone", "--schedule", EMPTY_SCHEDULE],
}
ERROR_CASES = {
    "capacity-used-above-width": ["capacity", "--k", "10", "--used", "11"],
    "map-unknown-purpose": ["map", "--compose", "no-such-purpose"],
    "tables-width-out-of-range": ["tables", "--max-k", "0"],
    "entropy-layers-without-flat": ["entropy", "--k", "20", "--layers", "4,4"],
    "analyze-missing-file": ["analyze", "missing.rma"],
}
FORMATS = ("table", "csv", "json")


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _error(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert out.getvalue() == ""
    if code == 1:
        return {"exit": code, "stderr": err.getvalue()}
    return {"exit": code, "stderr_last_line": err.getvalue().splitlines()[-1]}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case, fmt, monkeypatch):
    monkeypatch.delenv("RHETOR_REGISTRY", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _stdout(CASES[case] + ["--format", fmt]) == golden[f"{case}/{fmt}"]


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_cli_error_matches_golden(case, monkeypatch):
    monkeypatch.delenv("RHETOR_REGISTRY", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _error(ERROR_CASES[case]) == golden[f"error/{case}"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_returns_what_main_renders(case, capsys, monkeypatch):
    """A command writes nothing; rendering its result gives the golden bytes."""
    monkeypatch.delenv("RHETOR_REGISTRY", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for fmt in FORMATS:
        args = build_parser().parse_args(CASES[case] + ["--format", fmt])
        result = args.func(args, args.parser)
        assert capsys.readouterr().out == ""
        assert isinstance(result, tuple)
        _emit(fmt, *result)
        assert capsys.readouterr().out == golden[f"{case}/{fmt}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {**{f"{case}/{fmt}": _stdout(argv + ["--format", fmt])
            for case, argv in sorted(CASES.items()) for fmt in FORMATS},
         **{f"error/{case}": _error(argv) for case, argv in ERROR_CASES.items()}},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
