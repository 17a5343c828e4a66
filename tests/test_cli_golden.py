"""Byte-exact stdout of every subcommand in every format.

The expected output lives in ``fixtures/cli_golden.json``, keyed by case
id.  After a deliberate output change, regenerate it with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rhetor.cli import main

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
FORMATS = ("table", "csv", "json")


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case, fmt, monkeypatch):
    monkeypatch.delenv("RHETOR_REGISTRY", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _stdout(CASES[case] + ["--format", fmt]) == golden[f"{case}/{fmt}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {f"{case}/{fmt}": _stdout(argv + ["--format", fmt])
         for case, argv in sorted(CASES.items()) for fmt in FORMATS},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
