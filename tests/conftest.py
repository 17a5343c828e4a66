import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rhetor import default_registry, default_rules, load_pyramid, parse_document

FIXTURES = Path(__file__).parent / "fixtures"

# Every run draws the same examples and stores none, so property tests
# cannot flake the suite.  What hypothesis still writes (its constants
# cache) goes to a directory removed when the session ends, not the checkout.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="rhetor-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def rules():
    return default_rules()


@pytest.fixture(scope="session")
def graph():
    return load_pyramid()


@pytest.fixture(scope="session")
def lesson_path() -> Path:
    return FIXTURES / "lesson_nature_of_memory.rma"


@pytest.fixture(scope="session")
def lesson(lesson_path):
    return parse_document(lesson_path)


@pytest.fixture(scope="session")
def lesson_map_path() -> Path:
    return FIXTURES / "lesson_map.json"


@pytest.fixture(scope="session")
def golden_table_path() -> Path:
    return FIXTURES / "capacity_table_golden.csv"


@pytest.fixture(scope="session")
def extension_registry_path() -> Path:
    return FIXTURES / "extension_registry.json"


@pytest.fixture(scope="session")
def expected_edges() -> dict:
    return json.loads((FIXTURES / "pyramid_edges.json").read_text())


def pytest_sessionfinish(session, exitstatus):
    _HYPOTHESIS_HOME.cleanup()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion, driven by test outcomes."""
    lines = []
    for outcome, verdict in (("passed", "PASS"), ("failed", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid and report.when == "call":
                lines.append((report.nodeid.split("::")[-1], verdict))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"[{verdict}] {name}")
