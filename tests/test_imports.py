"""What a call loads, and the lazily loaded package namespace.

The load checks run in fresh interpreters, because this test process has
already imported every module.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhetor

SRC = str(Path(rhetor.__file__).resolve().parent.parent)
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Modules that building the parser and the capacity and entropy commands
# never use; only entropy_flat, which no command calls, loads numbers.
UNUSED_BY_LIGHT_CALLS = ("rhetor.registry", "rhetor.operators", "rhetor.pyramid",
                         "rhetor.documents", "difflib", "statistics", "numbers")

# Modules no call loads: rhetor.records builds every record class, and
# dataclasses would also load inspect, ast, dis and tokenize.
NEVER_LOADED = ("dataclasses", "inspect")

PUBLIC_NAMES = set("""
ACADEMIC_PROFILE AcademicFunction AnnotatedDocument BadCapacity BadComposition
BadConstituent BadCount BadDistribution BadEdge BadIndex BadRuleSet BadSchedule
BranchingStats CapacityReport ConeRow CoverageReport DEFAULT_PROFILE Derivation
DualityRuleSet DuplicateMode EmptySegment EntropyReport GrowthParams
IntervalRate LayerNode LayerTrace LayeredEntropyReport MAX_ENTROPY_WIDTH
MAX_WIDTH MRB Mode NoDual NotAtomic NotDiatomic NotEnoughStages OPERATOR_KINDS
Origin OutOfRange ParseError PyramidGraph Registry RhetorError RriEstimate
Segment SelfUnite StageMapping StageSchedule StageStep StageTrace UnknownMode
UnknownNode UnknownProfile UnmappedStage academic_function_examples
analyze_coverage asymptotic_subset_entropy base_atoms
branching_stats canon capacity capacity_ratio capacity_table closure
compose_academic compose_re cone coverage coverage_band default_registry
default_rules default_schedule entropy_flat entropy_layered entropy_subset_sizes
estimate_rri expand forward_backward growth load_pyramid load_registry
load_rules load_schedule load_stage_map orthogonal parse_document reduce
serialize_document serialize_pyramid serialize_registry serialize_rules
serialize_schedule split subset_entropy_exact subset_entropy_logspace
trace_layers uniform unite
""".split())


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports rhetor from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("RHETOR_REGISTRY", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set[str]:
    return set(_fresh(code + "\nimport sys\nprint(' '.join(sys.modules))").split())


@pytest.mark.parametrize("code", [
    "import rhetor.cli",
    *(f"import contextlib, io\nfrom rhetor.cli import main\n"
      f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
      for argv in (["tables", "--max-k", "12"],
                   ["tables", "--max-k", "12", "--format", "csv"],
                   ["capacity", "--k", "14", "--ln", "1", "--used", "5"],
                   ["entropy", "--k", "18"],
                   ["entropy", "--k", "20", "--layers", "4,4", "--flat", "20",
                    "--format", "csv"],
                   ["tables", "--max-k", "12", "--format", "json"],
                   ["capacity", "--k", "14", "--ln", "1", "--used", "5", "--format", "json"],
                   ["entropy", "--k", "18", "--format", "json"])),
], ids=["import", "tables", "tables-csv", "capacity", "entropy", "entropy-layered-csv",
        "tables-json", "capacity-json", "entropy-json"])
def test_light_calls_load_no_unused_module(code):
    loaded = _loaded_after(code)
    assert "rhetor.cli" in loaded
    assert loaded.isdisjoint(UNUSED_BY_LIGHT_CALLS), loaded & set(UNUSED_BY_LIGHT_CALLS)
    assert loaded.isdisjoint(NEVER_LOADED), loaded & set(NEVER_LOADED)


# The exact rhetor modules each subcommand loads, beyond the five every call
# loads.
LOADED_BY_SUBCOMMAND = [
    (["tables", "--max-k", "12"], ""),
    (["capacity", "--k", "14"], ""),
    (["entropy", "--k", "18"], ""),
    (["derive", "--ops", "split,fb", "--depth", "2"], "jsontext operators registry"),
    (["map"], "jsontext pyramid registry"),
    (["analyze", str(FIXTURES / "lesson_nature_of_memory.rma")],
     "documents jsontext pyramid registry"),
    *((["cone", *schedule, "--format", fmt], "jsontext schedule")
      for schedule in ([], ["--schedule", str(FIXTURES / "empty_schedule.json")])
      for fmt in ("table", "csv", "json")),
]


@pytest.mark.parametrize("argv, extra", LOADED_BY_SUBCOMMAND,
                         ids=["-".join(a.lstrip("-") for a in argv if not a.startswith("/"))
                              for argv, _ in LOADED_BY_SUBCOMMAND])
def test_each_subcommand_loads_exactly_its_modules(argv, extra):
    loaded = _loaded_after(f"import contextlib, io\nfrom rhetor.cli import main\n"
                           f"with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main({argv!r}) == 0")
    want = {f"rhetor.{m}" for m in f"capacity cli entropy errors records {extra}".split()}
    assert {m for m in loaded if m.startswith("rhetor.")} == want
    assert loaded.isdisjoint(NEVER_LOADED), loaded & set(NEVER_LOADED)


def test_map_file_loads_neither_dataclasses_nor_inspect(tmp_path):
    from rhetor import DEFAULT_PROFILE, load_pyramid, serialize_pyramid
    mapping = tmp_path / "mapping.json"
    mapping.write_text(serialize_pyramid(load_pyramid(DEFAULT_PROFILE)), encoding="utf-8")
    argv = ["map", "--file", str(mapping), "--format", "json"]
    loaded = _loaded_after(f"import contextlib, io\nfrom rhetor.cli import main\n"
                           f"with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    assert main({argv!r}) == 0")
    assert "rhetor.pyramid" in loaded
    assert loaded.isdisjoint(NEVER_LOADED), loaded & set(NEVER_LOADED)


def test_schedule_names_live_only_in_the_schedule_module():
    import rhetor.documents
    import rhetor.schedule
    names = {n for n, module in rhetor._SUBMODULE.items() if module == "schedule"}
    assert names == {"ConeRow", "StageSchedule", "StageStep", "cone", "default_schedule",
                     "load_schedule", "serialize_schedule"}
    assert all(hasattr(rhetor.schedule, n) for n in names)
    assert not any(hasattr(rhetor.documents, n) for n in names)


def test_import_loads_submodules_on_first_use():
    loaded = _loaded_after("import rhetor")
    assert "rhetor.pyramid" not in loaded
    assert loaded.isdisjoint(NEVER_LOADED), loaded & set(NEVER_LOADED)
    assert "rhetor.pyramid" in _loaded_after("import rhetor\nrhetor.load_pyramid")


def test_public_names_are_unchanged():
    assert set(rhetor.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves_in_a_fresh_interpreter():
    loaded = _loaded_after("import rhetor\nfor name in rhetor.__all__:\n    getattr(rhetor, name)")
    assert loaded.isdisjoint(NEVER_LOADED), loaded & set(NEVER_LOADED)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rhetor import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_capacity_stays_the_function_after_importing_its_module():
    assert _fresh("import rhetor.capacity, rhetor\n"
                  "print(callable(rhetor.capacity), rhetor.capacity(4).K)").split() == [
        "True", "4"]


def test_dir_lists_all_and_every_public_name():
    assert "__all__" in dir(rhetor)
    assert PUBLIC_NAMES <= set(dir(rhetor))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonesuch"):
        rhetor.nonesuch
    assert not hasattr(rhetor, "nonesuch")
