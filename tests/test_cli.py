import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rhetor
from rhetor.cli import main


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("RHETOR_REGISTRY", raising=False)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestTables:
    def test_golden_csv(self, capsys, golden_table_path):
        code, out, err = run(capsys, "tables", "--max-k", "30", "--format", "csv")
        assert code == 0
        assert out == golden_table_path.read_text()

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-k", "1", "--format", "csv")
        assert code == 0
        assert out == "K,k_m,K_max,K_NRC\n1,0,1,1\n"

    def test_zero_width_is_usage_error(self, capsys):
        code, _, err = run(capsys, "tables", "--max-k", "0")
        assert code == 2
        assert "outside" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables")
        assert code == 2

    def test_non_integer_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables", "--max-k", "many")
        assert code == 2

    def test_json_parses(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-k", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["K_NRC"] for r in rows] == [1, 3, 7, 15, 31]


class TestCapacity:
    def test_csv_record(self, capsys):
        code, out, _ = run(capsys, "capacity", "--k", "14", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "K,k_m,K_max,K_NRC,K_RC,MRB"
        assert lines[1].startswith("14,7,3432,16383,")

    def test_capital_flag_spelling(self, capsys):
        lower = run(capsys, "capacity", "--k", "20", "--format", "csv")
        upper = run(capsys, "capacity", "--K", "20", "--format", "csv")
        assert lower == upper

    def test_growth_fields(self, capsys):
        code, out, _ = run(capsys, "capacity", "--k", "14", "--ln", "0.5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["growth"]["load_class"] == "subcritical"
        assert payload["growth"]["R_scale"] == 0.5

    def test_coverage_fields(self, capsys):
        code, out, _ = run(capsys, "capacity", "--k", "20", "--used", "14",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coverage"]["C_m"] == 0.7
        assert payload["coverage"]["band"] == "high"

    def test_load_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, "capacity", "--k", "5", "--ln", "1e308",
                             "--c0", "1e-10", "--format", "json")
        assert (code, out) == (1, "")
        assert err.split(":")[0] == "BadCapacity"

    def test_used_above_width_is_domain_error(self, capsys):
        code, _, err = run(capsys, "capacity", "--k", "10", "--used", "11")
        assert code == 1
        assert err.split(":")[0] == "BadCount"

    def test_width_cap_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "capacity", "--k", "121")
        assert code == 2


class TestEntropy:
    def test_flat_width_18(self, capsys):
        code, out, _ = run(capsys, "entropy", "--k", "18", "--format", "csv")
        assert code == 0
        header, values = out.splitlines()
        record = dict(zip(header.split(","), values.split(",")))
        assert record["H_flat"] == "4.1699"
        assert record["H_subset"] == "3.1316"

    def test_subset_width_7(self, capsys):
        code, out, _ = run(capsys, "entropy", "--k", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["H_subset"] == pytest.approx(2.399471, abs=1e-6)

    def test_layered_report(self, capsys):
        code, out, _ = run(capsys, "entropy", "--k", "20", "--layers", "4,4",
                           "--flat", "20", "--format", "csv")
        assert code == 0
        assert out == ("stage,branching,H\n"
                       "L1,4,1.8062\n"
                       "L2,4,1.8062\n"
                       "flat,20,3.2077\n"
                       "max_stage,,1.8062\n"
                       "sum_stage,,3.6125\n")

    def test_layers_without_flat_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "entropy", "--k", "20", "--layers", "4,4")
        assert code == 2

    def test_zero_branching_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "entropy", "--k", "20", "--layers", "0,4",
                         "--flat", "20")
        assert code == 2

    def test_width_above_cap_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "entropy", "--k", "1001")
        assert code == 2

    def test_logspace_width_allowed(self, capsys):
        code, out, _ = run(capsys, "entropy", "--k", "500", "--format", "json")
        assert code == 0
        assert json.loads(out)["K"] == 500


class TestDerive:
    def test_reversals(self, capsys):
        code, out, _ = run(capsys, "derive", "--ops", "fb", "--depth", "1",
                           "--format", "csv")
        assert code == 0
        body = out.splitlines()[1:]
        assert "1,forward_backward,exemplification,generalization,false" in body
        assert "1,forward_backward,division,combination,false" in body

    def test_unite_base_atoms(self, capsys):
        code, out, _ = run(capsys, "derive", "--ops", "unite", "--depth", "1",
                           "--atoms-only-base", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 21

    def test_split_rows(self, capsys):
        code, out, _ = run(capsys, "derive", "--ops", "split", "--depth", "1",
                           "--format", "csv")
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 7
        assert all(line.endswith("true") for line in body)

    def test_full_unite(self, capsys):
        code, out, _ = run(capsys, "derive", "--ops", "unite", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 210

    def test_deterministic(self, capsys):
        first = run(capsys, "derive", "--depth", "2", "--format", "json")
        second = run(capsys, "derive", "--depth", "2", "--format", "json")
        assert first == second
        json.loads(first[1])

    def test_registry_flag_extends_universe(self, capsys, extension_registry_path):
        code, out, _ = run(capsys, "derive", "--ops", "unite", "--registry",
                           str(extension_registry_path), "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 231

    def test_registry_env_var(self, capsys, monkeypatch, extension_registry_path):
        monkeypatch.setenv("RHETOR_REGISTRY", str(extension_registry_path))
        code, out, _ = run(capsys, "derive", "--ops", "unite", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 231

    def test_invalid_registry_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not registry"')
        code, _, err = run(capsys, "derive", "--registry", str(bad))
        assert code == 1
        assert err.split(":")[0] == "ParseError"

    def test_missing_registry_file(self, capsys):
        code, _, _ = run(capsys, "derive", "--registry", "/no/such/file.json")
        assert code == 2

    def test_directory_as_registry(self, capsys, tmp_path):
        code, _, err = run(capsys, "derive", "--registry", str(tmp_path))
        assert code == 2
        assert err.split()[0] == "error:"

    def test_unknown_operator_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "derive", "--ops", "merge")
        assert code == 2

    def test_zero_depth_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "derive", "--depth", "0")
        assert code == 2

    @pytest.mark.parametrize("ops", [",", " "], ids=["comma", "blank"])
    def test_empty_operator_list_is_usage_error(self, capsys, ops):
        code, out, err = run(capsys, "derive", "--ops", ops)
        assert code == 2
        assert out == ""
        assert "--ops needs at least one operator" in err


class TestMap:
    def test_edge_listing(self, capsys):
        code, out, _ = run(capsys, "map", "--format", "csv")
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 46 + 34
        assert "C,observe,narration" in body
        assert "E,teaching-learning,reflect" in body

    def test_realizers(self, capsys):
        code, out, _ = run(capsys, "map", "--realizers", "C:observe",
                           "--format", "csv")
        assert code == 0
        ids = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert ids == ["description", "evidence", "exemplification", "narration"]

    def test_compose(self, capsys):
        code, out, _ = run(capsys, "map", "--compose", "knowledge-formation",
                           "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 10

    def test_stats(self, capsys):
        code, out, _ = run(capsys, "map", "--stats", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["C_max"] == 5
        assert payload["E_max"] == 6
        assert payload["C_mean"] == pytest.approx(46 / 14)

    def test_academic_profile(self, capsys):
        code, out, _ = run(capsys, "map", "--profile", "academic-writing",
                           "--stats", "--format", "json")
        assert code == 0
        assert json.loads(out)["E_max"] == 1

    def test_mapping_file_round_trip(self, capsys, tmp_path):
        code, default_doc, _ = run(capsys, "map", "--format", "json")
        assert code == 0
        mapping = tmp_path / "mapping.json"
        mapping.write_text(default_doc)
        code, reloaded, _ = run(capsys, "map", "--file", str(mapping),
                                "--format", "json")
        assert code == 0
        assert json.loads(reloaded) == json.loads(default_doc)

    def test_unknown_profile(self, capsys):
        code, _, err = run(capsys, "map", "--profile", "bogus")
        assert code == 1
        assert err.split(":")[0] == "UnknownProfile"

    def test_profile_beside_a_mapping_file_is_refused(self, capsys, tmp_path):
        """The file names its own profile, so a second one is refused."""
        mapping = tmp_path / "mapping.json"
        mapping.write_text('{"profile": "mine", "c_nodes": [{"id": "c", "modes": ["narration"]}]}')
        code, out, err = run(capsys, "map", "--profile", "academic-writing",
                             "--file", str(mapping))
        assert (code, out) == (1, "")
        assert err.split(":")[0] == "UnknownProfile"

    def test_unknown_node(self, capsys):
        code, _, err = run(capsys, "map", "--realizers", "C:nonesuch")
        assert code == 1
        assert err.split(":")[0] == "UnknownNode"

    @pytest.mark.parametrize("flag", ["--compose", "--realizers"])
    def test_empty_node_name_is_unknown_node(self, capsys, flag):
        code, out, err = run(capsys, "map", flag, "")
        assert code == 1
        assert out == ""
        assert err.split(":")[0] == "UnknownNode"

    def test_actions_mutually_exclusive(self, capsys):
        code, _, _ = run(capsys, "map", "--stats", "--compose", "communication")
        assert code == 2


class TestAnalyze:
    def test_coverage_record(self, capsys, lesson_path):
        code, out, _ = run(capsys, "analyze", str(lesson_path), "--format", "csv")
        assert code == 0
        header, values = out.splitlines()
        record = dict(zip(header.split(","), values.split(",")))
        assert record["doc"] == "lesson-nature-of-memory"
        assert record["K_u"] == "14"
        assert record["C_m"] == "0.7000"
        assert record["band"] == "high"

    def test_explicit_width(self, capsys, lesson_path):
        code, out, _ = run(capsys, "analyze", str(lesson_path), "--k", "28",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["coverage"]["C_m"] == 0.5

    def test_trace(self, capsys, lesson_path, lesson_map_path):
        code, out, _ = run(capsys, "analyze", str(lesson_path), "--map",
                           str(lesson_map_path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        stages = {s["stage"]: s for s in payload["trace"]["stages"]}
        assert stages["Part I"]["mismatch"] == []
        assert stages["Part II"]["mismatch"] == [
            "classification", "contrast", "description", "effect"]
        assert stages["Part III"]["mismatch"] == ["problem"]
        assert payload["trace"]["e_ids"] == ["teaching-learning"]

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "analyze", "/no/such/lesson.rma")
        assert code == 2

    def test_directory_as_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert err.split()[0] == "error:"

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.rma"
        bad.write_bytes(b"doc t\nstage S\nseg | caf\xe9\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err.split(":")[0] == "ParseError"
        assert "line 3" in err

    def test_width_beyond_capacity_cap(self, capsys, lesson_path):
        code, out, _ = run(capsys, "analyze", str(lesson_path), "--k", "1000",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["coverage"]["C_m"] == 0.014

    def test_zero_width_is_usage_error(self, capsys, lesson_path):
        code, _, _ = run(capsys, "analyze", str(lesson_path), "--k", "0")
        assert code == 2

    def test_parse_error_names_error_first(self, capsys, tmp_path):
        bad = tmp_path / "bad.rma"
        bad.write_text("doc t\nstage S\nseg | nosuchmode\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err.split(":")[0] == "UnknownMode"
        assert "line 3" in err

    def test_width_below_usage_is_domain_error(self, capsys, lesson_path):
        code, _, err = run(capsys, "analyze", str(lesson_path), "--k", "13")
        assert code == 1
        assert err.split(":")[0] == "BadCount"


class TestCone:
    def test_default_schedule_csv(self, capsys):
        code, out, _ = run(capsys, "cone", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "stage,K,K_NRC,K_RC,R_scale,R_scale_norm"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("KG,2,3,")
        assert lines[-1].startswith("Graduate,20,1048575,")

    def test_custom_schedule(self, capsys, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"stages": [
            {"name": "a", "K": 4, "duration": 2},
            {"name": "b", "K": 10, "duration": 3}]}))
        code, out, _ = run(capsys, "cone", "--schedule", str(sched),
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["K_NRC"] for r in rows] == [15, 1023]

    def test_decreasing_schedule_is_domain_error(self, capsys, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps({"stages": [
            {"name": "a", "K": 5}, {"name": "b", "K": 3}]}))
        code, _, err = run(capsys, "cone", "--schedule", str(sched))
        assert code == 1
        assert err.split(":")[0] == "BadSchedule"

    def test_load_overflow_is_domain_error(self, capsys):
        code, out, err = run(capsys, "cone", "--c0", "1e-320", "--format", "json")
        assert (code, out) == (1, "")
        assert err.split(":")[0] == "BadCapacity"

    def test_missing_schedule_file(self, capsys):
        code, _, _ = run(capsys, "cone", "--schedule", "/no/such/file.json")
        assert code == 2


class TestJsonOutputs:
    @pytest.mark.parametrize("argv", [
        ("tables", "--max-k", "10"),
        ("capacity", "--k", "20", "--ln", "1.0", "--used", "5"),
        ("entropy", "--k", "14"),
        ("entropy", "--k", "20", "--layers", "4,4", "--flat", "20"),
        ("derive", "--ops", "split,fb"),
        ("map",),
        ("map", "--stats"),
        ("map", "--profile", "academic-writing"),
        ("cone",),
    ])
    def test_parses_as_json(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        json.loads(out)

    def test_analyze_parses_as_json(self, capsys, lesson_path, lesson_map_path):
        code, out, _ = run(capsys, "analyze", str(lesson_path), "--map",
                           str(lesson_map_path), "--format", "json")
        assert code == 0
        json.loads(out)

    def test_csv_outputs_stable(self, capsys):
        for argv in (("tables", "--max-k", "12"), ("map",), ("cone",)):
            first = run(capsys, *argv, "--format", "csv")
            second = run(capsys, *argv, "--format", "csv")
            assert first == second


@pytest.mark.parametrize("env, argv, message", [
    (None, ("entropy", "--k", "20", "--layers", "4,4"), "--layers requires --flat"),
    (None, ("entropy", "--k", "20", "--layers", "x", "--flat", "20"),
     "--layers needs comma-separated integers, got 'x'"),
    (None, ("entropy", "--k", "20", "--layers", ",", "--flat", "20"),
     "--layers needs at least one branching factor"),
    (None, ("entropy", "--k", "20", "--layers", "0,4", "--flat", "20"),
     "--layers value 0 is outside 1..1000"),
    (None, ("derive", "--ops", "merge"), "unknown operator kind 'merge'"),
    (None, ("derive", "--ops", ","), "--ops needs at least one operator"),
    ("", ("derive",), "RHETOR_REGISTRY is set but empty"),
], ids=["layers-without-flat", "layers-not-integers", "layers-empty", "layers-range",
        "ops-unknown", "ops-empty", "empty-registry-variable"])
def test_usage_error_names_its_subcommand(capsys, monkeypatch, env, argv, message):
    """A usage error the command raises itself prints that command's usage,
    as argparse does for a bad flag."""
    if env is not None:
        monkeypatch.setenv("RHETOR_REGISTRY", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: rhetor {argv[0]} [-h]")
    assert err.splitlines()[-1] == f"rhetor {argv[0]}: error: {message}"


class TestFileArguments:
    @pytest.mark.parametrize("argv", [
        ("derive", "--registry", ""),
        ("derive", "--rules", ""),
        ("map", "--file", ""),
        ("analyze", "LESSON", "--map", ""),
        ("analyze", ""),
        ("cone", "--schedule", ""),
    ], ids=["registry", "rules", "map-file", "analyze-map", "analyze-file", "schedule"])
    def test_empty_file_name_is_usage_error(self, capsys, lesson_path, argv):
        argv = [str(lesson_path) if a == "LESSON" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "empty string" in err

    def test_empty_registry_variable_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("RHETOR_REGISTRY", "")
        code, out, err = run(capsys, "derive")
        assert code == 2
        assert out == ""
        assert "RHETOR_REGISTRY" in err


def test_closed_stdout_pipe_exits_quietly():
    src = str(Path(rhetor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("RHETOR_REGISTRY", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rhetor.cli", "tables", "--max-k", "120", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
