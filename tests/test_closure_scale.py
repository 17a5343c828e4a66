"""scripts/closure_scale.py's probe at two small sizes: every documented key."""
import gc
import importlib.util
import json
from pathlib import Path

import pytest

from rhetor import canon

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "closure_scale.py"
_spec = importlib.util.spec_from_file_location("closure_scale", SCRIPT)
closure_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(closure_scale)


def test_returns_every_documented_key():
    result = json.loads(json.dumps(closure_scale.probe((24, 12), 1)))
    assert set(result) == {"python", "sizes", "runs", "us_per_derivation", "ratio", "gc_cost"}
    assert result["sizes"] == [12, 24] and result["runs"] == 1
    assert set(result["us_per_derivation"]) == set(result["ratio"]) == {"gc_on", "gc_off"}
    for key in ("gc_on", "gc_off"):
        assert set(result["us_per_derivation"][key]) == {"12", "24"}
        assert all(us > 0 for us in result["us_per_derivation"][key].values())
        assert set(result["ratio"][key]) == {"24/12"}
    us = result["us_per_derivation"]
    assert set(result["gc_cost"]) == {"12", "24"}
    for n, cost in result["gc_cost"].items():
        assert cost == pytest.approx(us["gc_on"][n] - us["gc_off"][n], abs=1e-3)
    assert gc.isenabled()


def test_atom_ids_are_distinct_canonical_ids():
    ids = closure_scale.atom_ids(800)
    assert len(set(ids)) == 800
    assert all(canon(i) == i and "-" not in i for i in ids)
