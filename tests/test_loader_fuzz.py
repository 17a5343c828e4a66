"""Every loader turns any input, however broken, into a domain error or a value."""
import json

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    ParseError,
    RhetorError,
    load_pyramid,
    load_registry,
    load_rules,
    load_schedule,
    load_stage_map,
    parse_document,
)

LOADERS = {
    "registry": load_registry,
    "rules": load_rules,
    "mapping": lambda source: load_pyramid(source=source),
    "stage map": load_stage_map,
    "schedule": load_schedule,
    "annotation": parse_document,
}

# Field names of every document kind, so generated JSON reaches the field checks.
FIELDS = ("modes", "aliases", "version", "id", "display_name", "arity", "constituents",
          "origin", "operator", "inputs", "description", "reversal", "scale",
          "orthogonal", "profile", "c_nodes", "e_nodes", "cognitive", "stages", "stage",
          "c", "e", "name", "K", "duration")
NAMES = st.sampled_from(("narration", "cause", "effect", "cause-effect", "observe",
                         "teaching-learning", "base", "generated", "atomic", "diatomic",
                         "Part I")) | st.text(max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | NAMES
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4),
                                     inner, max_size=5)),
    max_leaves=24)
RMA_LINES = st.builds("{} {}".format,
                      st.sampled_from(("doc", "declared_K", "stage", "seg", "seg 2", "#", "")),
                      st.text(max_size=20) | NAMES | st.integers().map(str))
SOURCES = (st.text()
           | JSON_VALUES.map(json.dumps)
           | st.lists(RMA_LINES, max_size=8).map("\n".join)
           | st.binary(max_size=64))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(LOADERS)), source=SOURCES)
def test_loaders_raise_only_domain_errors(scratch_file, kind, source):
    """Text is loaded as given; bytes are loaded from a file."""
    if isinstance(source, bytes):
        scratch_file.write_bytes(source)
        source = scratch_file
    try:
        LOADERS[kind](source)
    except RhetorError:
        pass


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "long-int"])
@pytest.mark.parametrize("kind", sorted(set(LOADERS) - {"annotation"}))
def test_json_beyond_parser_limits(kind, text):
    with pytest.raises(ParseError):
        LOADERS[kind](text)
