"""Manifest parsing: every malformed document is a ManifestError."""

import json

import pytest

from tftb.errors import ManifestError
from tftb.manifest import FIELD_TYPES, RunManifest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)
VALID = json.loads(RunManifest(mode="tftb", seed=1, config={}, dataset={}).to_json())


@hypothesis.given(st.text() | JSON_VALUES.map(json.dumps))
def test_arbitrary_text_parses_or_raises_manifest_error(text):
    try:
        manifest = RunManifest.from_json(text)
    except ManifestError:
        return
    assert manifest.to_json() == RunManifest.from_json(manifest.to_json()).to_json()


@hypothesis.given(st.sets(st.sampled_from(sorted(FIELD_TYPES)), min_size=1))
def test_a_manifest_missing_required_fields_is_rejected(missing):
    payload = {k: v for k, v in VALID.items() if k not in missing}
    with pytest.raises(ManifestError, match="manifest field"):
        RunManifest.from_json(json.dumps(payload))


@hypothesis.given(st.sampled_from(sorted(FIELD_TYPES)), JSON_VALUES)
def test_a_manifest_field_of_the_wrong_type_is_rejected(key, value):
    wanted = FIELD_TYPES[key]
    hypothesis.assume(not isinstance(value, wanted) or isinstance(value, bool))
    with pytest.raises(ManifestError, match=repr(key)):
        RunManifest.from_json(json.dumps({**VALID, key: value}))


@pytest.mark.parametrize("text", ["[]", "null", "3", '"manifest"', '{"schema_version": 1}',
                                  '{"schema_version": true}', '{"schema_version": 1.0}'])
def test_non_object_and_incomplete_documents_are_rejected(text):
    with pytest.raises(ManifestError):
        RunManifest.from_json(text)


def test_the_valid_document_round_trips():
    assert RunManifest.from_json(json.dumps(VALID)).to_json() == json.dumps(
        VALID, indent=2, sort_keys=True) + "\n"
