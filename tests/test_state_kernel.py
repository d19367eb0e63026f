"""The state kernel writes what the generic encoder writes, byte for byte.

The state kernel, ``serialize._encode_state`` (called through
``encode_state`` in ``tests/_oracles.py``), spells a frozen
``ObjectState`` / ``RelationshipState`` as canonical JSON straight from
its fields; every
``txn`` and ``version`` record and every image fragment is joined from
its bytes. The oracle is the dict codec through the one encoder,
``RecordFile.encode(state_to_dict(kind, state))``, and for an image
member ``RecordFile.encode(_object_record(obj))`` /
``RecordFile.encode(_relationship_record(rel))``. The generated states
reach where the kernel could diverge: quotes, backslashes, control and
non-ASCII characters, U+10FFFF and lone surrogates in every string;
``None``, booleans, negative and huge integers, ``-0.0``, ``1e300``,
NaN and infinities and dates as values; empty and long lists.

``RecordFile.encode`` itself now calls one module-level encoder instead
of ``json.dumps``; it is pinned against ``json.dumps`` over generated
JSON values.
"""

from __future__ import annotations

import datetime
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import encode_state
from repro.core.errors import StorageError
from repro.core.objects import ObjectState
from repro.core.relationships import RelationshipState
from repro.core.storage import RecordFile
from repro.core.storage.serialize import (
    _encode_state,
    _member,
    _object_record,
    _relationship_record,
    _unspliced,
    state_to_dict,
)

SPECIAL = [
    "", '"', "\\", '\\"', "\x00", "\x1f", "\x7f", "é", " ", "\U0010FFFF",
    "\ud800", "\udfff", '"\ud83d', ',"oid":1', ',"rid":1', '{"$date":"x"}',
]
texts = st.one_of(
    st.sampled_from(SPECIAL),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=12),
)
ids = st.integers(min_value=0, max_value=2**40)
integers = st.one_of(st.integers(), st.sampled_from([-1, 0, 2**64, -(2**70), 10**30]))
values = st.one_of(
    st.none(),
    st.booleans(),
    integers,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 0.1]),
    st.dates(),
    texts,
)
object_states = st.builds(
    ObjectState,
    class_name=texts,
    name=texts,
    index=st.one_of(st.none(), integers),
    parent_oid=st.one_of(st.none(), ids),
    value=values,
    deleted=st.booleans(),
    is_pattern=st.booleans(),
    inherited_pattern_oids=st.lists(ids, max_size=40).map(tuple),
)
relationship_states = st.builds(
    RelationshipState,
    association_name=texts,
    bindings=st.lists(st.tuples(texts, ids), max_size=12).map(tuple),
    attributes=st.lists(st.tuples(texts, values), max_size=12).map(tuple),
    deleted=st.booleans(),
    is_pattern=st.booleans(),
)
item_states = st.one_of(
    st.tuples(st.just("o"), object_states),
    st.tuples(st.just("r"), relationship_states),
)


@settings(max_examples=400, deadline=None)
@given(item_states)
def test_the_kernel_writes_the_generic_encoders_bytes(item):
    kind, state = item
    assert encode_state(kind, state) == RecordFile.encode(state_to_dict(kind, state))


@settings(max_examples=300, deadline=None)
@given(item_states, ids)
def test_the_spliced_member_is_the_image_record(item, item_id):
    kind, state = item
    blob, split = _encode_state(kind, state)
    member = _member(kind, item_id, blob, split)
    if kind == "o":
        record = _object_record(SimpleNamespace(oid=item_id, freeze=lambda: state))
    else:
        record = _relationship_record(SimpleNamespace(rid=item_id, freeze=lambda: state))
    assert member == RecordFile.encode(record)
    assert _unspliced(kind, item_id, member) == blob


def test_true_is_true_not_one():
    state = ObjectState("Data", "D", 1, None, True, True, False, (1, 2))
    blob = encode_state("o", state)
    assert b'"value":true' in blob and b'"deleted":true' in blob
    assert b'"index":1' in blob and b"True" not in blob
    assert json.loads(blob)["value"] is True
    relationship = RelationshipState("Write", (("to", 1),), (("N", False),), False, True)
    assert encode_state("r", relationship) == RecordFile.encode(
        state_to_dict("r", relationship)
    )


@pytest.mark.parametrize(
    "value", [object(), datetime.datetime(1986, 2, 5), [1], {"a": 1}, b"x"]
)
def test_an_unserialisable_value_is_refused_like_the_dict_codec(value):
    state = ObjectState("Data", "D", None, None, value, False, False, ())
    with pytest.raises(StorageError, match="cannot serialise"):
        state_to_dict("o", state)
    with pytest.raises(StorageError, match="cannot serialise"):
        encode_state("o", state)


json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), integers,
        st.floats(allow_nan=True, allow_infinity=True), texts,
    ),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_the_cached_encoder_writes_what_json_dumps_writes(value):
    assert RecordFile.encode(value) == json.dumps(
        value, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
