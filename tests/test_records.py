"""The serving records keep the frozen-dataclass contract.

``Request``, ``RequestMetrics`` and ``RunningInfo`` are frozen slots
dataclasses built once per request (and per running request per
preemption sweep).  Each declares ``init=False`` and a hand-written
``__init__`` that stores every field through its slot descriptor
(``workload.slot_setters``) rather than the generated
``object.__setattr__`` calls; ``Request``'s checks run in that
``__init__``.  These tests pin what callers rely on from a dataclass:
the constructor's signature, field round trips, ``dataclasses.replace``
(which re-runs the checks), ``FrozenInstanceError`` on assigning or
deleting any name, equality and hashing, pickling and deep copies, no
instance ``__dict__``, and every ``Request`` error message.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from repro.serving import Request, RequestMetrics, RunningInfo

REQUEST = dict(
    request_id=7, arrival_ms=1.25, prompt_tokens=80, output_tokens=33, slo_ms=4475.0,
    prefix_id="tenant-3", prefix_tokens=64, deadline_ms=9000.5,
)
RECORDS = {
    "Request": (Request, REQUEST),
    "RequestMetrics": (RequestMetrics, dict(
        request_id=7, arrival_ms=1.25, scheduled_ms=2.5, first_token_ms=3.75,
        finish_ms=40.0, prompt_tokens=80, output_tokens=33, slo_ms=4475.0,
        deadline_ms=9000.5,
    )),
    "RunningInfo": (RunningInfo, dict(
        request=Request(**REQUEST), admitted_ms=3.5, blocks_held=4,
    )),
}
NAMES = sorted(RECORDS)


def _build(name):
    cls, values = RECORDS[name]
    return cls(**values)


@pytest.mark.parametrize("name", NAMES)
def test_signature_lists_the_fields_in_order_with_their_defaults(name):
    cls, _ = RECORDS[name]
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default, p.kind) for p in parameters] == [
        (
            field.name,
            inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
        for field in dataclasses.fields(cls)
    ]


@pytest.mark.parametrize("name", NAMES)
def test_every_field_round_trips(name):
    cls, values = RECORDS[name]
    record = cls(**values)
    assert {field.name: getattr(record, field.name) for field in dataclasses.fields(cls)} == values
    assert cls(*values.values()) == record
    assert dataclasses.asdict(record) == dataclasses.asdict(cls(**values))


def test_defaults_fill_the_optional_fields():
    request = Request(3, 0.5, 8, 4, 1e4)
    assert (request.prefix_id, request.prefix_tokens, request.deadline_ms) == (None, 0, None)
    metrics = RequestMetrics(3, 0.5, 1.0, 2.0, 3.0, 8, 4, 1e4)
    assert metrics.deadline_ms is None


@pytest.mark.parametrize("name", NAMES)
def test_replace_builds_through_the_constructor(name):
    record = _build(name)
    field = dataclasses.fields(record)[1]
    changed = dataclasses.replace(record, **{field.name: 99.5})
    assert getattr(changed, field.name) == 99.5 and changed != record
    assert dataclasses.replace(changed, **{field.name: getattr(record, field.name)}) == record


def test_replace_reruns_the_request_checks():
    request = Request(**REQUEST)
    with pytest.raises(ValueError, match=r"^request 7: prompt/output token counts"):
        dataclasses.replace(request, prompt_tokens=0)
    with pytest.raises(ValueError, match=r"^request_id must be an integer >= 0, got -2$"):
        dataclasses.replace(request, request_id=-2)
    with pytest.raises(ValueError, match=r"^request 7: prefix_tokens must be in"):
        dataclasses.replace(request, prefix_tokens=81)


@pytest.mark.parametrize("name", NAMES)
def test_assigning_a_field_raises(name):
    record = _build(name)
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field.name)
    # Nor can a record gain or lose any other name: the records share one
    # refusing __setattr__/__delattr__ (workload.frozen_record), where
    # the frozen slots dataclass's own raises TypeError.
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'extra'$"):
        del record.extra
    assert record == _build(name)


@pytest.mark.parametrize("name", NAMES)
def test_equal_records_compare_and_hash_equal(name):
    first, second = _build(name), _build(name)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    record = _build(name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert restored == record and type(restored) is type(record)
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@pytest.mark.parametrize("name", NAMES)
def test_records_store_their_fields_in_slots(name):
    cls, _ = RECORDS[name]
    record = _build(name)
    assert not hasattr(record, "__dict__")
    assert cls.__slots__ == tuple(field.name for field in dataclasses.fields(cls))
    assert cls.__match_args__ == cls.__slots__


# --------------------------------------------------------------------------- #
# Request ids
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("request_id", [-1, 1.5, True, "3", None, np.int64(-4)], ids=repr)
def test_request_id_must_be_a_non_negative_integer(request_id):
    # A replica's prefix store books its entries in the requests' block
    # pool under the negative ids, so a negative request id would share
    # an entry's holding.
    message = rf"^request_id must be an integer >= 0, got {re.escape(repr(request_id))}$"
    with pytest.raises(ValueError, match=message):
        Request(request_id, 0.0, 8, 4, 1e4)


@pytest.mark.parametrize("request_id", [0, 12, np.int64(5), np.uint8(200)], ids=repr)
def test_request_ids_may_be_any_non_negative_integer(request_id):
    assert Request(request_id, 0.0, 8, 4, 1e4).request_id == request_id


# --------------------------------------------------------------------------- #
# Error messages, unchanged since the checks were written
# --------------------------------------------------------------------------- #
BAD_REQUESTS = [
    (dict(prompt_tokens=0), "request 0: prompt/output token counts must be >= 1, got 0/4"),
    (dict(output_tokens=-3), "request 0: prompt/output token counts must be >= 1, got 8/-3"),
    (dict(prompt_tokens=20.5), "request 0: prompt_tokens must be an integer, got 20.5"),
    (dict(output_tokens=True), "request 0: output_tokens must be an integer, got True"),
    (
        dict(prefix_id="p", prefix_tokens=4.0),
        "request 0: prefix_tokens must be an integer, got 4.0",
    ),
    (
        dict(arrival_ms=-1.5),
        "request 0: need finite arrival_ms >= 0 and slo_ms > 0, "
        "got arrival_ms=-1.5, slo_ms=10000.0",
    ),
    (
        dict(arrival_ms=math.nan),
        "request 0: need finite arrival_ms >= 0 and slo_ms > 0, "
        "got arrival_ms=nan, slo_ms=10000.0",
    ),
    (
        dict(slo_ms=math.inf),
        "request 0: need finite arrival_ms >= 0 and slo_ms > 0, got arrival_ms=0.0, slo_ms=inf",
    ),
    (
        dict(prefix_id="p", prefix_tokens=0),
        "request 0: prefix_tokens must be in [1, prompt_tokens] when prefix_id is set, "
        "got 0 of 8",
    ),
    (
        dict(prefix_id="p", prefix_tokens=9),
        "request 0: prefix_tokens must be in [1, prompt_tokens] when prefix_id is set, "
        "got 9 of 8",
    ),
    (dict(prefix_tokens=2), "request 0: prefix_tokens without a prefix_id"),
    (
        dict(deadline_ms=math.inf),
        "request 0: deadline_ms (inf) must be finite and after arrival_ms (0.0)",
    ),
    (
        dict(arrival_ms=5.0, deadline_ms=5.0),
        "request 0: deadline_ms (5.0) must be finite and after arrival_ms (5.0)",
    ),
]


@pytest.mark.parametrize("changes, message", BAD_REQUESTS, ids=lambda v: str(v)[:40])
def test_request_error_messages_are_unchanged(changes, message):
    values = dict(request_id=0, arrival_ms=0.0, prompt_tokens=8, output_tokens=4, slo_ms=1e4)
    with pytest.raises(ValueError) as raised:
        Request(**{**values, **changes})
    assert str(raised.value) == message
