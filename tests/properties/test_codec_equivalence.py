"""Golden-frame tests: the zero-copy codec reproduces the concatenating
codec it replaced — same frames out, same objects and same error
messages back in, for every message shape and every corruption.

``data/codec_golden.json`` was captured from the concatenating codec
(``pack`` + ``bytes`` concatenation, per-record slicing on decode) at
commit a6ebcc6, its last revision. It covers every message type —
unkeyed and keyed Counts, plain and proactive CountQueries, every
CountResponse status — one-record and mixed batches, every truncation
point of every frame, trailing bytes, all 256 type bytes, batch-header
and field corruptions, and each encode-side error. Outcomes are
compared as ``("ok", re-encoded hex)`` or ``("err", class name,
message)``, so a changed error class or string fails as surely as a
changed byte.
"""

import json
from pathlib import Path

from repro.core.channel import Channel
from repro.core.ecmp.messages import (
    MAX_BATCH_RECORDS,
    Count,
    CountQuery,
    CountResponse,
    CountStatus,
    EcmpBatch,
    decode_batch,
    decode_message,
    encode_batch,
    encode_message,
)
from repro.core.keys import ChannelKey
from repro.core.proactive import ToleranceCurve
from repro.errors import ReproError

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "codec_golden.json").read_text()
)


def build(spec: dict):
    """The message a golden ``message`` entry describes."""
    channel = Channel.of(spec["source"], spec["suffix"])
    if spec["type"] == "count":
        key = ChannelKey(bytes.fromhex(spec["key"])) if spec["key"] else None
        return Count(
            channel=channel, count_id=spec["count_id"], count=spec["count"], key=key
        )
    if spec["type"] == "query":
        curve = ToleranceCurve(*spec["curve"]) if spec["curve"] else None
        return CountQuery(
            channel=channel,
            count_id=spec["count_id"],
            timeout=spec["timeout_ms"] / 1000.0,
            proactive=curve,
        )
    return CountResponse(
        channel=channel, count_id=spec["count_id"], status=CountStatus(spec["status"])
    )


MESSAGES = [build(entry["message"]) for entry in GOLDEN["messages"]]


def outcome(fn, *args) -> list:
    """``["ok", frame hex]`` or ``["err", class, message]``, as captured.

    Catches every library error, not just ``CodecError``: corrupt bytes
    can surface as e.g. ``CountIdError`` from a message constructor,
    and the captured class and text must both match.
    """
    try:
        result = fn(*args)
    except ReproError as exc:
        return ["err", type(exc).__name__, str(exc)]
    if isinstance(result, (bytes, bytearray)):
        return ["ok", bytes(result).hex()]
    if isinstance(result, list):
        return ["ok", encode_batch(result).hex()]
    return ["ok", encode_message(result).hex()]


def test_corpus_covers_every_shape():
    kinds = {
        (type(m).__name__, bool(getattr(m, "key", None) or getattr(m, "proactive", None)))
        for m in MESSAGES
    }
    assert kinds == {
        ("Count", False), ("Count", True),
        ("CountQuery", False), ("CountQuery", True),
        ("CountResponse", False),
    }
    statuses = {m.status for m in MESSAGES if isinstance(m, CountResponse)}
    assert statuses == set(CountStatus)
    assert any(len(b["records"]) == 1 for b in GOLDEN["batches"])
    assert any(len(b["records"]) > 3 for b in GOLDEN["batches"])


class TestEncodeEquivalence:
    def test_single_frames_byte_identical(self):
        for message, entry in zip(MESSAGES, GOLDEN["messages"]):
            assert encode_message(message).hex() == entry["frame"], message

    def test_batch_frames_byte_identical(self):
        for entry in GOLDEN["batches"]:
            batch = [MESSAGES[i] for i in entry["records"]]
            assert encode_batch(batch).hex() == entry["frame"]
            assert encode_message(EcmpBatch(messages=tuple(batch))).hex() == entry["frame"]

    def test_empty_batch_same_error(self):
        assert outcome(encode_batch, []) == GOLDEN["encode_errors"]["empty_batch"]

    def test_non_message_same_error(self):
        assert outcome(encode_message, "nope") == GOLDEN["encode_errors"]["non_message"]

    def test_unencodable_timeout_same_error(self):
        query = MESSAGES[10]
        bad = CountQuery(channel=query.channel, count_id=query.count_id, timeout=2**33)
        assert outcome(encode_message, bad) == GOLDEN["encode_errors"]["unencodable_timeout"]

    def test_oversized_batch_same_error(self):
        oversized = [MESSAGES[0]] * (MAX_BATCH_RECORDS + 1)
        assert outcome(encode_batch, oversized) == GOLDEN["encode_errors"]["oversized_batch"]


class TestDecodeEquivalence:
    def test_round_trips_agree(self):
        for message, entry in zip(MESSAGES, GOLDEN["messages"]):
            assert decode_message(bytes.fromhex(entry["frame"])) == message

    def test_batch_round_trips_agree(self):
        for entry in GOLDEN["batches"]:
            frame = bytes.fromhex(entry["frame"])
            batch = [MESSAGES[i] for i in entry["records"]]
            assert decode_batch(frame) == batch
            assert decode_message(frame) == EcmpBatch(messages=tuple(batch))

    def test_truncations_raise_identical_errors(self):
        for entry in GOLDEN["messages"]:
            frame = bytes.fromhex(entry["frame"])
            got = [outcome(decode_message, frame[:cut]) for cut in range(len(frame))]
            assert got == entry["truncations"]

    def test_trailing_bytes_raise_identical_errors(self):
        for entry in GOLDEN["messages"]:
            frame = bytes.fromhex(entry["frame"])
            got = [
                outcome(decode_message, frame + tail)
                for tail in (b"\x00", b"\xff\xff", bytes(8))
            ]
            assert got == entry["trailing"]

    def test_corrupted_batches_raise_identical_errors(self):
        for entry in GOLDEN["batches"]:
            frame = bytes.fromhex(entry["frame"])
            got = [
                [outcome(decode_batch, frame[:cut]), outcome(decode_message, frame[:cut])]
                for cut in range(len(frame))
            ]
            assert got == entry["truncations"]
            got = [outcome(decode_batch, frame + tail) for tail in (b"\x00", b"\x01\x02\x03")]
            assert got == entry["trailing"]
        for entry in GOLDEN["batch_header_corruptions"]:
            frame = bytes.fromhex(entry["frame"])
            assert outcome(decode_batch, frame) == entry["decode_batch"]

    def test_unknown_type_bytes_raise_identical_errors(self):
        got = [outcome(decode_message, bytes([byte]) + bytes(11)) for byte in range(256)]
        assert got == GOLDEN["unknown_types"]

    def test_field_corruptions_raise_identical_errors(self):
        for entry in GOLDEN["field_corruptions"]:
            frame = bytes.fromhex(entry["frame"])
            assert outcome(decode_message, frame) == entry["decode_message"]

    def test_fast_decode_accepts_memoryview(self):
        for message, entry in zip(MESSAGES, GOLDEN["messages"]):
            view = memoryview(bytes.fromhex(entry["frame"]))
            assert decode_message(view) == message
            assert outcome(decode_message, view[:-1]) == entry["truncations"][-1]


class TestNestedBatch:
    def test_nested_batch_same_error(self):
        nested = [EcmpBatch(messages=(MESSAGES[0],))]
        assert outcome(encode_batch, nested) == GOLDEN["encode_errors"]["nested_batch"]
        assert outcome(encode_batch, nested) == ["err", "CodecError", "batches cannot nest"]
