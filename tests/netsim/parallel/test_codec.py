"""Tests for cross-partition packet serialization
(:mod:`repro.netsim.parallel.codec`)."""

import pytest

from repro.core.channel import Channel
from repro.core.ecmp.messages import Count, CountQuery, EcmpBatch, decode_message
from repro.core.network import ExpressNetwork
from repro.errors import CodecError
from repro.netsim.packet import Packet
from repro.netsim.topology import TopologyBuilder
from repro.netsim.parallel.codec import (
    EXIT_FRAME,
    FRAME_ERROR,
    FRAME_EXIT,
    FRAME_GRANT,
    FRAME_READY,
    FRAME_REPORT,
    FRAME_RESULT,
    FRAME_RESULT_REQ,
    RESULT_REQ_FRAME,
    _FLAG_EXTRA,
    _HEAD,
    _decode_spanctx,
    _encode_spanctx,
    decode_frame,
    decode_packet,
    encode_error,
    encode_grant,
    encode_packet,
    encode_ready,
    encode_report,
    encode_result,
)
from repro.obs.hooks import SPAN_HEADER
from repro.obs.tracing import SpanContext, shard_id_base

CHANNEL = Channel(source=0x0A000001, group=0xE8000005)


def roundtrip(packet: Packet) -> Packet:
    return decode_packet(encode_packet(packet))


class TestRoundTrip:
    def test_plain_fields(self):
        packet = Packet(
            src=0x0A000001, dst=0xE8000005, proto="data",
            size=1356, ttl=17, created_at=1.25,
        )
        out = roundtrip(packet)
        assert (out.src, out.dst, out.proto) == (packet.src, packet.dst, "data")
        assert (out.size, out.ttl) == (1356, 17)
        assert out.created_at == 1.25
        assert out.payload is None and out.headers == {}

    def test_ecmp_message_uses_wire_codec(self):
        message = Count(channel=CHANNEL, count_id=1, count=7)
        packet = Packet(
            src=1 << 24, dst=2 << 24, proto="ecmp",
            headers={"ecmp": message, "reliable": True},
        )
        out = roundtrip(packet)
        assert out.headers["ecmp"] == message
        assert out.headers["reliable"] is True

    def test_ecmp_batch_crosses_as_msg_batch(self):
        batch = EcmpBatch(messages=(
            Count(channel=CHANNEL, count_id=1, count=3),
            CountQuery(channel=CHANNEL, count_id=2, timeout=1.5),
        ))
        packet = Packet(src=1, dst=2, proto="ecmp", headers={"ecmp": batch})
        out = roundtrip(packet)
        assert out.headers["ecmp"] == batch

    def test_wire_format_payload_rides_the_ecmp_slot(self):
        # A wire_format=True agent puts the encoded message in the
        # packet payload, not in headers["ecmp"]; it must still cross
        # as raw ECMP bytes rather than through the pickle fallback.
        topo = TopologyBuilder.isp(
            n_transit=2, stubs_per_transit=1, hosts_per_stub=1
        )
        net = ExpressNetwork(topo, wire_format=True)
        sent = []
        host = topo.node("h1_0_0")
        host.interfaces[0].link.capture = (
            lambda link, sender, packet, arrival: sent.append(packet)
        )
        channel = net.source("h0_0_0").allocate_channel()
        net.host("h1_0_0").subscribe(channel)
        net.settle()
        packet = next(p for p in sent if p.proto == "ecmp")
        assert "ecmp" not in packet.headers
        assert isinstance(packet.payload, bytes)
        assert isinstance(decode_message(packet.payload), Count)

        data = encode_packet(packet)
        flags = _HEAD.unpack(data[: _HEAD.size])[3]
        assert not flags & _FLAG_EXTRA
        assert len(data) == _HEAD.size + len("ecmp") + len(packet.payload)
        out = decode_packet(data)
        assert out.payload == packet.payload
        assert isinstance(out.payload, bytes)
        assert "ecmp" not in out.headers
        assert out.headers["reliable"] is True

    def test_extra_headers_and_payload_fall_back_to_pickle(self):
        inner = Packet(src=9, dst=8, proto="data", size=100)
        packet = Packet(
            src=1, dst=2, proto="ipip", payload=inner,
            headers={"span": ("trace", 42), "hops": 3},
        )
        out = roundtrip(packet)
        assert out.headers["span"] == ("trace", 42)
        assert out.headers["hops"] == 3
        assert out.payload.src == 9 and out.payload.proto == "data"

    def test_uid_is_not_preserved(self):
        packet = Packet(src=1, dst=2)
        out = roundtrip(packet)
        assert out.uid != packet.uid


class TestSpanContext:
    """Trace contexts cross the cut as a compact struct block, not a
    pickle blob — the carrier of cross-shard trace stitching."""

    def test_single_context_roundtrips(self):
        ctx = SpanContext(trace_id=shard_id_base(1) + 7, span_id=shard_id_base(1) + 9)
        packet = Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                     SPAN_HEADER: ctx},
        )
        out = roundtrip(packet)
        assert out.headers[SPAN_HEADER] == ctx
        assert isinstance(out.headers[SPAN_HEADER], SpanContext)

    def test_batch_context_list_with_absences(self):
        contexts = [
            SpanContext(trace_id=1, span_id=2),
            None,
            SpanContext(trace_id=shard_id_base(3) + 1, span_id=shard_id_base(3) + 2),
        ]
        packet = Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                     SPAN_HEADER: contexts},
        )
        out = roundtrip(packet)
        assert out.headers[SPAN_HEADER] == contexts

    def test_spanctx_avoids_pickle_fallback(self):
        """A packet whose only extra header is the span context must
        not grow a pickle section (flags bit 0x08 unset)."""
        bare = encode_packet(Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1)},
        ))
        with_ctx = encode_packet(Packet(
            src=1, dst=2, proto="ecmp",
            headers={"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                     SPAN_HEADER: SpanContext(trace_id=1, span_id=2)},
        ))
        # kind(1) + count(2) + present(1) + trace_id(8) + span_id(8)
        assert len(with_ctx) - len(bare) == 20

    def test_truncated_block_rejected(self):
        block = _encode_spanctx(SpanContext(trace_id=1, span_id=2))
        with pytest.raises(CodecError, match="truncated"):
            _decode_spanctx(block[:-3])

    def test_trailing_bytes_rejected(self):
        block = _encode_spanctx([SpanContext(trace_id=1, span_id=2)])
        with pytest.raises(CodecError, match="framing"):
            _decode_spanctx(block + b"\x00")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError, match="kind"):
            _decode_spanctx(b"\x07\x00\x00")


class TestStrictness:
    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_packet(b"\x00\x01")

    def test_trailing_bytes_rejected(self):
        data = encode_packet(Packet(src=1, dst=2))
        with pytest.raises(CodecError, match="framing"):
            decode_packet(data + b"\x00")

    def test_short_body_rejected(self):
        data = encode_packet(Packet(src=1, dst=2, proto="data"))
        with pytest.raises(CodecError, match="framing"):
            decode_packet(data[:-1])

    def test_overlong_proto_rejected(self):
        packet = Packet(src=1, dst=2, proto="x" * 300)
        with pytest.raises(CodecError, match="proto label"):
            encode_packet(packet)

    def test_encode_does_not_mutate_headers(self):
        headers = {"ecmp": Count(channel=CHANNEL, count_id=1, count=1),
                   "reliable": True}
        packet = Packet(src=1, dst=2, proto="ecmp", headers=headers)
        encode_packet(packet)
        assert set(packet.headers) == {"ecmp", "reliable"}


class TestSyncFrames:
    """The coordinator/worker control-frame protocol (struct-packed,
    zero pickle except the off-hot-path RESULT and telemetry blob)."""

    def _export(self, seq=7):
        packet = Packet(src=1, dst=2, proto="data")
        return (1.25, 0, seq, 1, "core_1", 3, encode_packet(packet))

    def test_ready_roundtrip(self):
        kind, body = decode_frame(encode_ready(2.5, 11))
        assert kind == FRAME_READY
        assert body == (2.5, 11)

    def test_grant_roundtrip(self):
        record = self._export()
        frame = encode_grant([1.5, 2.5, 4.0], [record], True)
        kind, (ladder, imports, final) = decode_frame(frame)
        assert kind == FRAME_GRANT
        assert ladder == [1.5, 2.5, 4.0]
        assert final
        assert imports == [record]
        _, (ladder, imports, final) = decode_frame(encode_grant([9.0], [], False))
        assert ladder == [9.0] and imports == [] and not final

    def test_report_roundtrip(self):
        record = self._export(seq=42)
        frame = encode_report(
            [3.0, 4.5], 5, 17, [record], finalized=False, stalled=True
        )
        kind, body = decode_frame(frame)
        assert kind == FRAME_REPORT
        next_times, windows, dispatched, exports, finalized, stalled, blob = body
        assert next_times == [3.0, 4.5]
        assert (windows, dispatched) == (5, 17)
        assert exports == [record]
        assert not finalized and stalled and blob is None

    def test_report_carries_telemetry_blob(self):
        import pickle

        blob = pickle.dumps({"snapshot": 1})
        frame = encode_report([1.0], 1, 0, [], True, False, telemetry=blob)
        _, body = decode_frame(frame)
        assert body[-1] == {"snapshot": 1}

    def test_result_and_error(self):
        kind, body = decode_frame(encode_result({"events": 3}))
        assert kind == FRAME_RESULT and body == {"events": 3}
        kind, body = decode_frame(encode_error("boom"))
        assert kind == FRAME_ERROR and body == "boom"

    def test_bodyless_control_frames(self):
        assert decode_frame(RESULT_REQ_FRAME) == (FRAME_RESULT_REQ, None)
        assert decode_frame(EXIT_FRAME) == (FRAME_EXIT, None)

    def test_truncated_frames_rejected(self):
        good = encode_report([1.0, 2.0], 3, 4, [self._export()], True, False)
        for cut in (1, len(good) // 2, len(good) - 1):
            with pytest.raises(CodecError):
                decode_frame(good[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_frame(encode_ready(1.0, 2) + b"\x00")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError, match="kind"):
            decode_frame(b"\xff")
