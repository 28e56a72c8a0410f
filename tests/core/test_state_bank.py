"""The downstream record's create and remove points.

``StateBank.alloc`` and ``StateBank.release`` are where the protocol
creates and explicitly removes a :class:`DownstreamRecord`; the repo
benchmark (``perfbench/layers.py``) times the two by wrapping them on
the class. Every protocol path that adds or drops a record must go
through them, or those timings miss work.
"""

from repro import make_key
from repro.core.ecmp.countids import SUBSCRIBER_ID
from repro.core.ecmp.messages import CountResponse, CountStatus
from repro.core.ecmp.state import StateBank
from repro.core.keys import ChannelKey
from tests.conftest import make_channel


def live_records(net) -> int:
    return sum(
        len(state.downstream)
        for agent in net.ecmp_agents.values()
        for state in agent.channels.values()
    )


def test_alloc_minus_release_is_the_live_record_count(isp_net, monkeypatch):
    calls = {"alloc": 0, "release": 0}

    def wrap(name):
        # As the benchmark does: the raw class attribute, called with
        # the caller's arguments.
        original = StateBank.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(StateBank, name, wrapper)

    wrap("alloc")
    wrap("release")
    net = isp_net
    src, ch = make_channel(net, "h0_0_0")
    key = make_key(ch)
    src.channel_key(ch, key)

    def check():
        net.settle()
        assert calls["alloc"] - calls["release"] == live_records(net)

    member = net.host("h1_0_0").subscribe(ch, key=key)
    check()
    assert member.status == "active"
    assert calls["alloc"] > 0

    # A wrong key waits for the upstream verdict, then rolls back.
    released = calls["release"]
    wrong = net.host("h1_1_0").subscribe(ch, key=ChannelKey(b"badbadba"))
    check()
    assert wrong.status == "denied"
    assert calls["release"] > released

    # An unmatched denial (as when a re-homing join is refused): the
    # upstream rejects an open-channel join it already confirmed, so
    # the edge and the host tear down their newest keyless record.
    open_ch = src.allocate_channel()
    viewer = net.host("h2_0_0").subscribe(open_ch)
    check()
    assert viewer.status == "active"
    upstream = net.ecmp_agents["e2_0"].channels[open_ch].upstream
    released = calls["release"]
    net.ecmp_agents[upstream]._send_message(
        CountResponse(open_ch, SUBSCRIBER_ID, CountStatus.INVALID_AUTHENTICATOR), "e2_0"
    )
    check()
    assert viewer.status == "denied"
    assert calls["release"] == released + 2

    released = calls["release"]
    net.host("h1_0_0").unsubscribe(ch)
    check()
    assert calls["release"] > released
    assert not any(ch in agent.channels for agent in net.ecmp_agents.values())
