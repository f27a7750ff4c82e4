import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from ospsim import harness


# ------------------------------------------------------------------ framing

payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

messages = st.builds(
    harness.Message,
    session=st.text(max_size=20),
    seq=st.integers(0, 2**31),
    role=st.sampled_from(harness.ROLES),
    kind=st.text(min_size=1, max_size=16),
    payload=payloads,
)


@given(messages)
@settings(max_examples=400, deadline=None)
def test_frame_roundtrip(msg):
    again = harness.frame_decode(harness.frame_encode(msg))
    assert again == msg


def test_frame_bytes_are_canonical():
    msg = harness.Message("s", 0, "client", "k", {"b": 1, "a": [True, None]})
    encoded = harness.frame_encode(msg)
    length = struct.unpack(">I", encoded[:4])[0]
    body = encoded[4:]
    assert len(body) == length
    text = body.decode("utf-8")
    assert " " not in text
    obj = json.loads(text)
    assert list(obj) == sorted(obj)
    assert obj["payload"] == {"a": [True, None], "b": 1}


def test_frame_decode_rejects_truncation():
    msg = harness.Message("s", 3, "server", "k", {})
    encoded = harness.frame_encode(msg)
    with pytest.raises(harness.FrameError):
        harness.frame_decode(encoded[:-1])
    with pytest.raises(harness.FrameError):
        harness.frame_decode(encoded[:3])
    with pytest.raises(harness.FrameError):
        harness.frame_decode(b"")


def test_frame_decode_rejects_trailing_bytes():
    encoded = harness.frame_encode(harness.Message("s", 0, "client", "k", 1))
    with pytest.raises(harness.FrameError, match="trailing"):
        harness.frame_decode(encoded + b"x")


def test_frame_decode_rejects_bad_json_and_fields():
    body = b"{not json"
    data = struct.pack(">I", len(body)) + body
    with pytest.raises(harness.FrameError, match="JSON"):
        harness.frame_decode(data)
    for obj in (
        [1, 2],
        {"session": "s", "seq": 0, "role": "client", "kind": "k"},
        {"session": "s", "seq": 0, "role": "client", "kind": "k",
         "payload": 0, "extra": 1},
        {"session": "s", "seq": -1, "role": "client", "kind": "k", "payload": 0},
        {"session": "s", "seq": True, "role": "client", "kind": "k", "payload": 0},
        {"session": "s", "seq": 0, "role": "nobody", "kind": "k", "payload": 0},
        {"session": "s", "seq": 0, "role": "client", "kind": "", "payload": 0},
        {"session": 7, "seq": 0, "role": "client", "kind": "k", "payload": 0},
    ):
        body = harness.canonical_json(obj)
        with pytest.raises(harness.FrameError):
            harness.frame_decode(struct.pack(">I", len(body)) + body)


def test_frame_length_cap():
    big = harness.Message("s", 0, "client", "k", "x" * (harness.MAX_FRAME_BYTES))
    with pytest.raises(harness.FrameError, match="cap"):
        harness.frame_encode(big)
    with pytest.raises(harness.FrameError, match="cap"):
        harness.frame_decode(struct.pack(">I", harness.MAX_FRAME_BYTES + 1))


# ----------------------------------------------------------- seed derivation


def test_derive_seed_is_stable_and_labelled():
    a = harness.derive_seed(7, "poq", "client")
    assert a == harness.derive_seed(7, "poq", "client")
    assert 0 <= a < 2**64
    assert a != harness.derive_seed(7, "poq", "server")
    assert a != harness.derive_seed(8, "poq", "client")
    assert a != harness.derive_seed(7, "ot", "client")
    # label boundaries matter: ("ab", "c") is not ("a", "bc")
    assert harness.derive_seed(7, "ab", "c") != harness.derive_seed(7, "a", "bc")


def test_derived_rngs_are_independent_streams():
    r1 = harness.derive_rng(3, "poq", "client")
    r2 = harness.derive_rng(3, "poq", "server")
    assert list(r1.integers(0, 100, 8)) != list(r2.integers(0, 100, 8))


def test_session_id_deterministic():
    assert harness.session_id("poq", 5) == harness.session_id("poq", 5)
    assert harness.session_id("poq", 5) != harness.session_id("poq", 6)
    assert harness.session_id("poq", 5) != harness.session_id("ot", 5)


# ------------------------------------------------------------ local sessions


def test_run_local_poq_outcomes_and_sequencing():
    out = harness.run_local("poq", 11, {"rounds": 3})
    client, server = out["client"], out["server"]
    assert client.outcome["status"] == "complete"
    assert client.outcome["result"]["rounds"] == 3
    assert server.outcome["result"] == {"rounds": 3}
    assert [m.to_dict() for m in client.messages] == \
        [m.to_dict() for m in server.messages]
    for role in harness.ROLES:
        seqs = [m.seq for m in client.messages if m.role == role]
        assert seqs == list(range(len(seqs)))
    kinds = [m.kind for m in client.messages]
    assert kinds[0] == "round-params" and kinds[-1] == "verdict"
    # a mid-session verdict is followed by the next round's parameters
    mid = kinds.index("verdict")
    assert kinds[mid + 1] == "round-params"


def test_run_local_is_replayable():
    first = harness.run_local("ot", 21, {"lam": 3})
    second = harness.run_local("ot", 21, {"lam": 3})
    assert first["client"].to_bytes() == second["client"].to_bytes()
    third = harness.run_local("ot", 22, {"lam": 3})
    assert first["client"].to_bytes() != third["client"].to_bytes()


def test_run_local_rejects_unknowns():
    with pytest.raises(harness.SessionError):
        harness.run_local("nope", 0)
    with pytest.raises(harness.SessionError):
        harness.make_party("poq", "observer", 0)


def test_transcript_save_load_roundtrip(tmp_path):
    tr = harness.run_local("poq", 2, {"rounds": 2})["client"]
    path = tmp_path / "t.json"
    tr.save(path)
    again = harness.Transcript.load(path)
    assert again.to_bytes() == tr.to_bytes()
    assert again.messages[0].kind == "round-params"


# ------------------------------------------------------------- socket runs


def _loopback(protocol, seed, config):
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, protocol, seed, config,
                                         timeout=20.0)

    th = threading.Thread(target=serve)
    th.start()
    client = harness.connect_and_run(protocol, seed, "127.0.0.1", port,
                                     config, timeout=20.0)
    th.join()
    listener.close()
    return client, box["server"]


@pytest.mark.parametrize("protocol,config", [
    ("poq", {"rounds": 4}),
    ("ot", {"lam": 4, "b": 1, "variant": "indistinguishability"}),
])
def test_loopback_matches_in_process(protocol, config):
    seed = 1234
    local = harness.run_local(protocol, seed, config)
    client, server = _loopback(protocol, seed, config)
    assert client.outcome["status"] == "complete"
    assert server.outcome["status"] == "complete"
    assert client.to_bytes() == local["client"].to_bytes()
    assert server.to_bytes() == local["server"].to_bytes()


def test_disconnect_preserves_partial_transcript():
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, "poq", 5, {"rounds": 2},
                                         timeout=10.0)

    th = threading.Thread(target=serve)
    th.start()
    # speak a valid hello, read the server's, then hang up mid-session
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        fh = conn.makefile("rwb")
        harness._send_control(fh, harness._hello(
            "poq", harness.session_id("poq", 5), 5))
        fh.flush()
        harness._recv_control(fh)
        fh.close()  # drop the fd; vanish while the server awaits the turn
    th.join()
    listener.close()
    server = box["server"]
    assert server.outcome["status"] == "disconnected"
    assert server.outcome["result"] is None
    assert server.messages == []


def test_version_mismatch_reported():
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, "poq", 5, {"rounds": 1},
                                         timeout=10.0)

    th = threading.Thread(target=serve)
    th.start()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        fh = conn.makefile("rwb")
        harness._send_control(fh, {"harness": 99, "protocol": "poq",
                                   "session": "x", "seed": 5})
        fh.flush()
    th.join()
    listener.close()
    assert box["server"].outcome["status"] == "error"
    assert "version" in box["server"].outcome["detail"]


def test_timeout_aborts_cleanly():
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, "poq", 5, {"rounds": 1},
                                         timeout=0.3)

    th = threading.Thread(target=serve)
    th.start()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        fh = conn.makefile("rwb")
        harness._send_control(fh, harness._hello(
            "poq", harness.session_id("poq", 5), 5))
        fh.flush()
        harness._recv_control(fh)
        th.join()  # send nothing further; the server should give up
    listener.close()
    assert box["server"].outcome["status"] == "timeout"


def test_out_of_order_seq_is_an_error():
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}
    sid = harness.session_id("poq", 5)

    def serve():
        box["server"] = harness.serve_on(listener, "poq", 5, {"rounds": 1},
                                         timeout=10.0)

    th = threading.Thread(target=serve)
    th.start()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        fh = conn.makefile("rwb")
        harness._send_control(fh, harness._hello("poq", sid, 5))
        fh.flush()
        harness._recv_control(fh)
        bogus = harness.Message(sid, 7, "client", "round-params", {})
        harness._send_turn(fh, [bogus])
        th.join()
    listener.close()
    assert box["server"].outcome["status"] == "error"
    assert "seq" in box["server"].outcome["detail"]


# ------------------------------------------------------------- peer faults

STATUSES = ("complete", "error", "timeout", "disconnected")


def _serve_against(protocol, config, turn, seed=5):
    """Serve one session to a scripted client that sends `turn` and then
    an empty turn, and return the server transcript.

    serve_on must return, whatever the client sent; an exception it
    raises fails the test.
    """
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def serve():
        box["server"] = harness.serve_on(listener, protocol, seed, config,
                                         timeout=5.0)

    th = threading.Thread(target=serve)
    th.start()
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as conn:
            fh = conn.makefile("rwb")
            harness._send_control(fh, harness._hello(
                protocol, harness.session_id(protocol, seed), seed))
            harness._recv_control(fh)
            harness._send_turn(fh, turn)
            harness._send_turn(fh, [])
            try:
                while conn.recv(4096):  # drain until the server hangs up
                    pass
            except OSError:
                pass
            fh.close()
    finally:
        th.join()
        listener.close()
    return box["server"]


@pytest.mark.parametrize("kind,payload,detail", [
    ("bogus", {}, "unexpected message kind 'bogus'"),    # unknown kind
    ("challenge", {}, "KeyError"),                       # missing key
    ("round-params", [1, 2], "TypeError"),               # payload not a dict
], ids=["unknown-kind", "missing-key", "payload-not-a-dict"])
def test_party_fault_ends_the_session_with_error(kind, payload, detail):
    sid = harness.session_id("poq", 5)
    msg = harness.Message(sid, 0, "client", kind, payload)
    server = _serve_against("poq", {"rounds": 1}, [msg])
    assert server.outcome["status"] == "error"
    assert server.outcome["result"] is None
    assert detail in server.outcome["detail"]
    assert server.messages == [msg]


def test_out_of_range_check_set_ends_the_receiver_session():
    """An OT check-set index >= 2 lambda is a peer fault, not a crash."""
    seed, config = 8, {"lam": 4, "b": 1}
    sid = harness.session_id("ot", seed)
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]

    def fake_sender():
        conn, _ = listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            harness._recv_control(fh)
            harness._send_control(fh, harness._hello("ot", sid, seed))
            harness._recv_turn(fh)  # the obligations
            harness._send_turn(fh, [harness.Message(
                sid, 0, "server", "check-set", {"T": [0, 8]})])
            try:
                harness._recv_turn(fh)
            except (ConnectionError, OSError):
                pass
            fh.close()

    th = threading.Thread(target=fake_sender)
    th.start()
    client = harness.connect_and_run("ot", seed, "127.0.0.1", port, config,
                                     timeout=10.0)
    th.join()
    listener.close()
    assert client.outcome["status"] == "error"
    assert "ValueError: check set must be 4 distinct indices in [0, 8)" \
        in client.outcome["detail"]
    assert [m.kind for m in client.messages] == ["obligations", "check-set"]


@given(protocol=st.sampled_from(("poq", "ot")),
       kind=st.sampled_from(("round-params", "evaluation", "challenge",
                             "answer", "verdict", "obligations", "check-set",
                             "openings", "outcome"))
       | st.text(min_size=1, max_size=12),
       payload=payloads)
@settings(max_examples=30, deadline=None)
def test_any_peer_message_ends_in_a_status(protocol, kind, payload):
    sid = harness.session_id(protocol, 5)
    msg = harness.Message(sid, 0, "client", kind, payload)
    server = _serve_against(protocol, {"rounds": 1, "lam": 2}, [msg])
    assert server.outcome["status"] in STATUSES
    assert server.messages[:1] == [msg]
