import functools
import hashlib
import io
import json
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from ospsim import harness


# ------------------------------------------------------------------ framing

NESTED = b"[" * 200_000   # RecursionError inside json.loads
DIGITS = b"9" * 5_000     # ValueError: past the integer digit limit


def _prefixed(body):
    return struct.pack(">I", len(body)) + body


def _recv_turn(fh):
    """The messages of one turn read from fh, up to its marker."""
    return [harness.Message.from_dict(harness._decode_body(body))
            for body in iter(lambda: harness._read_frame(fh), None)]


def _reader(data):
    return io.BufferedReader(io.BytesIO(data))


def _read_turn(data):
    """The messages in `data` read as one turn."""
    return _recv_turn(_reader(data + harness._TURN_END))


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
@settings(max_examples=400)
def test_frame_roundtrip(msg):
    assert _read_turn(harness.frame_encode(msg)) == [msg]


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
    """A stream that ends inside a frame is a disconnect, which a session
    reports with status disconnected."""
    encoded = harness.frame_encode(harness.Message("s", 3, "server", "k", {}))
    for data in (encoded[:-1], encoded[:3], b""):
        with pytest.raises(ConnectionError, match="mid-frame"):
            _recv_turn(_reader(data))


def test_frame_decode_rejects_bad_json_and_fields():
    for body in (b"{not json", b"\xff", NESTED, DIGITS):
        with pytest.raises(harness.FrameError, match="JSON"):
            _read_turn(_prefixed(body))
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
        with pytest.raises(harness.FrameError):
            _read_turn(_prefixed(harness.canonical_json(obj)))


def test_frame_length_cap():
    big = harness.Message("s", 0, "client", "k", "x" * (harness.MAX_FRAME_BYTES))
    with pytest.raises(harness.FrameError, match="cap"):
        harness.frame_encode(big)
    with pytest.raises(harness.FrameError, match="cap"):
        _read_turn(struct.pack(">I", harness.MAX_FRAME_BYTES + 1))


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
    for protocol, config in (("ot", {"lam": 3}), ("poq", {"rounds": 10})):
        first = harness.run_local(protocol, 21, config)
        second = harness.run_local(protocol, 21, config)
        assert first["client"].to_bytes() == second["client"].to_bytes()
        third = harness.run_local(protocol, 22, config)
        assert first["client"].to_bytes() != third["client"].to_bytes()


def test_run_local_rejects_unknowns():
    with pytest.raises(harness.SessionError):
        harness.run_local("nope", 0)
    with pytest.raises(harness.SessionError):
        harness.make_party("poq", "observer", 0)


# ------------------------------------------------------------- socket runs


def _peer_hello(protocol, seed=5):
    sid = harness.session_id(protocol, seed)
    return harness._encode_frame(harness._hello(protocol, sid, seed))


def _send_hello(fh, protocol, seed):
    fh.write(_peer_hello(protocol, seed))
    fh.flush()


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
        _send_hello(fh, "poq", 5)
        harness._read_frame(fh)
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
        fh.write(harness._encode_frame({"harness": 99, "protocol": "poq",
                                        "session": "x", "seed": 5}))
        fh.flush()
    th.join()
    listener.close()
    assert box["server"].outcome["status"] == "error"
    assert "version" in box["server"].outcome["detail"]


@pytest.mark.parametrize("role", harness.ROLES)
def test_a_peer_of_the_previous_version_is_refused_at_the_hello(role):
    # Version 1 round-params carried perm_seed; such a peer must stop at the
    # hello, not partway through a round.
    hello = harness._encode_frame({"harness": harness.HARNESS_VERSION - 1,
                                   "protocol": "poq",
                                   "session": harness.session_id("poq", 5),
                                   "seed": 5})
    transcript = _session_over_socketpair("poq", role,
                                          hello + harness._TURN_END * 2)
    assert transcript.outcome["status"] == "error"
    assert transcript.outcome["detail"].startswith("harness version mismatch")
    assert transcript.messages == []


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
        _send_hello(fh, "poq", 5)
        harness._read_frame(fh)
        th.join()  # send nothing further; the server should give up
    listener.close()
    assert box["server"].outcome["status"] == "timeout"


def test_a_trickled_hello_ends_the_session_within_its_timeout():
    """timeout bounds a whole peer turn, the hello included, not each read:
    a peer sending a byte every 0.2 s cannot hold the server past it."""
    timeout = 0.5
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}
    stop = threading.Event()

    def serve():
        start = time.monotonic()
        box["server"] = harness.serve_on(listener, "poq", 5, {"rounds": 1},
                                         timeout=timeout)
        box["elapsed"] = time.monotonic() - start
        stop.set()

    th = threading.Thread(target=serve)
    th.start()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        for byte in _peer_hello("poq")[:15]:
            if stop.wait(0.2):
                break
            conn.sendall(bytes([byte]))
        th.join()
    listener.close()
    assert box["server"].outcome["status"] == "timeout"
    assert box["elapsed"] < timeout + 1.0


def test_a_flooded_turn_is_read_only_up_to_the_first_refused_frame(
        monkeypatch):
    """A client turn of 64 frames of 1 MiB of a kind the prover refuses:
    the server stops reading at the first, so a turn cannot pile up."""
    reads = []
    read_frame = harness._read_frame

    def counting_read_frame(*args):
        reads.append(args)
        return read_frame(*args)

    monkeypatch.setattr(harness, "_read_frame", counting_read_frame)
    sid = harness.session_id("poq", 5)
    blob = "x" * (1 << 20)
    local, peer = socket.socketpair()

    def flood():
        try:
            peer.sendall(_peer_hello("poq"))
            for seq in range(64):
                peer.sendall(harness.frame_encode(
                    harness.Message(sid, seq, "client", "flood", blob)))
            peer.sendall(harness._TURN_END)
            peer.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server hangs up once it refuses the first frame

    feeder = threading.Thread(target=flood)
    feeder.start()
    party = harness.make_party("poq", "server", 5, {"rounds": 1})
    try:
        status, detail, messages = harness._socket_session(
            party, local, "poq", 5, 10.0)
    finally:
        local.close()
        feeder.join()
        peer.close()
    assert status == "error"
    assert detail == ("flood message rejected: ValueError: unexpected "
                      "message kind 'flood'")
    assert len(reads) <= 3  # the hello and at most 2 frames past it
    assert len(messages) <= 2


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
        _send_hello(fh, "poq", 5)
        harness._read_frame(fh)
        bogus = harness.Message(sid, 7, "client", "round-params", {})
        harness._send_turn(fh, [bogus])
        th.join()
    listener.close()
    assert box["server"].outcome["status"] == "error"
    assert "seq" in box["server"].outcome["detail"]


# ------------------------------------------------------------- peer faults
#
# A scripted peer writes a fixed byte string, half-closes its side and
# reads until the local party hangs up, so every run ends on its own.

STATUSES = ("complete", "error", "timeout", "disconnected")
CONFIGS = {"poq": {"rounds": 2}, "ot": {"lam": 2, "b": 1}}


def _feed(sock, data):
    """Write data, half-close, then read until the other end hangs up."""
    try:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while sock.recv(65536):
            pass
    except OSError:
        pass  # the local party may hang up before reading everything


def _against_peer(protocol, role, data, config=None, seed=5):
    """Play `role` through serve_on or connect_and_run over loopback TCP
    against a peer that writes `data`; returns the local transcript.

    The local side must return whatever the peer sent; an exception it
    raises fails the test."""
    config = CONFIGS[protocol] if config is None else config
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def play():
        try:
            if role == "server":
                box["t"] = harness.serve_on(listener, protocol, seed, config,
                                            timeout=10.0)
            else:
                box["t"] = harness.connect_and_run(
                    protocol, seed, "127.0.0.1", port, config, timeout=10.0)
        except Exception as exc:  # reported below, in the test's thread
            box["raised"] = exc

    th = threading.Thread(target=play)
    th.start()
    if role == "server":
        peer = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    else:
        listener.settimeout(10.0)
        peer, _ = listener.accept()
    with peer:
        _feed(peer, data)
    th.join()
    listener.close()
    assert "raised" not in box, repr(box.get("raised"))
    return box["t"]


def _serve_against(protocol, config, turn, seed=5):
    """The server transcript after a client sends `turn`, then an empty one."""
    data = (_peer_hello(protocol, seed)
            + b"".join(harness.frame_encode(m) for m in turn)
            + harness._TURN_END * 2)
    return _against_peer(protocol, "server", data, config, seed)


def _round_params(**change):
    """A well-formed n = 3 round-params payload with some fields replaced."""
    payload = {"round": 0, "n": 3, "m": 5, "mode": "disjoint", "k": 0,
               "table": [list(range(8)), list(range(8, 16))]}
    payload.update(change)
    return payload


_REJECTED = "round-params message rejected: ValueError"


@pytest.mark.parametrize("kind,payload,detail", [
    ("bogus", {}, "unexpected message kind 'bogus'"),    # unknown kind
    ("round-params", {}, _REJECTED),                     # missing key
    ("round-params", [1, 2], _REJECTED),                 # payload not a dict
    ("round-params", _round_params(n=64, m=66), _REJECTED),
    ("round-params",
     _round_params(table=[[0.5] + list(range(1, 8)), list(range(8, 16))]),
     _REJECTED),
    ("round-params",
     _round_params(table=[list(range(7)), list(range(8, 16))]), _REJECTED),
    ("round-params",
     _round_params(mode="plain", m=3, table=[list(range(8))]), _REJECTED),
    ("round-params",
     _round_params(table=[[7] * 8, list(range(8, 16))]), _REJECTED),
    ("round-params",
     _round_params(table=[list(range(7)) + [99], list(range(8, 16))]),
     _REJECTED),
    ("challenge", {"round": 0, "a": 0},
     "challenge message rejected: ValueError: unexpected message kind"),
    ("round-params",  # once read as n = 1, m = 3, k = 0
     _round_params(n=True, m=3.0, k="0", table=[[0, 1], [2, 3]]),
     _REJECTED + ": n must be an int in [1, 19)"),
], ids=["unknown-kind", "missing-key", "payload-not-a-dict", "n-64",
        "non-integer-entry", "short-row", "plain-mode", "repeated-value",
        "value-out-of-range", "challenge-first", "n-true"])
def test_party_fault_ends_the_session_with_error(kind, payload, detail):
    sid = harness.session_id("poq", 5)
    msg = harness.Message(sid, 0, "client", kind, payload)
    server = _serve_against("poq", {"rounds": 1}, [msg])
    assert server.outcome["status"] == "error"
    assert server.outcome["result"] is None
    assert detail in server.outcome["detail"]
    assert server.messages == [msg]


def test_poq_verifier_rejects_an_image_outside_the_table():
    """An evaluation whose y is no image of the round's family fails the
    verifier at once, before it draws a challenge."""
    config = CONFIGS["poq"]
    params = harness.run_local("poq", 5, config)["client"].messages[0]
    assert params.kind == "round-params"
    table, m = params.payload["table"], params.payload["m"]
    y = min(set(range(1 << m)) - set(table[0]) - set(table[1]))
    reply = harness.Message(harness.session_id("poq", 5), 0, "server",
                            "evaluation",
                            {"round": 0, "y": format(y, "0%db" % m),
                             "d": "0" * params.payload["n"]})
    data = (_peer_hello("poq") + harness.frame_encode(reply)
            + harness._TURN_END * 2)
    client = _against_peer("poq", "client", data, config)
    assert client.outcome["status"] == "error"
    assert client.outcome["detail"].startswith(
        "evaluation message rejected: ValueError")
    assert [m.kind for m in client.messages] == ["round-params", "evaluation"]


def test_a_peer_that_goes_quiet_ends_the_session_with_error():
    """Two empty turns before the verifier has its result are no
    completed session."""
    config = CONFIGS["poq"]
    honest = harness.run_local("poq", 5, config)["client"].messages
    assert honest[1].kind == "evaluation"
    data = (_peer_hello("poq") + harness.frame_encode(honest[1])
            + harness._TURN_END * 2)
    client = _against_peer("poq", "client", data, config)
    assert client.outcome == {
        "status": "error", "result": None,
        "detail": "session ended before the party finished"}
    assert client.messages == honest[:3]


def _client_turns(count, config):
    """The bytes of a client that sends the first `count` messages of an
    honest poq client one per turn, then goes quiet."""
    honest = [m for m in harness.run_local("poq", 5, config)["client"].messages
              if m.role == "client"][:count]
    return (_peer_hello("poq")
            + b"".join(harness.frame_encode(m) + harness._TURN_END
                       for m in honest)
            + harness._TURN_END * 2)


_UNFINISHED = {"status": "error", "result": None,
               "detail": "session ended before the party finished"}


@pytest.mark.parametrize("count,outcome,kinds", [
    (0, _UNFINISHED, []),
    (1, _UNFINISHED, ["round-params", "evaluation"]),
    (3, {"status": "complete", "result": {"rounds": 1}},
     ["round-params", "evaluation", "challenge", "answer", "verdict"]),
    (4, _UNFINISHED, ["round-params", "evaluation", "challenge", "answer",
                      "verdict", "round-params", "evaluation"]),
], ids=["silent", "quiet-mid-round", "quiet-after-a-verdict",
        "quiet-in-the-second-round"])
def test_a_poq_prover_finishes_only_when_a_verdict_closes_its_round(
        count, outcome, kinds):
    """The prover cannot tell the last round from the others, so a client
    that goes quiet leaves it finished only right after a verdict."""
    config = {"rounds": 3}
    server = _against_peer("poq", "server", _client_turns(count, config),
                           config)
    assert server.outcome == outcome
    assert [m.kind for m in server.messages] == kinds


def test_a_poq_prover_plays_no_round_past_the_sessions_rounds(monkeypatch):
    """A client that sends rounds + 1 rounds cannot hold the prover: the
    extra round-params ends the session before the prover draws for it."""
    data = _client_turns(7, {"rounds": 3})
    parties = []
    make_party = harness.make_party

    def keep(*args):
        parties.append(make_party(*args))
        return parties[-1]

    monkeypatch.setattr(harness, "make_party", keep)
    server = _against_peer("poq", "server", data, {"rounds": 2})
    monkeypatch.undo()
    assert server.outcome == {
        "status": "error", "result": None,
        "detail": "round-params message rejected: ValueError: round must be "
                  "the current round 2, below the 2 agreed"}
    assert [m.kind for m in server.messages][-2:] == ["verdict",
                                                      "round-params"]
    reference = harness.make_party("poq", "server", 5, {"rounds": 2})
    for m in harness.run_local("poq", 5, {"rounds": 2})["client"].messages:
        if m.role == "client":
            reference.on_message({"kind": m.kind, "payload": m.payload})
    assert [p.role for p in parties] == ["server"]
    assert (parties[0].rng.bit_generator.state
            == reference.rng.bit_generator.state)


def _ot_states(*widths):
    return [{"state": {"width": w, "u": "0" * w, "v": "0" * w, "phase": 0}}
            for w in widths]


@pytest.mark.parametrize("instances", [
    [], _ot_states(2, 2, 2), _ot_states(2, 2, 2, 20),
    [{"state": {"width": 2, "u": "00", "v": "01", "phase": 9}}] * 4,
], ids=["none", "one-short", "width-20-state", "phase-9"])
def test_malformed_obligations_end_the_sender_session(instances):
    sid = harness.session_id("ot", 5)
    msg = harness.Message(sid, 0, "client", "obligations",
                          {"lam": 2, "variant": "search",
                           "instances": instances})
    server = _serve_against("ot", {"lam": 2, "b": 1}, [msg])
    assert server.outcome["status"] == "error"
    assert server.outcome["detail"].startswith(
        "obligations message rejected: ValueError")
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
            harness._read_frame(fh)
            _send_hello(fh, "ot", seed)
            _recv_turn(fh)  # the obligations
            harness._send_turn(fh, [harness.Message(
                sid, 0, "server", "check-set", {"T": [0, 8]})])
            try:
                _recv_turn(fh)
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


def test_ot_receiver_answers_one_check_set_over_a_socket():
    """A sender that sees the openings for one check set cannot get a
    second set answered and read the choice bit off the two."""
    seed, config = 8, {"lam": 4, "b": 1}
    sid = harness.session_id("ot", seed)
    listener = harness.open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]

    def fake_sender():
        conn, _ = listener.accept()
        with conn:
            fh = conn.makefile("rwb")
            harness._read_frame(fh)
            _send_hello(fh, "ot", seed)
            _recv_turn(fh)  # the obligations
            for seq, check in enumerate(([0, 1, 2, 3], [4, 5, 6, 7])):
                harness._send_turn(fh, [harness.Message(
                    sid, seq, "server", "check-set", {"T": check})])
                try:
                    _recv_turn(fh)
                except (ConnectionError, OSError):
                    pass
            fh.close()

    th = threading.Thread(target=fake_sender)
    th.start()
    client = harness.connect_and_run("ot", seed, "127.0.0.1", port, config,
                                     timeout=10.0)
    th.join(timeout=20.0)
    listener.close()
    assert not th.is_alive()
    assert client.outcome["status"] == "error"
    assert client.outcome["detail"] == ("check-set message rejected: "
                                        "ValueError: unexpected message kind "
                                        "'check-set'")
    assert [m.kind for m in client.messages] == [
        "obligations", "check-set", "openings", "check-set"]


def _honest(protocol, kind, config):
    """The first message of the given kind in an honest in-process run."""
    messages = harness.run_local(protocol, 5, config)["client"].messages
    return next(m for m in messages if m.kind == kind)


def _renumbered(msg, seq):
    return harness.Message(msg.session, seq, msg.role, msg.kind, msg.payload)


@pytest.mark.parametrize("kinds", [("obligations",) * 3, ("openings",)],
                         ids=["obligations-thrice", "openings-first"])
def test_ot_sender_refuses_a_message_out_of_order_over_a_socket(kinds):
    """The sender draws one check set, and only after the obligations."""
    config = CONFIGS["ot"]
    turn = [_renumbered(_honest("ot", kind, config), seq)
            for seq, kind in enumerate(kinds)]
    server = _serve_against("ot", config, turn)
    assert server.outcome["status"] == "error"
    assert server.outcome["detail"] == (
        "%s message rejected: ValueError: unexpected message kind %r"
        % (kinds[-1], kinds[-1]))
    assert server.messages == turn[:2]  # nothing after the refusal is read


def test_poq_verifier_draws_one_challenge_over_a_socket():
    config = CONFIGS["poq"]
    evaluation = _honest("poq", "evaluation", config)
    data = (_peer_hello("poq") + harness.frame_encode(evaluation)
            + harness.frame_encode(_renumbered(evaluation, 1))
            + harness._TURN_END * 2)
    client = _against_peer("poq", "client", data, config)
    assert client.outcome["status"] == "error"
    assert client.outcome["detail"] == ("evaluation message rejected: "
                                        "ValueError: unexpected message kind "
                                        "'evaluation'")
    assert [m.kind for m in client.messages] == [
        "round-params", "evaluation", "evaluation"]


def test_poq_verifier_refuses_an_answer_for_another_round_over_a_socket():
    config = CONFIGS["poq"]
    evaluation = _honest("poq", "evaluation", config)
    answer = _honest("poq", "answer", config)
    stale = harness.Message(answer.session, answer.seq, answer.role,
                            answer.kind, dict(answer.payload, round=7))
    data = (_peer_hello("poq") + harness.frame_encode(evaluation)
            + harness._TURN_END + harness.frame_encode(stale)
            + harness._TURN_END * 2)
    client = _against_peer("poq", "client", data, config)
    assert client.outcome["status"] == "error"
    assert client.outcome["detail"] == ("answer message rejected: ValueError: "
                                        "round must be 0, the current round")
    assert [m.kind for m in client.messages] == [
        "round-params", "evaluation", "challenge", "answer"]


@given(protocol=st.sampled_from(("poq", "ot")),
       kind=st.sampled_from(("round-params", "evaluation", "challenge",
                             "answer", "verdict", "obligations", "check-set",
                             "openings", "outcome"))
       | st.text(min_size=1, max_size=12),
       payload=payloads)
@settings(max_examples=30)
def test_any_peer_message_ends_in_a_status(protocol, kind, payload):
    sid = harness.session_id(protocol, 5)
    msg = harness.Message(sid, 0, "client", kind, payload)
    server = _serve_against(protocol, {"rounds": 1, "lam": 2}, [msg])
    assert server.outcome["status"] in STATUSES
    assert server.messages[:1] == [msg]


@pytest.mark.parametrize("body", [NESTED, DIGITS], ids=["nested", "digits"])
@pytest.mark.parametrize("where", ["hello", "turn"])
@pytest.mark.parametrize("role", harness.ROLES)
@pytest.mark.parametrize("protocol", ["poq", "ot"])
def test_undecodable_body_ends_the_session_with_error(protocol, role, where,
                                                      body):
    data = (_peer_hello(protocol) if where == "turn" else b"") + _prefixed(body)
    transcript = _against_peer(protocol, role, data)
    assert transcript.outcome["status"] == "error"
    assert "not valid JSON" in transcript.outcome["detail"]
    assert transcript.outcome["result"] is None


_SID = harness.session_id("poq", 5)


def _hello_with_protocol(protocol):
    return harness._encode_frame({"harness": harness.HARNESS_VERSION,
                                  "protocol": protocol, "session": _SID,
                                  "seed": 5})


def _turn_of(body):
    return _peer_hello("poq") + _prefixed(body) + harness._TURN_END * 2


@pytest.mark.parametrize("data", [
    _hello_with_protocol("p" * 2_000_000),
    _turn_of(harness.canonical_json(harness.Message(
        _SID, 0, "client", "k" * 1_000_000, {}).to_dict())),
    _turn_of(harness.canonical_json(dict(
        harness.Message(_SID, 0, "client", "round-params", {}).to_dict(),
        **{"f%d" % i: 0 for i in range(100_000)}))),
], ids=["long-hello-protocol", "long-kind", "many-fields"])
def test_peer_text_in_the_detail_is_capped(data):
    transcript = _session_over_socketpair("poq", "server", data)
    detail = transcript.outcome["detail"]
    assert transcript.outcome["status"] == "error"
    assert len(detail) <= 600
    assert detail.endswith(" chars)")


# -------------------------------------------------------------- byte fuzz


@functools.lru_cache(maxsize=None)
def _record(protocol, seed):
    """The bytes each role writes in one honest session over socketpairs,
    relayed through two pump threads that keep a copy."""
    config = CONFIGS[protocol]
    ends = dict(zip(harness.ROLES, (socket.socketpair(), socket.socketpair())))
    written = {role: bytearray() for role in harness.ROLES}
    status = {}

    def pump(role, peer):
        src, dst = ends[role][1], ends[peer][1]
        while chunk := src.recv(65536):
            written[role] += chunk
            dst.sendall(chunk)
        dst.shutdown(socket.SHUT_WR)

    def play(role):
        party = harness.make_party(protocol, role, seed, config)
        conn = ends[role][0]
        status[role] = harness._socket_session(party, conn, protocol, seed,
                                               10.0)[0]
        conn.shutdown(socket.SHUT_WR)

    threads = [threading.Thread(target=pump, args=("client", "server")),
               threading.Thread(target=pump, args=("server", "client")),
               threading.Thread(target=play, args=("client",)),
               threading.Thread(target=play, args=("server",))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for pair in ends.values():
        for sock in pair:
            sock.close()
    assert status == {"client": "complete", "server": "complete"}
    return {role: bytes(data) for role, data in written.items()}


HONEST_WIRE = ("65644c8bb8f2997b41c42927becd2046"
               "bdf98a0e47ff019c4bae6478b7e40388")


def test_honest_wire_bytes_are_pinned():
    digest = hashlib.sha256()
    for protocol in ("poq", "ot"):
        for seed in range(6):
            written = _record(protocol, seed)
            digest.update(written["client"] + b"|" + written["server"] + b"#")
    assert digest.hexdigest() == HONEST_WIRE


def _session_over_socketpair(protocol, role, data, seed=5, config=None):
    """Play `role` over a socketpair against a peer that writes `data`."""
    local, peer = socket.socketpair()
    feeder = threading.Thread(target=_feed, args=(peer, data))
    feeder.start()
    config = CONFIGS[protocol] if config is None else config
    party = harness.make_party(protocol, role, seed, config)
    try:
        status, detail, messages = harness._socket_session(
            party, local, protocol, seed, 5.0)
    finally:
        local.close()
        feeder.join()
        peer.close()
    return harness._finish(party, protocol, seed, role, status, detail,
                           messages)


@st.composite
def hostile_streams(draw):
    """(protocol, role, bytes the peer writes): arbitrary bytes as the
    hello or after an honest hello, or a flip, truncation, duplication or
    splice of the honest peer's recorded bytes."""
    protocol = draw(st.sampled_from(("poq", "ot")))
    role = draw(st.sampled_from(harness.ROLES))
    peer = "server" if role == "client" else "client"
    honest = _record(protocol, 5)[peer]
    hello = honest[:4 + struct.unpack(">I", honest[:4])[0]]
    how = draw(st.sampled_from(("as-hello", "as-turn", "flip", "truncate",
                                "duplicate", "splice")))
    if how == "as-hello":
        return protocol, role, draw(st.binary(max_size=512))
    if how == "as-turn":
        return protocol, role, hello + draw(st.binary(max_size=512))
    i = draw(st.integers(0, len(honest) - 1))
    j = draw(st.integers(i, len(honest)))
    if how == "flip":
        data = bytearray(honest)
        data[i] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        data = honest[:i]
    elif how == "duplicate":
        data = honest[:j] + honest[i:]
    else:
        data = honest[:i] + draw(st.binary(max_size=64)) + honest[j:]
    return protocol, role, bytes(data)


def test_honest_peer_bytes_replay_to_completion():
    for protocol in ("poq", "ot"):
        for role, peer in (("client", "server"), ("server", "client")):
            transcript = _session_over_socketpair(protocol, role,
                                                  _record(protocol, 5)[peer])
            assert transcript.outcome["status"] == "complete"


@given(hostile_streams())
@settings(max_examples=1000)
def test_any_peer_bytes_end_in_a_status(case):
    protocol, role, data = case
    transcript = _session_over_socketpair(protocol, role, data)
    assert transcript.outcome["status"] in STATUSES


HONEST_CONFIGS = {"poq": {"rounds": 2}, "ot": {"lam": 2}}


@functools.lru_cache(maxsize=None)
def _honest_messages(protocol, role):
    config = HONEST_CONFIGS[protocol]
    return tuple(m for m in harness.run_local(protocol, 5, config)[role].messages
                 if m.role == role)


@st.composite
def reordered_peers(draw):
    """(protocol, local role, peer bytes): the honest peer's messages
    shuffled, repeated and dropped, or a prefix of them, renumbered, in
    one turn or several."""
    protocol = draw(st.sampled_from(("poq", "ot")))
    role = draw(st.sampled_from(harness.ROLES))
    peer = "server" if role == "client" else "client"
    honest = _honest_messages(protocol, peer)
    picks = draw(st.lists(st.sampled_from(honest), max_size=2 * len(honest))
                 | st.integers(0, len(honest)).map(lambda k: honest[:k]))
    turns = [[]]
    for seq, msg in enumerate(picks):
        if turns[-1] and draw(st.booleans()):
            turns.append([])
        turns[-1].append(harness.Message(msg.session, seq, msg.role, msg.kind,
                                         msg.payload))
    data = _peer_hello(protocol) + b"".join(
        b"".join(harness.frame_encode(m) for m in turn) + harness._TURN_END
        for turn in turns) + harness._TURN_END * 2
    return protocol, role, data


@given(reordered_peers())
@settings(max_examples=300)
def test_honest_messages_in_any_order_end_in_a_status(case):
    """Only the honest order of kinds, or a prefix of it, completes."""
    protocol, role, data = case
    peer = "server" if role == "client" else "client"
    transcript = _session_over_socketpair(protocol, role, data,
                                          config=HONEST_CONFIGS[protocol])
    assert transcript.outcome["status"] in STATUSES
    if transcript.outcome["status"] == "complete":
        received = [m.kind for m in transcript.messages if m.role == peer]
        honest = [m.kind for m in _honest_messages(protocol, peer)]
        assert received == honest[:len(received)]
