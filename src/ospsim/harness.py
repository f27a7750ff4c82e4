"""Deterministic two-party session harness with a framed wire format.

A protocol run is a sequence of messages between a client and a server
party object from apps.py.  The harness holds the only two drivers of
those parties: run_local delivers their messages in process (_drive),
and serve_on/connect_and_run exchange them as frames over a socket
(_socket_session).  It pins down everything needed to make two runs
comparable byte for byte:

* every frame, the opening hello and each message alike, is canonical
  JSON (sorted keys, no insignificant whitespace) behind a 4-byte
  big-endian length prefix, written by one writer (_encode_frame) and
  read by one reader (_read_frame, then _decode_body);
* party randomness comes from a labelled split of one session seed, so
  the in-process driver and the socket driver draw identical streams;
* the transcript records messages in delivery order, which both drivers
  reproduce exactly.

Sessions over a socket open with one hello frame from each side, then
alternate turns.  The hello carries HARNESS_VERSION, which changes with
the framing or any message payload schema, so a peer of another version
is refused at the hello rather than partway through a session.  A turn
is zero or more frames closed by a turn marker; the session ends when
both sides send an empty turn back to back.  A peer turn is read frame
by frame, and reading stops at the first frame the party refuses; the
timeout bounds a whole peer turn, the hello included.  One connection
carries one session.  Whatever bytes a peer sends, a session ends with
a transcript of status complete, error, timeout or disconnected; a
malformed frame ends it with error.  complete means the party finished:
a party sets its result only once its part is done (the poq prover,
which cannot tell the last round, after each verdict).
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from . import apps

HARNESS_VERSION = 2
MAX_FRAME_BYTES = 16 * 1024 * 1024
ROLES = ("client", "server")

_LENGTH = struct.Struct(">I")
_TURN_END = _LENGTH.pack(0xFFFFFFFF)
_DETAIL_CHARS = 500  # a failure detail may quote a peer: only its head is kept
_NAMESPACE = uuid.uuid5(uuid.NAMESPACE_URL, "ospsim-session")


class FrameError(ValueError):
    """A byte string that does not parse as exactly one well-formed frame."""


class SessionError(RuntimeError):
    """Local misuse of the harness (bad role, unknown protocol, and so on)."""


def canonical_json(obj) -> bytes:
    """Serialize with sorted keys and no insignificant whitespace; a value
    json cannot encode raises TypeError."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ------------------------------------------------------------------ messages


@dataclass
class Message:
    """One protocol message with its position in the session."""

    session: str
    seq: int
    role: str
    kind: str
    payload: object

    def to_dict(self) -> dict:
        return {"session": self.session, "seq": self.seq, "role": self.role,
                "kind": self.kind, "payload": self.payload}

    @classmethod
    def from_dict(cls, obj) -> "Message":
        if not isinstance(obj, dict):
            raise FrameError("frame body must be a JSON object")
        expected = {"session", "seq", "role", "kind", "payload"}
        if set(obj) != expected:
            raise FrameError("frame fields %s do not match %s"
                             % (sorted(obj), sorted(expected)))
        session, seq, role, kind = (obj["session"], obj["seq"], obj["role"],
                                    obj["kind"])
        if not isinstance(session, str):
            raise FrameError("session must be a string")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
            raise FrameError("seq must be a non-negative integer")
        if role not in ROLES:
            raise FrameError("role must be one of %s" % (ROLES,))
        if not isinstance(kind, str) or not kind:
            raise FrameError("kind must be a non-empty string")
        return cls(session, seq, role, kind, obj["payload"])


# --------------------------------------------------------------- frame codec


def _encode_frame(obj) -> bytes:
    """The one frame writer: canonical JSON behind its length prefix."""
    body = canonical_json(obj)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError("frame body of %d bytes exceeds the %d byte cap"
                         % (len(body), MAX_FRAME_BYTES))
    return _LENGTH.pack(len(body)) + body


def _read_exact(fh, count: int, wait=None) -> bytes:
    """count bytes from a buffered reader.  Each refill of its buffer is one
    read from the socket; wait, if given, runs before each such read."""
    chunks = []
    while count:
        if wait is not None:
            wait()
        chunk = fh.peek(1) and fh.read1(count)  # peek refills an empty buffer
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _read_frame(fh, wait=None):
    """The one frame reader: the next frame's body, or None at a turn marker."""
    header = _read_exact(fh, _LENGTH.size, wait)
    if header == _TURN_END:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError("declared frame length %d exceeds the cap" % length)
    return _read_exact(fh, length, wait)


def _decode_body(body: bytes):
    """The one decoder of peer bytes.  Every failure becomes a FrameError,
    including the ValueError of an over-long integer and the RecursionError
    of deep nesting."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError("frame body is not valid JSON: %s" % exc) from None


def frame_encode(message: Message) -> bytes:
    """Length-prefixed canonical encoding of one message."""
    return _encode_frame(message.to_dict())


# --------------------------------------------------------------- transcripts


@dataclass
class Transcript:
    """One party's full record of a session."""

    protocol: str
    seed: int
    session: str
    role: str
    outcome: dict
    messages: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "session": self.session,
            "role": self.role,
            "outcome": self.outcome,
            "messages": [m.to_dict() for m in self.messages],
        }

    def to_bytes(self) -> bytes:
        return canonical_json(self.to_json())

    def message_bytes(self) -> bytes:
        """Canonical bytes of the message list alone."""
        return canonical_json([m.to_dict() for m in self.messages])


# ------------------------------------------------------------- seed handling


def derive_seed(seed: int, *labels) -> int:
    """Split one 64-bit seed into independent streams by label."""
    h = hashlib.sha256()
    h.update(b"ospsim-harness")
    h.update(struct.pack(">Q", int(seed) & 0xFFFFFFFFFFFFFFFF))
    for label in labels:
        h.update(b"\x1f")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(seed: int, *labels):
    return np.random.default_rng(derive_seed(seed, *labels))


def session_id(protocol: str, seed: int) -> str:
    """Deterministic session identifier shared by both endpoints."""
    return str(uuid.uuid5(_NAMESPACE, "%s/%d" % (protocol, int(seed))))


# ---------------------------------------------------------- party factories


def _poq_factory(role, seed, config):
    rng = derive_rng(seed, "poq", role)
    rounds = int(config.get("rounds", 8))
    n = int(config.get("n", 3))
    if role == "client":
        return apps.PoqVerifierParty(rounds, rng, n)
    return apps.PoqProverParty(rng)


def _ot_factory(role, seed, config):
    rng = derive_rng(seed, "ot", role)
    lam = int(config.get("lam", 8))
    variant = str(config.get("variant", "search"))
    if role == "client":
        b = config.get("b", 0)
        cheat = config.get("cheat")
        return apps.OtReceiverParty(b, lam, variant, rng, cheat)
    return apps.OtSenderParty(lam, variant, rng)


PROTOCOLS = {"poq": _poq_factory, "ot": _ot_factory}


def make_party(protocol: str, role: str, seed: int, config=None):
    if protocol not in PROTOCOLS:
        raise SessionError("unknown protocol %r" % protocol)
    if role not in ROLES:
        raise SessionError("unknown role %r" % role)
    return PROTOCOLS[protocol](role, seed, dict(config or {}))


# ---------------------------------------------------------- in-process runs


class _Sequencer:
    """Stamps outgoing payload dicts into Messages with per-role counters."""

    def __init__(self, session):
        self.session = session
        self.counters = {"client": 0, "server": 0}

    def stamp(self, role, raw) -> Message:
        msg = Message(self.session, self.counters[role], role,
                      raw["kind"], raw["payload"])
        self.counters[role] += 1
        return msg

    def expect(self, msg: Message, role: str):
        """Validate an incoming message and advance the peer counter."""
        if msg.session != self.session:
            raise FrameError("session id %r does not match %r"
                             % (msg.session, self.session))
        if msg.role != role:
            raise FrameError("message role %r, expected %r" % (msg.role, role))
        if msg.seq != self.counters[role]:
            raise FrameError("seq %d out of order, expected %d"
                             % (msg.seq, self.counters[role]))
        self.counters[role] += 1


def _drive(client, server, session: str) -> list:
    """Deliver messages between two in-process parties until both fall
    silent; returns them stamped, in delivery order.

    The delivery queue is first-in first-out, so a multi-message reply is
    recorded before any responses to it, as over a socket.
    """
    seq = _Sequencer(session)
    messages = []
    queue = [(client, None)]
    while queue:
        party, incoming = queue.pop(0)
        peer = server if party is client else client
        for raw in party.on_message(incoming):
            messages.append(seq.stamp(party.role, raw))
            queue.append((peer, raw))
    return messages


def run_local(protocol: str, seed: int, config=None) -> dict:
    """Drive one session fully in process; returns a transcript per role.

    This is the one in-process way to run a two-party protocol.  Both
    transcripts carry the same message list, the one a socket session of
    the same seed and config records; each outcome holds the owning
    party's result.
    """
    config = dict(config or {})
    client = make_party(protocol, "client", seed, config)
    server = make_party(protocol, "server", seed, config)
    messages = _drive(client, server, session_id(protocol, seed))
    return {role: _finish(party, protocol, seed, role, "complete", None,
                          list(messages))
            for role, party in (("client", client), ("server", server))}


# -------------------------------------------------------------- socket runs


def _send_turn(fh, batch):
    for msg in batch:
        fh.write(frame_encode(msg))
    fh.write(_TURN_END)
    fh.flush()


def _hello(protocol, session, seed) -> dict:
    return {"harness": HARNESS_VERSION, "protocol": protocol,
            "session": session, "seed": int(seed)}


def _recv_hello(fh, protocol, session, seed, wait):
    """Read the peer's hello frame and check that it opens this session."""
    body = _read_frame(fh, wait)
    if body is None:
        raise FrameError("peer sent a turn marker in place of its hello")
    obj = _decode_body(body)
    if not isinstance(obj, dict) or obj.get("harness") != HARNESS_VERSION:
        raise FrameError("harness version mismatch: peer sent %r"
                         % (obj.get("harness") if isinstance(obj, dict)
                            else obj,))
    if obj.get("protocol") != protocol:
        raise FrameError("peer runs protocol %r, not %r"
                         % (obj.get("protocol"), protocol))
    if obj.get("session") != session or obj.get("seed") != int(seed):
        raise FrameError("peer session or seed does not match")


def _socket_session(party, conn, protocol, seed, timeout):
    """Run one session over a connected socket; never raises for peer faults.

    Returns (status, detail, messages).  The local party speaks first when
    it is the client; turns then strictly alternate.  Each peer frame is
    checked and handed to the party as it is read; the replies go out as
    one turn after the peer's marker.  A peer message the party cannot
    handle, whatever it raises, ends the session with status error, and
    nothing after it is read.  timeout bounds each peer turn from its
    first read to its marker, and each turn sent.  Two consecutive empty
    turns end the session: with status complete when the party has its
    result, else with status error.
    """
    session = session_id(protocol, seed)
    seq = _Sequencer(session)
    peer_role = "server" if party.role == "client" else "client"
    messages = []
    deadline = 0.0

    def wait():  # the next socket read gets what is left of the turn
        left = deadline - time.monotonic()
        if left <= 0:
            raise socket.timeout
        conn.settimeout(left)

    conn.settimeout(timeout)
    fh = conn.makefile("rwb")
    try:
        fh.write(_encode_frame(_hello(protocol, session, seed)))
        fh.flush()
        deadline = time.monotonic() + timeout
        _recv_hello(fh, protocol, session, seed, wait)
        replies = party.on_message(None) if party.role == "client" else None
        quiet = False  # the last turn, from either side, was empty
        while True:
            if replies is not None:
                batch = [seq.stamp(party.role, raw) for raw in replies]
                messages.extend(batch)
                conn.settimeout(timeout)
                _send_turn(fh, batch)
                if quiet and not batch:
                    break
                quiet = not batch
            replies, empty = [], True
            deadline = time.monotonic() + timeout
            while (body := _read_frame(fh, wait)) is not None:
                msg = Message.from_dict(_decode_body(body))
                seq.expect(msg, peer_role)
                messages.append(msg)
                empty = False
                try:
                    replies.extend(party.on_message(
                        {"kind": msg.kind, "payload": msg.payload}))
                except Exception as exc:
                    return ("error", "%s message rejected: %s: %s"
                            % (msg.kind, type(exc).__name__, exc), messages)
            if quiet and empty:
                break
            quiet = empty
        if party.result is None:
            return "error", "session ended before the party finished", messages
        return "complete", None, messages
    except socket.timeout:
        return "timeout", "turn not done within %.3f s" % timeout, messages
    except ConnectionError as exc:
        return "disconnected", str(exc), messages
    except FrameError as exc:
        return "error", str(exc), messages
    finally:
        try:
            fh.close()
        except (OSError, ValueError):
            pass


def _finish(party, protocol, seed, role, status, detail, messages):
    outcome = {"status": status,
               "result": party.result if status == "complete" else None}
    if detail and len(detail) > _DETAIL_CHARS:
        detail = "%s... (%d chars)" % (detail[:_DETAIL_CHARS], len(detail))
    if detail:
        outcome["detail"] = detail
    return Transcript(protocol, int(seed), session_id(protocol, seed), role,
                      outcome, messages)


def open_listener(host: str, port: int) -> socket.socket:
    """Bound, listening TCP socket; port 0 picks a free port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(1)
    return sock


def serve_on(listener: socket.socket, protocol: str, seed: int, config=None,
             timeout: float = 30.0) -> Transcript:
    """Accept one connection on an open listener and run the server role."""
    party = make_party(protocol, "server", seed, config)
    listener.settimeout(timeout)
    conn, _addr = listener.accept()
    with conn:
        status, detail, messages = _socket_session(
            party, conn, protocol, seed, timeout)
    return _finish(party, protocol, seed, "server", status, detail, messages)


def serve_once(protocol: str, seed: int, host: str, port: int, config=None,
               timeout: float = 30.0) -> Transcript:
    """Listen, serve exactly one session, close the listener."""
    listener = open_listener(host, port)
    try:
        return serve_on(listener, protocol, seed, config, timeout)
    finally:
        listener.close()


def connect_and_run(protocol: str, seed: int, host: str, port: int,
                    config=None, timeout: float = 30.0) -> Transcript:
    """Dial a listening peer and run the client role of one session."""
    party = make_party(protocol, "client", seed, config)
    with socket.create_connection((host, port), timeout=timeout) as conn:
        status, detail, messages = _socket_session(
            party, conn, protocol, seed, timeout)
    return _finish(party, protocol, seed, "client", status, detail, messages)
