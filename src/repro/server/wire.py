"""The wire protocol: length-prefixed JSON frames.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Requests and responses are JSON objects; requests
carry an ``op`` field, responses an ``ok`` boolean (error responses add
``error``, ``error_type`` and a ``retryable`` hint — deadlock victims,
lock timeouts and admission-control rejections are retryable, integrity
vetoes are not).

SQL NULL crosses the wire as JSON ``null``: :func:`encode_row` maps the
engine's NULL sentinel to ``None`` on the way out,
:func:`decode_values` maps ``None`` back on the way in.  Clients
therefore speak plain Python (``None`` for missing foreign-key
components) and never import engine internals.
"""

from __future__ import annotations

import json
import socket
import struct
from collections.abc import Iterable, Sequence
from typing import Any

from ..errors import ReproError
from ..nulls import NULL
from ..testing.faults import fire

#: Frames above this are refused outright — a corrupt length prefix
#: must not make the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: What one ``recv`` asks for.  A pipelining peer's queued frames arrive
#: together up to this size, and nothing else bounds a burst.
RECV_BYTES = 64 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ReproError):
    """A malformed, oversized or truncated frame."""


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialise *message* and write one frame."""
    send_frames(sock, (message,))


def send_frames(sock: socket.socket, messages: Iterable[dict[str, Any]]) -> None:
    """Serialise *messages* and write them, in order, with one
    ``sendall`` — all of them or (on a fault or an oversized frame) none."""
    frames = []
    for message in messages:
        fire("wire.send")
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise WireError(f"frame of {len(payload)} bytes exceeds the cap")
        frames.append(_LENGTH.pack(len(payload)) + payload)
    sock.sendall(b"".join(frames))


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; None on a clean EOF at a frame boundary.  Takes
    exactly that frame's bytes off the socket, so a caller may go on to
    ``select`` on it or hand it to another reader."""
    return FrameReader(exact=True).read(sock)


class FrameReader:
    """Buffered frame intake for one connection — the only ``recv`` of
    the protocol.

    One ``recv`` takes whatever the peer has queued (up to
    :data:`RECV_BYTES`), so the frames of a pipelining peer reach user
    space together: :meth:`read` hands them out one by one, and with
    ``wait=False`` only those already here, without touching the socket.
    The socket is passed on every call rather than kept, because the
    client's may be swapped or dropped under it (a reconnect drops the
    reader with it).
    """

    def __init__(self, exact: bool = False) -> None:
        self._buf = bytearray()
        self._pos = 0  # consumed prefix, dropped before the next recv
        self._exact = exact

    def read(
        self, sock: socket.socket, wait: bool = True
    ) -> dict[str, Any] | None:
        """The next frame.  None on a clean EOF at a frame boundary — or,
        with ``wait=False``, when no complete frame is buffered."""
        while True:
            end = self._front_end()
            if end <= len(self._buf):
                payload = self._buf[self._pos + _LENGTH.size:end]
                self._pos = end
                return _decode(payload)
            if not wait:
                return None
            del self._buf[:self._pos]
            self._pos = 0
            # Fired per recv, not per frame, so an injector can tear a
            # frame mid-payload — the failure the retry protocol must survive.
            fire("wire.recv")
            chunk = sock.recv(end - len(self._buf) if self._exact else RECV_BYTES)
            if not chunk:
                if not self._buf:
                    return None
                raise WireError(
                    f"connection closed mid-frame ({len(self._buf)}/{end} bytes)"
                )
            self._buf += chunk

    def _front_end(self) -> int:
        """Index one past the frame at the front of the buffer, as far
        as is known: past its header while that is still incomplete."""
        start = self._pos + _LENGTH.size
        if len(self._buf) < start:
            return start
        (length,) = _LENGTH.unpack_from(self._buf, self._pos)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"peer announced a {length}-byte frame; refusing")
        return start + length


def _decode(payload: bytearray) -> dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame is not an object: {message!r}")
    return message


# ----------------------------------------------------------------------
# Value translation: engine NULL <-> JSON null


def encode_value(value: Any) -> Any:
    return None if value is NULL else value


def encode_row(row: Sequence[Any]) -> list[Any]:
    return [encode_value(v) for v in row]


def decode_value(value: Any) -> Any:
    return NULL if value is None else value


def decode_values(values: Sequence[Any]) -> list[Any]:
    return [decode_value(v) for v in values]
