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
from collections.abc import Sequence
from typing import Any

from ..errors import ReproError
from ..nulls import NULL
from ..testing.faults import fire

#: Frames above this are refused outright — a corrupt length prefix
#: must not make the receiver try to allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ReproError):
    """A malformed, oversized or truncated frame."""


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    """Serialise *message* and write one frame."""
    fire("wire.send")
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds the cap")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; None on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame; refusing")
    payload = _recv_exact(sock, length, eof_ok=False)
    assert payload is not None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame is not an object: {message!r}")
    return message


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        # Fired per chunk, not per frame, so an injector can tear a
        # frame mid-payload — the failure the retry protocol must survive.
        fire("wire.recv")
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise WireError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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
