"""File-backed log segments: the physical substrate of the durable WAL.

The logical :class:`~repro.storage.wal.WriteAheadLog` stays the single
source of truth for record semantics; this module only knows how to put
opaque payloads on disk so that a ``kill -9`` cannot lose an
acknowledged commit:

* **Record framing** — every payload is written as
  ``[u32 length][u32 crc32][payload]`` (big-endian).  The CRC covers the
  payload, so a record torn by a crash mid-write is detected on load
  rather than replayed as garbage.
* **Fsync batching** — :meth:`SegmentStore.append` writes any number of
  records and issues exactly one ``flush + fsync``.  The logical WAL
  calls it once per :meth:`~repro.storage.wal.WriteAheadLog.flush`, with
  one payload (the flushed records pickled together, so a tear drops
  the flush whole), and group commit amortises physical syncs exactly
  as it already amortises logical flushes.  The current segment stays open between appends; it
  is closed on rollover, before a checkpoint deletes it, before a torn
  tail is cut off, and by :meth:`SegmentStore.close`.
* **Torn-tail detection** — :meth:`SegmentStore.load` scans segments in
  order and stops at the first frame whose header is short, whose length
  is implausible, whose payload is short, or whose CRC mismatches.
  Everything before the tear is returned; the torn bytes are truncated
  away so the next append starts from a clean tail.
* **Checkpoint compaction** — :meth:`SegmentStore.write_checkpoint`
  atomically replaces the checkpoint blob (write-temp + ``os.replace`` +
  directory fsync) and then deletes every old segment.  A crash between
  the replace and the deletes only leaves stale segments behind, which
  the loader filters by LSN.

Nothing here interprets payload bytes; serialisation lives with the
logical WAL.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Sequence
from pathlib import Path
from typing import BinaryIO

from ..errors import WalError

_FRAME = struct.Struct(">II")

#: A corrupt length prefix must not make the loader allocate gigabytes.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Segments roll over past this size so checkpoint deletion reclaims
#: space in bounded chunks.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"
_CHECKPOINT_NAME = "checkpoint.bin"


class TornTail:
    """Where (and how) a load stopped replaying: the crash tear."""

    def __init__(self, path: Path, offset: int, reason: str) -> None:
        self.path = path
        self.offset = offset
        self.reason = reason

    def __repr__(self) -> str:
        return (
            f"<TornTail {self.path.name}@{self.offset}: {self.reason}>"
        )


class SegmentStore:
    """Append-only CRC-framed record segments under one directory."""

    def __init__(
        self,
        directory: str | os.PathLike[str],
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_bytes < 1:
            raise WalError("segment size must be >= 1 byte")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self._next_segment = self._highest_segment_number() + 1
        self._current: Path | None = None
        self._current_size = 0
        #: ``_current`` opened for appending, from its first append until
        #: the store moves off it (or is closed).
        self._writer: BinaryIO | None = None
        #: Physical sync count; group commit is measured by this staying
        #: far below the number of logical commits.
        self.sync_count = 0

    # ------------------------------------------------------------------
    # Paths

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / _CHECKPOINT_NAME

    def segment_paths(self) -> list[Path]:
        """Every segment file, in append order."""
        return sorted(self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    def _highest_segment_number(self) -> int:
        highest = 0
        for path in self.segment_paths():
            stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                highest = max(highest, int(stem))
            except ValueError:
                raise WalError(f"alien file in WAL directory: {path}") from None
        return highest

    def _open_segment(self) -> Path:
        self.close()
        path = self.directory / (
            f"{_SEGMENT_PREFIX}{self._next_segment:08d}{_SEGMENT_SUFFIX}"
        )
        self._next_segment += 1
        path.touch()
        self._fsync_directory()
        self._current = path
        self._current_size = 0
        return path

    def _fsync_directory(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Appending

    def append(self, payloads: Sequence[bytes]) -> None:
        """Append framed *payloads* with exactly one flush + fsync.

        This is the physical half of group commit: however many records
        the logical flush hands over, durability costs one sync.
        """
        if not payloads:
            return
        if self._current is None:
            # Resume on the existing tail (already truncated clean by
            # load) rather than opening a fresh segment per process.
            existing = self.segment_paths()
            if existing:
                self._current = existing[-1]
                self._current_size = self._current.stat().st_size
            else:
                self._open_segment()
        assert self._current is not None
        if self._current_size >= self.segment_bytes:
            self._open_segment()
        frames = []
        for payload in payloads:
            if len(payload) > MAX_RECORD_BYTES:
                raise WalError(
                    f"record of {len(payload)} bytes exceeds the segment cap"
                )
            frames.append(
                _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
            )
        blob = b"".join(frames)
        if self._writer is None:
            self._writer = open(self._current, "ab")
        try:
            self._writer.write(blob)
            self._writer.flush()
            os.fsync(self._writer.fileno())
        except BaseException:
            # as a ``with`` block would: nothing of a failed append may
            # stay queued in the writer for the next one to push out
            self.close()
            raise
        self._current_size += len(blob)
        self.sync_count += 1

    def close(self) -> None:
        """Release the open segment.  The store stays usable: the next
        append reopens the tail it left."""
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    # Checkpointing

    def write_checkpoint(self, blob: bytes) -> None:
        """Atomically replace the checkpoint, then drop old segments.

        Ordering is crash-safe: the checkpoint reaches disk (temp file +
        fsync + ``os.replace`` + directory fsync) *before* any segment is
        deleted, so a crash at any point leaves either the old state or
        the new checkpoint plus ignorable stale segments.
        """
        self.close()
        old_segments = self.segment_paths()
        tmp = self.checkpoint_path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.checkpoint_path)
        self._fsync_directory()
        for path in old_segments:
            path.unlink(missing_ok=True)
        self._fsync_directory()
        self._current = None
        self._current_size = 0

    def load_checkpoint(self) -> bytes | None:
        if not self.checkpoint_path.exists():
            return None
        return self.checkpoint_path.read_bytes()

    # ------------------------------------------------------------------
    # Loading

    def load(self) -> tuple[list[bytes], TornTail | None]:
        """Return every intact payload in append order, truncating the
        torn tail (if any) so subsequent appends start clean."""
        payloads: list[bytes] = []
        torn: TornTail | None = None
        for path in self.segment_paths():
            segment_payloads, torn = self._scan_segment(path)
            payloads.extend(segment_payloads)
            if torn is not None:
                self._truncate_after(path, torn.offset)
                break
        return payloads, torn

    def _scan_segment(
        self, path: Path
    ) -> tuple[list[bytes], TornTail | None]:
        data = path.read_bytes()
        payloads: list[bytes] = []
        offset = 0
        while offset < len(data):
            if offset + _FRAME.size > len(data):
                return payloads, TornTail(path, offset, "short header")
            length, crc = _FRAME.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                return payloads, TornTail(
                    path, offset, f"implausible length {length}"
                )
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                return payloads, TornTail(
                    path, offset, f"short payload ({len(data) - start}/{length})"
                )
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                return payloads, TornTail(path, offset, "CRC mismatch")
            payloads.append(payload)
            offset = end
        return payloads, None

    def _truncate_after(self, path: Path, offset: int) -> None:
        """Cut the torn bytes off *path* and delete any later segments
        (records after a tear are unreachable by WAL discipline)."""
        self.close()
        with open(path, "ab") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
        later = [p for p in self.segment_paths() if p.name > path.name]
        for stale in later:
            stale.unlink(missing_ok=True)
        if later:
            self._fsync_directory()

    # ------------------------------------------------------------------

    def has_state(self) -> bool:
        """Is there anything to recover from (checkpoint or records)?"""
        return self.checkpoint_path.exists() or any(
            path.stat().st_size for path in self.segment_paths()
        )
