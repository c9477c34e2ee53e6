"""Block-boundary write-ahead log with checksummed, length-prefixed frames.

On-disk layout::

    SWAL1                                   5-byte magic
    [u32 len][u32 crc32(payload)][payload]  repeated frames

Frames are appended as blocks commit and the file is fsync'd at every
block boundary (``sync=True``); mempool admissions may ride along unsynced
and only become durable with the next block.  The log therefore has a
well-defined *synced prefix* -- everything up to the last fsync survives a
crash -- and :meth:`replay` enforces the matching repair policy:

* a frame that runs past end-of-file, or a checksum mismatch on the very
  last frame, is a **torn tail**: the interrupted final write of a crashed
  process.  It is truncated away and replay succeeds with the prefix.
* a checksum mismatch (or garbage length) with more frames behind it is
  **mid-file corruption**: bytes that were once fsync'd have rotted, which
  no repair can make safe.  Replay raises :class:`CorruptWal` loudly.

The ``hooks`` seam exists for fault injection: ``before_sync(wal)`` runs
after the OS-buffer flush but before ``os.fsync``, which is exactly where a
process crash separates "in the page cache" from "on the platter".  Fault
hooks use the crash-surface helpers (:meth:`discard_unsynced`,
:meth:`truncate_to`, :meth:`corrupt_byte`, :meth:`mark_dead`) to arrange
the post-crash disk image, then raise to kill the simulated node.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.obs import DORMANT, Observability

MAGIC = b"SWAL1"
_HEADER = 8  # u32 length + u32 crc32


class WalError(RuntimeError):
    """Base class for write-ahead-log failures."""


class CorruptWal(WalError):
    """Mid-file corruption: fsync'd frames fail their checksum."""


@dataclass
class ReplaySummary:
    """What :meth:`WriteAheadLog.replay` found and repaired."""

    frames: int = 0
    bytes_scanned: int = 0
    truncated_bytes: int = 0
    torn_tail: bool = False
    notes: list[str] = field(default_factory=list)


class WriteAheadLog:
    """Append-only frame log under one file, with explicit sync points."""

    def __init__(self, path: str, hooks: Any = None):
        self.path = path
        self.hooks = hooks
        self._dead = False
        #: the :class:`repro.obs.Observability` handle; a live one times
        #: every :meth:`sync` into the ``commit_fsync`` stage (the duration
        #: is recorded even when a fault hook kills the sync).
        self.obs: Observability = DORMANT
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._file = open(path, "w+b" if fresh else "r+b")
        if fresh:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)
        self._size = self._file.tell()
        # an existing file is assumed fully synced: we only ever reopen a
        # WAL after the writing process is gone, so the page cache is cold
        self._synced = self._size

    # -- write path ------------------------------------------------------------------

    def append(self, payload: bytes, sync: bool = False) -> None:
        self._check_alive()
        frame = (
            len(payload).to_bytes(4, "big")
            + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "big")
            + payload
        )
        self._file.write(frame)
        self._size += len(frame)
        if sync:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync; the fault seam fires between the two."""
        # Context-managed so the stage sample is recorded even when a fault
        # hook raises SimulatedCrash mid-sync (the crash cells still profile).
        with self.obs.stage("commit_fsync"):
            self._check_alive()
            self._file.flush()
            if self.hooks is not None:
                self.hooks.before_sync(self)
            os.fsync(self._file.fileno())
            self._synced = self._size

    def _check_alive(self) -> None:
        if self._dead:
            raise WalError("write-ahead log is dead (simulated crash)")

    # -- crash-surface helpers (used by disk-fault hooks) ----------------------------

    @property
    def size(self) -> int:
        return self._size

    @property
    def synced_size(self) -> int:
        return self._synced

    def discard_unsynced(self) -> None:
        """Truncate the file back to the synced prefix (lost page cache)."""
        self.truncate_to(self._synced)

    def truncate_to(self, size: int) -> None:
        """Force the on-disk file to ``size`` bytes (crash image surgery)."""
        self._file.flush()
        self._file.truncate(size)
        os.fsync(self._file.fileno())
        self._size = size
        self._synced = min(self._synced, size)

    def corrupt_byte(self, offset: int) -> None:
        """Flip every bit of the byte at ``offset`` in place."""
        self._file.flush()
        self._file.seek(offset)
        original = self._file.read(1)
        self._file.seek(offset)
        self._file.write(bytes([original[0] ^ 0xFF]))
        os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)

    def mark_dead(self) -> None:
        """Refuse all further writes (the simulated process is gone)."""
        self._dead = True

    # -- read path -------------------------------------------------------------------

    def replay(self) -> tuple[list[bytes], ReplaySummary]:
        """Scan the log, repair a torn tail, and return the frame payloads."""
        summary = ReplaySummary()
        self._file.flush()
        self._file.seek(0)
        raw = self._file.read()
        self._file.seek(0, os.SEEK_END)
        summary.bytes_scanned = len(raw)
        if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
            raise CorruptWal(f"{self.path}: bad magic (not a SMACS WAL or header corrupted)")
        frames: list[bytes] = []
        pos = len(MAGIC)
        while pos < len(raw):
            header = raw[pos : pos + _HEADER]
            if len(header) < _HEADER:
                self._repair_tail(summary, pos, len(raw))
                break
            length = int.from_bytes(header[:4], "big")
            crc = int.from_bytes(header[4:8], "big")
            end = pos + _HEADER + length
            if end > len(raw):
                self._repair_tail(summary, pos, len(raw))
                break
            payload = raw[pos + _HEADER : end]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                if end == len(raw):
                    # the final frame is fully present but its bytes are
                    # wrong: a torn sector inside the last write
                    self._repair_tail(summary, pos, len(raw))
                    break
                raise CorruptWal(
                    f"{self.path}: checksum mismatch at offset {pos} with "
                    f"{len(raw) - end} bytes after it (mid-file corruption)"
                )
            frames.append(payload)
            summary.frames += 1
            pos = end
        return frames, summary

    def _repair_tail(self, summary: ReplaySummary, keep: int, total: int) -> None:
        summary.torn_tail = True
        summary.truncated_bytes = total - keep
        summary.notes.append(f"truncated torn tail: {total - keep} bytes at offset {keep}")
        self._file.truncate(keep)
        os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)
        self._size = keep
        self._synced = min(self._synced, keep)

    # -- lifecycle -------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every frame (after a compaction into the backend)."""
        self._check_alive()
        self._file.truncate(len(MAGIC))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.seek(0, os.SEEK_END)
        self._size = len(MAGIC)
        self._synced = len(MAGIC)

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


__all__ = ["MAGIC", "CorruptWal", "ReplaySummary", "WalError", "WriteAheadLog"]
