"""Pluggable run-store backends for the control-plane journal.

ROADMAP item 1 names a "pluggable run-store abstraction (in-memory now,
Redis-shaped interface)" as the bridge from reproduction to service.  This
module is that seam: :class:`RunStore` is the minimal key/stream API the
persistence spine (:mod:`repro.persist.journal` /
:mod:`repro.persist.recovery`) writes against, deliberately shaped like a
Redis client (``RPUSH``/``LRANGE`` for streams, ``SET``/``GET`` for keys)
so a real Redis backend is a drop-in later.

Two backends ship today:

* :class:`MemoryRunStore` — plain lists/dicts; the zero-dependency default
  and the journal-overhead reference (E30's <5% bound is measured on it);
* :class:`JsonlRunStore` — one append-only ``<stream>.jsonl`` file per
  stream plus one ``<key>.json`` per key, each journal line carrying a
  CRC32 trailer.  A *torn final record* (the classic crash-mid-write
  artifact) is dropped on read, not fatal; corruption anywhere **before**
  the tail is a real integrity failure and raises
  :class:`CorruptJournal`.

Records must be JSON-serialisable dicts of scalars/lists.  Ownership is
**write-transfer / read-copy**: ``append`` and ``put`` take ownership of
the dict passed in (callers hand over a freshly built record and never
touch it again — this keeps the journal's hot path at one dict build per
record), while ``read`` and ``get`` return copies (via ``dict()`` or the
JSON round trip), so a caller can never mutate the durable history in
place.
"""

from __future__ import annotations

import json
import os
import zlib


class CorruptJournal(ValueError):
    """A journal stream is damaged somewhere other than its final record."""


def _encode(record: dict) -> str:
    """Canonical JSON for one record — key-sorted so the CRC is stable."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class RunStore:
    """Abstract store: append-only streams plus a small key/value side.

    The interface is Redis-shaped on purpose: ``append`` is ``RPUSH``,
    ``read`` is ``LRANGE <start> -1``, ``length`` is ``LLEN``, and
    ``put``/``get`` are ``SET``/``GET`` of a JSON document.  Implementations
    must keep ``read`` order equal to append order.
    """

    def append(self, stream: str, record: dict) -> int:
        """Append *record* to *stream*; returns the new stream length.

        The store takes ownership of *record* — the caller must not
        mutate it afterwards.
        """
        raise NotImplementedError

    def read(self, stream: str, start: int = 0) -> list[dict]:
        """Records of *stream* from index *start* (append order)."""
        raise NotImplementedError

    def length(self, stream: str) -> int:
        """Number of records in *stream* (0 for an unknown stream)."""
        raise NotImplementedError

    def put(self, key: str, value: dict) -> None:
        """Store one JSON document under *key* (last write wins).

        Takes ownership of *value*, like :meth:`append`.
        """
        raise NotImplementedError

    def get(self, key: str) -> dict | None:
        """The document under *key*, or None."""
        raise NotImplementedError


class MemoryRunStore(RunStore):
    """In-process store: the default backend and the E30 overhead baseline.

    An append is a plain list append of the handed-over record — the
    cheapest durable-ish shape possible, which is what the <5% journal-
    overhead bound is measured against.  Copy isolation happens on the
    cold side instead: ``read`` returns per-record ``dict()`` copies and
    ``get`` a JSON round trip (snapshot loads are recovery-time only).
    """

    def __init__(self):
        self._streams: dict[str, list[dict]] = {}
        self._keys: dict[str, dict] = {}

    def append(self, stream: str, record: dict) -> int:
        rows = self._streams.get(stream)
        if rows is None:  # not setdefault: no empty list built per record
            rows = self._streams[stream] = []
        rows.append(record)
        return len(rows)

    def read(self, stream: str, start: int = 0) -> list[dict]:
        return [dict(r) for r in self._streams.get(stream, ())[start:]]

    def length(self, stream: str) -> int:
        return len(self._streams.get(stream, ()))

    def put(self, key: str, value: dict) -> None:
        self._keys[key] = value

    def get(self, key: str) -> dict | None:
        raw = self._keys.get(key)
        return None if raw is None else json.loads(_encode(raw))


class JsonlRunStore(RunStore):
    """Directory-backed store: one CRC-guarded JSONL file per stream.

    Line format: ``<canonical json>|<crc32 hex>\\n``.  On open, each
    stream's tail is validated once; a torn or CRC-failing **final** line
    is dropped (a crash mid-``write`` is exactly the failure this store
    exists to survive) and counted in :attr:`dropped_tails`.  Damage
    anywhere earlier raises :class:`CorruptJournal` — that is bit rot or
    tampering, not a torn write, and replaying past it would rebuild a
    silently wrong control plane.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: torn/corrupt final records dropped per stream on load
        self.dropped_tails: dict[str, int] = {}
        self._lengths: dict[str, int] = {}

    # -- paths -------------------------------------------------------------

    def _stream_path(self, stream: str) -> str:
        return os.path.join(self.root, f"{stream}.jsonl")

    def _key_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # -- streams -----------------------------------------------------------

    def append(self, stream: str, record: dict) -> int:
        body = _encode(record)
        crc = f"{zlib.crc32(body.encode()):08x}"
        with open(self._stream_path(stream), "a", encoding="utf-8") as fh:
            fh.write(f"{body}|{crc}\n")
        n = self._lengths.get(stream)
        if n is None:
            n = len(self._load(stream)) - 1  # first touch: count what's there
        self._lengths[stream] = n + 1
        return n + 1

    def read(self, stream: str, start: int = 0) -> list[dict]:
        return self._load(stream)[start:]

    def length(self, stream: str) -> int:
        n = self._lengths.get(stream)
        if n is None:
            n = len(self._load(stream))
            self._lengths[stream] = n
        return n

    def _load(self, stream: str) -> list[dict]:
        path = self._stream_path(stream)
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except FileNotFoundError:
            return []
        if lines and lines[-1] == "":
            lines.pop()
        records: list[dict] = []
        valid_bytes = 0
        for i, line in enumerate(lines):
            rec = self._parse(line)
            if rec is None:
                if i == len(lines) - 1:
                    # torn final record: the crash interrupted the write —
                    # drop it and truncate the file to the intact prefix,
                    # so records appended from here on never leave the
                    # torn line stranded mid-stream for the next reader
                    self.dropped_tails[stream] = \
                        self.dropped_tails.get(stream, 0) + 1
                    with open(path, "a", encoding="utf-8") as fh:
                        fh.truncate(valid_bytes)
                    break
                raise CorruptJournal(
                    f"{path}: corrupt record {i} of {len(lines)} "
                    f"(only the final record may be torn)")
            records.append(rec)
            valid_bytes += len(line.encode("utf-8")) + 1
        self._lengths[stream] = len(records)
        return records

    @staticmethod
    def _parse(line: str) -> dict | None:
        body, sep, crc = line.rpartition("|")
        if not sep:
            return None
        try:
            if int(crc, 16) != zlib.crc32(body.encode()):
                return None
            rec = json.loads(body)
        except ValueError:
            return None
        return rec if isinstance(rec, dict) else None

    # -- keys --------------------------------------------------------------

    def put(self, key: str, value: dict) -> None:
        # write-then-rename so a crash mid-snapshot never tears the
        # previous good snapshot
        path = self._key_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_encode(value))
        os.replace(tmp, path)

    def get(self, key: str) -> dict | None:
        try:
            with open(self._key_path(key), encoding="utf-8") as fh:
                return json.loads(fh.read())
        except (FileNotFoundError, ValueError):
            return None
