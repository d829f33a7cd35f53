"""Flat page arenas: a whole page store as one contiguous byte region.

A single pickled object graph makes *opening* a snapshot an O(n)
deserialization — fine for one process, fatal for a worker pool where
every process would pay it again.  The arena format applies the
external-memory discipline of the related DAM-structure work
(Iacono–Karsin–Koumoutsos) to the transfer path itself: the layout on
the wire *is* the layout in memory.  All pages are serialized into one
contiguous region fronted by a fixed-width offset/length/fingerprint
table, so a consumer can

* attach in O(1) — parse a 40-byte header and slice a table, no
  per-page work;
* decode any single page independently — each page is its own pickle,
  addressed by ``(offset, length)`` and verified against the same
  :func:`~repro.iosim.faults.page_fingerprint` the fault layer keeps at
  rest;
* share the region across processes — the arena is plain bytes, so one
  copy in :mod:`multiprocessing.shared_memory` serves any number of
  workers through zero-copy ``memoryview`` slices.

Layout (all integers big-endian, offsets relative to arena start)::

    offset  size  field
    0       8     magic  b"RPRARENA"
    8       4     arena version (1)
    12      4     block capacity (the paper's B)
    16      8     allocator cursor (next page id)
    24      8     page count P
    32      8     meta length M
    40      M     pickled metadata dict
    40+M    28*P  page table, ascending page id:
                    id (8) | offset (8) | length (8) | fingerprint (4)
    ...           page blobs, back to back

A page blob is ``pickle((items, header))`` and nothing else; an arena of
any other version is rejected.  A decoded page owns its items outright —
nothing in it refers back into the arena's buffer — so a shared-memory
mapping can close while decoded pages are still in use.

Every malformed-input path raises a typed
:class:`~repro.iosim.errors.SnapshotFormatError` — truncation, a table
entry pointing past the payload, a fingerprint mismatch — never a bare
``struct`` or ``pickle`` error.

:class:`ArenaBlockDevice` is the lazy consumer: a
:class:`~repro.iosim.disk.BlockDevice` whose pages materialize from the
arena on first read, held in a bounded decoded-page LRU so a warm
worker's repeated batches hit live objects while cold pages cost one
decode each.  Pages mutated after decode (writes, allocations) are
pinned resident — the arena is immutable, so evicting a dirty page
would silently lose the write.
"""

from __future__ import annotations

import io
import pickle
import struct
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from .disk import BlockDevice
from .errors import SnapshotFormatError
from .faults import page_fingerprint
from .page import Page

ARENA_MAGIC = b"RPRARENA"
ARENA_VERSION = 1

#: magic, version, block capacity, next page id, page count, meta length
_ARENA_HEADER = struct.Struct(">8sIIQQQ")
#: page id, offset, length, fingerprint
_TABLE_ENTRY = struct.Struct(">QQQI")


# ----------------------------------------------------------------------
# restricted unpickling (shared with the snapshot container)
# ----------------------------------------------------------------------
#: The exact ``(module, name)`` globals a trusted stream ever names:
#: every engine's snapshot metadata and pages, the worker pool's query
#: and explain results, and every daemon frame (query, ping, health,
#: stats, error, degraded).  Anything else in a stream is damage, not
#: data — ``pickle.loads`` on a hostile buffer is an RCE otherwise.
#: ``Segment`` stays listed so format-2 snapshots written before
#: segments pickled through ``_rebuild_segment`` still load.
SAFE_GLOBALS = frozenset({
    ("fractions", "Fraction"),
    ("repro.geometry.point", "Point"),
    ("repro.geometry.segment", "Segment"),
    ("repro.geometry.segment", "_rebuild_segment"),
    ("repro.geometry.query", "VerticalQuery"),
    ("repro.geometry.linebased", "LineBasedSegment"),
    ("repro.core.solution2.gtree", "GEntry"),
    ("repro.core.solution2.slabs", "LongFragment"),
    ("repro.core.recovery", "DegradedBatch"),
    ("repro.core.recovery", "DegradedResult"),
    ("repro.iosim.stats", "IOStats"),
    ("repro.telemetry.explain", "ExplainReport"),
    ("repro.telemetry.explain", "PhaseStats"),
})


class RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        # Exact pairs only: a dotted name (protocol 4 qualnames) would
        # otherwise walk attributes out of an allowed module.
        if (module, name) in SAFE_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"payload references forbidden global {module}.{name}"
        )


def restricted_loads(payload: Union[bytes, memoryview], buffers=None):
    """Unpickle with the :data:`SAFE_GLOBALS` allowlist (out-of-band
    buffers allowed)."""
    return RestrictedUnpickler(io.BytesIO(payload), buffers=buffers).load()


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def build_arena(device: BlockDevice, meta: Dict[str, Any]) -> bytes:
    """Serialize ``device``'s live pages plus ``meta`` into one arena.

    Pages are laid out in ascending id order; the table is fixed-width so
    a reader can binary-search it without decoding anything.  Each page
    is encoded independently: items shared *between* pages are
    duplicated on decode (identity within a page is preserved).  Content
    equality — and therefore results and per-query I/O — is unaffected.
    """
    pages = sorted(device.iter_pages(), key=lambda p: p.page_id)
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    blobs = [pickle.dumps((p.items, p.header),
                          protocol=pickle.HIGHEST_PROTOCOL) for p in pages]
    out = bytearray()
    out += _ARENA_HEADER.pack(ARENA_MAGIC, ARENA_VERSION,
                              device.block_capacity, device._next_id,
                              len(pages), len(meta_blob))
    out += meta_blob
    offset = len(out) + _TABLE_ENTRY.size * len(pages)
    for page, blob in zip(pages, blobs):
        out += _TABLE_ENTRY.pack(page.page_id, offset, len(blob),
                                 page_fingerprint(page))
        offset += len(blob)
    for blob in blobs:
        out += blob
    return bytes(out)


# ----------------------------------------------------------------------
# zero-copy view
# ----------------------------------------------------------------------
class ArenaView:
    """A parsed arena over a buffer the caller owns (bytes or memoryview).

    Construction is O(1) in the number of pages: it validates the header
    and the table *bounds*, never touching a page blob.  Page content is
    decoded on demand by :meth:`decode_page`, which verifies the entry's
    fingerprint — so even a lazy consumer never trusts a damaged page.

    When the buffer is a ``memoryview`` over shared memory, slicing is
    zero-copy; call :meth:`release` before closing the segment (exported
    views keep a POSIX shm mapping alive).
    """

    __slots__ = ("source", "_buf", "block_capacity", "next_id",
                 "page_count", "_meta_blob", "_table", "_entries", "_meta")

    def __init__(self, buf: Union[bytes, memoryview], source: str = "<arena>"):
        self.source = source
        self._buf = memoryview(buf)
        n = len(self._buf)
        if n < _ARENA_HEADER.size:
            raise SnapshotFormatError(
                source, f"arena truncated: {n} bytes is shorter than the "
                        f"{_ARENA_HEADER.size}-byte header")
        magic, version, capacity, next_id, count, meta_len = (
            _ARENA_HEADER.unpack_from(self._buf, 0))
        if magic != ARENA_MAGIC:
            raise SnapshotFormatError(
                source, f"bad arena magic {bytes(magic)!r}")
        if version != ARENA_VERSION:
            raise SnapshotFormatError(
                source, f"unsupported arena version {version} (this build "
                        f"reads version {ARENA_VERSION})")
        table_start = _ARENA_HEADER.size + meta_len
        data_start = table_start + _TABLE_ENTRY.size * count
        if data_start > n:
            raise SnapshotFormatError(
                source, f"arena truncated: header promises {count} table "
                        f"entries and {meta_len} meta bytes but only "
                        f"{n} bytes exist")
        self.block_capacity = capacity
        self.next_id = next_id
        self.page_count = count
        self._meta_blob = self._buf[_ARENA_HEADER.size:table_start]
        self._table = self._buf[table_start:data_start]
        # {page_id: (offset, length, fingerprint)} — bounds-checked once
        # here so decode_page never has to re-validate.
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        for i in range(count):
            pid, offset, length, crc = _TABLE_ENTRY.unpack_from(
                self._table, i * _TABLE_ENTRY.size)
            if offset < data_start or offset + length > n:
                raise SnapshotFormatError(
                    source, f"page {pid}: table entry points past the "
                            f"payload (offset {offset}, length {length}, "
                            f"arena {n} bytes)")
            if pid in self._entries:
                raise SnapshotFormatError(
                    source, f"page {pid}: duplicate table entry")
            self._entries[pid] = (offset, length, crc)
        self._meta: Optional[Dict[str, Any]] = None

    @property
    def meta(self) -> Dict[str, Any]:
        """The engine metadata dict (decoded once, cached)."""
        if self._meta is None:
            try:
                self._meta = restricted_loads(self._meta_blob)
            except Exception as exc:
                raise SnapshotFormatError(
                    self.source, f"undecodable arena metadata: {exc}"
                ) from exc
            if not isinstance(self._meta, dict):
                raise SnapshotFormatError(
                    self.source,
                    f"arena metadata is {type(self._meta).__name__}, "
                    f"not a dict")
        return self._meta

    @property
    def page_ids(self) -> List[int]:
        return sorted(self._entries)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entries

    def decode_page(self, page_id: int) -> Page:
        """Decode one page, verifying its table fingerprint.

        Raises :class:`SnapshotFormatError` on an unknown id, an
        undecodable blob, or content that no longer matches the
        fingerprint recorded at build time.
        """
        try:
            offset, length, expected = self._entries[page_id]
        except KeyError:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: not in the arena table"
            ) from None
        try:
            items, header = restricted_loads(self._buf[offset:offset + length])
        except Exception as exc:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: undecodable blob: {exc}"
            ) from exc
        page = Page(page_id, self.block_capacity)
        page.items = items
        page.header = header
        if page_fingerprint(page) != expected:
            raise SnapshotFormatError(
                self.source, f"page {page_id}: checksum mismatch")
        return page

    def materialize(self) -> BlockDevice:
        """Eagerly decode every page into a fresh :class:`BlockDevice`.

        This is the single-process open path (``load_device``): every
        fingerprint is verified up front.
        """
        device = BlockDevice(self.block_capacity)
        for page_id in self.page_ids:
            device._pages[page_id] = self.decode_page(page_id)
        device._next_id = max(self.next_id,
                              max(device._pages, default=-1) + 1)
        return device

    def release(self) -> None:
        """Drop every buffer slice this view holds (required before shm
        close: a segment with exported buffers cannot unmap)."""
        for view in (self._meta_blob, self._table, self._buf):
            view.release()


# ----------------------------------------------------------------------
# lazy device
# ----------------------------------------------------------------------
class ArenaBlockDevice(BlockDevice):
    """A block device decoding pages lazily out of an :class:`ArenaView`.

    The warm-worker serving device: attach is O(1), and each page is
    decoded from its arena slice on first read, then kept in a decoded-
    page LRU of ``cache_pages`` entries (``None`` = unbounded) so
    repeated batches against the same shard hit warm Python objects.
    Clean pages can always be re-decoded, so eviction is safe; pages
    that were written to (or freshly allocated) are pinned resident.

    I/O accounting is inherited unchanged from :class:`BlockDevice` —
    a lazily-decoded read charges exactly one read, like any other, so
    per-query I/O counts match an eagerly restored device exactly.
    """

    def __init__(self, view: ArenaView,
                 cache_pages: Optional[int] = None):
        if cache_pages is not None and cache_pages < 1:
            raise ValueError("cache_pages must be >= 1 (or None)")
        super().__init__(view.block_capacity)
        self._view = view
        self._next_id = view.next_id
        self._cache_pages = cache_pages
        #: ids present in the arena and not currently materialized
        self._lazy: Set[int] = set(view._entries)
        #: clean decoded ids in recency order (eviction candidates)
        self._clean_lru: "OrderedDict[int, None]" = OrderedDict()
        #: ids whose in-memory page diverged from the arena (never evict)
        self._dirty: Set[int] = set()
        self.decodes = 0   # arena blob decodes (cold + re-decode)
        self.evictions = 0

    # -- materialization ------------------------------------------------
    def _materialize(self, page_id: int) -> Page:
        page = self._view.decode_page(page_id)
        self.decodes += 1
        self._pages[page_id] = page
        self._lazy.discard(page_id)
        self._clean_lru[page_id] = None
        self._evict_over_budget()
        return page

    def _evict_over_budget(self) -> None:
        if self._cache_pages is None:
            return
        while len(self._clean_lru) > self._cache_pages:
            victim, _ = self._clean_lru.popitem(last=False)
            del self._pages[victim]
            self._lazy.add(victim)
            self.evictions += 1

    def _touch(self, page_id: int) -> None:
        if page_id in self._clean_lru:
            self._clean_lru.move_to_end(page_id)

    # -- BlockDevice surface --------------------------------------------
    def read(self, page_id: int) -> Page:
        if page_id not in self._pages and page_id in self._lazy:
            self._materialize(page_id)
        self._touch(page_id)
        return super().read(page_id)

    def write(self, page: Page) -> None:
        super().write(page)
        self._dirty.add(page.page_id)
        self._clean_lru.pop(page.page_id, None)

    def alloc(self) -> Page:
        page = super().alloc()
        self._dirty.add(page.page_id)
        return page

    def free(self, page_id: int) -> None:
        if page_id not in self._pages and page_id in self._lazy:
            # Freeing a page nobody ever decoded: no reason to decode it
            # just to throw it away.
            self._lazy.discard(page_id)
            self.frees += 1
            return
        super().free(page_id)
        self._clean_lru.pop(page_id, None)
        self._dirty.discard(page_id)

    @property
    def pages_in_use(self) -> int:
        return len(self._pages) + len(self._lazy)

    def iter_pages(self) -> Iterator[Page]:
        """Iterate live pages (decoding lazy ones without caching them)."""
        for page in list(self._pages.values()):
            yield page
        for page_id in sorted(self._lazy):
            yield self._view.decode_page(page_id)

    @property
    def resident_pages(self) -> int:
        """Pages currently decoded (the LRU working set + dirty pins)."""
        return len(self._pages)
