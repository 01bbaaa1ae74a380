"""Refcounted copy-on-write prefix caching over the KV block pool.

Millions of users mostly share system prompts and few-shot templates, so
the KV blocks covering a popular prompt *prefix* are identical across
every request that carries it.  Production engines in the vLLM lineage
exploit this with automatic prefix caching: the shared blocks are stored
once per replica and every request referencing them pays only for its
private suffix.  :class:`PrefixStore` gives the serving simulator that
model, layered on :class:`~repro.serving.memory.KvBlockManager`:

* **Entries.** A shared prefix is keyed by its content hash
  (``Request.prefix_id``) and covers only the *whole* blocks of the
  prefix (``prefix_tokens // block_tokens``) — the partial tail block is
  where a request's private tokens start, i.e. the copy-on-write copy, so
  it is always charged privately.  Entry blocks are allocated in the
  block manager under synthetic negative ids, which cannot collide with
  request ids (always >= 0): pool-level accounting (``used_blocks``,
  ``peak_used_blocks``, ``utilization``) therefore reflects shared blocks
  exactly once, with zero changes to the manager.
* **Refcounts.** :meth:`acquire` attaches one running request to a prefix
  (allocating the blocks on first reference — a *miss* — and bumping the
  refcount on every later one — a *hit*); :meth:`release` detaches it
  (finish or preemption).  A zero-refcount entry stays **resident**
  (cached) so a later request — including a preempted one being
  readmitted under recompute-on-readmit — re-attaches for free.
* **Eviction.** Resident zero-refcount entries are reclaimed on demand,
  least-recently-released first (insertion order breaks ties), whenever
  the pool cannot cover a new allocation (:meth:`ensure_free`).
  Referenced entries are never evicted.

**Determinism contract.** Pure integer bookkeeping over deterministic
inputs: hit/miss is dictionary membership, eviction order is a FIFO of
release events — no randomness, so prefix-cached runs digest bit-stably.

**Digest compatibility.** A request without a prefix never touches the
store, and a prefix only one request uses saves nothing: its whole-block
entry plus the request's private tail is exactly the request's
unshared footprint, and a cached entry counts as free to the scheduler.
So a trace whose prefixes nobody shares digests identically to the same
trace with its prefix ids removed; ``tests/test_prefix.py`` asserts this
per scheduler x router.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping

from repro.serving.memory import KvBlockManager, KvMemoryView

__all__ = ["PrefixStore"]


@dataclass(slots=True)
class _PrefixEntry:
    """One resident shared prefix: its blocks and attachment count."""

    key: str
    tokens: int  # whole-block tokens covered (tokens % block_tokens == 0)
    blocks: int
    entry_id: int  # negative id of the holding in the block manager
    refcount: int = 0


class PrefixStore:
    """Refcounted shared-prefix blocks inside one replica's KV pool."""

    def __init__(self, manager: KvBlockManager):
        self.manager = manager
        self._entries: Dict[str, _PrefixEntry] = {}
        # Zero-refcount (reclaimable) entries in least-recently-released
        # order: eviction pops from the front, a re-attach removes the key.
        self._reclaimable: "OrderedDict[str, None]" = OrderedDict()
        self._next_entry_id = -1
        # Prefix id -> resident tokens, for every entry and for the
        # referenced (refcount > 0) ones, updated wherever an entry
        # changes: the router and the scheduler read them through the
        # read-only proxies below instead of a fresh copy per read.
        self._resident: Dict[str, int] = {}
        self._referenced: Dict[str, int] = {}
        self._resident_view = MappingProxyType(self._resident)
        self._referenced_view = MappingProxyType(self._referenced)
        # Incremental block sums, split by whether any running request is
        # attached: the engine reads both every step under pressure.
        self._referenced_blocks = 0
        self._reclaimable_blocks = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.blocks_saved = 0
        self.peak_resident = 0

    # ------------------------------------------------------------------ #
    @property
    def entry_count(self) -> int:
        """Resident prefixes (referenced or cached)."""
        return len(self._entries)

    @property
    def referenced_blocks(self) -> int:
        """Blocks of entries at least one running request is attached to."""
        return self._referenced_blocks

    @property
    def reclaimable_blocks(self) -> int:
        """Blocks of cached zero-refcount entries — evictable on demand,
        so the scheduler's view counts them as free."""
        return self._reclaimable_blocks

    @property
    def resident_blocks(self) -> int:
        return self._referenced_blocks + self._reclaimable_blocks

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def shared_block_tokens(self, prefix_tokens: int) -> int:
        """The sharable tokens of a ``prefix_tokens``-token prefix: whole
        blocks only — the partial tail block is the request's private
        copy-on-write copy."""
        block_tokens = self.manager.block_tokens
        return (prefix_tokens // block_tokens) * block_tokens

    def refcount(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry.refcount if entry is not None else 0

    def resident_tokens(self) -> Mapping[str, int]:
        """Prefix id -> resident tokens, referenced or cached — the router
        affinity view (a cached prefix is still a hit to route toward).

        A live read-only proxy, the same object on every call: it follows
        every acquire, eviction and :meth:`clear`, and writing to it
        raises ``TypeError``.  Copy it to keep a point-in-time map.
        """
        return self._resident_view

    def referenced_tokens(self) -> Mapping[str, int]:
        """Prefix id -> resident tokens of *referenced* entries only — the
        admission-accounting view.  A referenced entry is pinned for the
        admission round (refcounts cannot drop mid-round), so charging
        attached requests only their private suffix is safe; a cached
        zero-refcount entry must instead be charged in full, because its
        blocks are simultaneously counted as free (evictable on demand)
        and may be reclaimed by another admission in the same round —
        counting them both ways would overcommit the pool.

        Live and read-only like :meth:`resident_tokens`.
        """
        return self._referenced_view

    def view(self) -> KvMemoryView:
        """The pool as the scheduler sees it.

        Reclaimable (zero-refcount, evictable-on-demand) blocks count as
        free, and the residency map holds only *referenced* prefixes, so
        admission policies charge a request attached to a pinned prefix
        only its private suffix.  Cached zero-refcount prefixes are
        deliberately absent from the map: their blocks are already in the
        free figure (eviction may hand them to any admission this round),
        so a request hoping to re-attach is charged in full — if the
        entry survives, admission simply under-uses its charge.

        A fresh record per call whose block counts are fixed at the call;
        its residency map is the live :meth:`referenced_tokens` proxy, so
        read it before the store changes again (the engine hands the view
        to one ``select`` call and never reads it back).
        """
        manager = self.manager
        return KvMemoryView(
            block_tokens=manager.block_tokens,
            total_blocks=manager.total_blocks,
            free_blocks=manager.free_blocks + self._reclaimable_blocks,
            used_blocks=manager.used_blocks,
            peak_used_blocks=manager.peak_used_blocks,
            resident_prefixes=self._referenced_view,
        )

    # ------------------------------------------------------------------ #
    def ensure_free(self, blocks: int) -> None:
        """Evict cached zero-refcount entries (least recently released
        first) until the pool has ``blocks`` free, or nothing reclaimable
        remains.  The caller's allocate decides whether that sufficed."""
        manager = self.manager
        reclaimable = self._reclaimable
        while manager.free_blocks < blocks and reclaimable:
            key, _ = reclaimable.popitem(last=False)
            entry = self._entries.pop(key)
            del self._resident[key]
            manager.release(entry.entry_id)
            self._reclaimable_blocks -= entry.blocks
            self.evictions += 1

    def acquire(self, key: str, prefix_tokens: int) -> int:
        """Attach one request to the shared prefix ``key``; returns the
        shared tokens now covered for it (0 if the prefix spans no whole
        block).

        A resident entry — referenced or cached — is a *hit*: refcount++
        and the request saves the entry's blocks.  A miss allocates the
        whole-block prefix in the pool (evicting cached entries if
        needed); raises ``RuntimeError`` if the pool cannot cover it even
        after eviction.
        """
        shared_tokens = self.shared_block_tokens(prefix_tokens)
        if not shared_tokens:
            return 0
        entry = self._entries.get(key)
        if entry is not None:
            if entry.tokens != shared_tokens:
                raise ValueError(
                    f"prefix {key!r} resident with {entry.tokens} shared tokens "
                    f"but acquired with {shared_tokens}: a prefix id must hash "
                    f"the prefix content, so its length cannot vary"
                )
            if entry.refcount == 0:
                del self._reclaimable[key]
                self._referenced[key] = entry.tokens
                self._reclaimable_blocks -= entry.blocks
                self._referenced_blocks += entry.blocks
            entry.refcount += 1
            self.hits += 1
            self.blocks_saved += entry.blocks
            return shared_tokens
        blocks = shared_tokens // self.manager.block_tokens
        self.ensure_free(blocks)
        entry_id = self._next_entry_id
        self.manager.allocate(entry_id, shared_tokens)
        self._next_entry_id -= 1
        entry = _PrefixEntry(
            key=key, tokens=shared_tokens, blocks=blocks, entry_id=entry_id, refcount=1
        )
        self._entries[key] = entry
        self._resident[key] = self._referenced[key] = shared_tokens
        self._referenced_blocks += blocks
        self.misses += 1
        if len(self._entries) > self.peak_resident:
            self.peak_resident = len(self._entries)
        return shared_tokens

    def release(self, key: str) -> None:
        """Detach one request from ``key`` (finish or preemption).  The
        entry stays resident at refcount 0 — cached for re-attachment —
        until eviction reclaims it."""
        entry = self._entries.get(key)
        if entry is None or entry.refcount < 1:
            raise ValueError(
                f"release of prefix {key!r} without a matching acquire "
                f"(refcount would go negative)"
            )
        entry.refcount -= 1
        if entry.refcount == 0:
            self._reclaimable[key] = None
            del self._referenced[key]
            self._referenced_blocks -= entry.blocks
            self._reclaimable_blocks += entry.blocks

    def clear(self) -> None:
        """Wipe every resident entry — the replica-crash reset path.

        Releases each entry's blocks back to the manager (referenced
        entries included: a crash kills the requests holding them too)
        and zeroes the residency maps and incremental block sums, so a
        recovered replica starts from an empty cache with conserved pool
        accounting.  The cumulative counters (hits, misses, evictions,
        blocks saved, peak residency) survive — they describe the run,
        not the pool.
        """
        manager = self.manager
        for entry in self._entries.values():
            manager.release(entry.entry_id)
        self._entries.clear()
        self._resident.clear()
        self._referenced.clear()
        self._reclaimable.clear()
        self._referenced_blocks = 0
        self._reclaimable_blocks = 0
