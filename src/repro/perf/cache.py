"""Persistent, content-addressed cache of deterministic simulation results.

The timing simulator is a pure function of its inputs: the encoded program
bytes, the :class:`~repro.arch.turing.GpuSpec` architectural constants, the
CTA count and the simulator's own behaviour (versioned by
:data:`SIM_VERSION`).  The identical (spec, config) profiles were being
re-simulated dozens of times across the test suite and benchmarks; this
module makes every result reusable across *all* ``PerformanceModel``
instances, benchmark files and repeated CLI runs.

Two layers:

* an **in-process dict** on each :class:`ResultCache` (the module singleton
  :data:`PROFILE_CACHE` is shared by everything in one interpreter);
* an **on-disk JSON store**, one file per key, under ``$REPRO_CACHE_DIR``
  (default ``~/.cache/repro-sim``).  Set ``REPRO_NO_CACHE=1`` to disable
  both layers (every lookup misses, nothing is written).

Keys are SHA-256 hexdigests built by :func:`content_key` over
length-framed, canonically-serialised parts, so distinct inputs can never
collide by concatenation.  Values are JSON-serialisable dicts (profile /
timing-run summaries).  **Invariant:** caching never changes reported
numbers -- a hit returns exactly the summary the simulator produced when
the entry was stored, and :data:`SIM_VERSION` must be bumped whenever the
timing model's behaviour changes.

**Integrity.**  Disk entries are envelopes
``{"schema", "sim_version", "sha256", "payload"}``: the payload checksum,
the writing simulator's version and the envelope schema are all verified
on read.  Any failure -- truncated JSON, a foreign schema, a checksum
mismatch, a stale ``SIM_VERSION`` -- is treated as a miss, the file is
quarantined into ``<subdir>/quarantine/`` for post-mortem, and
``cache.integrity_fails`` counts it.  A corrupt disk can therefore cost
re-simulation but can never surface a wrong number.

**Hygiene.**  With ``REPRO_CACHE_MAX_MB`` set, every disk store runs a
size-bounded LRU sweep: reads touch entry mtimes, eviction unlinks oldest
mtime first (``cache.evictions``), and stale ``*.tmp`` spill from
interrupted writes is removed along the way (and unconditionally by
``clear(disk=True)``).  The in-process layer is LRU-bounded too
(``REPRO_CACHE_MEM_ENTRIES`` entries, default 4096;
``cache.mem_evictions``): a long-running process -- the ``repro serve``
daemon in particular -- keeps its hot set resident and re-reads colder
entries from disk instead of growing without limit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import OrderedDict
from dataclasses import asdict, is_dataclass
from pathlib import Path

from .. import knobs
from ..robust import chaos
from .stats import STATS

__all__ = [
    "SIM_VERSION",
    "SCHEMA_VERSION",
    "content_key",
    "ResultCache",
    "PROFILE_CACHE",
]

#: Behavioural version of the timing simulator.  Bump this whenever a
#: change alters simulated cycle counts, so stale disk entries are never
#: returned for the new behaviour.
SIM_VERSION = "timing-v2"  # v2: arch-family specs enter every key

#: On-disk envelope schema.  Bump when the envelope layout itself changes;
#: pre-envelope (or foreign) files then read as integrity misses.
SCHEMA_VERSION = 1

#: ``*.tmp`` spill older than this is swept by the eviction pass (a live
#: ``put`` holds its tmp file for milliseconds; an hour is safely stale).
_TMP_MAX_AGE_S = 3600.0


def _canonical(part) -> bytes:
    """Stable byte serialisation of one key part."""
    if isinstance(part, bytes):
        return part
    if is_dataclass(part) and not isinstance(part, type):
        part = asdict(part)
    return json.dumps(part, sort_keys=True, default=str).encode()


def content_key(*parts) -> str:
    """SHA-256 hexdigest over length-framed canonical serialisations.

    Parts may be ``bytes`` (e.g. an encoded program image), dataclasses
    (``GpuSpec``, ``KernelConfig``), or any JSON-serialisable value.
    """
    digest = hashlib.sha256()
    for part in parts:
        blob = _canonical(part)
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def _payload_digest(payload) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


class ResultCache:
    """Two-layer (memory + disk) store of JSON-dict results."""

    def __init__(self, subdir: str = "profiles"):
        self.subdir = subdir
        self._memory: OrderedDict = OrderedDict()

    def _remember(self, key: str, value: dict) -> None:
        """Insert into the in-process LRU layer, evicting past the bound."""
        self._memory[key] = value
        self._memory.move_to_end(key)
        limit = knobs.read("REPRO_CACHE_MEM_ENTRIES")
        if limit <= 0:
            return
        evicted = 0
        while len(self._memory) > limit:
            self._memory.popitem(last=False)
            evicted += 1
        if evicted:
            STATS.count("cache.mem_evictions", evicted)

    # -------------------------------------------------------------- layout

    def _root(self) -> Path:
        return knobs.read("REPRO_CACHE_DIR") / self.subdir

    def _path(self, key: str) -> Path:
        return self._root() / f"{key}.json"

    def disk_entries(self) -> int:
        """Number of entries currently in the on-disk layer."""
        root = self._root()
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.glob("*.json"))

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries (quarantine excluded)."""
        root = self._root()
        if not root.is_dir():
            return 0
        total = 0
        for entry in root.glob("*.json"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def quarantined_entries(self) -> int:
        """Number of files moved aside by integrity failures."""
        qdir = self._root() / "quarantine"
        if not qdir.is_dir():
            return 0
        return sum(1 for _ in qdir.glob("*.json"))

    # ----------------------------------------------------------- integrity

    def _verify(self, envelope):
        """The payload of a sound envelope, else None."""
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != SCHEMA_VERSION:
            return None
        if envelope.get("sim_version") != SIM_VERSION:
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return None
        if envelope.get("sha256") != _payload_digest(payload):
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry aside (never back in circulation)."""
        STATS.count("cache.integrity_fails")
        qdir = path.parent / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    # -------------------------------------------------------------- lookup

    def get(self, key: str):
        """The cached dict for *key*, or None on a miss."""
        if knobs.read("REPRO_NO_CACHE"):
            STATS.count("cache.misses")
            return None
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            STATS.count("cache.mem_hits")
            return hit
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
        except OSError:
            STATS.count("cache.misses")
            return None
        except ValueError:
            # Unparseable (truncated/corrupt) JSON: quarantine and miss.
            if path.is_file():
                self._quarantine(path)
            STATS.count("cache.misses")
            return None
        value = self._verify(envelope)
        if value is None:
            # Parseable but unsound: wrong schema, stale SIM_VERSION or a
            # checksum mismatch.  Never surface it.
            self._quarantine(path)
            STATS.count("cache.misses")
            return None
        try:
            os.utime(path)  # LRU touch: disk hits refresh eviction order
        except OSError:
            pass
        self._remember(key, value)
        STATS.count("cache.disk_hits")
        return value

    def put(self, key: str, value: dict) -> None:
        """Store *value* in both layers (atomic, checksummed on disk)."""
        if knobs.read("REPRO_NO_CACHE"):
            return
        self._remember(key, value)
        envelope = {
            "schema": SCHEMA_VERSION,
            "sim_version": SIM_VERSION,
            "sha256": _payload_digest(value),
            "payload": value,
        }
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(envelope, fh, sort_keys=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError:
            # A read-only or full filesystem degrades to memory-only.
            STATS.count("cache.store_errors")
            return
        STATS.count("cache.stores")
        chaos.maybe_corrupt_entry(path)
        if knobs.read("REPRO_CACHE_MAX_MB") is not None:
            self.evict()

    # ------------------------------------------------------------- hygiene

    def evict(self, max_bytes: int = None,
              tmp_max_age: float = _TMP_MAX_AGE_S) -> int:
        """Size-bounded LRU sweep of the disk layer; returns evictions.

        Entries are unlinked oldest-mtime-first until the layer fits in
        *max_bytes* (default ``REPRO_CACHE_MAX_MB``); stale ``*.tmp``
        spill older than *tmp_max_age* seconds is removed first.
        """
        root = self._root()
        if not root.is_dir():
            return 0
        now = time.time()
        for tmp in root.glob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= tmp_max_age:
                    tmp.unlink()
            except OSError:
                pass
        if max_bytes is None:
            megabytes = knobs.read("REPRO_CACHE_MAX_MB")
            if megabytes is None:
                return 0
            max_bytes = int(megabytes * 1024 * 1024)
        entries = []
        for entry in root.glob("*.json"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, entry))
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, entry in sorted(entries):
            if total <= max_bytes:
                break
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            STATS.count("cache.evictions", evicted)
        return evicted

    def clear(self, disk: bool = False) -> None:
        """Drop the in-process layer; optionally the disk layer too.

        The disk pass also removes orphaned ``*.tmp`` spill from
        interrupted ``put`` calls and any quarantined entries.
        """
        self._memory.clear()
        if disk:
            root = self._root()
            if root.is_dir():
                for pattern in ("*.json", "*.tmp", "quarantine/*.json"):
                    for entry in root.glob(pattern):
                        try:
                            entry.unlink()
                        except OSError:
                            pass


#: Shared cache for SM profiles and timing-run summaries.
PROFILE_CACHE = ResultCache()
