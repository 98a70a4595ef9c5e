"""On-disk caching of generated study traces.

Generating the full 6000-job trace takes minutes of CPU; every benchmark
session and CI run used to pay that cost again.  :class:`TraceCache` stores
each generated trace under a key derived from the *content* of its
:class:`~repro.workloads.generator.TraceGeneratorConfig`, so any run with an
equivalent config — regardless of worker or shard count, which do not affect
the result — gets the exact bytes of the first run back.

Entries are written as the versioned compressed ``.npz`` column dump of
:meth:`~repro.workloads.trace.TraceDataset.to_npz` (deterministic bytes,
loads as typed arrays with no row parsing), one ``trace-<key>.npz`` file
per entry; nothing else in the cache directory is ever read as an entry.
*Stale-content* invalidation happens through the fingerprint itself —
entries written by incompatible versions live under different keys and
simply miss.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import uuid
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.exceptions import TraceSchemaError
from repro.telemetry import get_registry, get_tracer
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TRACE_SCHEMA_VERSION, TraceDataset

__all__ = ["CacheEntry", "TRACE_SCHEMA_VERSION", "TraceCache",
           "config_fingerprint"]


def _canonical(value: object) -> object:
    """Reduce a config value to a JSON-serialisable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(config: TraceGeneratorConfig) -> str:
    """A stable content hash of everything that shapes the generated trace.

    The package version is part of the hash so that releases that change
    generator/simulator behaviour invalidate old caches automatically;
    ``TRACE_SCHEMA_VERSION`` covers intentional format breaks in between.
    """
    from repro import __version__

    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "version": __version__,
        "config": _canonical(config),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry: its key, location, size and recency."""

    key: str
    path: Path
    size_bytes: int
    modified: float  # last use (hits bump the mtime, so this is LRU order)

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "path": str(self.path),
            "size_bytes": self.size_bytes,
            "modified": self.modified,
        }


class TraceCache:
    """A directory of cached traces keyed by config fingerprint.

    Hits and misses are counted per instance; entry recency is tracked in
    the filesystem itself — every hit bumps the entry's mtime, so
    :meth:`prune` can evict least-recently-*used* (not least-recently-
    written) entries down to a byte budget, and the ordering survives
    process restarts.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        # Per-instance counters aggregated under shared registry names:
        # ``cache.hits`` et al. keep their historical per-instance
        # semantics (each cache counts from zero, external ``+=`` writers
        # included) while ``repro_cache_*_total`` sums every live cache.
        registry = get_registry()
        self._hits = registry.instance_counter(
            "repro_cache_hits_total",
            help="Trace-cache hits across every TraceCache instance.")
        self._misses = registry.instance_counter(
            "repro_cache_misses_total",
            help="Trace-cache misses across every TraceCache instance.")
        self._evictions = registry.instance_counter(
            "repro_cache_evictions_total",
            help="Trace-cache entries evicted by evict() or prune().")
        self._corrupt = registry.counter(
            "repro_cache_corrupt_total",
            help="Trace-cache entries found corrupt or truncated and "
                 "regenerated as a miss (absent entries not counted).")

    @property
    def hits(self) -> int:
        return self._hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._hits.set_local(value)

    @property
    def misses(self) -> int:
        return self._misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._misses.set_local(value)

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @evictions.setter
    def evictions(self, value: int) -> None:
        self._evictions.set_local(value)

    def path_for(self, key: str) -> Path:
        return self.root / f"trace-{key}.npz"

    def existing_path_for(self, key: str) -> Optional[Path]:
        """The on-disk entry a hit for ``key`` would be served from, if any."""
        path = self.path_for(key)
        return path if path.is_file() else None

    def get(self, key: str, lazy: bool = False) -> Optional[TraceDataset]:
        """The cached trace for ``key``, or None on a miss.

        A missing, corrupt or unreadable entry (e.g. hand-edited, or
        truncated mid-write) counts as a miss and will be overwritten by the
        regenerated trace rather than poisoning every later run; an entry
        that exists but cannot be read also counts in
        ``repro_cache_corrupt_total``.  A
        *schema-version* mismatch, however, raises
        :class:`~repro.core.exceptions.TraceSchemaError` with the expected
        and found versions and the cache path — an entry written under an
        incompatible layout sitting at the exact key this config hashes to
        is a configuration problem to surface, not one to silently re-pay
        minutes of regeneration for on every run.

        ``lazy=True`` defers per-column decompression to first access (see
        :meth:`TraceDataset.from_npz`).
        """
        path = self.path_for(key)
        with get_tracer().span("cache.get", study=key):
            try:
                trace = TraceDataset.from_npz(path, lazy=lazy)
            except TraceSchemaError as exc:
                raise TraceSchemaError(
                    f"cache entry {path} has an incompatible trace schema: "
                    f"{exc}; delete the entry (or point --cache-dir at a "
                    f"fresh directory) to regenerate it") from exc
            except (ValueError, TypeError, KeyError, OSError,
                    zipfile.BadZipFile):
                if path.exists():
                    self._corrupt.inc()
                self.misses += 1
                return None
            found = trace.metadata.get("trace_schema")
            if found is not None and found != TRACE_SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"cache entry {path} holds a trace generated under "
                    f"TRACE_SCHEMA_VERSION={found!r} but this version "
                    f"expects {TRACE_SCHEMA_VERSION}; delete the entry (or "
                    f"point --cache-dir at a fresh directory) to regenerate "
                    f"it")
            self.hits += 1
            self._touch(path)
            return trace

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The exact cached bytes for ``key`` (None on a miss)."""
        path = self.existing_path_for(key)
        if path is None:
            self.misses += 1
            return None
        data = path.read_bytes()
        self.hits += 1
        self._touch(path)
        return data

    @staticmethod
    def _touch(path: Path) -> None:
        """Bump an entry's mtime so LRU pruning sees the hit."""
        try:
            os.utime(path, None)
        except OSError:  # read-only cache dirs still serve hits
            pass

    def put(self, key: str, trace: TraceDataset) -> Path:
        """Store ``trace`` under ``key`` atomically; returns the cache path.

        The trace is written as the deterministic ``.npz`` dump
        (byte-identical to every prior release).  The dump goes to a
        uniquely named scratch file first (a uuid suffix, so concurrent
        writers — or a recycled pid — can never collide) and is renamed into
        place only once fully written; if the dump raises, the scratch is
        removed instead of accumulating as litter.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        with get_tracer().span("cache.put", study=key):
            scratch = path.with_suffix(f".tmp.{uuid.uuid4().hex}")
            try:
                trace.to_npz(scratch)
                scratch.replace(path)
            finally:
                scratch.unlink(missing_ok=True)
            return path

    # -- introspection and eviction ----------------------------------------------------

    def entries(self) -> List[CacheEntry]:
        """Every on-disk entry, least recently used first."""
        found: List[CacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in self.root.iterdir():
            name = path.name
            if not (name.startswith("trace-") and path.suffix == ".npz"
                    and path.is_file()):
                continue
            try:
                stat = path.stat()
            except OSError:  # evicted by a concurrent pruner mid-scan
                continue
            found.append(CacheEntry(
                key=name[len("trace-"):-len(".npz")],
                path=path,
                size_bytes=stat.st_size,
                modified=stat.st_mtime,
            ))
        found.sort(key=lambda entry: (entry.modified, entry.key))
        return found

    def total_bytes(self) -> int:
        """Bytes currently held by every entry of the cache."""
        return sum(entry.size_bytes for entry in self.entries())

    def evict(self, key: str) -> bool:
        """Delete the entry for ``key``; True if one existed."""
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        self.evictions += 1
        return True

    def prune(self, max_bytes: int) -> List[CacheEntry]:
        """Evict least-recently-used entries until ≤ ``max_bytes`` remain.

        Returns the evicted entries (possibly empty).  ``max_bytes=0``
        clears the cache.  Recency is entry mtime, which hits bump — so a
        hot entry survives a prune that drops a colder, newer-written one.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:
            if total <= max_bytes:
                break
            try:
                entry.path.unlink()
            except FileNotFoundError:
                total -= entry.size_bytes
                continue
            except OSError:
                continue
            total -= entry.size_bytes
            self.evictions += 1
            evicted.append(entry)
        return evicted

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
