"""Equivalence-class transpile caching.

Per-circuit transpilation is far too slow for a ~600k-circuit study, but the
study's circuits are drawn from a handful of parameterised templates: every
draw of one (family, width) template has the same gate *structure* and
differs only in rotation angles, which never change a layout, routing or
gate-cancellation decision in the pass library.  The whole workload
therefore collapses into a few hundred structural equivalence classes
(:func:`repro.workloads.circuit_metrics.structural_fingerprint`), and each
class needs exactly one transpile per backend and preset level.

This module owns that amortisation at the transpiler layer:

* :func:`backend_fingerprint` — a content hash of everything about a machine
  that can change a transpile or its fidelity estimate (topology, basis,
  calibration regime), so cache entries survive exactly as long as they are
  valid;
* :func:`summarise_transpile` — one pinned, deterministic transpile of a
  class representative plus its ESP, reduced to the plain-data
  :class:`TranspileSummary` that machine ranking consumes;
* :class:`TranspileCache` — an on-disk store of summaries
  (``transpile-<key>.json``) that lives alongside the trace cache in the
  same cache root; the ``transpile-`` prefix keeps the two namespaces
  disjoint (:meth:`TraceCache.entries` filters on ``trace-``).

Determinism contract: a summary's ranking fields are pure functions of
``(structural class, backend fingerprint, level, seed)``.  Pass timings are
wall-clock and ride along for telemetry only — they must never feed a
ranking decision or a fingerprint, so a cached and a freshly computed
summary rank byte-identically (JSON float round-trips are exact).
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import Backend
from repro.fidelity.estimator import estimate_success_probability
from repro.telemetry import get_registry
from repro.transpiler.presets import transpile

__all__ = [
    "TranspileCache",
    "TranspileCacheEntry",
    "TranspileSummary",
    "backend_fingerprint",
    "summarise_transpile",
    "transpile_cache_key",
]

#: Timestamp every class transpile is pinned to: ranking compares machines
#: under their epoch-zero calibration, independent of when a job happens to
#: be submitted, so one summary serves the whole study.
PINNED_COMPILE_TIME = 0.0

#: Seed of the stochastic passes during class transpilation (the historical
#: :class:`~repro.scheduling.policies.MachineSelector` default).
DEFAULT_RANK_SEED = 11


def backend_fingerprint(backend: Backend) -> str:
    """Content hash of the transpile-relevant identity of a machine.

    Covers the coupling map, basis gates and the full calibration regime
    (profile medians, seed, period, drift rates, and the trace schema
    version that fixes how values are drawn from them) — everything that
    can move a layout/routing decision or an ESP estimate.  Queue state, batch
    limits and fleet-timeline fields are deliberately excluded: they change
    which machine a job *may* use, never what a transpile produces.
    """
    from repro.workloads.trace import TRACE_SCHEMA_VERSION

    model = backend.calibration_model
    profile = model.profile
    payload = {
        "trace_schema": TRACE_SCHEMA_VERSION,
        "name": backend.name,
        "qubits": backend.coupling_map.num_qubits,
        "edges": backend.coupling_map.edges,
        "basis": list(backend.basis_gates),
        "simulator": backend.is_simulator,
        "calibration": {
            "seed": model._rng_root.seed,
            "period": model.calibration_period,
            "offset": model.calibration_offset,
            "profile": {
                f: getattr(profile, f)
                for f in sorted(profile.__dataclass_fields__)
            },
            "drift": [model.drift.error_growth_per_hour,
                      model.drift.coherence_decay_per_hour],
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class TranspileSummary:
    """One transpiled equivalence class on one machine, reduced to the
    plain data machine ranking needs.

    ``pass_timings`` is wall-clock telemetry (Chrome-trace pass spans, the
    ``repro_transpile_pass_seconds`` histogram, the Fig. 5 bench) and is
    excluded from ranking and from equality-sensitive consumers.
    """

    family: str
    width: int
    machine: str
    level: int
    seed: int
    class_fingerprint: str
    backend_fingerprint: str
    estimated_success: float
    cx_total: int
    cx_depth: int
    compiled_size: int
    compiled_depth: int
    swap_count: int
    pass_timings: Tuple[Tuple[str, float], ...] = ()

    @property
    def total_pass_seconds(self) -> float:
        return sum(seconds for _, seconds in self.pass_timings)

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "width": self.width,
            "machine": self.machine,
            "level": self.level,
            "seed": self.seed,
            "class_fingerprint": self.class_fingerprint,
            "backend_fingerprint": self.backend_fingerprint,
            "estimated_success": self.estimated_success,
            "cx_total": self.cx_total,
            "cx_depth": self.cx_depth,
            "compiled_size": self.compiled_size,
            "compiled_depth": self.compiled_depth,
            "swap_count": self.swap_count,
            "pass_timings": [[name, seconds]
                             for name, seconds in self.pass_timings],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TranspileSummary":
        return cls(
            family=str(payload["family"]),
            width=int(payload["width"]),
            machine=str(payload["machine"]),
            level=int(payload["level"]),
            seed=int(payload["seed"]),
            class_fingerprint=str(payload["class_fingerprint"]),
            backend_fingerprint=str(payload["backend_fingerprint"]),
            estimated_success=float(payload["estimated_success"]),
            cx_total=int(payload["cx_total"]),
            cx_depth=int(payload["cx_depth"]),
            compiled_size=int(payload["compiled_size"]),
            compiled_depth=int(payload["compiled_depth"]),
            swap_count=int(payload["swap_count"]),
            pass_timings=tuple((str(name), float(seconds))
                               for name, seconds
                               in payload.get("pass_timings", [])),
        )


def summarise_transpile(
    circuit: QuantumCircuit,
    backend: Backend,
    level: int,
    seed: int = DEFAULT_RANK_SEED,
    family: str = "",
    class_fp: Optional[str] = None,
) -> TranspileSummary:
    """Transpile one class representative and reduce it to a summary.

    The transpile is pinned to :data:`PINNED_COMPILE_TIME` and the ESP to
    the same epoch-zero calibration snapshot, so the ranking fields are a
    pure function of the arguments — every worker, process and run computes
    the same floats.
    """
    if class_fp is None:
        from repro.workloads.circuit_metrics import structural_fingerprint
        class_fp = structural_fingerprint(circuit)
    result = transpile(circuit, backend, optimization_level=level,
                       seed=seed, compile_time=PINNED_COMPILE_TIME)
    calibration = backend.calibration_at(PINNED_COMPILE_TIME)
    estimate = estimate_success_probability(result.circuit, calibration)
    return TranspileSummary(
        family=family or circuit.name,
        width=circuit.num_qubits,
        machine=backend.name,
        level=level,
        seed=seed,
        class_fingerprint=class_fp,
        backend_fingerprint=backend_fingerprint(backend),
        estimated_success=estimate.probability,
        cx_total=estimate.cx_metrics.cx_total,
        cx_depth=estimate.cx_metrics.cx_depth,
        compiled_size=result.circuit.size,
        compiled_depth=result.circuit.depth(),
        swap_count=result.swap_count,
        pass_timings=tuple((t.pass_name, t.seconds) for t in result.timings),
    )


def transpile_cache_key(class_fp: str, backend_fp: str, level: int,
                        seed: int = DEFAULT_RANK_SEED) -> str:
    """The cache key of one (class, backend, level) transpile.

    The package version is included so releases that change pass behaviour
    invalidate stale summaries automatically.
    """
    from repro import __version__

    digest = hashlib.sha256(
        f"{class_fp}|{backend_fp}|{level}|{seed}|{__version__}".encode())
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class TranspileCacheEntry:
    """One on-disk transpile-cache entry."""

    key: str
    path: Path
    size_bytes: int
    modified: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "path": str(self.path),
            "size_bytes": self.size_bytes,
            "modified": self.modified,
        }


class TranspileCache:
    """A directory of cached transpile summaries, one JSON file per key.

    Shares its root with :class:`~repro.runner.cache.TraceCache` (the
    ``transpile-`` filename prefix keeps the namespaces disjoint).  Hits
    bump the entry mtime so :meth:`prune` evicts least-recently-*used*
    entries, mirroring the trace cache's LRU discipline.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        registry = get_registry()
        self._hits = registry.instance_counter(
            "repro_transpile_cache_hits_total",
            help="Transpile-cache hits across every TranspileCache "
                 "instance.")
        self._misses = registry.instance_counter(
            "repro_transpile_cache_misses_total",
            help="Transpile-cache misses across every TranspileCache "
                 "instance.")
        self._evictions = registry.instance_counter(
            "repro_transpile_cache_evictions_total",
            help="Transpile-cache entries evicted by evict() or prune().")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def path_for(self, key: str) -> Path:
        return self.root / f"transpile-{key}.json"

    def get(self, key: str) -> Optional[TranspileSummary]:
        """The cached summary for ``key``, or None on a miss.

        A corrupt entry (truncated write, hand-edited) counts as a miss and
        is overwritten by the recomputed summary.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            summary = TranspileSummary.from_dict(payload)
        except (OSError, ValueError, TypeError, KeyError):
            self._misses.inc()
            return None
        self._hits.inc()
        try:
            os.utime(path, None)
        except OSError:  # read-only cache dirs still serve hits
            pass
        return summary

    def put(self, key: str, summary: TranspileSummary) -> Path:
        """Store ``summary`` under ``key`` atomically."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        scratch = path.with_suffix(f".tmp.{uuid.uuid4().hex}")
        try:
            scratch.write_text(json.dumps(summary.as_dict(), sort_keys=True))
            scratch.replace(path)
        finally:
            scratch.unlink(missing_ok=True)
        return path

    def entries(self) -> List[TranspileCacheEntry]:
        """Every on-disk entry, least recently used first."""
        found: List[TranspileCacheEntry] = []
        if not self.root.is_dir():
            return found
        for path in self.root.iterdir():
            if not (path.name.startswith("transpile-")
                    and path.suffix == ".json" and path.is_file()):
                continue
            try:
                stat = path.stat()
            except OSError:  # evicted by a concurrent pruner mid-scan
                continue
            found.append(TranspileCacheEntry(
                key=path.name[len("transpile-"):-len(".json")],
                path=path,
                size_bytes=stat.st_size,
                modified=stat.st_mtime,
            ))
        found.sort(key=lambda entry: (entry.modified, entry.key))
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def evict(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except OSError:
            return False
        self._evictions.inc()
        return True

    def prune(self, max_bytes: int) -> List[TranspileCacheEntry]:
        """Evict LRU entries until at most ``max_bytes`` remain."""
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted: List[TranspileCacheEntry] = []
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
            self._evictions.inc()
            evicted.append(entry)
        return evicted

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
