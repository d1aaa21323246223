"""Persistent, shareable snapshots of :class:`EvaluationEngine` caches.

The engine's memo layers are pure functions of graph *content* — not of
process-local object identities — so they can outlive the process that
computed them.  This module defines the snapshot format and the two
operations built on it:

* the CLI's ``--cache-dir`` persists the default engine's caches across
  invocations (with ``--workers N`` only the parent's: worker caches
  are discarded when the worker exits);
* tests snapshot an engine mid-flight and assert a reloaded engine is
  behaviourally identical.

On-disk format (version |SNAPSHOT_VERSION|)::

    REPROCACHE v<version>\\n
    <sha256 hex digest of the payload>\\n
    <pickled payload>

The payload is a pickle of ``{"version": int, "layers": {layer name:
[(content key, value), ...]}}`` where every content key starts with the
graph's content tuple (name, operations, edges) instead of a
process-local id — the content addressing that makes snapshots
mergeable anywhere.  The header is checked before a single payload byte
is decoded: a wrong magic, a future format version, or a digest
mismatch raises :class:`~repro.errors.CacheError`, and so does a
payload whose decoded layers turn out not to have the promised shape.
Every reader in this package treats ``CacheError`` as "start cold",
never as a crash.

Trust model: the digest detects *corruption* (truncated writes, bit
rot), not tampering — the payload is a pickle, and unpickling
attacker-controlled bytes executes arbitrary code.  A cache dir
therefore carries the same trust as the source tree itself: point
``--cache-dir`` only at directories you would run code from, not at
world-writable paths.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CacheError
from repro.core.engine import EvaluationEngine

#: Bumped whenever the layer contents or key shapes change shape.
#: Version 2: ``probes`` values are list-schedule latencies (ints), not
#: schedules.  Version 3: the ``paths`` layer (latency-loop paths).
#: Version 4: ``schedules`` values are the schedule alone (or ``None``),
#: and the ``list`` realization layer is gone.
SNAPSHOT_VERSION = 4

MAGIC = b"REPROCACHE"

#: Default snapshot file name inside a ``--cache-dir`` directory.  The
#: version lives in the file *header*, not the name: after a format
#: bump, the next load of an old file hits the version-mismatch path
#: (reported, ignored) and the next save overwrites it — no orphaned
#: per-version files accumulate.
SNAPSHOT_BASENAME = "engine-cache.bin"


@dataclass
class EngineSnapshot:
    """A serializable capture of one engine's cache layers."""

    version: int = SNAPSHOT_VERSION
    layers: Dict[str, List[Tuple[tuple, object]]] = field(
        default_factory=dict)

    @property
    def entry_count(self) -> int:
        """Total entries across all layers."""
        return sum(len(entries) for entries in self.layers.values())


def snapshot_engine(engine: EvaluationEngine) -> EngineSnapshot:
    """Capture *engine*'s current caches as a content-addressed snapshot."""
    return EngineSnapshot(version=SNAPSHOT_VERSION,
                          layers=engine.export_cache_state())


def merge_snapshot(engine: EvaluationEngine,
                   snapshot: EngineSnapshot) -> int:
    """Merge *snapshot* into *engine*; returns the entries adopted.

    Raises :class:`~repro.errors.CacheError` on a version mismatch, and
    also when the layer payload turns out not to have the promised
    shape mid-merge — a digest only proves the file round-tripped
    intact, not that its writer produced well-formed layers, so shape
    errors must surface as the same clean, catchable error.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise CacheError(
            f"engine cache snapshot has format version "
            f"{snapshot.version}, this build reads {SNAPSHOT_VERSION}")
    try:
        return engine.merge_cache_state(snapshot.layers)
    except CacheError:
        raise
    except Exception as exc:
        # a malformed entry may have been adopted before the failure;
        # drop everything rather than leave a half-merged cache behind
        engine.clear()
        raise CacheError(
            f"engine cache snapshot has malformed layer entries: "
            f"{exc}") from exc


def dumps(snapshot: EngineSnapshot) -> bytes:
    """Serialize *snapshot* to the versioned, digest-checked wire format."""
    payload = pickle.dumps(
        {"version": snapshot.version, "layers": snapshot.layers},
        protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    header = MAGIC + b" v%d\n" % snapshot.version
    return header + digest + b"\n" + payload


def loads(data: bytes) -> EngineSnapshot:
    """Parse :func:`dumps` output, rejecting anything malformed.

    Raises
    ------
    CacheError
        Wrong magic, unparsable or mismatched format version, digest
        mismatch (truncation/corruption), or an undecodable payload.
    """
    if not data.startswith(MAGIC + b" v"):
        raise CacheError("not an engine cache snapshot (bad magic)")
    try:
        header, digest_line, payload = data.split(b"\n", 2)
    except ValueError:
        raise CacheError("engine cache snapshot is truncated") from None
    try:
        version = int(header[len(MAGIC) + 2:])
    except ValueError:
        raise CacheError(
            "engine cache snapshot has an unreadable version header"
        ) from None
    if version != SNAPSHOT_VERSION:
        raise CacheError(
            f"engine cache snapshot has format version {version}, "
            f"this build reads {SNAPSHOT_VERSION}")
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    if digest != digest_line.strip():
        raise CacheError(
            "engine cache snapshot failed its integrity check "
            "(corrupted or truncated file)")
    try:
        decoded = pickle.loads(payload)
        layers = dict(decoded["layers"])
    except Exception as exc:  # pickle raises a zoo of error types
        raise CacheError(
            f"engine cache snapshot payload is undecodable: {exc}") from exc
    return EngineSnapshot(version=version, layers=layers)


@dataclass
class CompactionStats:
    """What :func:`compact_snapshot` removed and why."""

    entries_before: int = 0
    entries_after: int = 0
    pruned_density: int = 0    # bound-dominated density points dropped

    @property
    def removed(self) -> int:
        return self.entries_before - self.entries_after


def compact_snapshot(snapshot: EngineSnapshot
                     ) -> Tuple[EngineSnapshot, CompactionStats]:
    """Shrink *snapshot* without changing what loading it can compute.

    Every cache layer is a pure memo, so dropping entries can only
    cost future recomputation, never correctness — the property tests
    assert cold ≡ warm ≡ compacted.  One reduction runs, bound
    dominance: density entries share a key prefix of ``(graph,
    allocation)`` and differ only in latency; every density scan walks
    the same allocation's latencies in ascending order from the same
    critical path and keeps the minimum-area point.  An entry whose
    realized area does not *improve on* every feasible entry at a
    strictly lower latency can therefore never be the scan's winner —
    it is pruned (infeasible/``None`` markers are tiny and memoize
    real work, so they stay).

    Returns the compacted snapshot (a new object; the input is not
    mutated) and a :class:`CompactionStats`.
    """
    layers = {name: list(entries)
              for name, entries in snapshot.layers.items()}
    stats = CompactionStats(
        entries_before=sum(len(entries) for entries in layers.values()))

    density = layers.get("density")
    if density:
        groups: Dict[tuple, list] = {}
        for index, (key, value) in enumerate(density):
            groups.setdefault(tuple(key[:-1]), []).append(
                (key[-1], index, value))
        doomed = set()
        for group in groups.values():
            best_area: Optional[int] = None
            for _latency, index, value in sorted(
                    group, key=lambda item: item[0]):
                if value is None:
                    continue  # infeasibility markers stay
                area = value[1].area  # (schedule, binding) pair
                if best_area is not None and area >= best_area:
                    doomed.add(index)
                else:
                    best_area = area
        if doomed:
            stats.pruned_density = len(doomed)
            layers["density"] = [entry for index, entry
                                 in enumerate(density)
                                 if index not in doomed]

    compacted = EngineSnapshot(version=snapshot.version, layers=layers)
    stats.entries_after = compacted.entry_count
    return compacted, stats


def snapshot_path(cache_dir: str) -> str:
    """The canonical snapshot file path inside *cache_dir*."""
    return os.path.join(cache_dir, SNAPSHOT_BASENAME)


def save(snapshot: EngineSnapshot, path: str) -> None:
    """Write *snapshot* to *path* atomically (write-then-rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(dumps(snapshot))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def load(path: str) -> EngineSnapshot:
    """Read a snapshot file; :class:`CacheError` on any malformation."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CacheError(
            f"engine cache snapshot {path!r} is unreadable: {exc}") from exc
    return loads(data)
