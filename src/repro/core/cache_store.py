"""Persistent snapshots of :class:`EvaluationEngine` caches.

A snapshot is an engine's caches in the engine's own key form, plus
the two tables that give those keys meaning: the graph key table
(graph content -> graph id) and the version code table (resource
version -> code).  Restoring one adopts tables and layers into a
*fresh* engine as they are, with no per-key translation; an engine
that has already registered a graph or interned a version raises
:class:`~repro.errors.CacheError` instead, since the ids and codes it
handed out could clash with the snapshot's.  The CLI's ``--cache-dir``
uses this to persist the default engine's caches across invocations:
each run restores into a new engine (with ``--workers N`` only the
parent's caches are kept: worker caches are discarded when the worker
exits).

On-disk format (version |SNAPSHOT_VERSION|)::

    REPROCACHE v<version>\\n
    <sha256 hex digest of the payload>\\n
    <pickled payload>

The payload is a pickle of ``{"version": int, "graph_keys": {content:
id}, "version_codes": {version: code}, "layers": {layer name: {key:
value}}}``.  The header is checked before a single payload byte is
decoded: a wrong magic, another format version, or a digest mismatch
raises :class:`~repro.errors.CacheError`, and so does a payload that
turns out not to have the promised shape, including key tables that do
not map one-to-one onto ``0..n-1``.  Every reader in this package
treats ``CacheError`` as "start cold", never as a crash.

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
from typing import Dict, Mapping

from repro.errors import CacheError
from repro.core.engine import EvaluationEngine

#: Bumped whenever the layer contents or key shapes change shape.
#: Version 2: ``probes`` values are list-schedule latencies (ints), not
#: schedules.  Version 3: the ``paths`` layer (latency-loop paths).
#: Version 4: ``schedules`` values are the schedule alone (or ``None``),
#: and the ``list`` realization layer is gone.  Version 5: keys in the
#: engine's own form, with its graph key and version code tables.
#: Version 6: ``evaluations`` keys lose their ``stop_at_area`` slot,
#: and ``timing`` values are the critical-path latency alone (an int).
SNAPSHOT_VERSION = 6

MAGIC = b"REPROCACHE"

#: Default snapshot file name inside a ``--cache-dir`` directory.  The
#: version lives in the file *header*, not the name: after a format
#: bump, the next load of an old file hits the version-mismatch path
#: (reported, ignored) and the next save overwrites it — no orphaned
#: per-version files accumulate.
SNAPSHOT_BASENAME = "engine-cache.bin"


@dataclass
class EngineSnapshot:
    """A serializable capture of one engine's caches and key tables."""

    version: int = SNAPSHOT_VERSION
    layers: Dict[str, dict] = field(default_factory=dict)
    graph_keys: Dict[tuple, int] = field(default_factory=dict)
    version_codes: Dict[object, int] = field(default_factory=dict)

    @property
    def entry_count(self) -> int:
        """Total entries across all layers."""
        return sum(len(entries) for entries in self.layers.values())


def snapshot_engine(engine: EvaluationEngine) -> EngineSnapshot:
    """Capture *engine*'s current caches and key tables."""
    return EngineSnapshot(version=SNAPSHOT_VERSION, **engine.cache_state())


def merge_snapshot(engine: EvaluationEngine,
                   snapshot: EngineSnapshot) -> int:
    """Restore *snapshot* into the fresh *engine*; returns the entries
    it holds afterwards.

    Raises :class:`~repro.errors.CacheError` on a version mismatch,
    when *engine* is not fresh, and when the payload turns out not to
    have the promised shape — a digest only proves the file
    round-tripped intact, not that its writer produced well-formed
    layers, so shape errors must surface as the same clean, catchable
    error.  A failed restore adopts nothing.
    """
    if snapshot.version != SNAPSHOT_VERSION:
        raise CacheError(
            f"engine cache snapshot has format version "
            f"{snapshot.version}, this build reads {SNAPSHOT_VERSION}")
    try:
        return engine.restore_cache_state(
            {"graph_keys": snapshot.graph_keys,
             "version_codes": snapshot.version_codes,
             "layers": snapshot.layers})
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(
            f"engine cache snapshot has malformed layers: {exc}") from exc


def dumps(snapshot: EngineSnapshot) -> bytes:
    """Serialize *snapshot* to the versioned, digest-checked wire format."""
    payload = pickle.dumps(
        {"version": snapshot.version, "graph_keys": snapshot.graph_keys,
         "version_codes": snapshot.version_codes,
         "layers": snapshot.layers},
        protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    header = MAGIC + b" v%d\n" % snapshot.version
    return header + digest + b"\n" + payload


def _check_key_table(name: str, table: Mapping[object, int]) -> None:
    """Raise :class:`CacheError` unless *table* maps its keys
    one-to-one onto ``0..len(table)-1``, the ids its engine assigns."""
    if sorted(table.values()) != list(range(len(table))):
        raise CacheError(
            f"engine cache snapshot has an inconsistent {name} table")


def loads(data: bytes) -> EngineSnapshot:
    """Parse :func:`dumps` output, rejecting anything malformed.

    Raises
    ------
    CacheError
        Wrong magic, unparsable or mismatched format version, digest
        mismatch (truncation/corruption), an undecodable payload, or a
        key table that does not map one-to-one onto ``0..n-1``.
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
        snapshot = EngineSnapshot(
            version=version, layers=dict(decoded["layers"]),
            graph_keys=dict(decoded["graph_keys"]),
            version_codes=dict(decoded["version_codes"]))
        _check_key_table("graph key", snapshot.graph_keys)
        _check_key_table("version code", snapshot.version_codes)
    except CacheError:
        raise
    except Exception as exc:  # pickle raises a zoo of error types
        raise CacheError(
            f"engine cache snapshot payload is undecodable: {exc}") from exc
    return snapshot


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
