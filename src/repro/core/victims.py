"""Victim selection for the Figure 6 greedy loops.

The paper's latency-reduction loop picks "the node on the critical
path with highest delay" and replaces its version with a faster one.
When several critical-path nodes tie on delay, the choice matters: a
node on *one of several parallel* critical paths buys nothing until
its siblings are also downgraded.  We therefore refine the tie-break
with the actual critical-path reduction the swap would achieve, and
then with the reliability price of the swap — both computable in
milliseconds at these problem sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.dfg.graph import DataFlowGraph
from repro.hls import fastsched
from repro.hls.timing import asap_latency, time_frames
from repro.library.library import ResourceLibrary
from repro.library.version import ResourceVersion


@dataclass(frozen=True)
class LatencyVictim:
    """A critical-path operation selected for a faster version."""

    op_id: str
    old_version: ResourceVersion
    new_version: ResourceVersion
    benefit: int            # critical-path cycles saved by the swap
    reliability_loss: float


def critical_operations(graph: DataFlowGraph,
                        delays: Mapping[str, int],
                        timing=None) -> List[str]:
    """Operations lying on some critical path (zero mobility at the
    minimum latency).

    *timing*, when given, is an :class:`~repro.core.engine.EvaluationEngine`
    (or anything with its ``latency`` method) answering the
    critical-path query from its cache.
    """
    if timing is not None:
        latency = timing.latency(graph, delays)
    else:
        latency = asap_latency(graph, delays)
    if getattr(timing, "cache_enabled", False):
        # a cached engine runs the compiled core: the identical integer
        # fixpoint over its arrays, without the reference's per-call
        # topological re-sorts
        frames = fastsched.fast_time_frames(graph, delays, latency)
    else:
        frames = time_frames(graph, delays, latency)
    return [op_id for op_id, (lo, hi) in frames.items() if lo == hi]


def select_latency_victim(graph: DataFlowGraph,
                          library: ResourceLibrary,
                          allocation: Mapping[str, ResourceVersion],
                          timing=None) -> Optional[LatencyVictim]:
    """Choose the next operation to speed up, or ``None`` if no
    critical-path operation has a faster version.

    Selection key, in order: highest current delay (the paper's rule),
    largest critical-path reduction, smallest reliability loss, id.
    The replacement is the most reliable strictly-faster version.

    With *timing* (an :class:`~repro.core.engine.EvaluationEngine`),
    the baseline latency comes from the timing cache.  Each candidate
    swap is priced with a full ASAP pass — the compiled kernel when the
    engine's cache is on, as the engine's own timing does — and never
    stored in the engine.
    """
    delays = {op_id: version.delay for op_id, version in allocation.items()}
    if timing is not None:
        baseline = timing.latency(graph, delays)
    else:
        baseline = asap_latency(graph, delays)
    swapped_latency = fastsched.fast_asap_latency \
        if getattr(timing, "cache_enabled", False) else asap_latency

    best: Optional[LatencyVictim] = None
    best_key = None
    for op_id in critical_operations(graph, delays, timing):
        current = allocation[op_id]
        faster = library.faster_than(current)
        if not faster:
            continue
        replacement = faster[0]  # the most reliable faster version
        trial = dict(delays)
        trial[op_id] = replacement.delay
        benefit = baseline - swapped_latency(graph, trial)
        loss = current.reliability - replacement.reliability
        key = (-current.delay, -benefit, loss, op_id)
        if best_key is None or key < best_key:
            best_key = key
            best = LatencyVictim(op_id, current, replacement, benefit, loss)
    return best


@dataclass(frozen=True)
class GroupSwap:
    """A candidate re-allocation of one version group.

    ``ops`` are all operations currently on ``old_version``; the swap
    moves every one of them to ``new_version`` (the paper's line 26
    moves a victim *and everything sharing its resource*, which for
    version-pure sharing is exactly the version group).
    """

    old_version: ResourceVersion
    new_version: ResourceVersion
    ops: tuple

    def apply(self, allocation: Dict[str, ResourceVersion]
              ) -> Dict[str, ResourceVersion]:
        updated = dict(allocation)
        for op_id in self.ops:
            updated[op_id] = self.new_version
        return updated


def group_swaps(library: ResourceLibrary,
                allocation: Mapping[str, ResourceVersion],
                smaller_only: bool = False) -> List[GroupSwap]:
    """Enumerate whole-group version swaps available from *allocation*.

    With ``smaller_only`` the replacement must have strictly smaller
    area than the current version — the paper's literal area-reduction
    rule.  Otherwise every alternative version is considered and the
    caller judges candidates by their realized total area, which also
    captures swaps that *reduce instance counts* (e.g. replacing two
    ripple-carry adders by one shared fast adder).
    """
    groups: Dict[str, List[str]] = {}
    versions: Dict[str, ResourceVersion] = {}
    for op_id, version in allocation.items():
        groups.setdefault(version.name, []).append(op_id)
        versions[version.name] = version

    swaps: List[GroupSwap] = []
    for version_name, ops in groups.items():
        current = versions[version_name]
        for alternative in library.versions_of(current.rtype):
            if alternative.name == current.name:
                continue
            if smaller_only and alternative.area >= current.area:
                continue
            swaps.append(GroupSwap(current, alternative,
                                   tuple(sorted(ops))))
    return swaps
