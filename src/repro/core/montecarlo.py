"""Monte-Carlo validation of the analytic reliability model.

Section 5 of the paper *defines* design reliability as a serial
product over operations; this module checks that definition against a
behavioural fault-injection simulation of the synthesized design:
every operation execution independently suffers a soft error with
probability ``1 − R(version)``, replica groups apply their
detection/voting semantics, and a run succeeds when every (effective)
operation result is correct.

The estimator converges to the analytic value by construction *if and
only if* the composition rules are implemented consistently — so the
test suite uses it as an end-to-end cross-check of
:func:`repro.reliability.composition.design_reliability`, the NMR
dispatch, and the copies bookkeeping in :class:`DesignResult`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.core.design import DesignResult
from repro.errors import ReproError


@dataclass(frozen=True)
class MonteCarloReport:
    """Outcome of a reliability-estimation campaign."""

    trials: int
    successes: int
    analytic: float

    @property
    def estimate(self) -> float:
        """Empirical success probability."""
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        """Binomial standard error of the estimate."""
        p = self.estimate
        return math.sqrt(max(p * (1.0 - p), 1e-12) / self.trials)

    def consistent(self, sigmas: float = 4.0) -> bool:
        """True when the analytic value lies within *sigmas* standard
        errors of the empirical estimate.

        The empirical standard error degenerates when every trial
        succeeds (or fails) — at ``estimate == 1.0`` it reports ~0 even
        though the campaign could not distinguish 1.0 from
        ``1 - 1/trials`` — so the tolerance also admits the binomial
        error implied by the *analytic* value (the null hypothesis
        being checked).
        """
        p = self.analytic
        null_err = math.sqrt(max(p * (1.0 - p), 0.0) / self.trials)
        return abs(self.estimate - self.analytic) <= max(
            sigmas * max(self.stderr, null_err), 1e-9)


@lru_cache(maxsize=None)
def _numpy():
    """NumPy for the vectorized campaign, imported on first use, or
    ``None`` when it is not installed (the scalar loop then runs)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _group_survives(reliability: float, copies: int,
                    rng: random.Random) -> bool:
    """Simulate one replica group's execution.

    Semantics match :func:`repro.reliability.nmr.redundant_reliability`:
    a single module must simply not fail; an even group detects
    mismatches and recovers unless *every* replica failed; an odd
    group (≥ 3) majority-votes.
    """
    if copies == 1:
        return rng.random() < reliability
    outcomes = [rng.random() < reliability for _ in range(copies)]
    if copies % 2 == 0:
        return any(outcomes)
    return sum(outcomes) > copies // 2


def _simulate_scalar(per_op: List[Tuple[float, int]], trials: int,
                     rng: random.Random) -> int:
    """Reference per-trial × per-op loop (used when a caller supplies
    its own ``random.Random`` stream, or when numpy is unavailable)."""
    successes = 0
    for _ in range(trials):
        for reliability, copies in per_op:
            if not _group_survives(reliability, copies, rng):
                break
        else:
            successes += 1
    return successes


def _shape_counts(per_op: List[Tuple[float, int]]
                  ) -> "dict[Tuple[float, int], int]":
    """Histogram of distinct ``(reliability, copies)`` group shapes."""
    shapes: dict = {}
    for shape in per_op:
        shapes[shape] = shapes.get(shape, 0) + 1
    return shapes


def _groups_survive(survivors, copies: int):
    """Vectorized :func:`_group_survives`: threshold an array of
    binomial survivor counts by the group's detection/voting rule."""
    if copies == 1:
        return survivors == 1
    if copies % 2 == 0:
        return survivors >= 1
    return survivors > copies // 2


def _simulate_batched(np, per_op: List[Tuple[float, int]], trials: int,
                      seed: int) -> int:
    """Vectorized campaign: binomial survivor draws per replica group.

    For every distinct ``(reliability, copies)`` group shape the number
    of surviving replicas of each operation execution is a binomial
    draw; the group's detection/voting rule then becomes a threshold on
    the survivor count (identical to :func:`_group_survives`):
    a single module must survive outright, an even group recovers
    unless every replica failed, an odd group majority-votes.  One
    ``(trials × ops)`` draw per shape replaces the per-trial Python
    loop.
    """
    rng = np.random.default_rng(seed)
    alive = np.ones(trials, dtype=bool)
    for (reliability, copies), ops in _shape_counts(per_op).items():
        survivors = rng.binomial(copies, reliability, size=(trials, ops))
        alive &= _groups_survive(survivors, copies).all(axis=1)
    return int(alive.sum())


def simulate_design(result: DesignResult,
                    trials: int = 20_000,
                    seed: int = 0,
                    rng: Optional[random.Random] = None
                    ) -> MonteCarloReport:
    """Estimate *result*'s reliability by behavioural fault injection.

    Each trial executes every operation of the design on its replica
    group; the trial succeeds when all groups deliver a correct
    result (the serial system of the paper's Section 5).

    Runs as one batched binomial sampling pass per replica-group shape
    (deterministic per *seed*).  Passing an explicit *rng* selects the
    scalar reference loop driven by that stream instead.
    """
    if trials < 1:
        raise ReproError(f"trials must be positive, got {trials}")
    per_op = _replica_groups(result)
    np = _numpy() if rng is None else None
    if np is not None:
        successes = _simulate_batched(np, per_op, trials, seed)
    else:
        successes = _simulate_scalar(per_op, trials,
                                     rng or random.Random(seed))
    return MonteCarloReport(trials, successes, result.reliability)


def _replica_groups(result: DesignResult) -> List[Tuple[float, int]]:
    """Per-operation ``(reliability, copies)`` replica-group shapes."""
    copies_by_op = result.copies_by_op()
    return [
        (result.allocation[op.op_id].reliability,
         copies_by_op.get(op.op_id, 1))
        for op in result.graph
    ]


def simulate_designs(results: List[DesignResult],
                     trials: int = 20_000,
                     seed: int = 0,
                     rng: Optional[random.Random] = None
                     ) -> List[MonteCarloReport]:
    """Fault-injection campaign over many designs at once.

    Sweeps (Table 2, the extension curves) validate dozens of
    :class:`DesignResult` objects whose allocations reuse the same
    handful of library versions; running :func:`simulate_design` per
    design re-derives the replica-shape histogram and pays one binomial
    sampling pass *per design per shape*.  This entry point groups the
    ``(reliability, copies)`` shapes once across the whole campaign and
    draws a single binomial batch per distinct shape, spanning every
    design that uses it — the per-design success counts then drop out
    of column slices of the shared draw.

    Deterministic for a given ``(results order, trials, seed)``.  The
    per-design reports are *statistically* identical to per-design
    :func:`simulate_design` calls but consume the random stream in a
    different order, so success counts differ from per-item seeding;
    the scalar reference loop remains the semantic oracle and is used
    verbatim when an explicit *rng* is supplied (or numpy is missing),
    simulating each design in order from that one stream.
    """
    results = list(results)
    if trials < 1:
        raise ReproError(f"trials must be positive, got {trials}")
    if not results:
        return []
    per_ops = [_replica_groups(result) for result in results]
    np = _numpy() if rng is None else None
    if np is None:
        stream = rng or random.Random(seed)
        return [MonteCarloReport(trials,
                                 _simulate_scalar(per_op, trials, stream),
                                 result.reliability)
                for result, per_op in zip(results, per_ops)]
    # one shape table for the whole campaign (not rebuilt per design)
    columns: dict = {}
    for idx, per_op in enumerate(per_ops):
        for shape, count in _shape_counts(per_op).items():
            columns.setdefault(shape, []).append((idx, count))
    np_rng = np.random.default_rng(seed)
    alive = np.ones((len(results), trials), dtype=bool)
    for (reliability, copies) in sorted(columns):
        uses = columns[(reliability, copies)]
        total = sum(count for _, count in uses)
        survivors = np_rng.binomial(copies, reliability,
                                    size=(trials, total))
        groups = _groups_survive(survivors, copies)
        col = 0
        for idx, count in uses:
            alive[idx] &= groups[:, col:col + count].all(axis=1)
            col += count
    return [MonteCarloReport(trials, int(alive[idx].sum()),
                             result.reliability)
            for idx, result in enumerate(results)]
