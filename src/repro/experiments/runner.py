"""Shared experiment plumbing: result tables, formatting, and the
parallel experiment executor.

``run_tasks`` is re-exported from :mod:`repro.parallel`;
:func:`run_suites` adds the crash-safety loop for multi-table runs
(``experiment all``): each named group of tasks is executed and
yielded as soon as it finishes, with a *checkpoint* callback between
groups so partial results (e.g. the ``--cache-dir`` snapshot) are
persisted even if a later table crashes the process."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.parallel import Task as ExperimentTask
from repro.parallel import run_tasks

__all__ = ["ExperimentTable", "ExperimentTask", "improvement", "mean",
           "run_suites", "run_tasks"]


def run_suites(suites: Mapping[str, Sequence[ExperimentTask]],
               names: Optional[Sequence[str]] = None, *,
               workers: Optional[int] = None,
               checkpoint: Optional[Callable[[str], None]] = None,
               ) -> Iterator[Tuple[str, List[object]]]:
    """Run named groups of experiment tasks, yielding each on completion.

    A lazy generator: group *name*'s results are yielded as soon as
    its tasks finish, and *checkpoint(name)* runs after the caller has
    consumed them — so a run that dies on table N still leaves behind
    everything tables 1..N-1 produced and checkpointed.  *workers* is
    forwarded to :func:`repro.parallel.run_tasks` unchanged.
    """
    for name in (list(suites) if names is None else names):
        results = run_tasks(suites[name], workers=workers)
        yield name, results
        if checkpoint is not None:
            checkpoint(name)


@dataclass
class ExperimentTable:
    """A printable experiment outcome: headers + rows + notes."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.headers)} columns")
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _cell(value: object) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value != 0.0 and abs(value) < 1e-3:
                return f"{value:.3e}"
            return f"{value:.5f}"
        return str(value)

    def as_text(self) -> str:
        rendered = [[self._cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in rendered:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        header = "  ".join(h.ljust(widths[i])
                           for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append("  ".join(cell.rjust(widths[i])
                                   for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def as_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._cell(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def column(self, header: str) -> List[object]:
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }


def improvement(ours: Optional[float],
                reference: Optional[float]) -> Optional[float]:
    """Percentage improvement, tolerating infeasible (None) cells."""
    if ours is None or reference is None or reference == 0:
        return None
    return 100.0 * (ours - reference) / reference


def mean(values: Sequence[Optional[float]]) -> Optional[float]:
    """Mean of the non-None entries (None if empty)."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return sum(present) / len(present)
