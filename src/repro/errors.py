"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DFGError(ReproError):
    """A data-flow graph is malformed (cycles, dangling edges, bad ids)."""


class LibraryError(ReproError):
    """A resource library is malformed or a lookup failed."""


class SchedulingError(ReproError):
    """A schedule could not be constructed or failed validation."""


class BindingError(ReproError):
    """Operations could not be bound to resource instances."""


class NoSolutionError(ReproError):
    """No design meets the requested latency and area bounds.

    This mirrors the ``return no solution`` outcome of the paper's
    Figure 6 algorithm.  The partially explored state is attached so
    callers can report how close the search came.
    """

    def __init__(self, message: str, latency: int | None = None,
                 area: int | None = None):
        super().__init__(message)
        self.latency = latency
        self.area = area


class CacheError(ReproError):
    """An engine cache snapshot is unreadable or incompatible.

    Raised by :mod:`repro.core.cache_store` when a snapshot file has
    the wrong magic, a mismatched format version, a failed integrity
    digest, or an undecodable payload.  Callers (the CLI's
    ``--cache-dir``) treat this as "start cold", never as a crash.
    """


class CharacterizationError(ReproError):
    """Gate-level characterization failed (bad netlist, no vectors, ...)."""


class NetlistError(CharacterizationError):
    """A gate-level netlist is structurally invalid."""
