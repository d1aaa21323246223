"""Resource versions: the characterized implementations of Table 1.

A *version* is one concrete hardware implementation of a resource type
— e.g. "Adder 1" is the ripple-carry adder with area 1 unit, delay 2
clock cycles and reliability 0.999.  The synthesis algorithm chooses a
version per operation, trading reliability against area and delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import LibraryError


@dataclass(frozen=True, order=True)
class ResourceVersion:
    """One implementation of a resource type.

    Attributes
    ----------
    rtype:
        Resource class this version implements (``"add"``, ``"mul"``).
    name:
        Version name, unique within the library (e.g. ``"adder1"``).
    area:
        Area in abstract units (Table 1, column 2).
    delay:
        Latency in clock cycles (Table 1, column 3).
    reliability:
        Probability of soft-error-free operation over the reference
        interval (Table 1, column 4); must lie in (0, 1].
    description:
        Optional provenance note (e.g. ``"ripple-carry"``).
    """

    rtype: str
    name: str
    area: int
    delay: int
    reliability: float
    description: str = ""

    def __post_init__(self):
        if not self.rtype:
            raise LibraryError("version rtype must be non-empty")
        if not self.name:
            raise LibraryError("version name must be non-empty")
        if self.area <= 0:
            raise LibraryError(
                f"version {self.name!r}: area must be positive, got {self.area}")
        if self.delay <= 0:
            raise LibraryError(
                f"version {self.name!r}: delay must be positive, got {self.delay}")
        if not (0.0 < self.reliability <= 1.0):
            raise LibraryError(
                f"version {self.name!r}: reliability must be in (0, 1], "
                f"got {self.reliability}")

    @property
    def failure_rate(self) -> float:
        """Failure rate λ implied by R = exp(−λ) per reference interval."""
        return -math.log(self.reliability)

    def dominates(self, other: "ResourceVersion") -> bool:
        """True if this version is no worse than *other* on every axis
        (area, delay, reliability) and strictly better on one."""
        if self.rtype != other.rtype:
            return False
        no_worse = (self.area <= other.area and self.delay <= other.delay
                    and self.reliability >= other.reliability)
        strictly = (self.area < other.area or self.delay < other.delay
                    or self.reliability > other.reliability)
        return no_worse and strictly

    def to_dict(self) -> dict:
        """Serialize to a plain dictionary (JSON-friendly)."""
        return {
            "rtype": self.rtype,
            "name": self.name,
            "area": self.area,
            "delay": self.delay,
            "reliability": self.reliability,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ResourceVersion":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                rtype=str(data["rtype"]),
                name=str(data["name"]),
                area=int(data["area"]),
                delay=int(data["delay"]),
                reliability=float(data["reliability"]),
                description=str(data.get("description", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LibraryError(f"malformed version dict: {exc}") from exc
