"""HLS substrate: scheduling, binding and metrics.

The paper's Figure 6 algorithm is built on these primitives:
``ASAP`` / ``ALAP`` timing (:mod:`repro.hls.timing`), the partition-
density scheduler (:mod:`repro.hls.density`), left-edge binding
(:mod:`repro.hls.binding`) and area metrics (:mod:`repro.hls.metrics`).
A resource-constrained list scheduler (:mod:`repro.hls.listsched`)
serves as an ablation point and test oracle.
"""

from repro.hls.binding import Binding, Instance, left_edge_bind
from repro.hls.density import asap_schedule, density_schedule
from repro.hls.fastsched import (
    batched_density_schedules,
    batched_time_frames,
    batched_timing,
    fast_alap_starts,
    fast_asap_latency,
    fast_asap_starts,
    fast_density_schedule,
    fast_list_schedule,
    fast_time_frames,
)
from repro.hls.listsched import list_schedule, min_latency_with_counts
from repro.hls.pipeline import (
    min_initiation_interval,
    modulo_bind,
    modulo_list_schedule,
    pipelined_realization,
)
from repro.hls.registers import (
    Lifetime,
    RegisterAllocation,
    allocate_registers,
    min_register_bound,
    value_lifetimes,
)
from repro.hls.metrics import (
    AREA_INSTANCES,
    AREA_MODELS,
    AREA_VERSIONS,
    average_utilization,
    instance_summary,
    total_area,
)
from repro.hls.schedule import Schedule, schedule_from_starts
from repro.hls.timing import (
    alap_starts,
    asap_latency,
    asap_starts,
    mobility,
    time_frames,
)

__all__ = [
    "Schedule",
    "schedule_from_starts",
    "asap_starts",
    "alap_starts",
    "asap_latency",
    "time_frames",
    "mobility",
    "density_schedule",
    "asap_schedule",
    "fast_asap_starts",
    "fast_alap_starts",
    "fast_asap_latency",
    "fast_time_frames",
    "fast_density_schedule",
    "fast_list_schedule",
    "batched_timing",
    "batched_time_frames",
    "batched_density_schedules",
    "list_schedule",
    "min_latency_with_counts",
    "Binding",
    "Instance",
    "left_edge_bind",
    "total_area",
    "instance_summary",
    "average_utilization",
    "AREA_INSTANCES",
    "AREA_VERSIONS",
    "AREA_MODELS",
    "modulo_list_schedule",
    "modulo_bind",
    "min_initiation_interval",
    "pipelined_realization",
    "Lifetime",
    "RegisterAllocation",
    "allocate_registers",
    "value_lifetimes",
    "min_register_bound",
]
