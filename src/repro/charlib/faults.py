"""Single-event-transient fault injection (paper Section 4).

A particle strike at a gate output momentarily flips that node.  The
flip reaches a latch only if the downstream logic propagates it —
*logical masking* absorbs a large share of transients (an upset input
of an AND gate whose other input is 0 changes nothing).  This module
measures logical masking exactly over a vector set by flipping each
node and re-simulating its downstream cone, the standard simulated
fault-injection methodology the paper cites ([8]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.charlib.netlist import Gate, Netlist
from repro.charlib.simulate import all_ones, random_stimulus, simulate
from repro.errors import CharacterizationError


@dataclass(frozen=True)
class FaultResult:
    """Outcome of injecting transients at one node over all vectors."""

    node: str
    vectors: int
    propagated: int   # vectors in which >= 1 primary output flipped

    @property
    def propagation_probability(self) -> float:
        return self.propagated / self.vectors

    @property
    def masking_probability(self) -> float:
        """Fraction of vectors in which the upset was logically masked."""
        return 1.0 - self.propagation_probability


#: The levelized gates, and each net's reader positions in that order.
_FanoutIndex = Tuple[List[Gate], Dict[str, List[int]]]


def _fanout_index(netlist: Netlist) -> _FanoutIndex:
    """The levelized gates, and for each net the positions (in that
    order) of the gates reading it."""
    order = netlist.levelize()
    readers: Dict[str, List[int]] = {}
    for position, gate in enumerate(order):
        for net in dict.fromkeys(gate.inputs):
            readers.setdefault(net, []).append(position)
    return order, readers


def _downstream_order(order: List[Gate], readers: Mapping[str, List[int]],
                      node: str) -> List[Gate]:
    """Gates in the transitive fan-out cone of *node*, in levelized
    order: a walk over the fan-out index, so its cost follows the
    cone's size rather than the netlist's."""
    cone = set()
    stack = [node]
    while stack:
        for position in readers.get(stack.pop(), ()):
            if position not in cone:
                cone.add(position)
                stack.append(order[position].output)
    return [order[position] for position in sorted(cone)]


def inject(netlist: Netlist, node: str,
           baseline: Mapping[str, int],
           vector_count: int) -> FaultResult:
    """Flip *node* in every vector and count propagated upsets.

    ``baseline`` must be a full net-value map from
    :func:`repro.charlib.simulate.simulate` under the same vectors.
    """
    return _inject(netlist, _fanout_index(netlist), node, baseline,
                   vector_count)


def _inject(netlist: Netlist, index: _FanoutIndex, node: str,
            baseline: Mapping[str, int], vector_count: int) -> FaultResult:
    if node not in baseline:
        raise CharacterizationError(f"unknown node {node!r}")
    mask = all_ones(vector_count)
    values = dict(baseline)
    values[node] = ~values[node] & mask
    for gate in _downstream_order(*index, node):
        operands = tuple(values[net] for net in gate.inputs)
        values[gate.output] = gate.gtype.evaluate(operands, mask)
    flipped = 0
    for net in netlist.outputs:
        flipped |= values[net] ^ baseline[net]
    return FaultResult(node, vector_count, bin(flipped).count("1"))


def masking_campaign(netlist: Netlist,
                     vector_count: int = 256,
                     seed: int = 0,
                     nodes: Optional[Sequence[str]] = None
                     ) -> Dict[str, FaultResult]:
    """Fault-inject every (or each listed) gate-output node.

    Returns node → :class:`FaultResult`.  The campaign is exact over
    the sampled vector set: each node is flipped in all vectors
    simultaneously thanks to the bit-parallel representation.  One
    fan-out index serves every injection of the campaign.
    """
    stimulus = random_stimulus(netlist, vector_count, seed)
    baseline = simulate(netlist, stimulus, vector_count)
    if nodes is None:
        nodes = [gate.output for gate in netlist.gates()]
    index = _fanout_index(netlist)
    results = {}
    for node in nodes:
        results[node] = _inject(netlist, index, node, baseline,
                                vector_count)
    return results


def average_masking(results: Mapping[str, FaultResult]) -> float:
    """Mean logical-masking probability over a campaign."""
    if not results:
        raise CharacterizationError("empty fault-injection campaign")
    return sum(r.masking_probability for r in results.values()) / len(results)
