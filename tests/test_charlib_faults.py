"""Unit tests for fault injection, masking models and characterization."""

import pytest

from repro.charlib import (
    CharacterizationConfig,
    MaskingModel,
    Netlist,
    average_masking,
    brent_kung_adder,
    carry_save_multiplier,
    characterize_component,
    characterize_library,
    inject,
    kogge_stone_adder,
    masking_campaign,
    node_qcritical,
    paper_fitted_qs,
    paper_scale,
    random_stimulus,
    ripple_carry_adder,
    simulate,
)
from repro.charlib import faults
from repro.charlib.simulate import all_ones
from repro.errors import CharacterizationError
from repro.library import PAPER_QCRITICAL


def and_gate() -> Netlist:
    n = Netlist("and")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("and2", ["a", "b"], output="y")
    n.add_output("y")
    return n


def masked_chain() -> Netlist:
    """x feeds an AND with constant-0-ish second leg rarely enabling."""
    n = Netlist("chain")
    n.add_input("a")
    n.add_input("b")
    n.add_input("c")
    x = n.add_gate("inv", ["a"], output="x")
    y = n.add_gate("and2", [x, "b"], output="y")
    z = n.add_gate("and2", [y, "c"], output="z")
    n.add_output("z")
    return n


class TestInjection:
    def test_output_node_always_propagates(self):
        n = and_gate()
        stim = random_stimulus(n, 64, seed=1)
        baseline = simulate(n, stim, 64)
        result = inject(n, "y", baseline, 64)
        assert result.propagation_probability == 1.0
        assert result.masking_probability == 0.0

    def test_masked_node_propagates_conditionally(self):
        n = masked_chain()
        # x propagates only when b & c are both 1: probability 1/4
        stim = {"a": 0, "b": 0b1100, "c": 0b1010}
        baseline = simulate(n, stim, 4)
        result = inject(n, "x", baseline, 4)
        assert result.propagated == 1  # only the b=c=1 vector
        assert result.masking_probability == pytest.approx(0.75)

    def test_unknown_node(self):
        n = and_gate()
        stim = random_stimulus(n, 8, seed=0)
        baseline = simulate(n, stim, 8)
        with pytest.raises(CharacterizationError):
            inject(n, "ghost", baseline, 8)

    def test_campaign_covers_all_gates(self):
        n = masked_chain()
        results = masking_campaign(n, vector_count=128, seed=3)
        assert set(results) == {"x", "y", "z"}
        for r in results.values():
            assert 0.0 <= r.masking_probability <= 1.0

    def test_campaign_deterministic(self):
        n = brent_kung_adder(4)
        a = masking_campaign(n, vector_count=64, seed=9)
        b = masking_campaign(n, vector_count=64, seed=9)
        assert {k: v.propagated for k, v in a.items()} == \
               {k: v.propagated for k, v in b.items()}

    def test_average_masking(self):
        n = masked_chain()
        results = masking_campaign(n, vector_count=256, seed=1)
        assert 0.0 < average_masking(results) < 1.0

    def test_average_masking_empty(self):
        with pytest.raises(CharacterizationError):
            average_masking({})

    def test_prefix_adders_mask_more_than_ripple(self):
        # ripple-carry XOR chains propagate nearly everything; prefix
        # trees have AND/OR cells that logically absorb upsets
        rca = average_masking(masking_campaign(ripple_carry_adder(8), 128, 5))
        ks = average_masking(masking_campaign(kogge_stone_adder(8), 128, 5))
        assert ks > rca


def rescan_cone(netlist, node):
    """The fan-out cone by its definition: one pass over every
    levelized gate, growing the set of affected nets."""
    affected = {node}
    cone = []
    for gate in netlist.levelize():
        if any(net in affected for net in gate.inputs):
            affected.add(gate.output)
            cone.append(gate)
    return cone


CONE_NETLISTS = [ripple_carry_adder(8), kogge_stone_adder(8),
                 carry_save_multiplier(4)]


class TestFanoutCones:
    @pytest.mark.parametrize("netlist", CONE_NETLISTS,
                             ids=lambda n: n.name)
    def test_every_cone_matches_the_rescan(self, netlist):
        index = faults._fanout_index(netlist)
        nodes = netlist.inputs + [gate.output for gate in netlist.gates()]
        for node in nodes:
            assert faults._downstream_order(*index, node) == \
                rescan_cone(netlist, node), node

    @pytest.mark.parametrize("netlist", CONE_NETLISTS,
                             ids=lambda n: n.name)
    def test_campaign_matches_rescan_injection(self, netlist):
        vectors = 64
        baseline = simulate(netlist, random_stimulus(netlist, vectors, 2),
                            vectors)
        mask = all_ones(vectors)
        campaign = masking_campaign(netlist, vectors, seed=2)
        for gate in netlist.gates():
            values = dict(baseline)
            values[gate.output] = ~values[gate.output] & mask
            for member in rescan_cone(netlist, gate.output):
                values[member.output] = member.gtype.evaluate(
                    tuple(values[net] for net in member.inputs), mask)
            flipped = 0
            for net in netlist.outputs:
                flipped |= values[net] ^ baseline[net]
            assert campaign[gate.output].propagated == \
                bin(flipped).count("1")
            assert inject(netlist, gate.output, baseline, vectors) == \
                campaign[gate.output]


class TestMaskingModel:
    def test_electrical_decay(self):
        model = MaskingModel(attenuation=0.5)
        assert model.electrical_survival(0) == 1.0
        assert model.electrical_survival(2) == pytest.approx(
            model.electrical_survival(1) ** 2)

    def test_latching_probability_bounds(self):
        model = MaskingModel(pulse_width=0.2, clock_period=1.0)
        assert model.latching_probability(0) == pytest.approx(0.2)
        wide = MaskingModel(pulse_width=5.0, clock_period=1.0)
        assert wide.latching_probability(0) == 1.0

    def test_derating_combines(self):
        model = MaskingModel(attenuation=0.0, pulse_width=1.0)
        assert model.derating(0, 0.5) == pytest.approx(0.5)

    def test_bad_parameters(self):
        with pytest.raises(CharacterizationError):
            MaskingModel(attenuation=-1.0)
        with pytest.raises(CharacterizationError):
            MaskingModel(pulse_width=0.0)
        with pytest.raises(CharacterizationError):
            MaskingModel(clock_period=-2.0)

    def test_bad_propagation(self):
        model = MaskingModel()
        with pytest.raises(CharacterizationError):
            model.derating(1, 1.5)


class TestCharacterization:
    def test_qcritical_positive_and_load_sensitive(self):
        n = brent_kung_adder(4)
        config = CharacterizationConfig()
        charges = node_qcritical(n, config)
        assert all(q > 0 for q in charges.values())
        # a higher-fanout node should have a larger critical charge
        fanout = n.fanout()
        hi = max(charges, key=lambda net: fanout.get(net, 0))
        lo = min(charges, key=lambda net: fanout.get(net, 0))
        if fanout.get(hi, 0) != fanout.get(lo, 0):
            assert charges[hi] > charges[lo]

    def test_component_report(self):
        report = characterize_component(ripple_carry_adder(4))
        assert report.gate_count == ripple_carry_adder(4).gate_count()
        assert report.raw_ser > 0
        assert report.effective_qcritical > 0
        assert set(report.summary()) >= {"gates", "depth", "raw_ser"}

    def test_library_generation(self):
        netlists = {
            "adder1": ("add", ripple_carry_adder(4)),
            "adder3": ("add", kogge_stone_adder(4)),
        }
        lib, reports = characterize_library(netlists, anchor="adder1")
        assert lib.version("adder1").reliability == pytest.approx(0.999)
        assert 0 < lib.version("adder3").reliability < 1
        assert set(reports) == {"adder1", "adder3"}

    def test_library_anchor_must_exist(self):
        netlists = {"adder1": ("add", ripple_carry_adder(4))}
        with pytest.raises(CharacterizationError):
            characterize_library(netlists, anchor="zz")

    def test_bad_config(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(qcrit_base=0.0)
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(vectors=2)


class TestPaperChain:
    def test_fitted_qs_magnitude(self):
        # the fit lands in the expected 1e-21 Coulomb regime
        assert 5e-21 < paper_fitted_qs() < 15e-21

    def test_chain_predicts_kogge_stone_0987(self):
        # headline validation: fitting Qs on (ripple, Brent-Kung)
        # reproduces the paper's third data point
        scale = paper_scale()
        predicted = scale.reliability_for(PAPER_QCRITICAL["adder3"])
        assert predicted == pytest.approx(0.987, abs=5e-4)

    def test_anchor_reproduced(self):
        scale = paper_scale()
        assert scale.reliability_for(
            PAPER_QCRITICAL["adder1"]) == pytest.approx(0.999, abs=1e-9)

    def test_brent_kung_reproduced(self):
        scale = paper_scale()
        assert scale.reliability_for(
            PAPER_QCRITICAL["adder2"]) == pytest.approx(0.969, abs=1e-6)
