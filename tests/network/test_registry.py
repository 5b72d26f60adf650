"""The network architecture registry: descriptors, lookups, end-to-end.

Covers the registry contract itself (ordering, lookup errors, duplicate
rejection) and the property the registry exists to guarantee: every
registered descriptor builds a working timing + energy + area stack
without any consumer knowing the architecture by name.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.energy.accounting import EnergyModel
from repro.energy.area import AreaModel
from repro.experiments.runspec import RunSpec
from repro.network.registry import (
    DEFAULT_NETWORK,
    NETWORK_CHOICES,
    REGISTRY,
    UnknownNetworkError,
    electrical_networks,
    experiment_axis,
    for_display_name,
    get_network,
    network_names,
    networks_for_fuzzing,
    receive_net_kind,
    register,
)
from repro.sim.config import SystemConfig, make_network


class TestRegistryContract:
    def test_registration_order_is_the_choice_order(self):
        assert network_names() == NETWORK_CHOICES
        # the paper's four networks first (golden-pinned column order),
        # then the extension architectures
        assert NETWORK_CHOICES[:4] == (
            "atac+", "atac", "emesh-bcast", "emesh-pure"
        )
        assert set(NETWORK_CHOICES[4:]) == {"corona", "hermes"}
        assert DEFAULT_NETWORK in NETWORK_CHOICES

    def test_unknown_network_error_lists_registered_names(self):
        with pytest.raises(UnknownNetworkError) as excinfo:
            get_network("omninet")
        message = str(excinfo.value)
        assert "omninet" in message
        for name in network_names():
            assert name in message

    def test_unknown_network_rejected_at_every_entry_point(self):
        with pytest.raises(ValueError):
            SystemConfig(network="omninet")
        with pytest.raises(ValueError):
            RunSpec(app="radix", network="omninet")
        with pytest.raises(ValueError):
            for_display_name("OmniNet")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(REGISTRY["atac+"])
        assert network_names().count("atac+") == 1

    def test_duplicate_display_name_rejected(self):
        clone = dataclasses.replace(REGISTRY["atac+"], name="atac-clone")
        with pytest.raises(ValueError, match="already"):
            register(clone)
        assert "atac-clone" not in REGISTRY

    def test_display_name_round_trip(self):
        for name, descriptor in REGISTRY.items():
            assert get_network(name) is descriptor
            assert for_display_name(descriptor.display_name) is descriptor

    def test_receive_net_kind_helper(self):
        # original ATAC is defined by its BNet regardless of the config
        assert receive_net_kind("atac", "starnet") == "bnet"
        assert receive_net_kind("atac+", "starnet") == "starnet"
        assert receive_net_kind("atac+", "bnet") == "bnet"
        with pytest.raises(UnknownNetworkError):
            receive_net_kind("omninet", "starnet")

    def test_experiment_axes(self):
        runtime = experiment_axis("runtime")
        edp = experiment_axis("edp")
        sweep = experiment_axis("sweep")
        assert runtime == ("atac+", "emesh-bcast", "emesh-pure")
        assert edp == ("atac+", "emesh-bcast")
        # new architectures join the sweep grid automatically
        assert "corona" in sweep and "hermes" in sweep
        assert experiment_axis("nonexistent-axis") == ()

    def test_electrical_networks(self):
        assert electrical_networks() == ("emesh-bcast", "emesh-pure")

    def test_networks_for_fuzzing_gates_on_cluster_count(self):
        # w4 has a single cluster: only the electrical meshes fit
        assert networks_for_fuzzing(4) == electrical_networks()
        # w8 has four clusters: every registered network fits
        assert networks_for_fuzzing(8) == network_names()


class TestCapabilitiesEnforcedAtConstruction:
    """A spec that constructs must run: a network's declared
    capabilities are checked when the config is built, not deep inside
    its constructor."""

    @pytest.mark.parametrize("name", network_names())
    def test_mesh_width_4_rejected_or_runs(self, name):
        # a 4x4 mesh of 4x4 clusters is a single cluster
        try:
            spec = RunSpec(app="barnes", network=name, mesh_width=4,
                           scale=0.02)
        except ValueError as exc:
            text = str(exc)
            assert repr(name) in text
            assert "min_clusters" in text
            assert text.endswith("has 1")
            assert get_network(name).min_clusters > 1
            return
        assert spec.execute().completion_cycles > 0

    @pytest.mark.parametrize("name", network_names())
    def test_config_enforces_min_clusters(self, name):
        descriptor = get_network(name)
        if descriptor.min_clusters <= 1:
            SystemConfig(network=name).scaled(4)
        else:
            with pytest.raises(ValueError, match="min_clusters"):
                SystemConfig(network=name).scaled(4)
        # 2x2 clusters satisfy every registered network
        SystemConfig(network=name).scaled(4, cluster_width=2)


class TestEveryDescriptorEndToEnd:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for name in network_names():
            spec = RunSpec(
                app="radix", network=name, mesh_width=8, scale=0.05
            )
            out[name] = (spec.config(), spec.execute())
        return out

    @pytest.mark.parametrize("name", network_names())
    def test_builds_and_simulates(self, results, name):
        config, result = results[name]
        network = make_network(config)
        assert network.name == get_network(name).display_name
        assert result.network == network.name
        assert result.completion_cycles > 0

    @pytest.mark.parametrize("name", network_names())
    def test_energy_model_evaluates(self, results, name):
        config, result = results[name]
        breakdown = EnergyModel(config).evaluate(result)
        assert breakdown.total_energy_j > 0
        descriptor = get_network(name)
        if descriptor.energy_components is not None:
            # architecture-specific wedges actually appeared (ring
            # tuning may be 0 under athermal scenarios, so key presence
            # is the contract there)
            assert breakdown["hub"] > 0
            assert "ring_tuning" in breakdown.components
            assert "laser" in breakdown.components
        else:
            assert breakdown["hub"] == 0.0
            assert breakdown["laser"] == 0.0

    @pytest.mark.parametrize("name", network_names())
    def test_area_model_evaluates(self, results, name):
        config, _ = results[name]
        breakdown = AreaModel(config).breakdown()
        assert breakdown.total_mm2 > 0
        has_photonics = get_network(name).area_components is not None
        assert ("photonics" in breakdown.components) == has_photonics

    def test_config_content_hash_distinguishes_networks(self):
        hashes = {
            SystemConfig(network=name).scaled(8).content_hash()
            for name in network_names()
        }
        assert len(hashes) == len(network_names())

    def test_runspec_content_hash_distinguishes_networks(self):
        hashes = {
            RunSpec(app="radix", network=name, mesh_width=8).content_hash()
            for name in network_names()
        }
        assert len(hashes) == len(network_names())
