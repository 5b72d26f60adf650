"""Batched vs reference broadcast delivery: bit-for-bit equivalence.

The fast path delivers a broadcast with one event per distinct arrival
time (dispatching to all member caches inline); the reference path
schedules one event per receiving core.  DESIGN.md section 9 argues
they are observably identical because the batched dispatch preserves
the exact ``(time, seq)`` order the per-core events would have had.
This suite is that argument's proof obligation: every app x network
pair must produce a byte-identical :class:`RunResult` either way, under
ACKwise and -- for the apps whose broadcasts race outstanding SH_REQs
-- under Dir_kB, whose every-core acknowledgements take their own
branches through the broadcast path.
"""

import pytest

from repro.coherence.directory import Protocol
from repro.experiments.runspec import RunSpec
from repro.sim.config import NETWORK_CHOICES
from repro.sim.system import ManycoreSystem
from repro.workloads.splash import APP_ORDER, APP_PROFILES, generate_traces

#: Test scale: big enough to exercise contention, barriers and (for the
#: broadcast-capable fabrics) INV_BCAST fan-out; small enough that the
#: full 8 x 4 matrix stays in tens of seconds.
MESH_WIDTH = 8
SCALE = 0.1

#: Apps whose Dir_kB runs at this scale buffer broadcasts that overtook
#: an SH_REP (``bcast_invs_buffered``): the early-ack-at-buffer branch
#: and both SH_REP reconciliations (stale drop and late apply).
DIRKB_APPS = ("dynamic_graph", "fmm", "ocean_contig")


def run_result_dict(spec: RunSpec, batch_broadcasts: bool) -> dict:
    """Execute ``spec`` through an explicitly-constructed system."""
    config = spec.config()
    system = ManycoreSystem(config, batch_broadcasts=batch_broadcasts)
    traces = generate_traces(
        APP_PROFILES[spec.app],
        system.topology,
        l2_lines=config.l2_sets * config.l2_ways,
        scale=spec.scale,
        seed=spec.seed,
    )
    return system.run(traces, app=spec.app).to_dict()


@pytest.mark.parametrize("network", NETWORK_CHOICES)
@pytest.mark.parametrize("app", APP_ORDER)
def test_batched_equals_reference(app, network):
    spec = RunSpec(app=app, network=network, mesh_width=MESH_WIDTH, scale=SCALE)
    batched = run_result_dict(spec, batch_broadcasts=True)
    reference = run_result_dict(spec, batch_broadcasts=False)
    assert batched == reference


@pytest.mark.parametrize("network", NETWORK_CHOICES)
def test_dirkb_batched_equals_reference(network):
    buffered = 0
    for app in DIRKB_APPS:
        spec = RunSpec(app=app, network=network, mesh_width=MESH_WIDTH,
                       scale=SCALE, protocol=Protocol.DIRKB)
        batched = run_result_dict(spec, batch_broadcasts=True)
        reference = run_result_dict(spec, batch_broadcasts=False)
        assert batched == reference, app
        buffered += batched["cache_counters"]["bcast_invs_buffered"]
    # the rows must reach the broadcast-vs-SH_REQ race, or they would
    # compare only the common path
    assert buffered > 0


def test_default_is_batched():
    spec = RunSpec(app="barnes", mesh_width=MESH_WIDTH, scale=SCALE)
    assert ManycoreSystem(spec.config()).batch_broadcasts is True


def test_runspec_execute_matches_explicit_batched_system():
    """`RunSpec.execute()` (the cached-store path) uses the fast path."""
    spec = RunSpec(
        app="barnes", network="atac+", mesh_width=MESH_WIDTH, scale=SCALE
    )
    assert spec.execute().to_dict() == run_result_dict(
        spec, batch_broadcasts=True
    )
