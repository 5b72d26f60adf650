"""The probe list: zero cost when empty, a fixed hook order when not,
and one reading of the instrumentation switches everywhere."""

import pytest

from repro.coherence.messages import MsgType
from repro.experiments.runner import _bypass_cache_on_load
from repro.experiments.runspec import RunSpec
from repro.sanitizer.faults import inject_fault
from repro.sim.config import SystemConfig
from repro.sim.system import PROBE_ORDER, ManycoreSystem
from repro.workloads.trace import BarrierOp, CoreTrace, MemoryOp


def small_config():
    return SystemConfig(network="emesh-bcast").scaled(mesh_width=4)


def shared_line_traces(system):
    """Every core reads one line, meets at a barrier, then writes it."""
    return {
        core: CoreTrace(core, [
            MemoryOp(64), BarrierOp(0), MemoryOp(64, is_write=True),
        ])
        for core in system.compute_cores
    }


def test_plain_system_runs_the_unpatched_fabric():
    system = ManycoreSystem(small_config(), sanitize=False, telemetry=False)
    assert system.probes == []
    assert "send_msg" not in vars(system)
    assert "run" not in vars(system)
    assert "send" not in vars(system.network)
    system.run(shared_line_traces(system))
    assert "arrive" not in vars(system.barriers)


def test_probes_are_kept_in_probe_order():
    system = ManycoreSystem(small_config(), sanitize=True, telemetry=True)
    assert [p.kind for p in system.probes] == ["telemetry", "sanitizer"]
    inject_fault(system, "drop-ack")
    assert [p.kind for p in system.probes] == list(PROBE_ORDER)


def test_hooks_run_outermost_first_and_packets_innermost_first():
    system = ManycoreSystem(small_config(), sanitize=True, telemetry=True)
    stamped_before_fault = []
    audited_before_fault = []

    class Recorder:
        kind = "fault"

        def on_send(self, msg, time):
            if msg.mtype is MsgType.SH_REQ:
                stamped_before_fault.append(msg.txn is not None)

        def on_net_send(self, pkt, deliveries):
            audited_before_fault.append(
                system.sanitizer._shadow["packets_sent"]
            )

    system.add_probe(Recorder())
    system.run(shared_line_traces(system))
    # The fault probe sees a message before the telemetry stamps it...
    assert stamped_before_fault and not any(stamped_before_fault)
    # ...and a packet after the sanitizer has counted it.
    assert audited_before_fault == list(
        range(1, len(audited_before_fault) + 1)
    )


def test_plain_system_refuses_a_probe():
    system = ManycoreSystem(small_config(), sanitize=False, telemetry=False)
    with pytest.raises(ValueError, match="sanitize=True"):
        system.add_probe(object())


@pytest.mark.parametrize("telemetry", [False, True])
def test_inject_fault_requires_the_sanitizer(telemetry):
    system = ManycoreSystem(
        small_config(), sanitize=False, telemetry=telemetry
    )
    with pytest.raises(ValueError, match="sanitize=True"):
        inject_fault(system, "drop-ack")
    assert [p.kind for p in system.probes] == ["telemetry"] * telemetry


@pytest.mark.parametrize("value,on", [
    ("1", True), ("true", True), ("on", True), ("TRUE", True),
    ("0", False), ("", False), (None, False),
])
def test_runner_and_system_read_the_switches_alike(monkeypatch, value, on):
    spec = RunSpec(app="barnes", network="emesh-bcast", mesh_width=4)
    for var, attr in (("REPRO_SANITIZE", "sanitizer"),
                      ("REPRO_TELEMETRY", "telemetry")):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        if value is not None:
            monkeypatch.setenv(var, value)
        system = ManycoreSystem(spec.config())
        assert _bypass_cache_on_load(spec) is on
        assert (getattr(system, attr) is not None) is on
