"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.hardware.latency import PAPER_LATENCIES
from repro.hardware.specs import (
    KIB,
    MIB,
    CacheSpec,
    MachineSpec,
    SocketSpec,
    numa_machine,
    paper_machine,
)
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.schedulers.credit import CreditScheduler
from repro.workloads.profiles import application_workload


@pytest.fixture
def machine():
    """The paper's single-socket machine spec."""
    return paper_machine()


@pytest.fixture
def numa():
    """The two-socket PowerEdge R420 spec."""
    return numa_machine()


@pytest.fixture
def xcs_system(machine):
    """A fresh system under the plain credit scheduler."""
    return VirtualizedSystem(CreditScheduler(), machine)


def make_vm(system, name="vm", app="gcc", core=0, **kwargs):
    """Convenience VM factory used across tests."""
    return system.create_vm(
        VmConfig(
            name=name,
            workload=application_workload(app),
            pinned_cores=[core],
            **kwargs,
        )
    )


def socket_spec(freq_khz: int, cores: int = 4) -> SocketSpec:
    """A 4-core socket with a 10 MiB shared LLC at ``freq_khz``."""
    return SocketSpec(
        cores=cores,
        freq_khz=freq_khz,
        l1d=CacheSpec("L1D", 32 * KIB, 8),
        l1i=CacheSpec("L1I", 32 * KIB, 8),
        l2=CacheSpec("L2", 256 * KIB, 8),
        llc=CacheSpec("LLC", 10 * MIB, 20, shared=True),
    )


def hetero_machine() -> MachineSpec:
    """Two sockets at different frequencies (socket 1 at half speed)."""
    return MachineSpec(
        name="hetero-2s",
        sockets=(socket_spec(2_800_000), socket_spec(1_400_000)),
        memory_bytes=2 * 8_096 * MIB,
        latency=PAPER_LATENCIES,
    )
