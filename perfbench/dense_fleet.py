"""Workload ``dense_fleet``: 256 permit-booked VMs under KS4Xen on 64 cores.

256 single-vCPU VMs, 64 each of gcc, lbm, mcf and povray, on a 4-socket
x 16-core machine under ``KS4Xen`` with its default ``DirectPmcMonitor``;
telemetry is off and the fleet is static.  This is IaaS consolidation
scale: the 4:1 overcommit keeps changing core occupants, which defeats the
tick engine's step memo, so every tick the credit scheduler picks and
steals across 64 cores, Kyoto samples the VMs that ran, and every slice
it refills 256 accounts.

Every VM books the same ``llc_cap``.  lbm and mcf pollute more than that
and get demoted; gcc and povray stay within it.  The seed shuffles which
application lands on which VM slot (and so on which memory node and core).

Check: a digest of the tick index, total retired instructions and per-VM
punishments, which must repeat across episodes, plus the demotion pattern
above.  One operation is one tick.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.core.ks4xen import KS4Xen
from repro.hardware.latency import PAPER_LATENCIES
from repro.hardware.specs import KIB, MIB, CacheSpec, MachineSpec, SocketSpec
from repro.hypervisor.system import VirtualizedSystem
from repro.hypervisor.vm import VmConfig
from repro.workloads.profiles import application_workload

from tracing import TickClock

APPS = ("gcc", "lbm", "mcf", "povray")
NUM_VMS = 256
#: Booked pollution permit of every VM (LLC misses/ms).
LLC_CAP = 200_000
#: Expected to overrun the permit (demoted) / stay within it.
OVERRUNNING = ("lbm", "mcf")
WITHIN = ("gcc", "povray")
#: Enough ticks that at least 10 of an episode's lie beyond its p99.
EPISODE_TICKS = 1000


def machine() -> MachineSpec:
    socket = SocketSpec(
        cores=16,
        freq_khz=2_800_000,
        l1d=CacheSpec("L1D", 32 * KIB, 8),
        l1i=CacheSpec("L1I", 32 * KIB, 8),
        l2=CacheSpec("L2", 256 * KIB, 8),
        llc=CacheSpec("LLC", 20 * MIB, 20, shared=True),
    )
    return MachineSpec(
        name="perfbench-4s64c",
        sockets=(socket,) * 4,
        memory_bytes=4 * 32_768 * MIB,
        latency=PAPER_LATENCIES,
    )


def build(seed: int, workdir: str) -> Dict[str, Any]:
    apps = [APPS[index % len(APPS)] for index in range(NUM_VMS)]
    random.Random(seed).shuffle(apps)
    system = VirtualizedSystem(KS4Xen(), machine(), seed=seed)
    for index, app in enumerate(apps):
        system.create_vm(
            VmConfig(
                name=f"vm{index:03d}-{app}",
                workload=application_workload(app),
                llc_cap=LLC_CAP,
                memory_node=index % 4,
            )
        )
    return {"system": system, "apps": apps}


def run(state: Dict[str, Any], clock: TickClock) -> None:
    system = state["system"]
    clock.attach(system)
    system.run_ticks(EPISODE_TICKS)


def operations() -> int:
    return EPISODE_TICKS


def check(state: Dict[str, Any]) -> Dict[str, Any]:
    system = state["system"]
    kyoto = system.scheduler.kyoto
    punishments = {vm.name: kyoto.punishments(vm) for vm in system.vms}
    instructions = sum(vcpu.instructions_retired for vcpu in system.vcpus)
    demoted = {app: 0 for app in APPS}
    for vm, app in zip(system.vms, state["apps"]):
        if punishments[vm.name]:
            demoted[app] += 1
    problems = []
    if system.tick_index != EPISODE_TICKS:
        problems.append(f"ran {system.tick_index} ticks, expected {EPISODE_TICKS}")
    for app in OVERRUNNING:
        if demoted[app] == 0:
            problems.append(f"no {app} VM was demoted")
    for app in WITHIN:
        if demoted[app]:
            problems.append(f"{demoted[app]} {app} VMs were demoted")
    return {
        "evidence": [system.tick_index, repr(instructions), sorted(punishments.items())],
        "attempted": EPISODE_TICKS,
        "failed": EPISODE_TICKS if problems else 0,
        "problems": problems,
        "extras": {},
    }
