"""Per-tenant workload generation (the Log Collector substitute).

For each :class:`~repro.trace.tenant.TenantSpec` this module builds:

* the tenant's :class:`~repro.mem.pagetable.AddressSpace` — real guest and
  host page tables with the gIOVA layout of Section IV-D (identical across
  tenants, because identical guest OS + driver versions allocate identical
  gIOVAs; this is the root cause of un-partitioned TLB thrashing);
* the packet stream: a :class:`~repro.device.ring.DescriptorRing` cycles
  2 MB data pages with the observed periodic reuse, optionally disturbed by
  random jumps for the less regular benchmarks.

All randomness is seeded per tenant, so traces are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.device.ring import DescriptorRing, make_default_layout
from repro.mem.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K
from repro.mem.allocator import FrameAllocator
from repro.mem.pagetable import AddressSpace
from repro.mem.walker import TwoDimensionalWalker
from repro.trace.records import PacketRecord
from repro.trace.tenant import TenantSpec

#: gIOVA base of the group-3 (initialisation) pages observed in the paper
#: (the 0xf0000000..0xffffffff window).
INIT_WINDOW_BASE = 0xF000_0000


@dataclass
class TenantWorkload:
    """A tenant's address space plus its generated packet stream."""

    spec: TenantSpec
    space: AddressSpace
    walker: TwoDimensionalWalker
    init_requests: List[int] = field(default_factory=list)
    _ring: DescriptorRing = None  # set in build_tenant_workload
    _rng: random.Random = None

    def packet_stream(self) -> Iterator[PacketRecord]:
        """Yield this tenant's packets in order.

        When the profile sets ``remap_on_advance``, a data-page transition
        unmaps/remaps the page just left and attaches an invalidation event
        to the following packet (the driver behaviour the paper observed).
        """
        profile = self.spec.profile
        ring = self._ring
        num_pages = len(ring.layout.data_page_giovas)
        page_shift = PAGE_SHIFT_2M if profile.huge_data_pages else PAGE_SHIFT_4K
        previous_page = ring.current_data_page
        for _ in range(self.spec.packets):
            if profile.jump_probability and self._rng.random() < profile.jump_probability:
                ring.jump_to_page(self._rng.randrange(num_pages))
            invalidations = ()
            current_page = ring.current_data_page
            if profile.remap_on_advance and current_page != previous_page:
                self.space.remap_io_page(previous_page, page_shift)
                self.walker.invalidate(previous_page)
                invalidations = (previous_page >> 12,)
            previous_page = current_page
            giovas = ring.next_packet_giovas()
            size = profile.packet_bytes
            if (
                profile.small_packet_fraction
                and self._rng.random() < profile.small_packet_fraction
            ):
                size = profile.small_packet_bytes
            yield PacketRecord(
                sid=self.spec.sid,
                giovas=giovas,
                size_bytes=size,
                invalidations=invalidations,
            )

    def materialize(self) -> List[PacketRecord]:
        """Generate the full packet list."""
        return list(self.packet_stream())


class HyperTenantSystem:
    """Everything the performance model needs about the simulated host.

    Holds one host-physical allocator shared by all tenants (page tables of
    different VMs interleave in host memory, as on a real machine), each
    tenant's address space, and the per-tenant 2-D walkers handed to the
    IOMMU.
    """

    def __init__(self, scatter_host_frames: bool = False):
        self.host_allocator = FrameAllocator(base=0x10_0000_0000,
                                             scatter=scatter_host_frames)
        self.workloads: Dict[int, TenantWorkload] = {}

    def add_tenant(self, spec: TenantSpec) -> TenantWorkload:
        """Build and register the workload for ``spec``."""
        if spec.sid in self.workloads:
            raise ValueError(f"tenant SID {spec.sid} already registered")
        workload = build_tenant_workload(spec, self.host_allocator)
        self.workloads[spec.sid] = workload
        return workload

    def walker_for(self, sid: int) -> TwoDimensionalWalker:
        """Walker callback for the IOMMU."""
        return self.workloads[sid].walker

    def start_backing_log(self) -> None:
        """Log every host-frame backing made from now on, in order.

        The trace constructor calls this once the trace is built: from
        then on the only host allocations are first-touch backings
        during simulation, and their order decides every later hPA.
        """
        self.host_allocator.backing_log = []

    def replay_backings(self, entries) -> None:
        """Re-make logged backings, in order, on this (fresh) system."""
        spaces = {
            workload.space.name: workload.space
            for workload in self.workloads.values()
        }
        for name, gpa in entries:
            spaces[name].ensure_backed(gpa)

    def remove_tenant(self, sid: int) -> None:
        del self.workloads[sid]

    @property
    def num_tenants(self) -> int:
        return len(self.workloads)

    def sids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.workloads))


def build_tenant_workload(
    spec: TenantSpec, host_allocator: FrameAllocator
) -> TenantWorkload:
    """Construct a tenant: page tables, ring layout, packet generator.

    Every tenant gets the *same* gIOVA layout (ring page at ``0x34800000``,
    2 MB data pages from ``0xbbe00000``, init pages at ``0xf0000000``) but
    its own guest-physical space and its own host frames.
    """
    profile = spec.profile
    # Each tenant's guest-physical space starts at a distinct base so guest
    # frame numbers differ even though gIOVAs match.
    guest_allocator = FrameAllocator(base=0x4000_0000)
    space = AddressSpace(guest_allocator, host_allocator, name=f"sid{spec.sid}")

    layout = make_default_layout(profile.num_data_pages)
    space.map_io_page(layout.ring_page_giova, PAGE_SHIFT_4K)
    space.map_io_page(layout.mailbox_page_giova, PAGE_SHIFT_4K)
    data_page_shift = PAGE_SHIFT_2M if profile.huge_data_pages else PAGE_SHIFT_4K
    for data_page in layout.data_page_giovas:
        space.map_io_page(data_page, data_page_shift)

    init_requests: List[int] = []
    for index in range(profile.init_pages):
        init_giova = INIT_WINDOW_BASE + index * 4096
        space.map_io_page(init_giova, PAGE_SHIFT_4K)
        init_requests.extend([init_giova] * profile.init_accesses_per_page)

    rng = random.Random(spec.seed)
    ring = DescriptorRing(layout, uses_per_page=profile.uses_per_page)
    workload = TenantWorkload(
        spec=spec,
        space=space,
        walker=TwoDimensionalWalker(space),
        init_requests=init_requests,
    )
    workload._ring = ring
    workload._rng = rng
    return workload


def build_system(specs) -> Tuple[HyperTenantSystem, List[TenantWorkload]]:
    """Build a :class:`HyperTenantSystem` holding all ``specs``."""
    system = HyperTenantSystem()
    workloads = [system.add_tenant(spec) for spec in specs]
    return system, workloads
