"""Physical frame allocation for the modelled host and guests.

Page tables built by :mod:`repro.mem.pagetable` need physical addresses for
their nodes and leaf frames.  The allocator hands out frame addresses from a
bump pointer, optionally scattering them with a deterministic permutation so
that page-table nodes of different tenants do not land in trivially
sequential addresses (real hosts allocate from a shared buddy allocator, so
different VMs' frames interleave).
"""

from __future__ import annotations

from repro.mem.address import PAGE_SHIFT_4K, PAGE_SIZE_4K


class FrameAllocator:
    """Bump allocator of physical page frames.

    Parameters
    ----------
    base:
        First physical address handed out.  Must be 4 KB aligned.
    scatter:
        When true, frame addresses are permuted with a multiplicative hash
        within a large window so consecutive allocations are not consecutive
        in physical memory.  The permutation is deterministic, so traces and
        page tables are reproducible.
    """

    #: Window (in frames) within which scattered allocations are permuted.
    _SCATTER_WINDOW_BITS = 24

    def __init__(self, base: int = 0x1_0000_0000, scatter: bool = False):
        if base % PAGE_SIZE_4K != 0:
            raise ValueError(f"base {base:#x} is not 4 KiB aligned")
        self._base_frame = base >> PAGE_SHIFT_4K
        self._next = 0
        self._scatter = scatter
        #: Host-frame backings made since the log was started, in order,
        #: as ``(address-space name, gPA)`` pairs appended by
        #: :meth:`~repro.mem.pagetable.AddressSpace.ensure_backed`;
        #: ``None`` while not logging.  Checkpoints store it so a resumed
        #: run can replay the same backings onto a freshly built system.
        self.backing_log = None

    @property
    def frames_allocated(self) -> int:
        """Number of 4 KB frames handed out so far."""
        return self._next

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` contiguous 4 KB frames; return the base address.

        With ``scatter`` enabled only single-frame allocations are permuted;
        multi-frame allocations stay contiguous (matching huge-page backing).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        index = self._next
        self._next += count
        if self._scatter and count == 1:
            index = self._permute(index)
        return (self._base_frame + index) << PAGE_SHIFT_4K

    def allocate_node(self) -> int:
        """Allocate one frame to hold a page-table node."""
        return self.allocate(1)

    def allocate_huge(self) -> int:
        """Allocate a 2 MB-aligned run of frames backing one huge page."""
        frames_per_huge = 512
        # Align the bump pointer so the returned address is 2 MB aligned.
        remainder = self._next % frames_per_huge
        if remainder:
            self._next += frames_per_huge - remainder
        return self.allocate(frames_per_huge)

    def _permute(self, index: int) -> int:
        """Deterministically permute ``index`` within the scatter window.

        Uses a Feistel-free odd-multiplier permutation: multiplication by an
        odd constant modulo a power of two is a bijection.
        """
        window = 1 << self._SCATTER_WINDOW_BITS
        low = index % window
        high = index - low
        return high + (low * 0x9E3779B1 % window)
