"""The Trace Constructor: splice per-tenant logs into one hyper-trace.

Mirrors HyperSIO's constructor (Section IV-B): given per-tenant packet
streams, it interleaves them into a single trace using one of the paper's
schemes —

* ``RRn``: round-robin with bursts of ``n`` consecutive packets per tenant
  (RR1 and RR4 in the evaluation); models NIC queue arbitration over
  steady, long-lived connections.
* ``RANDn``: a uniformly random tenant is chosen for each burst of ``n``
  packets (RAND1 in the evaluation); models independent request arrivals.

Construction stops as soon as *any* tenant runs out of packets, avoiding
the "edge effect" where only a subset of tenants remains active.

Every trace records its *origin* — the parameters it was built from, or
the trace file its packets came from — so :func:`rebuild_trace` can build
it again.  Checkpoints store the origin plus a sha256 of the packets
instead of the trace itself (see :mod:`repro.sim.checkpoint`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.trace.records import (
    PacketRecord,
    TraceStats,
    compute_trace_stats,
    load_trace,
)
from repro.trace.tenant import BenchmarkProfile, TenantSpec, make_tenant_specs
from repro.trace.workload import HyperTenantSystem, TenantWorkload, build_system

_INTERLEAVING_RE = re.compile(r"^(RR|RAND)(\d+)$", re.IGNORECASE)


@dataclass(frozen=True)
class Interleaving:
    """Parsed interleaving scheme: kind (``RR``/``RAND``) and burst size."""

    kind: str
    burst: int

    def __post_init__(self):
        if self.kind not in ("RR", "RAND"):
            raise ValueError(f"kind must be RR or RAND, got {self.kind!r}")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "Interleaving":
        """Parse the paper's notation: ``RR1``, ``RR4``, ``RAND1``, ...

        >>> Interleaving.parse("RR4")
        Interleaving(kind='RR', burst=4)
        """
        match = _INTERLEAVING_RE.match(text.strip())
        if not match:
            raise ValueError(f"cannot parse interleaving {text!r}")
        return cls(kind=match.group(1).upper(), burst=int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.kind}{self.burst}"


@dataclass
class HyperTrace:
    """A constructed hyper-tenant trace plus the system behind it.

    ``packets`` must not change once the trace is built: the packet hash
    in :meth:`identity` is computed once and cached.
    """

    packets: List[PacketRecord]
    system: HyperTenantSystem
    interleaving: Interleaving
    stats: TraceStats
    #: How the trace was built, as :func:`rebuild_trace` takes it;
    #: ``None`` for hand-assembled traces, which cannot be rebuilt.
    origin: Optional[Dict[str, Any]] = None
    _packets_sha256: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_tenants(self) -> int:
        return self.stats.num_tenants

    def identity(self) -> Dict[str, Any]:
        """The origin plus a sha256 of the packets (hashed on first call)."""
        if self._packets_sha256 is None:
            self._packets_sha256 = packets_sha256(self.packets)
        return {**(self.origin or {}), "packets_sha256": self._packets_sha256}


def packets_sha256(packets: Sequence[PacketRecord]) -> str:
    """sha256 over every field of every packet, in trace order."""
    digest = hashlib.sha256()
    for start in range(0, len(packets), 4096):
        words = array("q")
        for packet in packets[start:start + 4096]:
            words.append(packet.sid)
            words.extend(packet.giovas)
            words.append(packet.size_bytes)
            words.append(len(packet.invalidations))
            words.extend(packet.invalidations)
        digest.update(words.tobytes())
    return digest.hexdigest()


def interleave(
    streams: Sequence[Iterator[PacketRecord]],
    interleaving: Interleaving,
    seed: int = 0,
) -> Iterator[PacketRecord]:
    """Merge per-tenant packet iterators under an interleaving scheme.

    Stops at the first exhausted tenant (edge-effect rule).  For ``RAND``
    the tenant of each burst is drawn from a seeded generator, so traces
    are reproducible.
    """
    if not streams:
        return
    iterators = list(streams)
    rng = random.Random(seed)
    if interleaving.kind == "RR":
        while True:
            for stream in iterators:
                for _ in range(interleaving.burst):
                    try:
                        yield next(stream)
                    except StopIteration:
                        return
    else:  # RAND
        while True:
            stream = rng.choice(iterators)
            for _ in range(interleaving.burst):
                try:
                    yield next(stream)
                except StopIteration:
                    return


class TraceConstructor:
    """Build hyper-traces from tenant specs (the public construction API)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def construct(
        self,
        specs: Sequence[TenantSpec],
        interleaving: str = "RR1",
        max_packets: Optional[int] = None,
    ) -> HyperTrace:
        """Build tenants and produce an interleaved hyper-trace.

        ``max_packets`` caps the trace length (used to bound simulation
        time while keeping per-tenant packet budgets — and therefore the
        ~1500-use data-page periods of the paper's traces — at full scale).
        """
        scheme = Interleaving.parse(interleaving)
        system, workloads = build_system(specs)
        merged = interleave(
            [workload.packet_stream() for workload in workloads],
            scheme,
            seed=self.seed,
        )
        if max_packets is not None:
            packets = list(itertools.islice(merged, max_packets))
        else:
            packets = list(merged)
        system.start_backing_log()
        return HyperTrace(
            packets=packets,
            system=system,
            interleaving=scheme,
            stats=compute_trace_stats(packets),
            origin={
                "builder": "specs",
                "specs": tuple(specs),
                "interleaving": str(scheme),
                "seed": self.seed,
                "max_packets": max_packets,
            },
        )


def construct_trace(
    profile: BenchmarkProfile,
    num_tenants: int,
    packets_per_tenant: int,
    interleaving: str = "RR1",
    seed: int = 0,
    max_packets: Optional[int] = None,
) -> HyperTrace:
    """One-call convenience: specs -> workloads -> hyper-trace.

    This is the main entry point used by experiments:

    >>> from repro.trace.tenant import IPERF3
    >>> trace = construct_trace(IPERF3, num_tenants=4, packets_per_tenant=50)
    >>> trace.num_tenants
    4
    """
    specs = make_tenant_specs(profile, num_tenants, packets_per_tenant, seed=seed)
    trace = TraceConstructor(seed=seed).construct(
        specs, interleaving, max_packets=max_packets
    )
    trace.origin = {
        "builder": "construct_trace",
        "profile": profile,
        "num_tenants": num_tenants,
        "packets_per_tenant": packets_per_tenant,
        "interleaving": str(trace.interleaving),
        "seed": seed,
        "max_packets": max_packets,
    }
    return trace


def with_trace_file(
    trace: HyperTrace, path, max_packets: Optional[int] = None
) -> HyperTrace:
    """``trace`` with its packets replaced by a JSON-lines trace file's.

    The tenant system stays ``trace``'s; the origin records the file's
    path and sha256 on top of ``trace``'s own origin.
    """
    path = Path(path)
    file_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    packets = load_trace(path)
    if max_packets is not None:
        packets = packets[:max_packets]
    return dataclasses.replace(
        trace,
        packets=packets,
        stats=compute_trace_stats(packets),
        origin={
            "builder": "trace_file",
            "base": trace.origin,
            "path": str(path.resolve()),
            "file_sha256": file_sha256,
            "max_packets": max_packets,
        },
    )


def rebuild_trace(origin: Optional[Dict[str, Any]]) -> HyperTrace:
    """Build a trace again from its :attr:`HyperTrace.origin`.

    Raises :class:`ValueError` for traces without a recorded origin.
    """
    builder = origin.get("builder") if origin else None
    if builder == "construct_trace":
        return construct_trace(
            origin["profile"],
            num_tenants=origin["num_tenants"],
            packets_per_tenant=origin["packets_per_tenant"],
            interleaving=origin["interleaving"],
            seed=origin["seed"],
            max_packets=origin["max_packets"],
        )
    if builder == "specs":
        return TraceConstructor(seed=origin["seed"]).construct(
            origin["specs"], origin["interleaving"],
            max_packets=origin["max_packets"],
        )
    if builder == "trace_file":
        return with_trace_file(
            rebuild_trace(origin["base"]), origin["path"],
            max_packets=origin["max_packets"],
        )
    raise ValueError("the trace has no recorded origin to rebuild it from")
