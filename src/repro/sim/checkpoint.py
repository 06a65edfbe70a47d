"""Crash-safe checkpoint/restore of in-flight simulation runs.

A :class:`SimulationCheckpoint` snapshots a live simulator at a *packet
barrier* — the instant after one packet fully dispatched and the cursor
advanced.  Everything the run loop will ever touch again is reachable
from three roots:

* the simulator itself (fabric, caches, PTB heaps, prefetch buffer and
  SID-predictor history, fault-injector RNG, telemetry window, counters),
* the :class:`~repro.sim.engine.PacketRouter` (an index cursor into the
  trace plus per-device overflow queues),
* the loop-state dataclass (``_AnalyticLoop`` or the event twin's
  ``_EventLoop``, which carries the DES event queue).

A snapshot holds that engine state only, never the trace it runs on.
The trace — packets plus the tenant system (page tables, walkers, RNGs)
— is immutable input that grows with the run's length, so the state
pickler writes *references* to trace-owned objects instead of the
objects themselves (a persistent-id pickler), and the Belady oracle,
which is a pure function of the packets, as just its cursor.  In their
place the header records:

* the trace's identity: its origin (construction parameters, or a trace
  file's path and sha256) plus a sha256 of its packets
  (:meth:`~repro.trace.constructor.HyperTrace.identity`, hashed once per
  trace object at its first save);
* the host-frame backings made since the trace was built.  The tenant
  system is *not* immutable: walks back guest-physical pages with host
  frames on first touch, from one shared allocator, so the order of
  first touches decides every later hPA.  The allocator logs those
  backings (``FrameAllocator.backing_log``) and the snapshot stores the
  log plus the allocator cursor.

On load, the caller supplies the trace or it is rebuilt from its origin.
The identity must match, else :class:`CheckpointError` ("trace
mismatch").  The logged backings missing from that trace are replayed in
order, the allocator cursor is checked, and the state is unpickled with
its references resolved against the trace.  The resumed run re-enters
``_run_loop`` with state bit-identical to the interrupted one — floats
round-trip exactly, ``random.Random`` restores its Mersenne state, heaps
and insertion-ordered dicts keep their order.  ``tests/test_checkpoint.py``
pins byte-identity of resumed results for both engines.

Writes are atomic and durable: the stream goes to a same-directory temp
file, is fsync'd, and then ``os.replace``\\ s the target, so a crash
mid-save leaves either the previous snapshot or the new one — never a
torn file.  ``load`` verifies a magic prefix and a format version before
trusting the payload.

The module also owns the cooperative-interrupt flag: a SIGTERM/SIGINT
handler (or the runner's watchdog) calls :func:`request_interrupt`; the
run loop notices at the next packet barrier, flushes a final snapshot
and raises :class:`SimulationInterrupted` carrying the snapshot path.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.sim.oracle import FutureOracle, oracle_for_trace

CHECKPOINT_MAGIC = b"REPRO-CKPT\n"
CHECKPOINT_VERSION = 2

PathLike = Union[str, os.PathLike]


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from the wrong run."""


def _rebuild_interrupted(message, packets_done, checkpoint_path):
    """Unpickle helper for :class:`SimulationInterrupted` (see __reduce__)."""
    return SimulationInterrupted(
        message, packets_done=packets_done, checkpoint_path=checkpoint_path
    )


class SimulationInterrupted(RuntimeError):
    """Raised at a packet barrier after an interrupt flushed a snapshot.

    Carries where the run stopped and where the snapshot landed so
    callers (the CLI, the runner worker) can report and later resume.
    Defines ``__reduce__`` because the runner ships it across the
    process-pool boundary.
    """

    def __init__(
        self,
        message: str,
        packets_done: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        super().__init__(message)
        self.packets_done = packets_done
        self.checkpoint_path = checkpoint_path

    def __reduce__(self):
        return (
            _rebuild_interrupted,
            (self.args[0] if self.args else "", self.packets_done,
             self.checkpoint_path),
        )


# ----------------------------------------------------------------------
# Cooperative interrupt flag
# ----------------------------------------------------------------------
_interrupt_requested = False


def request_interrupt() -> None:
    """Ask the running simulation to stop at its next packet barrier."""
    global _interrupt_requested
    _interrupt_requested = True


def clear_interrupt() -> None:
    global _interrupt_requested
    _interrupt_requested = False


def interrupt_requested() -> bool:
    return _interrupt_requested


def install_signal_handlers(signals=(signal.SIGTERM, signal.SIGINT)):
    """Route SIGTERM/SIGINT to :func:`request_interrupt`.

    Returns ``{signum: previous_handler}`` so callers can restore.  The
    handler only sets a flag — all snapshot I/O happens synchronously at
    the next packet barrier, never inside the signal frame.
    """
    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(signum, _signal_handler)
    return previous


def restore_signal_handlers(previous) -> None:
    for signum, handler in previous.items():
        signal.signal(signum, handler)


def _signal_handler(signum, frame):  # pragma: no cover - signal frame
    request_interrupt()


# ----------------------------------------------------------------------
# Policy and snapshot
# ----------------------------------------------------------------------
@dataclass
class CheckpointPolicy:
    """When and where the run loop snapshots.

    ``every`` is in processed packets; 0 disables periodic snapshots but
    (with a ``path``) still flushes on interrupt.  ``hook`` is called as
    ``hook(packets_done, path_str)`` after every successful save — the
    runner uses it to stamp worker heartbeats.
    """

    every: int = 0
    path: Optional[Path] = None
    hook: Optional[Callable[[int, str], None]] = None

    def __post_init__(self):
        if self.every < 0:
            raise CheckpointError(f"checkpoint_every must be >= 0, got {self.every}")
        if self.every > 0 and self.path is None:
            raise CheckpointError("checkpoint_every > 0 requires a checkpoint path")
        if self.path is not None:
            self.path = Path(self.path)

    def due(self, processed: int) -> bool:
        return self.every > 0 and processed > 0 and processed % self.every == 0


@dataclass
class SimulationCheckpoint:
    """One versioned snapshot of a simulation at a packet barrier.

    ``state`` is the engine state; ``trace`` is the
    :class:`~repro.trace.constructor.HyperTrace` it runs on, which the
    snapshot references but does not contain.
    """

    engine: str
    packets_done: int
    config: Dict[str, Any]
    state: Dict[str, Any]
    trace: Any = None
    version: int = CHECKPOINT_VERSION

    # -- persistence ---------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Atomically write the snapshot to ``path`` (tmp + fsync + replace)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        allocator = self.trace.system.host_allocator
        backings = allocator.backing_log
        header = {
            "version": self.version,
            "engine": self.engine,
            "packets_done": self.packets_done,
            "config": self.config,
            "trace": self.trace.identity(),
            "backings": None if backings is None else list(backings),
            "host_frames": allocator.frames_allocated,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(CHECKPOINT_MAGIC)
                pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
                _StatePickler(handle, self.trace).dump(self.state)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)
        return path

    @classmethod
    def load(
        cls,
        path: PathLike,
        trace=None,
        expect_engine: Optional[str] = None,
        expect_config=None,
    ) -> "SimulationCheckpoint":
        """Read a snapshot written by :meth:`save` and bind it to a trace.

        ``trace`` is the run's trace; with ``None`` — or when ``trace``
        already holds host backings the snapshot does not know — the
        trace is rebuilt from the origin the snapshot recorded.
        ``expect_engine`` / ``expect_config`` cross-check that the caller
        is resuming the run it thinks it is: a snapshot from another
        engine, another architecture, or another trace raises
        :class:`CheckpointError` instead of producing numbers for the
        wrong experiment.
        """
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"checkpoint not found: {path}")
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(CHECKPOINT_MAGIC))
                if magic != CHECKPOINT_MAGIC:
                    raise CheckpointError(
                        f"{path} is not a simulation checkpoint "
                        f"(bad magic {magic!r})"
                    )
                header = pickle.load(handle)
                version = header.get("version")
                if version != CHECKPOINT_VERSION:
                    raise CheckpointError(
                        f"checkpoint {path} has format version {version}; "
                        f"this build reads version {CHECKPOINT_VERSION}"
                    )
                blob = handle.read()
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"failed to read checkpoint {path}: {exc}") from exc
        _check_expected(path, header, expect_engine, expect_config)
        trace = _bind_trace(path, header, trace)
        try:
            state = _StateUnpickler(io.BytesIO(blob), trace).load()
        except Exception as exc:
            raise CheckpointError(f"failed to read checkpoint {path}: {exc}") from exc
        return cls(
            engine=header["engine"],
            packets_done=header["packets_done"],
            config=header["config"],
            state=state,
            trace=trace,
            version=version,
        )

    # -- resumption ----------------------------------------------------
    def resume(
        self,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[PathLike] = None,
        checkpoint_hook: Optional[Callable[[int, str], None]] = None,
    ):
        """Re-enter the run loop from this snapshot and run to completion.

        Continued checkpointing is independent of how the snapshot was
        produced: pass ``checkpoint_every``/``checkpoint_path`` to keep
        snapshotting (e.g. to survive a second crash), or neither to just
        finish the run.
        """
        sim = self.state["sim"]
        router = self.state["router"]
        loop = self.state["loop"]
        policy = sim._checkpoint_policy(
            checkpoint_every, checkpoint_path, checkpoint_hook
        )
        if sim._tracer is not None:
            from repro.obs import events as ev

            sim._tracer.emit(
                ev.CHECKPOINT_RESUME,
                loop.last_completion,
                packets_done=self.packets_done,
            )
        return sim._run_loop(router, loop, policy)


# ----------------------------------------------------------------------
# Trace references
# ----------------------------------------------------------------------
def _trace_objects(trace) -> Dict[tuple, Any]:
    """Trace-owned objects engine state may reference, by reference id."""
    system = trace.system
    objects = {
        ("trace",): trace,
        ("packets",): trace.packets,
        ("system",): system,
        ("workloads",): system.workloads,
        ("host_allocator",): system.host_allocator,
    }
    for sid, workload in system.workloads.items():
        objects[("workload", sid)] = workload
        objects[("space", sid)] = workload.space
        objects[("walker", sid)] = workload.walker
    return objects


class _StatePickler(pickle.Pickler):
    """Pickles engine state, writing trace-owned objects as references.

    The Belady oracle is a pure function of the trace's packets plus its
    cursor, so it is written as just the cursor.
    """

    def __init__(self, handle, trace):
        super().__init__(handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._refs = {id(obj): ref for ref, obj in _trace_objects(trace).items()}

    def persistent_id(self, obj):
        ref = self._refs.get(id(obj))
        if ref is None and type(obj) is FutureOracle:
            return ("oracle", obj.cursor)
        return ref


class _StateUnpickler(pickle.Unpickler):
    """Resolves :class:`_StatePickler` references against a trace."""

    def __init__(self, handle, trace):
        super().__init__(handle)
        self._trace = trace
        self._objects = _trace_objects(trace)

    def persistent_load(self, ref):
        obj = self._objects.get(ref)
        if obj is None:
            if ref[0] != "oracle":
                raise pickle.UnpicklingError(f"unknown trace reference {ref!r}")
            obj = oracle_for_trace(self._trace.packets)
            obj.advance_to(ref[1])
            self._objects[ref] = obj
        return obj


def _check_expected(path, header, expect_engine, expect_config) -> None:
    if expect_engine is not None and header["engine"] != expect_engine:
        raise CheckpointError(
            f"checkpoint {path} was written by the {header['engine']!r} "
            f"engine; cannot resume it as {expect_engine!r}"
        )
    if expect_config is not None:
        from repro.core.config_io import config_to_dict

        differs = _differing_keys(config_to_dict(expect_config), header["config"])
        if differs:
            raise CheckpointError(
                f"checkpoint {path} was written for a different config "
                f"(differs in: {', '.join(differs)})"
            )


def _differing_keys(expected: Dict, actual: Dict, ignore=()) -> list:
    return sorted(
        key for key in set(expected) | set(actual)
        if key not in ignore and expected.get(key) != actual.get(key)
    )


def _bind_trace(path, header, trace):
    """Verify ``trace`` (or rebuild it) and replay the logged backings.

    Returns the trace the state's references resolve against.
    """
    from repro.trace.constructor import rebuild_trace

    identity = header["trace"]
    if trace is not None:
        _check_identity(path, identity, trace)
        if not _replayable(trace, header):
            trace = None
    if trace is None:
        try:
            trace = rebuild_trace(identity)
        except (ValueError, OSError) as exc:
            raise CheckpointError(
                f"cannot rebuild the trace of checkpoint {path}: {exc}"
            ) from exc
        _check_identity(path, identity, trace)
    allocator = trace.system.host_allocator
    backings = header["backings"]
    if backings is not None:
        try:
            trace.system.replay_backings(
                backings[len(allocator.backing_log):]
            )
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"trace mismatch: cannot replay the host backings of "
                f"checkpoint {path}: {exc}"
            ) from exc
    if allocator.frames_allocated != header["host_frames"]:
        raise CheckpointError(
            f"trace mismatch: checkpoint {path} expects host frame cursor "
            f"{header['host_frames']}, the trace is at "
            f"{allocator.frames_allocated}"
        )
    return trace


def _check_identity(path, identity, trace) -> None:
    # A trace file's path is only where to find it; its sha256 is what
    # identifies it.
    differs = _differing_keys(identity, trace.identity(), ignore=("path",))
    if differs:
        raise CheckpointError(
            f"trace mismatch: checkpoint {path} was written for a different "
            f"trace (differs in: {', '.join(differs)})"
        )


def _replayable(trace, header) -> bool:
    """Whether ``trace``'s host backings are a prefix of the snapshot's."""
    log = trace.system.host_allocator.backing_log
    backings = header["backings"]
    if log is None or backings is None:
        return log is None and backings is None
    return len(log) <= len(backings) and log == backings[: len(log)]


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def resume_simulation(
    path: PathLike,
    expect_engine: Optional[str] = None,
    expect_config=None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[PathLike] = None,
    checkpoint_hook: Optional[Callable[[int, str], None]] = None,
    trace=None,
):
    """Load ``path`` onto ``trace`` and run the simulation to completion.

    ``trace`` is the run's trace (rebuilt from the snapshot's record of
    it when ``None``); ``expect_engine`` / ``expect_config`` are checked
    as in :meth:`SimulationCheckpoint.load`.  When continued
    checkpointing is requested (``checkpoint_every`` > 0) without an
    explicit ``checkpoint_path``, snapshots keep going to the file being
    resumed.
    """
    snapshot = SimulationCheckpoint.load(
        path, trace=trace, expect_engine=expect_engine,
        expect_config=expect_config,
    )
    if checkpoint_every > 0 and checkpoint_path is None:
        checkpoint_path = path
    return snapshot.resume(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )
