"""Service workloads: a ``repro-sim serve`` process driven over loopback.

``service-replay`` is one closed-loop connection (``ServiceClient.replay``,
window 64).  ``service-paced`` is one open-loop connection sending at a
fixed absolute rate; each request is timed from when it was *due*, so a
stall charges every request queued behind it, and the generator's own
lateness is reported (a run whose generator fell too far behind is
invalid).

Every run checks its replies: each request must get a ``result``, and
the ``flush`` result must hash to an offline ``simulate`` of the same
trace.  Vectorized and checkpointed passes over the trace's first
``OFFLINE_PACKETS`` packets, each checked against an analytic pass of
that prefix, give the offline rate metrics.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from harness import (
    SEGMENT_REQUESTS,
    WORK,
    HostClock,
    RunRecord,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    want_another_setup,
)
from offline import Passes
from report import put_layer_metrics
from workloads import (
    Workload,
    arch_config,
    build_trace,
    canonical,
    result_digest,
    serve_args,
)

HERE = Path(__file__).resolve().parent
#: Replay window: requests one closed-loop connection keeps in flight.
WINDOW = 64
#: The paced generator may run late by at most this much at its p99;
#: beyond it the offered load was not what the workload says.
LAG_LIMIT_S = 0.010
#: Requests left out of the latency percentiles: the server's start-up
#: transient (cold walker memo, first-touch page tables), not its steady
#: state.  They are still checked.
WARMUP_REQUESTS = 500
#: Requests per timed chunk of the replay stream.
REPLAY_CHUNK = 2000
#: Prefix of the served trace the offline rate passes simulate.
OFFLINE_PACKETS = 4000
#: Passes of each offline engine over that prefix; rates are their median.
OFFLINE_ROUNDS = 8
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class Server:
    """One ``repro-sim serve`` process; ``stop`` waits until it has ended."""

    def __init__(self, cli_args: List[str], launcher: Optional[List[str]] = None):
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
            "PYTHONPATH"
        ) else src
        if launcher is None:
            command = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            command = [sys.executable, str(HERE / "serve.py"), *launcher, "--", *cli_args]
        WORK.mkdir(exist_ok=True)
        self._log = open(WORK / f"server-{os.getpid()}.log", "ab")
        self.proc = subprocess.Popen(
            command,
            cwd=str(HERE.parent),
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_listening(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        stdout = self.proc.stdout
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError("server did not start listening in time")
            ready, _, _ = select.select([stdout], [], [], left)
            if not ready:
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening"
                )
            if line.startswith("listening on "):
                return int(line.rsplit(":", 1)[1])

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._log.close()
        return proc.returncode


class PacedConnection:
    """One open-loop connection speaking the wire protocol directly.

    The sender and the receiver are threads on a blocking socket: a
    thread's ``time.sleep`` wakes within tens of microseconds, where an
    event loop rounds its timers up to whole milliseconds and would send
    in bursts.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.lines = self.sock.makefile("rb")

    def request(self, message: dict) -> dict:
        """Send one message; return the first reply that is not a result."""
        from repro.service import protocol

        self.sock.sendall(protocol.encode(message))
        while True:
            reply = protocol.decode(self.lines.readline())
            if reply.get("type") != protocol.RESULT:
                return reply

    def hello(self) -> None:
        from repro.service import protocol

        reply = self.request({"type": protocol.HELLO, "schema": protocol.PROTOCOL_SCHEMA})
        if reply.get("type") != protocol.HELLO_OK:
            raise RuntimeError(f"handshake refused: {reply}")

    def send_paced(self, packets, rate: float):
        """Send packet ``i`` when due at ``start + i / rate``.

        Returns (replies, latency from due time, reply arrival times,
        generator lag), in seconds, in request order.
        """
        from repro.service import protocol

        total = len(packets)
        frames = [protocol.encode(translate_message(p, seq)) for seq, p in enumerate(packets)]
        start = time.monotonic() + 0.05
        due = [start + seq / rate for seq in range(total)]
        lag: List[float] = [0.0] * total
        latency: List[float] = [0.0] * total
        arrivals: List[float] = [0.0] * total
        replies: List[Optional[dict]] = [None] * total
        failure: List[BaseException] = []

        def receive() -> None:
            try:
                received = 0
                while received < total:
                    line = self.lines.readline()
                    if not line:
                        raise ConnectionResetError("server closed the connection")
                    arrived = time.monotonic()
                    reply = protocol.decode(line)
                    seq = reply.get("seq")
                    if isinstance(seq, int) and 0 <= seq < total and replies[seq] is None:
                        latency[seq] = arrived - due[seq]
                        arrivals[seq] = arrived
                        replies[seq] = reply
                        received += 1
            except (OSError, ValueError) as error:
                failure.append(error)

        receiver = threading.Thread(target=receive, name="paced-receiver", daemon=True)
        receiver.start()
        try:
            for seq, frame in enumerate(frames):
                wait = due[seq] - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
                lag[seq] = time.monotonic() - due[seq]
                self.sock.sendall(frame)
        except BaseException:
            # Unblock the receiver before waiting for it.
            self.sock.shutdown(socket.SHUT_RDWR)
            raise
        finally:
            receiver.join(timeout=STOP_TIMEOUT_S)
        if receiver.is_alive() or failure:
            raise RuntimeError(f"paced receiver failed: {failure or 'timed out'}")
        return replies, latency, arrivals, lag

    def flush(self) -> dict:
        from repro.service import protocol

        return self.request({"type": protocol.FLUSH})

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


def translate_message(packet, seq: int) -> dict:
    from repro.service import protocol

    message = {
        "type": protocol.TRANSLATE,
        "seq": seq,
        "sid": packet.sid,
        "giovas": list(packet.giovas),
        "size": packet.size_bytes,
    }
    if packet.invalidations:
        message["inv"] = list(packet.invalidations)
    return message


class ReplayConnection:
    """``ServiceClient`` behind blocking calls, on an event loop of its own."""

    def __init__(self, port: int):
        from repro.service.client import ServiceClient

        self.loop = asyncio.new_event_loop()
        self.client = ServiceClient("127.0.0.1", port)

    def hello(self) -> None:
        self.loop.run_until_complete(self.client.connect())

    def replay(self, packets):
        """Returns (replies, pipelined RTT of each request in seconds)."""
        self.client.rtts = []
        replies = self.loop.run_until_complete(
            self.client.replay(packets, window=WINDOW)
        )
        return replies, list(self.client.rtts)

    def flush(self) -> dict:
        return self.loop.run_until_complete(self.client.flush())

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self.client.close())
        finally:
            self.loop.close()


def _connect(workload: Workload, port: int):
    connection = (PacedConnection if workload.kind == "paced" else ReplayConnection)(port)
    try:
        connection.hello()
    except BaseException:
        connection.close()
        raise
    return connection


def _set_up(workload: Workload, seed: int, packets: int, clock: HostClock, repeat: bool,
            launcher=None):
    """Trace, server listening, client handshake; again while ``repeat``
    wants more set-ups.

    Returns (trace, server, connection, median set-up and trace-build
    durations in reference seconds, set-ups made); the last server and
    connection stay up.
    """
    totals: List[float] = []
    builds: List[float] = []
    while True:
        trace, build = clock.measure(lambda: build_trace(workload, seed, packets))
        server, start = clock.measure(
            lambda: Server(serve_args(workload, seed, packets), launcher)
        )
        try:
            connection, handshake = clock.measure(lambda: _connect(workload, server.port))
        except BaseException:
            server.stop()
            raise
        totals.append(build + start + handshake)
        builds.append(build)
        if not (repeat and want_another_setup(totals)):
            return trace, server, connection, median(totals), median(builds), len(totals)
        connection.close()
        server.stop()


def _serve_stream(record: RunRecord, workload: Workload, connection, trace,
                  clock: HostClock):
    """Send the whole trace, then flush.

    The replay goes out in chunks of ``REPLAY_CHUNK`` requests, each timed
    on the reference clock, so the host's speed is read every fraction of
    a second; the first chunk is the warm-up.  Returns (latencies in
    reference seconds in request order, generator lags in host seconds,
    flush reply, seconds the requests after the warm-up took, host seconds
    the whole stream took).  The paced stream's seconds are host seconds:
    its schedule sets them.
    """
    from repro.service import protocol

    packets = trace.packets
    # The trace's page tables are millions of objects; a full collection
    # in this process would stall the generator, not the server.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        if workload.kind == "paced":
            (replies, latency, arrivals, lag), host_s, factor = clock.around(
                lambda: connection.send_paced(packets, float(workload.packets))
            )
            latency = [value * factor for value in latency]
            steady_s = max(arrivals) - arrivals[WARMUP_REQUESTS - 1]
        else:
            replies, latency, lag = [], [], []
            steady_s = host_s = 0.0
            starts = [0, *range(WARMUP_REQUESTS, len(packets), REPLAY_CHUNK)]
            for first, end in zip(starts, [*starts[1:], len(packets)]):
                (answered, rtts), duration = clock.measure(
                    lambda: connection.replay(packets[first:end])
                )
                raw, factor = clock.log[-1]
                replies += answered
                latency += [value * factor for value in rtts]
                host_s += raw
                if first:
                    steady_s += duration
    finally:
        gc.enable()
        gc.unfreeze()
    good = sum(
        1 for reply in replies if reply is not None and reply.get("type") == protocol.RESULT
    )
    phase = record.phase("requests")
    phase.ok(good)
    phase.fail(len(packets) - good)
    return latency, lag, connection.flush(), steady_s, host_s


def _check_flushes(record: RunRecord, workload: Workload, trace, flushes):
    """Each ``flush`` reply must carry the result of offline ``simulate``
    of the same trace.  Returns that result as a canonical dict."""
    from repro.runner.serialize import result_to_dict
    from repro.service import protocol
    from repro.sim.simulator import simulate

    reference = json.loads(canonical(result_to_dict(
        simulate(arch_config(workload.config), trace)
    )))
    digest = result_digest(reference)
    for flush in flushes:
        same = (
            flush.get("type") == protocol.FLUSH_OK
            and result_digest(flush["result"]) == digest
        )
        if same:
            record.phase("flush").ok()
        else:
            record.phase("flush").fail()
            record.check("service_parity", False, json.dumps(flush)[:200])
    return reference


def _offline_rates(record: RunRecord, workload: Workload, trace, clock: HostClock):
    """Vectorized and checkpointed passes over the served trace's first
    ``OFFLINE_PACKETS`` packets, each checked against an analytic pass of
    that prefix.  Returns the pass durations by engine, in reference s."""
    passes = Passes(
        record, workload, arch_config(workload.config), trace, clock,
        max_packets=OFFLINE_PACKETS,
    )
    passes.make_reference(seed=None)
    for _ in range(OFFLINE_ROUNDS):
        passes.run("vectorized")
        passes.run("checkpointed")
    return passes.walls


def _judge_lag(record: RunRecord, lag: List[float]) -> float:
    """Generator p99 lateness, s; marks the run invalid past the limit."""
    if not lag:
        return 0.0
    p99 = percentile(lag, 99)
    record.labels["client_lag_p50_ms"] = median(lag) * 1000.0
    record.labels["client_lag_p99_ms"] = p99 * 1000.0
    record.labels["client_lag_limit_ms"] = LAG_LIMIT_S * 1000.0
    if p99 > LAG_LIMIT_S:
        record.valid = False
        record.invalid_reason = (
            f"paced generator p99 lag {p99 * 1000:.2f} ms exceeds "
            f"{LAG_LIMIT_S * 1000:.0f} ms"
        )
    return p99


def _slow_args(slow) -> Optional[List[str]]:
    """``serve.py`` arguments slowing ``slow``; ``None`` runs the plain CLI."""
    return [arg for dotted in slow for arg in ("--slow", dotted)] or None


def _measure(record: RunRecord, workload: Workload, seed: int, seconds: float, slow=()):
    packets = max(WARMUP_REQUESTS + 2 * SEGMENT_REQUESTS, int(workload.packets * seconds))
    clock = HostClock()
    trace, server, connection, setup_s, _, setups = _set_up(
        workload, seed, packets, clock, True, _slow_args(slow)
    )
    record.phase("setup").ok(setups)
    try:
        latency, lag, flush, steady_s, _ = _serve_stream(
            record, workload, connection, trace, clock
        )
        peak_rss = proc_peak_rss_mb(server.pid)
    finally:
        connection.close()
        code = server.stop()
    record.check("server_exit", code == 0, f"exit code {code}")
    _judge_lag(record, lag)
    _check_flushes(record, workload, trace, [flush])
    walls = _offline_rates(record, workload, trace, clock)
    record.put("setup_s", setup_s, "s")
    record.put("packets_per_s", (packets - WARMUP_REQUESTS) / steady_s, "pkt/s")
    bounds = list(range(WARMUP_REQUESTS, packets + 1, SEGMENT_REQUESTS))
    windows = [latency[first:end] for first, end in zip(bounds, bounds[1:])]
    for name, p in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        per_segment = [percentile(window, p) * 1000.0 for window in windows]
        record.segments[name] = per_segment
        record.put(name, median(per_segment), "ms")
    for engine in ("vectorized", "checkpointed"):
        record.put(
            f"{engine}_packets_per_s", OFFLINE_PACKETS / median(walls[engine]), "pkt/s"
        )
    record.put("peak_rss_mb", peak_rss, "MiB")
    record.labels["host_speed"] = [f for _, f in clock.log]
    record.labels["work_host_s"] = [raw for raw, _ in clock.log]
    record.samples = {
        "setup": setups,
        "latency": len(latency) - WARMUP_REQUESTS,
        "latency_per_segment": SEGMENT_REQUESTS,
        "requests": packets,
    }


def _traced_pass(record, workload, seed, packets, clock, launcher):
    """One server, one stream.

    Returns (trace, trace-build s, stream wall s, server CPU s, lags,
    flush), the build in reference seconds, the rest in host seconds.
    """
    trace, server, connection, _, build_s, _ = _set_up(
        workload, seed, packets, clock, False, launcher
    )
    try:
        cpu_before = proc_cpu_s(server.pid)
        _, lag, flush, _, wall = _serve_stream(record, workload, connection, trace, clock)
        cpu = proc_cpu_s(server.pid) - cpu_before
    finally:
        connection.close()
        code = server.stop()
    record.check("server_exit", code == 0, f"exit code {code}")
    return trace, build_s, wall, cpu, lag, flush


def _traced(record: RunRecord, workload: Workload, seed: int, slow=()):
    """The same stream through a plain server, then a traced one."""
    packets = workload.traced
    clock = HostClock()
    _, _, _, plain_cpu, _, plain_flush = _traced_pass(
        record, workload, seed, packets, clock, _slow_args(slow)
    )
    layers_out = WORK / f"{workload.name}-seed{seed}-{os.getpid()}.layers.json"
    spans_out = WORK / f"{workload.name}-seed{seed}.trace.json"
    launcher = [
        "--layers-out", str(layers_out), "--spans-out", str(spans_out),
        *(_slow_args(slow) or []),
    ]
    trace, build_s, wall, cpu, lag, flush = _traced_pass(
        record, workload, seed, packets, clock, launcher
    )
    summary = json.loads(layers_out.read_text(encoding="utf-8"))
    layers_out.unlink()
    lag_p99 = _judge_lag(record, lag)
    reference = _check_flushes(record, workload, trace, [plain_flush, flush])
    named = sum(summary["layer_self"].values())
    put_layer_metrics(record, summary, wall, reference, {
        "trace.build_s": build_s,
        "trace.overhead_ratio": cpu / plain_cpu if plain_cpu else 0.0,
        "service.server.cpu_s": cpu,
        "service.server.unattributed_share": 1.0 - named / cpu if cpu else 0.0,
        "service.server.residence_p50_ms": summary["residence_p50_s"] * 1000.0,
        "client.lag_p99_ms": lag_p99 * 1000.0,
    })
    record.labels["spans_file"] = os.path.relpath(spans_out)
    record.samples = {"requests": packets, "residence": summary["residence_samples"]}


def run_service(workload: Workload, seed: int, seconds: float, traced: bool,
                slow: Tuple[str, ...] = ()) -> RunRecord:
    """One service run; ``slow`` entry points are slowed 2x in the server
    (``MODULE.QUALNAME=N``: N times)."""
    WORK.mkdir(exist_ok=True)
    record = RunRecord(workload.name, seed, workload.why, traced)
    record.labels.update({
        "config": workload.config,
        "tenants": workload.tenants,
        "client": "open loop, %d pkt/s" % workload.packets
        if workload.kind == "paced" else f"closed loop, window {WINDOW}",
        "server": "repro-sim serve, CLI defaults (metrics registry on)",
    })
    record.engines.append({"engine": "service"})
    if traced:
        _traced(record, workload, seed, slow)
    else:
        _measure(record, workload, seed, seconds, slow)
    return record
