"""Trace-free checkpoints: snapshots hold engine state plus a trace identity.

The contract under test (see ``src/repro/sim/checkpoint.py``):

* a snapshot references the trace instead of containing it, so its size
  follows engine state, not trace length — also for the Belady oracle,
  which is stored as a cursor;
* a run resumes byte-identically on a freshly built trace even when the
  checkpointed run's trace had already been simulated once: the host
  backings made since construction are replayed in order;
* a snapshot from another trace, or from the previous format, is
  refused with :class:`CheckpointError` — and the CLI and the runner
  handle that refusal.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.runner.serialize import result_to_dict
from repro.sim import checkpoint as ckpt
from repro.sim.des import simulate_evented
from repro.sim.simulator import HyperSimulator, simulate
from repro.trace.constructor import construct_trace, rebuild_trace, with_trace_file
from repro.trace.records import write_trace
from repro.trace.tenant import profile_by_name

ENGINES = {"analytic": simulate, "event": simulate_evented}


def make_trace(tenants=16, packets=1500, seed=0, benchmark="mediastream"):
    return construct_trace(
        profile_by_name(benchmark),
        num_tenants=tenants,
        packets_per_tenant=200_000,
        interleaving="RR1",
        seed=seed,
        max_packets=packets,
    )


def result_bytes(result) -> bytes:
    return json.dumps(result_to_dict(result), sort_keys=True).encode()


def oracle_config():
    return base_config().with_overrides(
        name="Base-oracle",
        devtlb=TlbConfig(num_entries=64, ways=8, num_partitions=1, policy="oracle"),
    )


def stop_at_first_save(packets_done, path):
    ckpt.request_interrupt()


def checkpoint_midway(run, config, trace, path, every):
    """Stop the run at the barrier after its first periodic snapshot; the
    interrupt flushes the snapshot left behind.  Returns packets done."""
    with pytest.raises(ckpt.SimulationInterrupted) as info:
        run(config, trace, checkpoint_every=every, checkpoint_path=path,
            checkpoint_hook=stop_at_first_save)
    ckpt.clear_interrupt()
    return info.value.packets_done


@pytest.fixture(autouse=True)
def _clean_interrupt_flag():
    ckpt.clear_interrupt()
    yield
    ckpt.clear_interrupt()


class TestReusedTrace:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_resume_on_fresh_trace_after_reuse(self, engine, tmp_path):
        """The checkpointed run's trace was simulated once before (as the
        runner's trace cache and the bench do), so its host backings
        differ from a fresh trace's; resuming on a fresh trace must replay
        them to reproduce every hPA."""
        run = ENGINES[engine]
        config = hypertrio_config()

        def reused():
            trace = make_trace()
            run(config, trace)
            return trace

        baseline = run(config, reused())
        path = tmp_path / "reused.ckpt"
        done = checkpoint_midway(run, config, reused(), path, every=500)
        assert 0 < done < 1500
        resumed = run(config, make_trace(), resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

    def test_resume_on_the_same_trace_after_it_ran_on(self, tmp_path):
        """A supplied trace with backings past the snapshot cannot take
        the replay; the resume rebuilds the trace instead."""
        config = hypertrio_config()
        trace = make_trace(packets=800)
        path = tmp_path / "run.ckpt"
        baseline = simulate(config, make_trace(packets=800))
        simulate(config, trace, checkpoint_every=300, checkpoint_path=path)
        resumed = simulate(config, trace, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)


class TestSnapshotSize:
    @pytest.mark.parametrize("make_config", [hypertrio_config, oracle_config],
                             ids=["hypertrio", "oracle"])
    def test_size_does_not_follow_trace_length(self, make_config, tmp_path):
        config = make_config()
        sizes, done = {}, set()
        for packets in (4_000, 40_000):
            path = tmp_path / f"{packets}.ckpt"
            done.add(checkpoint_midway(
                simulate, config, make_trace(tenants=8, packets=packets), path,
                every=1_000,
            ))
            sizes[packets] = path.stat().st_size
        assert len(done) == 1  # both snapshots at the same packet
        assert sizes[40_000] <= 1.1 * sizes[4_000], sizes

    def test_oracle_resume_is_byte_identical(self, tmp_path):
        config = oracle_config()
        baseline = simulate(config, make_trace(tenants=8, packets=3_000))
        path = tmp_path / "oracle.ckpt"
        checkpoint_midway(simulate, config, make_trace(tenants=8, packets=3_000),
                          path, every=1_000)
        resumed = simulate(config, None, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)


class TestTraceIdentity:
    def test_mismatched_trace_is_refused(self, tmp_path):
        path = tmp_path / "run.ckpt"
        checkpoint_midway(simulate, hypertrio_config(), make_trace(packets=600),
                          path, every=200)
        with pytest.raises(ckpt.CheckpointError, match="trace mismatch.*seed"):
            simulate(hypertrio_config(), make_trace(packets=600, seed=1),
                     resume_from=path)

    def test_trace_file_origin_rebuilds_and_detects_edits(self, tmp_path):
        constructed = make_trace(tenants=4, packets=600)
        trace_file = tmp_path / "packets.jsonl"
        write_trace(trace_file, constructed.packets)
        trace = with_trace_file(make_trace(tenants=4, packets=600), trace_file)
        assert trace.identity()["packets_sha256"] == constructed.identity()["packets_sha256"]
        assert rebuild_trace(trace.origin).identity() == trace.identity()

        path = tmp_path / "file.ckpt"
        baseline = simulate(hypertrio_config(), constructed)
        checkpoint_midway(simulate, hypertrio_config(), trace, path, every=200)
        resumed = simulate(hypertrio_config(), None, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

        write_trace(trace_file, constructed.packets[:500])
        with pytest.raises(ckpt.CheckpointError, match="trace mismatch.*file_sha256"):
            simulate(hypertrio_config(), None, resume_from=path)


def write_v1_snapshot(path):
    """A snapshot in the version-1 layout: the whole simulator, trace
    included, in one pickle after the magic."""
    config = hypertrio_config()
    from repro.core.config_io import config_to_dict

    payload = {
        "version": 1,
        "engine": "analytic",
        "packets_done": 0,
        "config": config_to_dict(config),
        "state": {"sim": HyperSimulator(config, make_trace(tenants=4, packets=200)),
                  "router": None, "loop": None},
    }
    with open(path, "wb") as handle:
        handle.write(ckpt.CHECKPOINT_MAGIC)
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)


class TestOldSnapshots:
    def test_v1_snapshot_names_both_versions(self, tmp_path):
        path = tmp_path / "old.ckpt"
        write_v1_snapshot(path)
        with pytest.raises(ckpt.CheckpointError,
                           match="format version 1; this build reads version 2"):
            ckpt.SimulationCheckpoint.load(path)

    def test_runner_worker_drops_v1_snapshot_and_reruns(self, tmp_path):
        from repro.analysis.scale import RunScale
        from repro.runner.spec import JobSpec
        from repro.runner.supervise import checkpoint_path_for
        from repro.runner.worker import execute_job, execute_job_supervised

        scale = RunScale(
            name="test", tenant_counts=(4,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=600,
            packets_per_tenant=50_000, warmup_fraction=0.2,
        )
        spec = JobSpec.from_point(hypertrio_config(), "mediastream", 4, "RR1", scale)
        clean = execute_job(spec)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        stale = checkpoint_path_for(run_dir, spec.spec_hash)
        stale.parent.mkdir(parents=True, exist_ok=True)
        write_v1_snapshot(stale)
        payload = execute_job_supervised(
            spec, {"run_dir": str(run_dir), "checkpoint_every": 200,
                   "heartbeat_interval_s": 0.05},
        )
        assert payload["exit_cause"] == "completed"
        assert (json.dumps(payload["result"], sort_keys=True)
                == json.dumps(clean["result"], sort_keys=True))
        assert not stale.exists()


SMALL = ["--benchmark", "mediastream", "--tenants", "4", "--packets", "800"]


class TestCliResume:
    def test_simulate_resume_matches_and_mismatched_seed_exits_2(
        self, tmp_path, capsys
    ):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["simulate", *SMALL, "--checkpoint-dir", str(ckpt_dir),
                     "--checkpoint-every", "300"]) == 0
        straight = capsys.readouterr().out
        (path,) = ckpt_dir.iterdir()
        assert main(["simulate", *SMALL, "--resume-from", str(path)]) == 0
        assert capsys.readouterr().out == straight
        # No trace flags: the trace is rebuilt from the checkpoint's record.
        assert main(["simulate", "--resume-from", str(path)]) == 0
        assert capsys.readouterr().out == straight
        assert main(["simulate", *SMALL, "--seed", "1",
                     "--resume-from", str(path)]) == 2
        assert "trace mismatch" in capsys.readouterr().err

    def test_serve_resume_with_mismatched_seed_exits_2(self, tmp_path, capsys):
        from repro.service.engine import ServiceEngine

        trace = construct_trace(
            profile_by_name("mediastream"), num_tenants=4,
            packets_per_tenant=200_000, interleaving="RR1", seed=0,
            max_packets=800,
        )
        engine = ServiceEngine(hypertrio_config(), trace)
        engine.submit_batch(trace.packets[:100])
        path = engine.save_checkpoint(tmp_path / "svc.ckpt")
        assert main(["serve", *SMALL, "--seed", "1", "--port", "0",
                     "--resume-from", str(path)]) == 2
        assert "trace mismatch" in capsys.readouterr().err
