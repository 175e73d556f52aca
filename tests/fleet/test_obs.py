"""Tests for the telemetry subsystem (:mod:`repro.obs`).

The headline contract, pinned here: **telemetry never perturbs
results**. Attaching any recorder leaves the report byte-identical;
everything keyed by simulated time is itself byte-deterministic at any
``--runtime``/``--jobs`` setting, and the ``sim`` channel agrees
byte-for-byte between the epoch and event engines under the
epoch-equivalence contract. Wall-clock timings live in a separated
``timing`` channel that makes no determinism promises, exports as a
Chrome trace-event timeline (pods as tracks), and is excluded from
every parity assertion.
"""

import json

import pytest

from repro.fleet import __main__ as fleet_cli
from repro.fleet import (
    FleetConfig,
    build_model_for,
    simulate,
)
from repro.obs import (
    DETERMINISTIC_CHANNELS,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    active_recorder,
    chrome_trace_payload,
    set_active_recorder,
    use_recorder,
)

BASE = dict(
    policy="greedy", epochs=4, quota=10, seed=7,
    initial_services=4, arrival_rate=1.5,
)
FAULTY = dict(
    BASE, seed=1, pods=4, nic_fail_rate=0.5, nic_degrade_rate=0.3,
    pod_outage_rate=0.4, mean_time_to_fail=3.0,
)


@pytest.fixture(scope="module")
def model():
    return build_model_for(FleetConfig(**BASE))


# ----------------------------------------------------------------------
# Recorder protocol
# ----------------------------------------------------------------------
class TestRecorderApi:
    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        assert not rec.enabled
        rec.event(1.0, "x", chan="sim", a=1)
        rec.counter("c")
        rec.gauge("g", 2.0)
        rec.histogram("h", 3)
        rec.exec_counter("ec")
        with rec.span(0.0, "s") as span:
            span.add(b=2)
        with rec.wall_span("w"):
            pass

    def test_trace_recorder_collects(self):
        rec = TraceRecorder()
        assert rec.enabled
        rec.event(2.0, "arrive", chan="sim", service=3)
        rec.event(2.0, "pop", detail="x")  # engine channel default
        rec.counter("events")
        rec.histogram("iters", 25)
        assert [r["name"] for r in rec.deterministic_records()] == [
            "arrive", "pop",
        ]
        assert [r["name"] for r in rec.deterministic_records("sim")] == [
            "arrive",
        ]
        assert rec.counters["events"] == 1
        assert rec.histograms["iters"]["count"] == 1

    def test_unknown_channel_rejected(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="chan"):
            rec.event(0.0, "x", chan="wall")
        assert DETERMINISTIC_CHANNELS == ("sim", "engine")

    def test_jsonl_has_no_sequence_numbers(self):
        # No per-record sequence field: a resumed run's stream can be a
        # byte-exact suffix of the full run's (pinned below).
        rec = TraceRecorder()
        rec.event(1.0, "a", chan="sim", k=1)
        rec.event(2.0, "b", chan="sim")
        lines = rec.to_jsonl().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert set(record) >= {"chan", "t", "name"}
            assert "seq" not in record

    def test_span_records_fields_at_exit(self):
        rec = TraceRecorder()
        with rec.span(3.0, "phase.score", chan="engine", pods=2) as span:
            span.add(mixes=5)
        (record,) = rec.deterministic_records()
        assert record == {
            "chan": "engine", "t": 3.0, "name": "phase.score",
            "pods": 2, "mixes": 5,
        }
        (timing,) = rec.timings
        assert timing["name"] == "phase.score"
        assert timing["args"]["sim_time"] == 3.0

    def test_active_recorder_scoping(self):
        assert active_recorder() is NULL_RECORDER
        rec = TraceRecorder()
        with use_recorder(rec):
            assert active_recorder() is rec
        assert active_recorder() is NULL_RECORDER
        previous = set_active_recorder(rec)
        assert previous is NULL_RECORDER
        set_active_recorder(previous)

    def test_metrics_payload_shape(self):
        rec = TraceRecorder()
        rec.counter("a")
        rec.exec_histogram("h", 4)
        payload = rec.metrics_payload()
        assert set(payload) == {"deterministic", "exec", "timing"}
        assert payload["deterministic"]["counters"] == {"a": 1}
        assert payload["exec"]["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# The hard contract: telemetry never perturbs results
# ----------------------------------------------------------------------
class TestReportUnperturbed:
    @pytest.mark.parametrize("engine,extra", [
        ("epoch", {}),
        ("event", {"quantize_arrivals": True}),
    ])
    def test_report_bytes_identical_with_recorder(self, model, engine,
                                                  extra):
        config = FleetConfig(engine=engine, **{**FAULTY, **extra})
        bare = simulate(config, model=model)
        recorded = simulate(config, model=model, recorder=TraceRecorder())
        nulled = simulate(config, model=model, recorder=NullRecorder())
        assert recorded.to_json() == bare.to_json()
        assert nulled.to_json() == bare.to_json()


class TestDeterministicStream:
    def test_identical_across_runtimes_and_jobs(self, model):
        streams = {}
        for runtime, jobs in [
            ("serial", 1), ("process", 1), ("process", 2), ("process", 4),
        ]:
            rec = TraceRecorder()
            simulate(
                FleetConfig(runtime=runtime, jobs=jobs, **FAULTY),
                model=model, recorder=rec,
            )
            streams[(runtime, jobs)] = rec.to_jsonl()
        reference = streams[("serial", 1)]
        assert reference  # the stream is non-trivial
        for key, stream in streams.items():
            assert stream == reference, f"{key} diverged from serial"

    def test_sim_channel_identical_across_engines(self, model):
        # Under the epoch-equivalence contract the continuous-time
        # engine replays the epoch engine's trajectory — and its sim
        # channel — byte-for-byte, faults included.
        epoch_rec, event_rec = TraceRecorder(), TraceRecorder()
        simulate(FleetConfig(**FAULTY), model=model, recorder=epoch_rec)
        simulate(
            FleetConfig(engine="event", quantize_arrivals=True, **FAULTY),
            model=model, recorder=event_rec,
        )
        sim_epoch = epoch_rec.to_jsonl(chan="sim")
        assert sim_epoch
        assert "fault." in sim_epoch  # the faulted config actually faults
        assert sim_epoch == event_rec.to_jsonl(chan="sim")

    def test_repeat_run_stream_identical(self, model):
        first, second = TraceRecorder(), TraceRecorder()
        simulate(FleetConfig(**BASE), model=model, recorder=first)
        simulate(FleetConfig(**BASE), model=model, recorder=second)
        assert first.to_jsonl() == second.to_jsonl()


class TestResumeStreamSuffix:
    def test_resumed_trace_is_byte_exact_suffix(self, tmp_path, model):
        """A resumed run's stream is the tail of the full run's.

        Snapshot at epoch k, resume, record: the resumed stream equals
        the full run's records at ``t >= k``, and prefix + resumed
        stream byte-equals the full stream — telemetry survives a kill
        the same way the report does.
        """
        config = FleetConfig(**FAULTY)
        full_rec = TraceRecorder()
        full = simulate(config, model=model, recorder=full_rec)

        snap = str(tmp_path / "snap.pkl")
        simulate(
            FleetConfig(checkpoint_path=snap, checkpoint_every=3, **FAULTY),
            model=model,
        )
        resumed_rec = TraceRecorder()
        resumed = simulate(
            FleetConfig(resume_path=snap, **FAULTY),
            model=model, recorder=resumed_rec,
        )
        assert resumed.to_json() == full.to_json()

        step = 3  # checkpoint_every=3 over 4 epochs: a mid-run snapshot
        lines = full_rec.to_jsonl().splitlines(keepends=True)
        records = full_rec.deterministic_records()
        prefix = "".join(
            line for line, record in zip(lines, records)
            if record["t"] < step
        )
        suffix = "".join(
            line for line, record in zip(lines, records)
            if record["t"] >= step
        )
        assert resumed_rec.to_jsonl()  # the replayed tail is non-trivial
        assert resumed_rec.to_jsonl() == suffix
        assert prefix + resumed_rec.to_jsonl() == full_rec.to_jsonl()


# ----------------------------------------------------------------------
# Report telemetry section
# ----------------------------------------------------------------------
class TestReportTelemetry:
    def test_solver_and_scoring_totals(self, model):
        report = simulate(FleetConfig(**BASE), model=model)
        telemetry = report.payload()["telemetry"]
        solver = telemetry["solver"]
        assert solver["scenarios_solved"] > 0
        assert solver["iterations_total"] >= solver["scenarios_solved"]
        assert solver["max_iterations"] >= 1
        assert sum(row["iterations"] for row in solver["per_epoch"]) == \
            solver["iterations_total"]
        scoring = telemetry["scoring"]
        assert scoring["mixes_solved"] == solver["scenarios_solved"]
        assert sum(row["tasks"] for row in scoring["pod_tasks"]) > 0

    def test_residuals_present_for_trained_policies(self):
        config = FleetConfig(
            policy="yala", epochs=3, quota=25, seed=3,
            initial_services=3, arrival_rate=1.0,
        )
        report = simulate(config)
        residuals = report.payload()["telemetry"]["residuals"]
        assert residuals, "yala runs must score prediction residuals"
        for row in residuals:
            assert set(row) == {
                "predictor", "count", "mean_error", "mean_abs_error",
                "max_abs_error",
            }
            assert row["count"] > 0
            assert row["max_abs_error"] >= abs(row["mean_error"]) - 1e-12

    def test_greedy_has_no_residuals(self, model):
        report = simulate(FleetConfig(**BASE), model=model)
        assert report.payload()["telemetry"]["residuals"] == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_faulted_pod_run_trace_shape(self, model):
        rec = TraceRecorder()
        simulate(
            FleetConfig(**dict(FAULTY, pods=16)),
            model=model, recorder=rec,
        )
        payload = chrome_trace_payload(rec)
        events = payload["traceEvents"]
        assert events
        assert {event["ph"] for event in events} <= {"M", "X"}
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
                assert isinstance(event["args"], dict)
        thread_names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "engine" in thread_names
        assert any(name.startswith("pod ") for name in thread_names)
        # The whole payload is valid trace-event JSON.
        json.loads(json.dumps(payload))

    def test_one_score_span_per_scoring_pass(self, model):
        rec = TraceRecorder()
        simulate(FleetConfig(**FAULTY), model=model, recorder=rec)
        passes = [
            record["t"]
            for record in rec.deterministic_records("sim")
            if record["name"] == "score"
        ]
        # The engine track is the one without a pod (``track=None``).
        spans = [
            timing["args"]["sim_time"]
            for timing in rec.timings
            if timing["name"] == "phase.score" and timing["track"] is None
        ]
        assert len(passes) == FAULTY["epochs"]
        assert spans == passes


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliTelemetry:
    CLI = [
        "--policy", "greedy", "--epochs", "3", "--quota", "10",
        "--seed", "7", "--format", "json",
    ]

    def test_trace_and_metrics_files_written(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        argv = list(self.CLI) + [
            "--trace-out", trace, "--metrics-out", metrics,
        ]
        assert fleet_cli.main(argv) == 0
        captured = capsys.readouterr()
        for line in captured.err.splitlines():
            assert line.startswith("# ")
        with open(trace) as handle:
            for line in handle:
                json.loads(line)
        with open(metrics) as handle:
            snapshot = json.load(handle)
        assert set(snapshot) == {"deterministic", "exec", "timing"}

    def test_trace_never_changes_stdout(self, tmp_path, capsys):
        assert fleet_cli.main(list(self.CLI)) == 0
        bare = capsys.readouterr().out
        argv = list(self.CLI) + [
            "--trace-out", str(tmp_path / "t.json"),
            "--trace-format", "chrome",
        ]
        assert fleet_cli.main(argv) == 0
        assert capsys.readouterr().out == bare

    def test_chrome_format_writes_trace_events(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        argv = list(self.CLI) + [
            "--trace-out", trace, "--trace-format", "chrome",
        ]
        assert fleet_cli.main(argv) == 0
        capsys.readouterr()
        with open(trace) as handle:
            assert "traceEvents" in json.load(handle)


class TestWorkersDeprecation:
    def test_jobs_flag_warns_nothing(self, recwarn):
        parser = fleet_cli.build_parser()
        config = FleetConfig.from_cli_args(parser.parse_args(["--jobs", "2"]))
        assert config.jobs == 2
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
