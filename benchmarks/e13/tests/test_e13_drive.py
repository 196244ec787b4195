"""Inputs, deployment config and host-speed calibration."""

import pytest

from benchmarks.e13 import calibrate, drive, inputs, spec


def test_undeclared_knob_is_dropped_and_reported_not_fatal():
    engine, dropped = drive.build_engine(
        {"peer_count": 4, "worker_count": 2, "knob_a_later_pr_deleted": 7}
    )
    assert dropped == ["knob_a_later_pr_deleted"]
    assert engine.config.peer_count == 4 and engine.config.metadata_plane == "gossip"
    engine.storage.close()


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    sizes = spec.sizes_for(workload, spec.REFERENCE_SECONDS, smoke=True)
    first, again = inputs.generate(workload, 5, sizes), inputs.generate(workload, 5, sizes)
    other = inputs.generate(workload, 6, sizes)
    assert first.digest == again.digest != other.digest
    assert [d.text for d in first.bulk] == [d.text for d in again.bulk]


def test_every_event_stream_deletes_and_drops_terms():
    sizes = spec.sizes_for("live-update", spec.REFERENCE_SECONDS, smoke=False)
    events = [e for r in inputs.generate("live-update", 1, sizes).rounds for e in r.events]
    kinds = [event.kind for event in events]
    assert len(events) == sizes["rounds"] * sizes["events_per_round"]
    assert kinds.count("d") >= 1 and kinds.count("c") >= 1
    assert any(event.dropped_terms for event in events if event.kind == "u")


def test_seconds_scale_only_the_long_stretch():
    base = spec.sizes_for("query-cold", spec.REFERENCE_SECONDS, smoke=False)
    half = spec.sizes_for("query-cold", spec.REFERENCE_SECONDS / 2, smoke=False)
    assert half["query"]["frontends"] == base["query"]["frontends"] // 2
    assert half["bulk_docs"] == base["bulk_docs"] and half["rounds"] == base["rounds"]


def test_reference_seconds_subtract_samples_inside_and_divide_by_the_slowdown():
    calibrator = calibrate.Calibrator()
    nominal = calibrate.NOMINAL_KERNEL_S
    # Samples ending at t=1.0, 2.0, 3.0, each twice as slow as nominal.
    calibrator.ends = [1.0, 2.0, 3.0]
    calibrator.durations = [2 * nominal] * 3
    assert calibrator.inside(1.5, 2.5) == pytest.approx(2 * nominal)
    assert calibrator.inside(2.0 - nominal, 2.5) == pytest.approx(nominal)  # straddles the start
    raw, reference = calibrator.reference_seconds(1.5, 2.5)
    assert raw == pytest.approx(1.0 - 2 * nominal)
    assert reference == pytest.approx(raw / 2)
    # No sample within the window: the nearest one decides.
    assert calibrator.slowdown(10.0, 11.0) == pytest.approx(2.0)


def test_the_timer_samples_while_work_runs_and_is_removed_afterwards():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator() as calibrator:
        deadline = time.perf_counter() + 4 * calibrate.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(calibrator.ends) >= 4  # one on entry, one on exit, the rest from the timer
    assert calibrator.ends == sorted(calibrator.ends)
