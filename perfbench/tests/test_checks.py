"""Each correctness check rejects a deliberately wrong result."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import layers
import run
import workloads
from tracing import Tracer
from duocast import harness, regions
from duocast.regions import RatePoint, RateRegion


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=37))
    for p in (0, 50, 66, 83, 90, 100):
        assert run.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_pass_time_takes_each_job_at_its_median_over_passes():
    # Passes: (1, 10), (2, 11), (100, 12): the 100 s outlier does not count.
    assert run.pass_time([1.0, 10.0, 2.0, 11.0, 100.0, 12.0], 2) == pytest.approx(13.0)



def test_ray_point_lies_on_the_boundary():
    boundary = workloads.REFERENCES["boundaries"]["bursty.visible"]
    region = RateRegion(
        "visible",
        [RatePoint(*p) for p in boundary],
        [regions.RegionWitness("visible", {0: (0.0, 0.0)})] * len(boundary),
    )
    for theta in np.linspace(*workloads.ANGLES, 7):
        r1, r2 = workloads.ray_point(boundary, theta)
        assert math.atan2(r2, r1) == pytest.approx(theta)
        assert region.contains(RatePoint(0.999 * r1, 0.999 * r2))
        assert not region.contains(RatePoint(1.001 * r1, 1.001 * r2))


def test_frontier_check_rejects_a_flipped_verdict():
    job = workloads.frontier_jobs(3)[0]
    verdict = harness.StabilityVerdict(stable=True, final_backlog_over_n=0.0, tail_slope=0.0)
    assert workloads.check_frontier(job, (None, verdict))
    flipped = replace(verdict, stable=False)
    assert not workloads.check_frontier(job, (None, flipped))


@pytest.fixture(scope="module")
def bursty_pass():
    jobs = [j for j in workloads.regions_jobs(0) if j.args["name"] == "bursty"]
    return [(job, workloads.run_region_job(job)) for job in jobs]


def _moved(region: RateRegion, index: int, factor: float) -> RateRegion:
    boundary = list(region.boundary)
    p = boundary[index]
    boundary[index] = RatePoint(p.r1 * factor, p.r2 * factor)
    return RateRegion(region.kind, boundary, region.witnesses)


def test_regions_check_accepts_the_real_regions(bursty_pass):
    assert workloads.check_regions(bursty_pass) == [True] * len(bursty_pass)


def test_regions_check_rejects_a_moved_vertex(bursty_pass):
    results = list(bursty_pass)
    job, visible = results[0]
    assert job.args["kind"] == "visible"
    # Pull the vertex nearest the diagonal inward: the diagonal rate moves.
    inner = min(range(1, len(visible.boundary) - 1),
                key=lambda i: abs(visible.boundary[i].r1 - visible.boundary[i].r2))
    results[0] = (job, _moved(visible, inner, 0.999))
    ok = workloads.check_regions(results)
    assert ok[0] is False


def test_regions_check_rejects_a_broken_inclusion(bursty_pass):
    results = list(bursty_pass)
    kinds = [job.args["kind"] for job, _ in results]
    i = kinds.index("uncoded")
    reactive = results[kinds.index("reactive")][1]
    # An "uncoded" region slightly larger than the reactive one.  The bursty
    # reference diagonal would also catch it, so use an unreferenced name.
    grown = RateRegion(
        "uncoded",
        [RatePoint(1.01 * p.r1, 1.01 * p.r2) for p in reactive.boundary],
        reactive.witnesses,
    )
    results = [(replace(j, args=dict(j.args, name="other")), r) for j, r in results]
    results[i] = (results[i][0], grown)
    ok = workloads.check_regions(results)
    assert ok[i] is False
    assert ok[kinds.index("minkowski")] is True


def test_regions_check_rejects_a_missing_region(bursty_pass):
    results = list(bursty_pass)
    results[2] = (results[2][0], None)
    assert workloads.check_regions(results)[2] is False


def _small_packets_job(kind):
    job = next(j for j in workloads.packets_jobs(5) if j.args["policy"]["kind"] == kind)
    return replace(job, args=dict(job.args, horizon=3000))


def test_packets_check_rejects_a_changed_record_or_failed_audit():
    job = _small_packets_job("maxweight")
    trace = workloads.run_packets_job(job)
    assert workloads.check_packets(job, trace)

    tampered = replace(trace, record=trace.record.copy())
    tampered.record[-1, 0] += 1
    assert not workloads.check_packets(job, tampered)

    failed_audit = replace(trace, audit_passed=False)
    assert not workloads.check_packets(job, failed_audit)


def test_instrument_traces_the_layers_and_then_removes_itself():
    original = harness.run
    tracer = Tracer()
    job = _small_packets_job("probabilistic")
    with layers.instrument(tracer):
        with tracer.region("bench.job"):
            workloads.run_packets_job(job)
        counts = harness.Scenario(**dict(job.args, engine="counts"))
        with tracer.region("bench.job"):
            harness.run(counts)
    assert harness.run is original
    names = {s.name for s in tracer.finished()}
    assert {"harness.run", "kernel.run_counts", "lp.solve", "regions.synthesize"} <= names
    assert tracer.calls("queuenet.apply_slot") == 3000
    assert tracer.calls("policies.probabilistic_decide") == 3000
    job_s = sum(s.duration for s in tracer.finished() if s.name == "bench.job")
    report = layers.layer_metrics(tracer, 1, job_s, rng_floor=1e7)
    shares = sum(report[f"{layer}.share"][0] for layer in layers.LAYERS)
    assert 0.9 < shares <= 1.0 + 1e-9
    assert report["kernel.slots"][0] == 3000
    assert report["harness.packets.slots"][0] == 3000
    report["trace.overhead_s"] = (0.0, "s")  # added by run.py
    listed = json.loads(run.BENCHMARK.read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        m["name"]: report[m["name"]][1] for m in listed
    }
