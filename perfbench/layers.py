"""Which library functions are traced, and the per-layer numbers they give.

The layers are the package's modules: lp, channel, regions, kernel,
harness, queuenet and policies (cli only parses arguments and formats, so
it has no layer metrics).  Each traced function is wrapped in the namespace
of the module that calls it; the workloads call the library through module
attributes so that their own calls are traced too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from duocast import channel, harness, kernel, regions

from tracing import Span, Tracer, patched

LAYERS = ("lp", "channel", "regions", "kernel", "harness", "queuenet", "policies")
REGION_KINDS = ("visible", "reactive", "uncoded", "minkowski", "hidden_L")
KERNEL_KINDS = ("visible_mw", "hidden_mw", "prob")

# Computed, not measured: the kernel draws RNG_COLUMNS float64 per slot.
RNG_BYTES_PER_SLOT = kernel.RNG_COLUMNS * 8


def _lp_attrs(args, kwargs, result):
    return {"vars": args[0].dimensions()[0]}


def _region_attrs(args, kwargs, result):
    return {"vertices": len(result.boundary)}


def _kernel_attrs(args, kwargs, result):
    if kwargs.get("policy", "maxweight") == "probabilistic":
        kind = "prob"
    else:
        kind = "visible_mw" if kwargs.get("visible", True) else "hidden_mw"
    return {"kind": kind, "slots": int(kwargs["horizon"])}


def _run_attrs(args, kwargs, result):
    return {"engine": args[0].engine, "slots": args[0].horizon}


def instrument(tracer: Tracer):
    """Context manager that installs every wrapper and removes it on exit."""

    span, counted = tracer.span, tracer.counted
    table = [
        # lp: every caller of lp.solve.
        (regions, "solve", span("lp.solve", regions.solve, _lp_attrs)),
        (harness, "solve", span("lp.solve", harness.solve, _lp_attrs)),
        # regions: the tracers the workloads call, and what harness uses.
        *[
            (regions, f"region_{kind}",
             span(f"regions.trace.{kind}", getattr(regions, f"region_{kind}"),
                  _region_attrs))
            for kind in REGION_KINDS
        ],
        (harness, "region_membership",
         span("regions.membership", harness.region_membership)),
        (harness, "synthesize_policy",
         span("regions.synthesize", harness.synthesize_policy)),
        (regions, "flow_solve", counted("regions.flow_solve", regions.flow_solve)),
        # channel
        (regions, "hidden_window_stats",
         span("channel.window_stats", regions.hidden_window_stats)),
        (harness, "hidden_window_stats",
         span("channel.window_stats", harness.hidden_window_stats)),
        (regions, "cond_erasure_hidden",
         counted("channel.cond_erasure_hidden", regions.cond_erasure_hidden)),
        *[
            (owner, "cond_erasure_visible",
             counted("channel.cond_erasure_visible", owner.cond_erasure_visible))
            for owner in (channel, harness, kernel)
        ],
        *[
            (owner, "load_channel",
             span("channel.load_channel", owner.load_channel))
            for owner in (channel, harness)
        ],
        # kernel
        (kernel, "run_counts",
         span("kernel.run_counts", kernel.run_counts, _kernel_attrs)),
        # harness
        (harness, "run", span("harness.run", harness.run, _run_attrs)),
        (harness, "stability_verdict",
         span("harness.stability_verdict", harness.stability_verdict)),
        (harness.SimTrace, "check_conservation",
         span("harness.check_conservation", harness.SimTrace.check_conservation)),
        (harness, "per_state_split",
         span("harness.per_state_split", harness.per_state_split)),
        # queuenet and policies: once per slot, so counted rather than spanned.
        (harness, "apply_slot", counted("queuenet.apply_slot", harness.apply_slot)),
        (harness, "audit_decodability",
         span("queuenet.audit", harness.audit_decodability)),
        (harness, "maxweight_decide",
         counted("policies.maxweight_decide", harness.maxweight_decide)),
        (harness, "probabilistic_decide",
         counted("policies.probabilistic_decide", harness.probabilistic_decide)),
        (harness, "per_state_memoryless_decide",
         counted("policies.per_state_decide", harness.per_state_memoryless_decide)),
    ]
    return patched(table)


def rng_floor_slots_per_s(seed: int, repeats: int = 7) -> float:
    """Slots/s of drawing the kernel's random matrix alone, median of repeats."""

    times = []
    for r in range(repeats):
        rng = np.random.default_rng(seed + r)
        start = time.perf_counter()
        rng.random((kernel.CHUNK_SLOTS, kernel.RNG_COLUMNS))
        times.append(time.perf_counter() - start)
    return kernel.CHUNK_SLOTS / statistics.median(times)


def _inside_trace(spans: list[Span], index: int) -> bool:
    """Whether the span at ``index`` runs inside a region tracer."""

    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name.startswith("regions.trace."):
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, passes: int, job_s: float, rng_floor: float) -> dict:
    """Per-layer numbers from a traced phase of ``passes`` whole passes.

    Counts and times are totals per pass.  ``job_s`` is the traced time of
    all jobs, the base of every share.  Returns ``{name: (value, unit)}``.
    """

    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(name: str) -> float:
        return sum(spans[i].self_s for i in by_name.get(name, ()))

    out: dict[str, tuple[float, str]] = {}

    solves = by_name.get("lp.solve", [])
    out["lp.solve.calls"] = (len(solves), "count")
    out["lp.solve.self_s"] = (self_total("lp.solve"), "s")
    out["lp.solve.us_p50"] = (
        1e6 * statistics.median(spans[i].duration for i in solves) if solves else 0.0,
        "us",
    )
    out["lp.vars_p50"] = (
        statistics.median(spans[i].attrs["vars"] for i in solves) if solves else 0,
        "count",
    )

    for kind in REGION_KINDS:
        out[f"regions.trace.{kind}.s"] = (total(f"regions.trace.{kind}"), "s")
    traced = [i for kind in REGION_KINDS for i in by_name.get(f"regions.trace.{kind}", ())]
    vertices = sum(spans[i].attrs["vertices"] for i in traced if spans[i].attrs)
    lp_vertices = sum(
        spans[i].attrs["vertices"]
        for i in traced
        if spans[i].attrs and spans[i].name != "regions.trace.minkowski"
    )
    trace_solves = sum(1 for i in solves if _inside_trace(spans, i))
    out["regions.vertices"] = (vertices, "count")
    out["regions.vertices_per_solve"] = (
        lp_vertices / trace_solves if trace_solves else 0.0, "ratio")
    # The inverse stays defined when a tracer needs no LP at all.
    out["regions.solves_per_vertex"] = (
        trace_solves / lp_vertices if lp_vertices else 0.0, "ratio")
    out["regions.membership.s"] = (total("regions.membership"), "s")
    out["regions.synthesize.s"] = (total("regions.synthesize"), "s")
    out["regions.flow_solve.calls"] = (tracer.calls("regions.flow_solve"), "count")

    out["channel.window_stats.s"] = (total("channel.window_stats"), "s")
    out["channel.cond_erasure_hidden.calls"] = (
        tracer.calls("channel.cond_erasure_hidden"), "count")
    out["channel.cond_erasure_visible.calls"] = (
        tracer.calls("channel.cond_erasure_visible"), "count")
    out["channel.load_channel.s"] = (total("channel.load_channel"), "s")

    kernel_spans = [spans[i] for i in by_name.get("kernel.run_counts", ())]
    kernel_s = sum(s.duration for s in kernel_spans)
    kernel_slots = sum(s.attrs["slots"] for s in kernel_spans if s.attrs)
    out["kernel.run_counts.s"] = (kernel_s, "s")
    out["kernel.slots"] = (kernel_slots, "count")
    for kind in KERNEL_KINDS:
        mine = [s for s in kernel_spans if s.attrs and s.attrs["kind"] == kind]
        busy = sum(s.duration for s in mine)
        out[f"kernel.slots_per_s.{kind}"] = (
            sum(s.attrs["slots"] for s in mine) / busy if busy else 0.0, "1/s")
    out["kernel.rng_floor_slots_per_s"] = (rng_floor, "1/s")
    # Share of kernel time the random draw alone would take at its floor rate.
    out["kernel.rng_share"] = (
        kernel_slots / rng_floor / kernel_s if kernel_s else 0.0, "ratio")
    out["kernel.rng_bytes_per_slot"] = (RNG_BYTES_PER_SLOT, "B")

    runs = [spans[i] for i in by_name.get("harness.run", ())]
    packet_runs = [s for s in runs if s.attrs and s.attrs["engine"] == "packets"]
    packet_s = sum(s.duration for s in packet_runs)
    out["harness.run.calls"] = (len(runs), "count")
    out["harness.run.self_s"] = (self_total("harness.run"), "s")
    out["harness.stability_verdict.s"] = (total("harness.stability_verdict"), "s")
    out["harness.check_conservation.s"] = (total("harness.check_conservation"), "s")
    out["harness.per_state_split.s"] = (total("harness.per_state_split"), "s")
    out["harness.packets.slots"] = (sum(s.attrs["slots"] for s in packet_runs), "count")
    out["harness.packets.slots_per_s"] = (
        out["harness.packets.slots"][0] / packet_s if packet_s else 0.0, "1/s")

    out["queuenet.apply_slot.calls"] = (tracer.calls("queuenet.apply_slot"), "count")
    out["queuenet.apply_slot.self_s"] = (tracer.self_time("queuenet.apply_slot"), "s")
    out["queuenet.audit.s"] = (total("queuenet.audit"), "s")
    decide_s = 0.0
    for policy in ("maxweight", "probabilistic", "per_state"):
        name = f"policies.{policy}_decide"
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_time(name), "s")
        decide_s += tracer.self_time(name)

    # Shares of traced job time.  A layer's share counts only self time, so
    # the shares of all layers and of the benchmark's own code add up to 1.
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s.self_s
    for (_, name), (_, seconds) in tracer.aggregates.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.share"] = (layer_self[layer] / job_s, "ratio")
    out["kernel.run_counts.share"] = (kernel_s / job_s, "ratio")
    out["lp.solve.share"] = (self_total("lp.solve") / job_s, "ratio")
    out["queuenet_policies.slot.share"] = (
        (tracer.self_time("queuenet.apply_slot") + decide_s) / job_s, "ratio")
    return {
        name: (value / passes, unit)
        if unit in ("s", "count") and not name.endswith("_p50") else (value, unit)
        for name, (value, unit) in out.items()
    }
