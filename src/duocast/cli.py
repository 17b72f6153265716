"""Command line: region computation, simulation, sweeps, verification."""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .channel import (
    ChannelModel,
    ge_hidden,
    ge_visible,
    load_channel,
    positive_int,
    stationary_distribution,
    visible_stats,
)
from .harness import (
    Scenario,
    run,
    stability_verdict,
    sweep,
    sweep_to_csv,
    throughput_check,
)
from .kernel import prediction_gap
from .regions import (
    ActionDistribution,
    RateRegion,
    cut_values,
    flow_optimum,
    iter_region_json,
    link_capacities,
    redundancy_transform,
    region_hidden_L,
    region_memoryless_fb,
    region_memoryless_nofb,
    region_minkowski,
    region_reactive,
    region_to_csv,
    region_uncoded,
    region_visible,
)

_REGION_KINDS = (
    "visible",
    "reactive",
    "uncoded",
    "minkowski",
    "hidden",
    "memoryless-fb",
    "memoryless-nofb",
)


def _visible_inputs(model: ChannelModel, delay: int):
    return visible_stats(model, delay), stationary_distribution(model)


def _average_triple(model: ChannelModel) -> tuple[float, float, float]:
    pi = stationary_distribution(model)
    e = model.emission
    return (
        float(pi @ (e[:, 2] + e[:, 3])),
        float(pi @ (e[:, 1] + e[:, 3])),
        float(pi @ e[:, 3]),
    )


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces in order to ``output``, or to stdout without one."""

    if output:
        with open(output, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def cmd_region(args: argparse.Namespace) -> int:
    if args.window_len is not None and args.kind != "hidden":
        raise ValueError(f"--window-len applies only to --kind hidden, got --kind {args.kind}")
    # The memoryless regions read the stationary averages: they have no delay.
    if args.delay != 1 and args.kind in ("memoryless-fb", "memoryless-nofb"):
        raise ValueError(f"--delay must be 1 for --kind {args.kind}, got {args.delay}")
    model = load_channel(args.channel)
    if args.kind in ("visible", "reactive", "uncoded", "minkowski"):
        stats, pi = _visible_inputs(model, args.delay)
        fn = {
            "visible": region_visible,
            "reactive": region_reactive,
            "uncoded": region_uncoded,
            "minkowski": region_minkowski,
        }[args.kind]
        region = fn(stats, pi)
    elif args.kind == "hidden":
        window_len = 1 if args.window_len is None else args.window_len
        region = region_hidden_L(model, window_len, args.delay)
    else:
        e1, e2, e12 = _average_triple(model)
        if args.kind == "memoryless-fb":
            region = region_memoryless_fb(e1, e2, e12)
        else:
            region = region_memoryless_nofb(e1, e2)
    if args.format == "json":
        _emit(iter_region_json(region), args.output)
    else:
        _emit([region_to_csv(region)], args.output)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario.from_json(
        args.scenario,
        seed=args.seed,
        horizon=args.horizon,
        stride=args.stride,
        engine=args.engine,
    )
    try:
        trace = run(scenario)
    except AssertionError as exc:
        json.dump({"error": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return 2
    if args.trace_out:
        Path(args.trace_out).write_text(trace.to_csv())
    delivered = throughput_check(trace)
    verdict_doc = {
        "horizon": trace.horizon,
        "arrivals": trace.arrivals.tolist(),
        "exits": trace.exits.tolist(),
        "delivered_rates": list(delivered),
        "final_backlog": int(trace.final_queues.sum()),
        "audit_passed": trace.audit_passed,
        "stable": None,
        "final_backlog_over_n": None,
        "tail_slope": None,
    }
    try:
        verdict = stability_verdict(trace)
        verdict_doc.update(
            stable=verdict.stable,
            final_backlog_over_n=verdict.final_backlog_over_n,
            tail_slope=verdict.tail_slope,
        )
    except ValueError as exc:
        verdict_doc["note"] = str(exc)
    json.dump(verdict_doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _parse_policies(labels: str | None) -> list[dict] | None:
    if not labels:
        return None
    policies = []
    for label in labels.split(","):
        label = label.strip()
        if label.startswith("maxweight"):
            _, _, action_set = label.partition(":")
            policies.append(
                {"kind": "maxweight", "action_set": action_set or "A5"}
            )
        elif label == "probabilistic":
            policies.append({"kind": "probabilistic"})
        elif label == "per_state":
            policies.append({"kind": "per_state"})
        else:
            raise ValueError(f"unknown policy label {label!r}")
    return policies


def _rate_token(token: str) -> tuple[float, float]:
    """An ``r1,r2`` token of --points as two floats; a ValueError naming the flag."""

    try:
        r1, r2 = (float(part) for part in token.split(","))
    except ValueError:
        raise ValueError(f"--points takes r1,r2 tokens of two numbers, got {token!r}") from None
    return r1, r2


def cmd_sweep(args: argparse.Namespace) -> int:
    workers = positive_int("--workers", args.workers)
    template = Scenario.from_json(
        args.scenario,
        seed=args.seed,
        horizon=args.horizon,
        stride=args.stride,
    )
    if args.points:
        points = [_rate_token(token) for token in args.points]
    else:
        r1min, r1max, n1, r2min, r2max, n2 = args.grid
        for name, n in (("N1", n1), ("N2", n2)):
            if not (n.is_integer() and n >= 1):
                raise ValueError(f"--grid {name} must be a positive integer, got {n!r}")
        points = [
            (float(r1), float(r2))
            for r1 in np.linspace(r1min, r1max, int(n1))
            for r2 in np.linspace(r2min, r2max, int(n2))
        ]
    rows = sweep(template, points, policies=_parse_policies(args.policies), workers=workers)
    _emit([sweep_to_csv(rows)], args.output)
    return 0


# -- verification suites --------------------------------------------------------


def _random_model(rng: np.random.Generator, n: int) -> ChannelModel:
    transition = rng.dirichlet(np.ones(n) * 2.0, size=n)
    emission = rng.dirichlet(np.ones(4) * 2.0, size=n)
    return ChannelModel(transition, emission)


def _random_dist(rng: np.random.Generator, keys) -> ActionDistribution:
    return ActionDistribution(probs={k: rng.dirichlet(np.ones(6)) for k in keys})


def _vertices_inside(inner: RateRegion, outer: RateRegion, tol: float = 1e-9) -> bool:
    return all(outer.contains(p, tol=tol) for p in inner.boundary)


def _suite_inclusions(rng: np.random.Generator) -> tuple[bool, str]:
    models = [
        ge_visible(0.6, 0.1, 0.5, 0.2),
        ge_visible(0.6, 0.1, 0.5, 0.1),
        _random_model(rng, 2),
        _random_model(rng, 3),
    ]
    for model in models:
        stats, pi = _visible_inputs(model, 1)
        uncoded = region_uncoded(stats, pi)
        reactive = region_reactive(stats, pi)
        visible = region_visible(stats, pi)
        minkowski = region_minkowski(stats, pi)
        if not (
            _vertices_inside(uncoded, reactive)
            and _vertices_inside(reactive, visible)
            and _vertices_inside(minkowski, reactive)
        ):
            return False, "region inclusion violated"
    for _ in range(15):
        e1, e2 = rng.uniform(0.05, 0.9, size=2)
        e12 = min(e1, e2) * rng.uniform(0.2, 1.0)
        if not _vertices_inside(
            region_memoryless_nofb(e1, e2), region_memoryless_fb(e1, e2, e12)
        ):
            return False, "no-feedback region escaped the feedback region"
    return True, f"{len(models)} channels, 15 memoryless triples"


def _suite_flow(rng: np.random.Generator) -> tuple[bool, str]:
    for _ in range(40):
        n = int(rng.integers(1, 5))
        model = _random_model(rng, n)
        pi = stationary_distribution(model)
        stats = visible_stats(model)
        dist = _random_dist(rng, list(range(n)))
        for j in (1, 2):
            caps = link_capacities(dist, stats, pi, j)
            cv = cut_values(dist, stats, pi, j)
            if abs(flow_optimum(caps) - cv.minimum()) > 1e-9:
                return False, f"flow optimum missed the minimum cut at receiver {j}"
    return True, "40 random instances, both receivers"


def _suite_transform(rng: np.random.Generator) -> tuple[bool, str]:
    found = 0
    while found < 30:
        n = int(rng.integers(1, 4))
        model = _random_model(rng, n)
        pi = stationary_distribution(model)
        stats = visible_stats(model)
        dist = _random_dist(rng, list(range(n)))
        before = [cut_values(dist, stats, pi, j) for j in (1, 2)]
        if any(cv.minimum() < min(cv.a, cv.d) - 1e-12 for cv in before):
            continue
        found += 1
        out = redundancy_transform(dist, stats, pi)
        for j, cv0 in zip((1, 2), before):
            cv1 = cut_values(out, stats, pi, j)
            if abs(cv1.minimum() - cv0.minimum()) > 1e-10:
                return False, "transform changed the bottleneck"
            if abs(cv1.minimum() - min(cv1.a, cv1.d)) > 1e-10:
                return False, "bottleneck not on the direct cuts after transform"
    return True, "30 preconditioned instances"


def _suite_fuzz(rng: np.random.Generator) -> tuple[bool, str]:
    for k in range(40):
        n = int(rng.integers(1, 5))
        model = _random_model(rng, n)
        doc = {
            "states": n,
            "transition": model.transition.tolist(),
            "emission": model.emission.tolist(),
        }
        visible = bool(rng.integers(2))
        action_set = ("A2", "A3", "A5")[int(rng.integers(3))]
        scenario = Scenario(
            channel=doc,
            rates=(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4))),
            horizon=2000,
            seed=int(rng.integers(1 << 31)),
            visible=visible,
            delay=int(rng.integers(1, 3)),
            policy={"kind": "maxweight", "action_set": action_set},
            engine="packets",
        )
        try:
            trace = run(scenario)
        except Exception as exc:  # noqa: BLE001 - report any failure
            return False, f"run {k} failed: {exc}"
        if trace.audit_passed is not True:
            return False, f"run {k} failed the decodability audit"
    return True, "40 randomized packet runs"


def _suite_forgetting(rng: np.random.Generator) -> tuple[bool, str]:
    del rng
    model = ge_hidden(0.6, 0.1, 0.5, 0.2, 0.2, 0.866, 0.2, 0.8)
    gap = prediction_gap(model, window_len=10, horizon=20_000, seed=77)
    if gap > 1e-2:
        return False, f"prediction gap {gap:.2e} above 1e-2"
    return True, f"max prediction gap {gap:.2e}"


_SUITES = (
    ("inclusions", _suite_inclusions),
    ("min-cut max-flow", _suite_flow),
    ("redundancy transform", _suite_transform),
    ("decodability fuzz", _suite_fuzz),
    ("hidden-state forgetting", _suite_forgetting),
)


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, suite in _SUITES:
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        ok, detail = suite(rng)
        seconds = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"{name}: {status} ({detail}) in {seconds:.2f} s")
        failures += 0 if ok else 1
    total = len(_SUITES)
    print(f"verification: {total - failures}/{total} suites passed")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duocast",
        description=(
            "Rate regions and queue-level simulation for two-receiver "
            "broadcast packet erasure channels with feedback and memory."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="compute a rate region")
    p_region.add_argument("--channel", required=True, help="channel JSON file")
    p_region.add_argument("--kind", required=True, choices=_REGION_KINDS)
    p_region.add_argument("--delay", type=int, default=1,
                          help="feedback delay in slots, 1 for memoryless (default 1)")
    p_region.add_argument("--window-len", type=int,
                          help="feedback pairs per window, --kind hidden only (default 1)")
    p_region.add_argument("--format", choices=("csv", "json"), default="csv")
    p_region.add_argument("-o", "--output")
    p_region.set_defaults(func=cmd_region)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--stride", type=int)
    p_sim.add_argument("--engine", choices=("counts", "packets"))
    p_sim.add_argument("--trace-out", help="write the trace CSV here")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="stability map over a rate grid")
    p_sweep.add_argument("scenario", help="scenario template JSON file")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--horizon", type=int)
    p_sweep.add_argument("--stride", type=int)
    where = p_sweep.add_mutually_exclusive_group(required=True)
    where.add_argument("--points", nargs="+", help="rate points as r1,r2 tokens")
    where.add_argument(
        "--grid",
        nargs=6,
        type=float,
        metavar=("R1MIN", "R1MAX", "N1", "R2MIN", "R2MAX", "N2"),
    )
    p_sweep.add_argument(
        "--policies", help="comma list: maxweight:A5,maxweight:A3,probabilistic,per_state"
    )
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="worker processes, at most the CPU count")
    p_sweep.add_argument("-o", "--output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Bad input found past argparse: report it the way argparse does.
        print(f"duocast {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
