"""End-to-end checks of the command line entry points."""

import json
import re

import numpy as np
import pytest

from channel_docs import bursty, noisy
from duocast.channel import cond_erasure_visible, load_channel, stationary_distribution
from duocast import cli
from duocast.cli import _parse_policies, main
from duocast.harness import POLICY_LABELS, _policy_label
from duocast.regions import (
    RatePoint,
    RateRegion,
    RegionWitness,
    diagonal_rate,
    region_hidden_L,
    region_minkowski,
    region_to_json,
)


def write_channel(path) -> str:
    path.write_text(json.dumps(bursty()))
    return str(path)


def write_scenario(path, **overrides) -> str:
    doc = {
        "channel": bursty(),
        "rates": [0.2, 0.2],
        "horizon": 120_000,
        "seed": 5,
        "policy": {"kind": "maxweight", "action_set": "A5"},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestRegionCommand:
    def test_csv_to_stdout(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.json")
        rc = main(["region", "--channel", channel, "--kind", "visible"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "r1,r2"
        assert len(lines) >= 3
        first = [float(x) for x in lines[1].split(",")]
        assert first[1] == 0.0

    def test_json_to_file(self, tmp_path):
        channel = write_channel(tmp_path / "ch.json")
        out = tmp_path / "region.json"
        rc = main(
            [
                "region",
                "--channel",
                channel,
                "--kind",
                "reactive",
                "--format",
                "json",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "reactive"
        assert len(doc["boundary"]) >= 3

    def test_json_file_and_stdout_match_region_to_json(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.json")
        out = tmp_path / "region.json"
        args = ["region", "--channel", channel, "--kind", "minkowski", "--format", "json"]
        assert main(args + ["-o", str(out)]) == 0
        assert main(args) == 0
        model = load_channel(json.loads((tmp_path / "ch.json").read_text()))
        pi = stationary_distribution(model)
        stats = {s: cond_erasure_visible(model, s) for s in range(model.num_states)}
        expected = region_to_json(region_minkowski(stats, pi))
        assert out.read_text() == expected
        assert capsys.readouterr().out == expected

    def test_hidden_kind_uses_window(self, tmp_path, capsys):
        path = tmp_path / "hmm.json"
        path.write_text(json.dumps(noisy()))
        rc = main(
            [
                "region",
                "--channel",
                str(path),
                "--kind",
                "hidden",
                "--window-len",
                "2",
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("r1,r2")

    def test_hidden_kind_reads_the_delay(self, tmp_path, capsys):
        # The window's feedback two slots late predicts the slot worse than
        # one slot late, so the region's diagonal shrinks.
        path = tmp_path / "hmm.json"
        path.write_text(json.dumps(noisy()))
        diagonal = {}
        for delay in ("1", "2"):
            rc = main(["region", "--channel", str(path), "--kind", "hidden",
                       "--window-len", "3", "--delay", delay])
            assert rc == 0
            rows = capsys.readouterr().out.strip().splitlines()
            assert rows[0] == "r1,r2"
            points = [RatePoint(*map(float, row.split(","))) for row in rows[1:]]
            witnesses = [RegionWitness(kind="hidden_L", parameters={})] * len(points)
            diagonal[delay] = diagonal_rate(RateRegion("hidden_L", points, witnesses))
        assert diagonal["2"] < diagonal["1"] - 1e-3
        expected = diagonal_rate(region_hidden_L(load_channel(noisy()), 3, 2))
        assert diagonal["2"] == pytest.approx(expected, abs=1e-9)

    def test_memoryless_kinds_nest(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.json")
        support = {}
        for kind in ("memoryless-fb", "memoryless-nofb"):
            rc = main(["region", "--channel", channel, "--kind", kind])
            assert rc == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            points = [tuple(map(float, row.split(","))) for row in rows]
            support[kind] = max(r1 + r2 for r1, r2 in points)
        assert support["memoryless-nofb"] <= support["memoryless-fb"] + 1e-12
        # The region without feedback is the one-key uncoded region.
        assert main(["region", "--channel", channel, "--kind", "memoryless-nofb",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "uncoded"


    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--kind", "hidden", "--window-len", "9"], "window length"),
            (["--kind", "hidden", "--window-len", "-1"], "window length"),
            (["--kind", "visible", "--delay", "0"], "delay"),
            (["--kind", "hidden", "--delay", "0"], "delay"),
            (["--kind", "memoryless-fb", "--delay", "3"], "--delay"),
            (["--kind", "memoryless-nofb", "--delay", "2"], "--delay"),
            (["--kind", "visible", "--window-len", "5"], "--window-len"),
            (["--kind", "reactive", "--window-len", "1"], "--window-len"),
        ],
    )
    def test_bad_input_fails_fast(self, tmp_path, capsys, flags, field):
        channel = write_channel(tmp_path / "ch.json")
        rc = main(["region", "--channel", channel, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("duocast region: error: ")
        assert field in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"gilbert_elliot": {"kind": "visible", "eps1": "a", "g1": 0.1, "eps2": 0.5,
                                 "g2": 0.2}}, "gilbert_elliot.eps1"),
            ({"states": 1, "transition": [[1.0]], "emission": [[float("nan"), 0, 0, 1]]},
             "emission"),
        ],
    )
    def test_bad_channel_fails_fast(self, tmp_path, capsys, doc, field):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        assert main(["region", "--channel", str(path), "--kind", "visible"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("duocast region: error: ")
        assert field in captured.err

    def test_directions_flag_is_gone(self, tmp_path, capsys):
        channel = write_channel(tmp_path / "ch.json")
        extra = ["--directions", "17"]
        with pytest.raises(SystemExit) as exc:
            main(["region", "--channel", channel, "--kind", "visible", *extra])
        assert exc.value.code == 2
        assert "--directions" in capsys.readouterr().err


class TestSimulateCommand:
    def test_verdict_and_trace(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "sc.json")
        trace_out = tmp_path / "trace.csv"
        rc = main(["simulate", scenario, "--trace-out", str(trace_out)])
        assert rc == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["horizon"] == 120_000
        assert verdict["stable"] is True
        assert verdict["tail_slope"] < 1e-3
        header = trace_out.read_text().splitlines()[0]
        assert header.startswith("t,q1_rx1")

    def test_flag_overrides(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "sc.json")
        rc = main(["simulate", scenario, "--horizon", "4000", "--seed", "9"])
        assert rc == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["horizon"] == 4000
        assert verdict["stable"] is None
        assert "too short" in verdict["note"]

    def test_deterministic_given_seed(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "sc.json", horizon=150_000)
        main(["simulate", scenario])
        first = capsys.readouterr().out
        main(["simulate", scenario])
        assert capsys.readouterr().out == first


class TestBadScenarioInput:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"policy": "maxweight"}, "policy"),
            ({"policy": {"kind": "maxweight", "action_set": ["A5"]}}, "policy.action_set"),
            ({"channel": {"states": 1, "emission": [1.0, 0, 0, 0]}}, "transition"),
            ({"engine": "packets", "movement_log": 5}, "movement_log"),
            ({"horizn": 1000}, "horizn"),
            ({"policy": {"kind": "maxweight", "actionset": "A2"}}, "policy.actionset"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_fails_fast_naming_the_field(self, tmp_path, capsys, command, overrides,
                                         field):
        scenario = write_scenario(tmp_path / "sc.json", horizon=1000, **overrides)
        extra = ["--points", "0.1,0.1"] if command == "sweep" else []
        assert main([command, scenario, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"duocast {command}: error: ")
        assert field in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_document_that_is_not_an_object(self, tmp_path, capsys, command):
        scenario = tmp_path / "sc.json"
        scenario.write_text("[1, 2]")
        extra = ["--points", "0.1,0.1"] if command == "sweep" else []
        assert main([command, str(scenario), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"duocast {command}: error: scenario must be an object")


@pytest.mark.parametrize("argv", [
    ["simulate", "{missing}"],
    ["sweep", "{missing}", "--points", "0.1,0.1"],
    ["region", "--channel", "{missing}", "--kind", "visible"],
])
def test_a_missing_file_fails_fast(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    assert main([arg.format(missing=missing) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"duocast {argv[0]}: error: ")
    assert missing in captured.err


class TestSweepCommand:
    def test_points_to_csv(self, tmp_path):
        scenario = write_scenario(tmp_path / "sc.json")
        out = tmp_path / "map.csv"
        rc = main(
            [
                "sweep",
                scenario,
                "--points",
                "0.1,0.1",
                "0.45,0.45",
                "--policies",
                "maxweight:A3",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r1,r2,policy,stable,slope"
        assert lines[1].startswith("0.1,0.1,maxweight:A3,true")
        assert lines[2].startswith("0.45,0.45,maxweight:A3,false")

    def test_grid_enumerates_lattice(self, tmp_path):
        scenario = write_scenario(tmp_path / "sc.json", horizon=100_000)
        out = tmp_path / "map.csv"
        rc = main(
            [
                "sweep",
                scenario,
                "--grid",
                "0.05",
                "0.1",
                "2",
                "0.05",
                "0.1",
                "2",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(",true," in line for line in lines[1:])

    def test_needs_points_or_grid(self, tmp_path, capsys):
        # Exactly one of the two: a grid next to points would be dropped.
        scenario = write_scenario(tmp_path / "sc.json")
        both = ["--points", "0.1,0.1", "--grid", "0.05", "0.1", "2", "0.05", "0.1", "2"]
        for flags in ([], both):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", scenario, *flags])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "duocast sweep: error: " in err
            assert "--points" in err and "--grid" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--points", "0.1"], "--points"),
            (["--points", "0.1,x"], "--points"),
            (["--points", "0.1,0.1", "0.1,0.2,0.3"], "--points"),
            (["--grid", "0", "0.1", "2.5", "0", "0.1", "1"], "--grid N1"),
            (["--grid", "0", "0.1", "0", "0", "0.1", "1"], "--grid N1"),
            (["--grid", "0", "0.1", "2", "0", "0.1", "-1"], "--grid N2"),
            (["--points", "0.1,0.1", "--workers", "0"], "--workers"),
            (["--points", "0.1,0.1", "--workers", "-3"], "--workers"),
        ],
    )
    def test_bad_points_or_grid_fail_fast(self, tmp_path, capsys, flags, field):
        scenario = write_scenario(tmp_path / "sc.json", horizon=1000)
        assert main(["sweep", scenario, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("duocast sweep: error: ")
        assert field in err

    def test_a_movement_log_fails_fast(self, tmp_path, capsys):
        log = tmp_path / "moves.jsonl"
        scenario = write_scenario(tmp_path / "sc.json", horizon=1000, engine="packets",
                                  movement_log=str(log))
        assert main(["sweep", scenario, "--points", "0.1,0.1", "0.2,0.2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("duocast sweep: error: ")
        assert "movement_log" in err
        assert not log.exists()

    def test_policy_labels_parse(self):
        parsed = _parse_policies("maxweight:A3,maxweight,probabilistic,per_state")
        assert parsed == [
            {"kind": "maxweight", "action_set": "A3"},
            {"kind": "maxweight", "action_set": "A5"},
            {"kind": "probabilistic"},
            {"kind": "per_state"},
        ]
        assert _parse_policies(None) is None
        assert _parse_policies(" maxweight:A2 ") == [{"kind": "maxweight", "action_set": "A2"}]
        for label in ("greedy", "maxweightA3", "maxweight:A4", "maxweight:", "per_state:A3",
                      "probabilistic:A5", ""):
            with pytest.raises(ValueError, match=f"got {label!r}"):
                _parse_policies(f"maxweight,{label}")

    def test_policy_labels_are_the_sweep_labels(self):
        # The sweep's label of each parsed policy reads back as that policy.
        for label, policy in POLICY_LABELS.items():
            assert _parse_policies(_policy_label(policy)) == [policy]
        assert _policy_label(_parse_policies("maxweight")[0]) == "maxweight:A5"

    @pytest.mark.parametrize("label", ["maxweightA3", "maxweight:a3", "per-state"])
    def test_a_misspelt_policy_label_fails_fast(self, tmp_path, capsys, label):
        # Once, "maxweightA3" ran and labelled an A5 sweep.
        scenario = write_scenario(tmp_path / "sc.json", horizon=1000)
        out = tmp_path / "map.csv"
        assert main(["sweep", scenario, "--points", "0.1,0.1", "--policies", label,
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("duocast sweep: error: --policies ")
        assert repr(label) in err
        assert not out.exists()


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        rc = main(["verify", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert "5/5 suites passed" in out
        # Each suite line ends with its wall time.
        suite_lines = [line for line in out.splitlines() if ": PASS (" in line]
        assert len(suite_lines) == 5
        assert all(re.search(r"\) in \d+\.\d\d s$", line) for line in suite_lines)

    def test_fuzz_names_the_run_whose_counts_replay_differs(self, monkeypatch):
        simulate = cli.run

        def one_more_exit(scenario):
            trace = simulate(scenario)
            if scenario.engine == "counts":
                trace.exits = trace.exits + 1
            return trace

        monkeypatch.setattr(cli, "run", one_more_exit)
        assert cli._suite_fuzz(np.random.default_rng(0)) == (
            False, "run 0: the counts replay's exits differs")
