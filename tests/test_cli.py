"""Scenario loading, the five subcommands, and exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import posdec
from posdec import worked_example
from posdec.cli import (
    EXIT_BOUND,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    ScenarioError,
    load_scenario,
    main,
    parse_scenario,
)

WORKED = "scenarios/worked_example.json"
ANOMALY = "scenarios/anomaly.json"
# A serving-sized request: 8 prizes, 8 levels, 12 states, 32 decisions and
# 16 lotteries, made by perfbench's scenario generator.
RANK_REQUEST = "scenarios/rank_request.json"

# `posdec rank` on scenarios/rank_request.json, one line per class, best first.
RANK_REQUEST_GOLDEN = {
    "binary": [
        "1. l12",
        "2. l1, l2, l4",
        "3. d6",
        "4. l3, l6, l14, d22",
        "5. l0, l9, l13, l15, d0, d1, d2, d3, d4, d5, d7, d8, d10, d12, d13, d14, d15, "
        "d16, d17, d18, d20, d21, d23, d24, d25, d26, d27, d28, d29, d30, d31",
        "6. l5, l7, l11, d9, d11",
        "7. l8, l10, d19",
    ],
    "pessimistic": [
        "1. l2, l12",
        "2. l1, l4, d6",
        "3. l0, l3, l5, l6, l10, l11, l14, d5, d7, d8, d12, d17, d18, d22, d25, d28, d31",
        "4. l7, l8, l9, l13, l15, d0, d1, d2, d3, d4, d9, d10, d11, d13, d14, d15, d16, "
        "d19, d20, d21, d23, d24, d26, d27, d29, d30",
    ],
    "optimistic": [
        "1. l0, l1, l2, l6, l15, d0, d1, d3, d5, d6, d8, d10, d12, d14, d15, d18, d22, "
        "d23, d26, d27, d29, d31",
        "2. l3, l4, l5, l7, l9, l11, l12, l13, l14, d2, d4, d7, d9, d11, d13, d16, d17, "
        "d20, d21, d24, d25, d28, d30",
        "3. l8, l10, d19",
    ],
}


# `posdec evaluate` on scenarios/rank_request.json: one value per target, in
# the command's order (lotteries, then decisions), each line the target name
# padded to the widest, two spaces, and the value.
RANK_REQUEST_TARGETS = [f"l{k}" for k in range(16)] + [f"d{k}" for k in range(32)]
RANK_REQUEST_VALUES = {
    "binary": (
        "⟨1,1⟩ ⟨1,.66⟩ ⟨1,.66⟩ ⟨1,.82⟩ ⟨1,.66⟩ ⟨.82,1⟩ ⟨1,.82⟩ ⟨.82,1⟩ ⟨.78,1⟩ ⟨1,1⟩ "
        "⟨.78,1⟩ ⟨.82,1⟩ ⟨1,.62⟩ ⟨1,1⟩ ⟨1,.82⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ "
        "⟨1,.78⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨.82,1⟩ ⟨1,1⟩ ⟨.82,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ "
        "⟨1,1⟩ ⟨.78,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,.82⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ ⟨1,1⟩ "
        "⟨1,1⟩ ⟨1,1⟩"
    ),
    "pessimistic": (
        ".05 .87 .89 .05 .87 .05 .05 0 0 0 .05 .05 .89 0 .05 0 0 0 0 0 0 .05 .87 .05 .05 "
        "0 0 0 .05 0 0 0 0 .05 .05 0 0 0 .05 0 0 .05 0 0 .05 0 0 .05"
    ),
    "optimistic": (
        "1 1 1 .96 .96 .96 1 .96 .89 .96 .89 .96 .96 .96 .96 1 1 1 .96 1 .96 1 1 .96 1 .96 "
        "1 .96 1 .96 1 1 .96 .96 1 .89 .96 .96 1 1 .96 .96 1 1 .96 1 .96 1"
    ),
}

# `posdec verify --seed 0` on each bundled scenario: exit code of the sound
# run, then the SHA-256 of its report, sound and with --inject-fault.  The
# 8-prize request is over the default caps, so only its exit code is pinned.
BUNDLED_REPORTS = [
    pytest.param(
        WORKED, EXIT_OK,
        "aba3de91aa4b50e25757d490b8d0b2a5c28a9d49caa1d54f67eb0032d466b7da",
        "75e277462aa8c3b5e30ea0393387f15e43610541b91b8d858ec0bffc739377f7",
        id="worked_example",
    ),
    pytest.param(
        ANOMALY, EXIT_OK,
        "cfdfe59b9406bdf8f5dff79864d1f5179f1363fd0fdbadf29fab61049c67ea4d",
        "5080b44db86448c165d1ee77c2726d2f15c1902844c0e97672766109bc99457e",
        id="anomaly",
    ),
    pytest.param(
        "scenarios/wide_4x5.json", EXIT_OK,
        "ee2e69c99b61fc743ddc7242feb8efc200a7d9835ed3b15565c2bb4b3d2733f6",
        "788acb1aba47746fec9b0c6c2f1dff6e36cfd8f747a8e38934790de0280fc325",
        id="wide_4x5",
    ),
    pytest.param(
        "scenarios/wide_6x6.json", EXIT_OK,
        "e73860a6f17d4cdd94459991d7e6102104486ecc37593d856fbf650bd6e8eea1",
        "a390f2aee93b286d057c229c13871935380f25324ae5a8ef3620203daf674784",
        id="wide_6x6",
    ),
    pytest.param(RANK_REQUEST, EXIT_BOUND, None, None, id="rank_request"),
]


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture()
def decision_scenario_path(tmp_path):
    data = copy.deepcopy(worked_example.SCENARIO)
    data["states"] = ["s1", "s2", "s3"]
    data["state_possibility"] = {"s1": "1", "s2": ".7", "s3": ".5"}
    data["decisions"] = {
        "steady": {"s1": "x2", "s2": "x2", "s3": "x2"},
        "gamble": {"s1": "x1", "s2": "x4", "s3": "x4"},
    }
    return write_scenario(tmp_path, data)


class TestLoadScenario:
    def test_bundled_worked_example(self):
        scenario = load_scenario(WORKED)
        assert len(scenario.outcomes.outcomes) == 4
        assert len(scenario.scale_v) == 4
        assert set(scenario.lotteries) == {"pi1", "pi2"}

    def test_bundled_file_matches_embedded_data(self):
        with open(WORKED, encoding="utf-8") as handle:
            assert json.load(handle) == worked_example.SCENARIO

    def test_non_normalized_lottery_is_named(self, tmp_path):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["lotteries"]["bad"] = {"x1": ".7", "x2": ".5", "x3": "0", "x4": "0"}
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError, match="lottery 'bad'.*'.7'"):
            load_scenario(path)

    def test_undeclared_outcome_is_named(self, tmp_path):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["lotteries"]["bad"] = {
            "x1": "1", "x2": "0", "x3": "0", "x4": "0", "x9": "0"
        }
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError, match="x9"):
            load_scenario(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"scale_v\": [,\n}", encoding="utf-8")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-file.json")

    def test_unknown_level_label(self, tmp_path):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["lotteries"]["pi1"]["x1"] = ".9"
        path = write_scenario(tmp_path, data)
        with pytest.raises(ScenarioError, match="'.9'"):
            load_scenario(path)


class TestEvaluate:
    def test_pessimistic_rows(self, capsys):
        assert main(["evaluate", "--scenario", WORKED, "--method", "pessimistic",
                     "pi1", "pi2"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == ["pi1", ".5"]
        assert out[1].split() == ["pi2", "0"]

    def test_binary_rows(self, capsys):
        assert main(["evaluate", "--scenario", WORKED, "--method", "binary"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pi1  ⟨1,.5⟩" in out
        assert "pi2  ⟨1,1⟩" in out

    def test_optimistic_runs(self, capsys):
        assert main(["evaluate", "--scenario", WORKED, "--method", "optimistic"]) == EXIT_OK
        assert capsys.readouterr().out.strip()

    def test_decision_targets_are_converted(self, decision_scenario_path, capsys):
        assert main(
            ["evaluate", "--scenario", decision_scenario_path, "--method",
             "pessimistic", "steady", "gamble"]
        ) == EXIT_OK
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        # steady always yields x2, so it evaluates like the x2 point mass;
        # gamble puts weight .7 on the worst prize, pinning the min at nh(.7).
        assert out["steady"] == ".5"
        assert out["gamble"] == ".3"

    def test_missing_config_for_method(self, tmp_path, capsys):
        data = copy.deepcopy(worked_example.SCENARIO)
        del data["pessimistic_config"]
        path = write_scenario(tmp_path, data)
        assert main(["evaluate", "--scenario", path, "--method", "pessimistic"]) == \
            EXIT_VALIDATION
        assert "pessimistic_config" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        assert main(["evaluate", "--scenario", WORKED, "--method", "binary",
                     "nope"]) == EXIT_VALIDATION
        assert "unknown target" in capsys.readouterr().err

    def test_nothing_to_evaluate(self, tmp_path, capsys):
        data = copy.deepcopy(worked_example.SCENARIO)
        del data["lotteries"]
        path = write_scenario(tmp_path, data)
        assert main(["evaluate", "--scenario", path, "--method", "binary"]) == \
            EXIT_VALIDATION
        assert "neither lotteries nor decisions" in capsys.readouterr().err


class TestRank:
    def test_worked_example_binary(self, capsys):
        assert main(["rank", "--scenario", WORKED, "--method", "binary"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1. pi1", "2. pi2"]

    def test_worked_example_pessimistic(self, capsys):
        assert main(["rank", "--scenario", WORKED, "--method", "pessimistic"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1. pi1", "2. pi2"]

    def test_anomaly_tie_on_one_line(self, capsys):
        assert main(["rank", "--scenario", ANOMALY, "--method", "pessimistic"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1. hope, sure_worst"]

    def test_anomaly_strict_under_binary(self, capsys):
        assert main(["rank", "--scenario", ANOMALY, "--method", "binary"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1. hope", "2. sure_worst"]

    def test_single_lottery(self, tmp_path, capsys):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["lotteries"] = {"pi1": data["lotteries"]["pi1"]}
        path = write_scenario(tmp_path, data)
        assert main(["rank", "--scenario", path, "--method", "binary"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["1. pi1"]

    def test_missing_config_for_method(self, tmp_path, capsys):
        data = copy.deepcopy(worked_example.SCENARIO)
        del data["assessment"]
        path = write_scenario(tmp_path, data)
        assert main(["rank", "--scenario", path, "--method", "binary"]) == \
            EXIT_VALIDATION
        assert "assessment" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["1e-1000000000", "1e-3000000"])
    def test_huge_decimal_exponent_in_a_scale_label(self, tmp_path, capsys, label):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["scale_v"] = ["0", label, *data["scale_v"][1:]]
        path = write_scenario(tmp_path, data)
        start = time.perf_counter()
        code = main(["rank", "--scenario", path, "--method", "binary"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {path}: scale_v: level label {label!r} has a decimal exponent "
            f"over the bound of 262144\n"
        )

    @pytest.mark.parametrize("method", sorted(RANK_REQUEST_GOLDEN))
    def test_serving_request_is_golden(self, capsys, method):
        assert main(["rank", "--scenario", RANK_REQUEST, "--method", method]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.splitlines() == RANK_REQUEST_GOLDEN[method]
        assert err == ""

    @pytest.mark.parametrize("method", sorted(RANK_REQUEST_VALUES))
    def test_serving_request_evaluation_is_golden(self, capsys, method):
        assert main(["evaluate", "--scenario", RANK_REQUEST, "--method", method]) == EXIT_OK
        out, err = capsys.readouterr()
        values = RANK_REQUEST_VALUES[method].split()
        assert out.splitlines() == [
            f"{name:<3}  {value}" for name, value in zip(RANK_REQUEST_TARGETS, values, strict=True)
        ]
        assert err == ""

    def test_ranking_consistent_with_evaluation(self, capsys):
        main(["evaluate", "--scenario", WORKED, "--method", "pessimistic"])
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
        main(["rank", "--scenario", WORKED, "--method", "pessimistic"])
        order = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert rows[order[0]] == ".5" and rows[order[1]] == "0"


class TestVerify:
    def test_defaults_pass_on_worked_example(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        code = main(["verify", "--scenario", WORKED, "--out", out])
        assert code == EXIT_OK
        assert "all expected outcomes hold" in capsys.readouterr().out
        text = open(out, encoding="utf-8").read()
        assert "scenario-pessimistic\tA1-\tsatisfied" in text
        assert "scenario-binary\tB2\tsatisfied" in text

    def test_seeded_report_is_byte_identical(self, tmp_path):
        out1 = str(tmp_path / "a.txt")
        out2 = str(tmp_path / "b.txt")
        for out in (out1, out2):
            assert main(["verify", "--scenario", WORKED, "--seed", "3",
                         "--sample", "10", "--out", out]) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_fault_injection_fails_with_witness(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        code = main(["verify", "--scenario", ANOMALY, "--sample", "5",
                     "--inject-fault", "--out", out])
        assert code == EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert "unexpected outcome" in err
        text = open(out, encoding="utf-8").read()
        assert "reflexivity fails" in text

    @pytest.mark.parametrize(
        "fault, digest",
        [
            (False, "aba3de91aa4b50e25757d490b8d0b2a5c28a9d49caa1d54f67eb0032d466b7da"),
            (True, "75e277462aa8c3b5e30ea0393387f15e43610541b91b8d858ec0bffc739377f7"),
        ],
    )
    def test_worked_example_reports_are_golden(self, tmp_path, fault, digest):
        """Full default reports, pinned by the digests of the plain-loop checker."""
        out = str(tmp_path / "report.txt")
        argv = ["verify", "--scenario", WORKED, "--seed", "0", "--out", out]
        if fault:
            argv.append("--inject-fault")
        assert main(argv) == (EXIT_VERIFICATION if fault else EXIT_OK)
        data = open(out, "rb").read()
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 2394
        violated = [line for line in lines if "\tviolated\texpected=satisfied\t" in line]
        if fault:
            assert violated[0] == (
                "scenario-pessimistic\tA1-\tviolated\texpected=satisfied\t"
                "reflexivity fails at #0(x1:0, x2:0, x3:0, x4:1)"
            )
        else:
            assert violated == []
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("fault", [False, True], ids=["sound", "faulted"])
    @pytest.mark.parametrize("scenario, code, digest, faulted_digest", BUNDLED_REPORTS)
    def test_bundled_reports_are_pinned(
        self, tmp_path, capsys, scenario, code, digest, faulted_digest, fault
    ):
        """``posdec verify --seed 0`` on every bundled scenario: exit code and
        report digest, sound and with one flipped entry."""
        out = tmp_path / "report.txt"
        argv = ["verify", "--scenario", scenario, "--seed", "0", "--out", str(out)]
        if fault:
            argv.append("--inject-fault")
        if code == EXIT_OK and fault:
            code = EXIT_VERIFICATION
        assert main(argv) == code
        capsys.readouterr()
        if code == EXIT_BOUND:
            assert not out.exists()
            return
        want = faulted_digest if fault else digest
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_bound_exceeded(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        code = main(["verify", "--scenario", WORKED, "--max-levels", "3", "--out", out])
        assert code == EXIT_BOUND
        assert "over the bound" in capsys.readouterr().err

    def test_unsafe_bounds_keep_the_enumeration_limit(self, tmp_path, capsys, monkeypatch):
        """A 7-prize, 6-level scenario (201,811 lotteries) is within the
        unsafe caps but over the enumeration limit: exit 3, naming the file,
        before any lottery is enumerated."""
        from posdec import axioms

        data = json.loads(Path("scenarios/wide_6x6.json").read_text(encoding="utf-8"))
        outcomes = data["outcomes"]
        outcomes["labels"].append("x7")
        outcomes["worst"] = "x7"
        outcomes["preference"][-2:] = [["x5", "x6"], ["x7"]]
        for lottery in data["lotteries"].values():
            lottery["x7"] = "0"
        data["assessment"].update(x6=[".5", "1"], x7=["0", "1"])
        data["pessimistic_config"]["u"].update(x6=".2", x7="0")
        path = write_scenario(tmp_path, data)
        monkeypatch.setattr(axioms, "LotteryUniverse", lambda *args: pytest.fail("enumerated"))
        argv = ["verify", "--scenario", path, "--unsafe-bounds", "--max-outcomes", "7",
                "--out", str(tmp_path / "report.txt")]
        assert main(argv) == EXIT_BOUND
        assert capsys.readouterr().err == (
            f"error: {path}: 7 outcomes by 6 levels are over the enumeration limit "
            "of 200000 lotteries\n"
        )

    def test_cap_needs_unsafe_flag(self, capsys):
        assert main(["verify", "--scenario", WORKED, "--max-levels", "9"]) == EXIT_BOUND
        assert "--unsafe-bounds" in capsys.readouterr().err

    def test_sample_over_cap_needs_unsafe_flag(self, capsys):
        assert main(["verify", "--scenario", WORKED, "--sample", "10001"]) == EXIT_BOUND
        assert capsys.readouterr().err == (
            "error: --sample=10001 is above the hard cap of 10000; "
            "pass --unsafe-bounds to override\n"
        )

    @pytest.mark.parametrize("unsafe", [[], ["--unsafe-bounds"]], ids=["capped", "unsafe"])
    def test_negative_sample_is_rejected_before_the_scenario_is_read(self, capsys, unsafe):
        argv = ["verify", "--scenario", "no-such-scenario.json", "--sample", "-1", *unsafe]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --sample=-1 must be at least 0\n"

    def test_sample_over_cap_runs_with_unsafe_flag(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        argv = ["verify", "--scenario", WORKED, "--sample", "10001", "--unsafe-bounds",
                "--out", out]
        assert main(argv) == EXIT_OK
        assert "all expected outcomes hold" in capsys.readouterr().out


class TestConvertSpohn:
    def test_to_possibility(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"s1": 0, "s2": 1, "s3": "infinity"}, "delta.json")
        assert main(["convert-spohn", path, "--direction", "to-possibility"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == {"s1": "1", "s2": ".5", "s3": "0"}
        assert payload["scale"] == ["0", ".5", "1"]

    def test_all_zero_ranking(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"s1": 0, "s2": 0}, "delta.json")
        assert main(["convert-spohn", path, "--direction", "to-possibility"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["values"].values()) == {"1"}

    def test_to_disbelief(self, tmp_path, capsys):
        data = {"scale": ["0", ".5", "1"], "values": {"s1": "1", "s2": ".5", "s3": "0"}}
        path = write_scenario(tmp_path, data, "pi.json")
        assert main(["convert-spohn", path, "--direction", "to-disbelief"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == {"s1": 0, "s2": 1, "s3": "infinity"}

    @pytest.mark.parametrize(
        "data, direction, values",
        [
            pytest.param(
                {"scale": "1", "s1": ".5"}, "to-disbelief", {"scale": 0, "s1": 1},
                id="state-labelled-scale",
            ),
            pytest.param(
                {"values": 0, "s1": 0}, "to-possibility", {"values": "1", "s1": "1"},
                id="state-labelled-values",
            ),
        ],
    )
    def test_bare_table_may_label_a_state_values_or_scale(
        self, tmp_path, capsys, data, direction, values
    ):
        """Only a document whose ``values`` member is an object is the
        wrapped form; any other is a table of labels."""
        path = write_scenario(tmp_path, data, "input.json")
        assert main(["convert-spohn", path, "--direction", direction]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["values"] == values

    def test_cli_round_trip(self, tmp_path, capsys):
        delta_path = write_scenario(
            tmp_path, {"a": 0, "b": 2, "c": 5, "d": "infinity"}, "delta.json"
        )
        pi_path = str(tmp_path / "pi.json")
        assert main(["convert-spohn", delta_path, "--direction", "to-possibility",
                     "--base", "2", "--out", pi_path]) == EXIT_OK
        assert main(["convert-spohn", pi_path, "--direction", "to-disbelief",
                     "--base", "2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == {"a": 0, "b": 2, "c": 5, "d": "infinity"}

    def test_fractional_base(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"s1": 0, "s2": 1}, "delta.json")
        assert main(["convert-spohn", path, "--direction", "to-possibility",
                     "--base", "5/2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"]["s2"] == ".4"

    def test_invalid_disbelief_value(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"s1": 0, "s2": "soon"}, "delta.json")
        assert main(["convert-spohn", path, "--direction", "to-possibility"]) == \
            EXIT_VALIDATION
        assert "non-negative" in capsys.readouterr().err

    def test_non_normalized_input(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"s1": 1, "s2": 2}, "delta.json")
        assert main(["convert-spohn", path, "--direction", "to-possibility"]) == \
            EXIT_VALIDATION
        assert "normalized" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "data, direction, section",
        [
            pytest.param([1, 2], "to-possibility", "values", id="array-to-possibility"),
            pytest.param([1, 2], "to-disbelief", "values", id="array-to-disbelief"),
            pytest.param(
                {"scale": ["0", "1"], "values": 5}, "to-disbelief", "values",
                id="values-number",
            ),
            pytest.param(
                {"values": {"s1": 0, "s2": [1]}}, "to-disbelief", "values",
                id="synthesized-level-array",
            ),
            pytest.param(
                {"scale": ["0", "1"], "values": {"s1": ".5", "s2": "1"}}, "to-disbelief",
                "values", id="level-off-the-scale",
            ),
            pytest.param(
                {"scale": "01", "values": {"s1": "0", "s2": "1"}}, "to-disbelief", "scale",
                id="scale-string",
            ),
        ],
    )
    def test_wrongly_shaped_input_names_the_section(
        self, tmp_path, capsys, data, direction, section
    ):
        path = write_scenario(tmp_path, data, "input.json")
        assert main(["convert-spohn", path, "--direction", direction]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: {section}")

    @pytest.mark.parametrize(
        "data, direction, named",
        [
            pytest.param(
                {"values": {"s1": "2", "s2": "1"}}, "to-disbelief",
                "level '2' for 's1' is outside [0, 1]", id="synthesized-level-above-one",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": "-1/2"}}, "to-disbelief",
                "level '-1/2' for 's2' is outside [0, 1]", id="synthesized-level-below-zero",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": 3}}, "to-disbelief",
                "level 3 for 's2' is outside [0, 1]", id="synthesized-number-above-one",
            ),
            pytest.param(
                {"values": {"s1": ".5", "s2": "0"}}, "to-disbelief", "not normalized",
                id="synthesized-without-level-one",
            ),
            pytest.param(
                {"scale": ["0", ".5", "1"], "values": {"s1": ".5", "s2": "0"}},
                "to-disbelief", "not normalized", id="scale-without-level-one",
            ),
            pytest.param({"values": {}}, "to-disbelief", "empty", id="empty-to-disbelief"),
            pytest.param({"values": {}}, "to-possibility", "empty", id="empty-to-possibility"),
            pytest.param(
                {"s1": 1, "s2": 2}, "to-possibility", "not normalized",
                id="disbelief-without-zero",
            ),
        ],
    )
    def test_invalid_values_name_the_file(self, tmp_path, capsys, data, direction, named):
        path = write_scenario(tmp_path, data, "input.json")
        assert main(["convert-spohn", path, "--direction", direction]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: values: ")
        assert named in err

    @pytest.mark.parametrize(
        "data, direction, base, named",
        [
            pytest.param(
                {"values": {"s1": 0, "s2": 3000000}}, "to-possibility", "2",
                "disbelief value 3000000 for 's2' is over the bound", id="rank-3000000",
            ),
            pytest.param(
                {"values": {"s1": 0, "s2": 100000}}, "to-possibility", "2",
                "disbelief value 100000 for 's2' is over the bound", id="rank-100000",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": ".5"}}, "to-disbelief", "1.00001",
                "level '.5' for 's2' at base 1.00001 is over the bound", id="computed-rank",
            ),
            pytest.param(
                {"values": {"s1": 0, "s2": 64}}, "to-possibility", "1e5000",
                "1063017-bit denominator is over the bound", id="level-of-huge-base",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": "1e-100000"}}, "to-disbelief", "2",
                "332193-bit denominator is over the bound", id="tiny-level",
            ),
        ],
    )
    def test_disbelief_rank_is_bounded(self, tmp_path, capsys, data, direction, base, named):
        path = write_scenario(tmp_path, data, "input.json")
        start = time.perf_counter()
        code = main(["convert-spohn", path, "--direction", direction, "--base", base])
        # Unbounded, each ran for seconds to minutes; bounded, milliseconds.
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}: values: ")
        assert named in err

    @pytest.mark.parametrize(
        "data, direction, base, error",
        [
            pytest.param(
                {"values": {"s1": 0, "s2": 1}}, "to-possibility", "1e1000000000",
                "error: conversion base '1e1000000000' has a decimal exponent over the "
                "bound of 262144", id="huge-base",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": ".5"}}, "to-disbelief", "1e1000000000",
                "error: conversion base '1e1000000000' has a decimal exponent over the "
                "bound of 262144", id="huge-base-to-disbelief",
            ),
            pytest.param(
                {"values": {"s1": "1", "s2": "1e-1000000000"}}, "to-disbelief", "2",
                "error: {path}: values: level '1e-1000000000' for 's2' has a decimal "
                "exponent over the bound of 262144", id="huge-level",
            ),
        ],
    )
    def test_huge_decimal_exponent_is_rejected_unparsed(
        self, tmp_path, capsys, data, direction, base, error
    ):
        path = write_scenario(tmp_path, data, "input.json")
        start = time.perf_counter()
        code = main(["convert-spohn", path, "--direction", direction, "--base", base])
        # Parsed, each would build a power of ten with billions of bits.
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == error.format(path=path) + "\n"


# Modules that only some commands load: the checker and its sweeps, the
# counterexample search, the Spohn bridge and the worked example.
ON_DEMAND = (
    "posdec.axioms", "posdec.checker", "posdec.search", "posdec.spohn", "posdec.worked_example",
)


class TestColdStart:
    """What a fresh interpreter loads for each command, with no site
    packages (which may load ``random`` themselves) and no bytecode."""

    @staticmethod
    def loaded(statement: str, names) -> list[str]:
        code = (
            f"import json, sys; {statement}; "
            f"print(json.dumps(sorted(set({tuple(names)!r}) & set(sys.modules))))"
        )
        # A fresh interpreter importing the package this test run imports.
        env = {**os.environ, "PYTHONPATH": str(Path(posdec.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-S", "-B", "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize(
        "argv, wanted",
        [
            (None, []),
            (["rank", "--scenario", WORKED, "--method", "binary"], []),
            (["evaluate", "--scenario", WORKED, "--method", "pessimistic"], []),
            (["paper-example"], ["posdec.worked_example"]),
            (["convert-spohn", "{input}", "--direction", "to-possibility"], ["posdec.spohn"]),
        ],
        ids=["import", "rank", "evaluate", "paper-example", "convert-spohn"],
    )
    def test_commands_load_only_their_modules(self, tmp_path, argv, wanted):
        statement = "import posdec.cli"
        if argv is not None:
            source = write_scenario(tmp_path, {"s1": 0, "s2": 1}, "delta.json")
            argv = [arg.format(input=source) for arg in argv]
            statement = f"from posdec.cli import main; main({argv!r})"
        assert self.loaded(statement, ON_DEMAND) == wanted

    def test_verify_without_a_sample_loads_no_random(self, tmp_path):
        report = str(tmp_path / "report.txt")
        argv = ["verify", "--scenario", WORKED, "--sample", "0", "--out", report]
        statement = f"from posdec.cli import main; main({argv!r})"
        assert self.loaded(statement, ["posdec.checker", "random"]) == ["posdec.checker"]

    @pytest.mark.parametrize(
        "argv",
        [["paper-example"], ["convert-spohn", "{input}", "--direction", "to-possibility"]],
        ids=["paper-example", "convert-spohn"],
    )
    def test_module_run_loads_the_cli_once(self, tmp_path, argv):
        """``python -m posdec.cli`` runs the CLI as ``__main__``; the
        command's own module imports ``posdec.cli`` and gets that one, so
        no import of it shows, and the output is byte for byte that of
        ``main`` run from an import."""
        source = write_scenario(tmp_path, {"s1": 0, "s2": 1}, "delta.json")
        argv = [arg.format(input=source) for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(posdec.__file__).parents[1])}
        runs = [
            ["-X", "importtime", "-m", "posdec.cli", *argv],
            ["-c", f"import sys; from posdec.cli import main; sys.exit(main({argv!r}))"],
        ]
        by_module, by_import = (
            subprocess.run([sys.executable, "-S", "-B", *run], capture_output=True, env=env)
            for run in runs
        )
        assert by_module.returncode == by_import.returncode == EXIT_OK
        imported = [line.rsplit(b"|", 1)[-1].strip() for line in by_module.stderr.splitlines()]
        assert b"posdec.lotteries" in imported and b"posdec.cli" not in imported
        assert by_module.stdout == by_import.stdout != b""


class TestPaperExample:
    def test_contains_expected_rows(self, capsys):
        assert main(["paper-example"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "reversed scale map: 1->0, .7->.3, .5->.5, 0->1" in out
        assert "min{1, .5, .5, .5} = .5" in out
        assert "min{1, .5, 1, 0} = 0" in out
        assert "max{⟨.7,0⟩, ⟨1,.5⟩, ⟨.5,.5⟩, ⟨.5,.5⟩} = ⟨1,.5⟩" in out
        assert "= ⟨1,1⟩" in out
        assert "pi1 is strictly preferred to pi2 under both criteria" in out

    def test_deterministic(self, capsys):
        main(["paper-example"])
        first = capsys.readouterr().out
        main(["paper-example"])
        assert capsys.readouterr().out == first


class TestScenarioParsing:
    def test_state_possibility_requires_states(self):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["state_possibility"] = {"s1": "1"}
        with pytest.raises(ScenarioError, match="without states"):
            parse_scenario(data)

    def test_decision_requires_states(self):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["decisions"] = {"d": {"s1": "x1"}}
        with pytest.raises(ScenarioError, match="without states"):
            parse_scenario(data)

    def test_decision_to_unknown_outcome(self):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["states"] = ["s1"]
        data["decisions"] = {"d": {"s1": "x9"}}
        with pytest.raises(ScenarioError, match="x9"):
            parse_scenario(data)

    def test_assessment_must_be_pairs(self):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["assessment"]["x2"] = ["1"]
        with pytest.raises(ScenarioError, match="two-element"):
            parse_scenario(data)

    def test_inconsistent_assessment(self):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["assessment"]["x2"], data["assessment"]["x3"] = (
            data["assessment"]["x3"],
            data["assessment"]["x2"],
        )
        with pytest.raises(ScenarioError, match="inconsistent"):
            parse_scenario(data)

    @pytest.mark.parametrize("table, message", [
        pytest.param("assessment", "assessment: assessment", id="assessment"),
        pytest.param(("pessimistic_config", "u"), "pessimistic_config: prize utility", id="u"),
    ])
    def test_inconsistent_table_names_the_pair(self, table, message):
        data = copy.deepcopy(worked_example.SCENARIO)
        node = data[table] if isinstance(table, str) else data[table[0]][table[1]]
        node["x2"], node["x3"] = node["x3"], node["x2"]
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(data)
        assert str(caught.value) == (
            f"<scenario>: {message} is inconsistent with the preference order on 'x2' and 'x3'"
        )

    def test_first_broken_pair_in_label_order_is_named(self):
        """Labels listed in another order than the preference classes, and two
        pairs broken, each inside a class: (x4, x5) comes first class by
        class, (x2, x3) first in label order, which the check walks."""
        levels = ["0", ".2", ".4", ".6", ".8", "1"]
        data = {
            "scale_v": levels,
            "outcomes": {
                "labels": ["x1", "x2", "x3", "x4", "x5", "x6"],
                "best": "x1",
                "worst": "x6",
                "preference": [["x1"], ["x4", "x5"], ["x2", "x3"], ["x6"]],
            },
            "pessimistic_config": {
                "u": {"x1": "1", "x2": ".2", "x3": ".4", "x4": ".6", "x5": ".8", "x6": "0"},
                "n": dict(zip(levels, reversed(levels))),
                "h": {level: level for level in levels},
            },
        }
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(data)
        assert str(caught.value) == (
            "<scenario>: pessimistic_config: prize utility is inconsistent with the "
            "preference order on 'x2' and 'x3'"
        )

    def test_scale_u_defaults_to_scale_v(self, anomaly_scenario):
        assert anomaly_scenario.scale_u is None
        assert anomaly_scenario.utility_scale == anomaly_scenario.scale_v


def _set(path, value):
    """A scenario edit that sets the value at ``path`` (keys from the root)."""
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return edit


WRONGLY_SHAPED = [
    pytest.param("outcomes", _set(("outcomes",), ["a", "b"]), id="outcomes-array"),
    pytest.param("outcomes labels", _set(("outcomes", "labels"), "x1"), id="labels-string"),
    pytest.param("outcomes best", _set(("outcomes", "best"), ["x1"]), id="best-array"),
    pytest.param("outcomes worst", _set(("outcomes", "worst"), 4), id="worst-number"),
    pytest.param(
        "outcomes preference", _set(("outcomes", "preference"), 0), id="preference-number"
    ),
    pytest.param(
        "outcomes preference", _set(("outcomes", "preference"), [["x1"], ["x2", ["x3"]], ["x4"]]),
        id="preference-class-holding-a-list",
    ),
    pytest.param("scale_v", _set(("scale_v",), 5), id="scale_v-number"),
    pytest.param("scale_u", _set(("scale_u",), 7), id="scale_u-number"),
    pytest.param("lottery 'pi1'", _set(("lotteries", "pi1"), "x1"), id="lottery-string"),
    pytest.param("lotteries", _set(("lotteries",), ["pi1"]), id="lotteries-array"),
    pytest.param("assessment for 'x2'", _set(("assessment", "x2"), 3), id="assessment-entry-3"),
    pytest.param("assessment", _set(("assessment",), [["1", "0"]]), id="assessment-array"),
    pytest.param("states", _set(("states",), 5), id="states-number"),
    pytest.param("states", _set(("states",), [["s1"]]), id="states-nested"),
    pytest.param("decisions", _set(("decisions",), ["steady"]), id="decisions-array"),
    pytest.param("decision 'steady'", _set(("decisions", "steady"), 4), id="decision-number"),
    pytest.param("pessimistic_config", _set(("pessimistic_config",), 5), id="config-number"),
    pytest.param(
        "pessimistic_config n", _set(("pessimistic_config", "n"), ["0", "1"]), id="config-n-array"
    ),
    pytest.param(
        "pessimistic_config u", _set(("pessimistic_config", "u"), 3), id="config-u-number"
    ),
]


class TestWronglyShapedScenario:
    """A section of the wrong JSON type is a validation error naming the section."""

    @staticmethod
    def scenario(edit):
        data = copy.deepcopy(worked_example.SCENARIO)
        data["states"] = ["s1", "s2"]
        data["state_possibility"] = {"s1": "1", "s2": ".5"}
        data["decisions"] = {"steady": {"s1": "x2", "s2": "x2"}}
        edit(data)
        return data

    @pytest.mark.parametrize("section, edit", WRONGLY_SHAPED)
    def test_parse_names_the_section(self, section, edit):
        with pytest.raises(ScenarioError, match=f"^<scenario>: {section}"):
            parse_scenario(self.scenario(edit))

    @pytest.mark.parametrize("section, edit", WRONGLY_SHAPED)
    def test_rank_exits_with_validation_error(self, tmp_path, capsys, section, edit):
        path = write_scenario(tmp_path, self.scenario(edit))
        assert main(["rank", "--scenario", path, "--method", "binary"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {path}: {section}")


# Where a level sits in a scenario, and the message when it is not a label.
LEVEL_SITES = [
    (("lotteries", "pi1", "x2"), "lottery 'pi1': scale 'V' has no level"),
    (("state_possibility", "s2"), "state_possibility: scale 'V' has no level"),
    (("assessment", "x2", 1), "assessment for 'x2': scale 'V' has no level"),
    (("pessimistic_config", "h", ".7"), "pessimistic_config: scale 'U' has no level"),
    (("pessimistic_config", "u", "x2"), "pessimistic_config: scale 'U' has no level"),
    (("pessimistic_config", "n", ".5"), "pessimistic_config: n: scale 'U' has no level"),
]
ILL_TYPED = [
    pytest.param(path, value, f"{prefix} {value!r}", id=f"{'-'.join(map(str, path))}-{kind}")
    for path, prefix in LEVEL_SITES
    for kind, value in (("array", [".5"]), ("object", {"level": ".5"}), ("number", 0.5))
] + [
    pytest.param(
        ("decisions", "steady", "s2"), value, f"decision 'steady' maps to unknown outcome {value!r}",
        id=f"decision-move-{kind}",
    )
    for kind, value in (("array", ["x2"]), ("object", {"outcome": "x2"}))
]


class TestIllTypedValue:
    """A level or a decision move of the wrong JSON type is a validation
    error with one message, never a traceback."""

    @pytest.mark.parametrize("path, value, message", ILL_TYPED)
    def test_parse_names_the_value(self, path, value, message):
        with pytest.raises(ScenarioError) as caught:
            parse_scenario(TestWronglyShapedScenario.scenario(_set(path, value)))
        assert str(caught.value) == f"<scenario>: {message}"

    @pytest.mark.parametrize("path, value, message", ILL_TYPED)
    def test_rank_prints_one_error_line(self, tmp_path, capsys, path, value, message):
        data = TestWronglyShapedScenario.scenario(_set(path, value))
        scenario_path = write_scenario(tmp_path, data)
        assert main(["rank", "--scenario", scenario_path, "--method", "binary"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {scenario_path}: {message}\n"


def _drop(*path):
    """A scenario edit that deletes the key at ``path`` (keys from the root)."""
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


def _edited(*edits):
    data = copy.deepcopy(worked_example.SCENARIO)
    for edit in edits:
        edit(data)
    return data


RANK = ["rank", "--scenario", "{path}", "--method", "binary"]
SPOHN = ["convert-spohn", "{path}", "--direction"]

ERROR_BRANCHES = [
    pytest.param(RANK, _edited(_drop("scale_v")), EXIT_VALIDATION,
                 "{path}: missing scale_v", id="no-scale_v"),
    pytest.param(RANK, _edited(_drop("outcomes")), EXIT_VALIDATION,
                 "{path}: missing outcomes", id="no-outcomes"),
    pytest.param(RANK, _edited(_set(("outcomes", "best"), "x9")), EXIT_VALIDATION,
                 "{path}: outcomes: anchor outcome 'x9' is not declared", id="outcomes-rejected"),
    pytest.param(RANK, _edited(_drop("outcomes", "best")), EXIT_VALIDATION,
                 "{path}: outcomes: 'best'", id="outcomes-without-best"),
    pytest.param(RANK, _edited(_set(("outcomes", "preference"), 5)), EXIT_VALIDATION,
                 "{path}: outcomes preference must be a JSON array of arrays of strings",
                 id="preference-number"),
    pytest.param(RANK, _edited(_set(("states",), [])), EXIT_VALIDATION,
                 "{path}: states: a state space must be non-empty", id="no-states"),
    pytest.param(
        RANK,
        _edited(_set(("states",), ["s1"]), _set(("decisions", "d"), {"s1": "x1", "s9": "x2"})),
        EXIT_VALIDATION, "{path}: decision 'd': decision mentions unknown state 's9'",
        id="decision-unknown-state",
    ),
    pytest.param(RANK, _edited(_set(("assessment", "x2"), ["1", ".6"])), EXIT_VALIDATION,
                 "{path}: assessment for 'x2': scale 'V' has no level '.6'",
                 id="assessment-label-off-scale"),
    pytest.param(RANK, _edited(_set(("assessment", "x9"), ["1", "0"])), EXIT_VALIDATION,
                 "{path}: assessment: assessment names unknown outcome 'x9'",
                 id="assessment-unknown-outcome"),
    pytest.param(RANK, _edited(_set(("pessimistic_config", "u", "x9"), "1")), EXIT_VALIDATION,
                 "{path}: pessimistic_config: prize utility names unknown outcome 'x9'",
                 id="config-u-unknown-outcome"),
    pytest.param(RANK, _edited(_drop("pessimistic_config", "h")), EXIT_VALIDATION,
                 "{path}: pessimistic_config: h", id="config-without-h"),
    pytest.param(
        RANK,
        _edited(_set(("pessimistic_config", "h"), {"1": "1", ".7": "1", ".5": ".3", "0": "0"})),
        EXIT_VALIDATION,
        "{path}: pessimistic_config: invalid scale map: not onto: target level '.5' is never hit",
        id="config-h-not-onto",
    ),
    pytest.param(RANK, _edited(_set(("pessimistic_config", "n", ".5"), ".5")), EXIT_VALIDATION,
                 "{path}: pessimistic_config: n is not the order reversal of scale 'U'",
                 id="config-n-not-reversal"),
    pytest.param(
        RANK, _edited(_drop("pessimistic_config", "n", ".3")), EXIT_VALIDATION,
        "{path}: pessimistic_config: n: scale map table is incomplete: no image for level '.3'",
        id="config-n-incomplete",
    ),
    pytest.param(RANK, _edited(_set(("pessimistic_config", "n", ".5"), ".6")), EXIT_VALIDATION,
                 "{path}: pessimistic_config: n: scale 'U' has no level '.6'",
                 id="config-n-label-off-scale"),
    pytest.param(
        RANK,
        _edited(_set(("states",), ["s1"]), _set(("decisions", "d"), {"s1": "x1"})),
        EXIT_VALIDATION, "{path}: decision 'd' needs states and state_possibility",
        id="decision-without-state-possibility",
    ),
    pytest.param(["verify", "--scenario", "{path}", "--max-outcomes", "3"],
                 worked_example.SCENARIO, EXIT_BOUND,
                 "{path}: 4 outcomes, over the bound of 3", id="outcomes-over-bound"),
    pytest.param(["convert-spohn", "{path}", "--direction", "to-disbelief"],
                 {"scale": [".1", "1"], "values": {"s1": "1"}}, EXIT_VALIDATION,
                 "{path}: scale: scale 'V' must start at 0, got '.1'", id="spohn-scale-not-at-0"),
    # The values are read before the base, so a values error wins over a
    # base error, and a base error names the base alone.
    pytest.param(SPOHN + ["to-possibility", "--base", "1"], {"values": {"s1": 1, "s2": 2}},
                 EXIT_VALIDATION,
                 "{path}: values: disbelief function is not normalized: min value is 1",
                 id="spohn-values-before-base-to-possibility"),
    pytest.param(SPOHN + ["to-possibility", "--base", "x"], {"values": {"s1": 0, "s2": "x"}},
                 EXIT_VALIDATION,
                 "{path}: values: disbelief value for 's2' must be a non-negative integer "
                 "or \"infinity\"", id="spohn-value-type-before-base"),
    pytest.param(SPOHN + ["to-disbelief", "--base", "1"], {"values": {"s1": "1", "s2": "2"}},
                 EXIT_VALIDATION, "{path}: values: level '2' for 's2' is outside [0, 1]",
                 id="spohn-values-before-base-to-disbelief"),
    pytest.param(SPOHN + ["to-disbelief", "--base", "0"],
                 {"scale": ["0", "1"], "values": {"s1": ".5"}}, EXIT_VALIDATION,
                 "{path}: values: level '.5' for 's1' is not on the scale",
                 id="spohn-scale-values-before-base"),
    pytest.param(SPOHN + ["to-possibility", "--base", "1"], {"values": {"s1": 0, "s2": 1}},
                 EXIT_VALIDATION, "conversion base must be a rational > 1, got '1'",
                 id="spohn-base-to-possibility"),
    pytest.param(SPOHN + ["to-disbelief", "--base", "1"], {"values": {"s1": "1", "s2": ".5"}},
                 EXIT_VALIDATION, "conversion base must be a rational > 1, got '1'",
                 id="spohn-base-to-disbelief"),
]


class TestErrorBranches:
    """Inputs that reach the CLI's remaining error branches."""

    @pytest.mark.parametrize("argv, data, code, message", ERROR_BRANCHES)
    def test_one_error_line(self, tmp_path, capsys, argv, data, code, message):
        path = write_scenario(tmp_path, data)
        assert main([arg.format(path=path) for arg in argv]) == code
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


# Seeded edits of input documents.  An edit deletes, replaces or adds one
# member somewhere in a document, with a value of any JSON type: labels on
# and off the scales, known and unknown names, and arrays and objects where
# strings belong.
EDIT_KEYS = [
    "scale_v", "scale_u", "outcomes", "labels", "best", "worst", "preference", "states",
    "state_possibility", "decisions", "lotteries", "assessment", "pessimistic_config",
    "n", "h", "u", "x1", "x4", "x9", "s1", "s9", "pi1", "d", "0", ".5", ".6", "1",
]
EDIT_VALUES = [
    None, True, 0, 1, 5, -1, 0.5, "", "0", ".3", ".5", ".6", ".7", "1", "2", "x1", "x2",
    "x4", "x9", "s1", "s9", "1e-1000000000", [], [".5"], ["1", "0"], ["0", "1"], ["1", ".5"],
    ["x1"], ["x1", "x4"], [["x1"], ["x4"]], ["0", ".5", "1"], {}, {"x1": "1"},
    {"s1": "1", "s2": ".5"}, {"s1": "x1", "s2": "x4"}, {"level": ".5"},
]


def edit_document(rng, doc):
    """Apply one seeded edit to ``doc`` in place."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        parent, node = node, node[key]
    value = copy.deepcopy(rng.choice(EDIT_VALUES))
    action = rng.randrange(3)
    if parent is not None and action == 0:
        del parent[key]
    elif parent is not None and (action == 1 or not isinstance(node, (dict, list))):
        parent[key] = value
    elif isinstance(node, dict):
        node[rng.choice(EDIT_KEYS)] = value
    else:
        node.append(value)


def scenario_edit_lines(seed, count):
    """One line per seeded edit of the worked example (with states, their
    possibility and a decision): ``ok`` or the error ``parse_scenario`` raised."""
    rng = random.Random(seed)
    base = json.dumps(TestWronglyShapedScenario.scenario(lambda data: None))
    lines = []
    for i in range(count):
        doc = json.loads(base)
        for _ in range(rng.choice((1, 1, 1, 2, 2, 3))):
            edit_document(rng, doc)
        try:
            parse_scenario(doc)
            lines.append(f"{i}: ok")
        except Exception as exc:
            lines.append(f"{i}: {type(exc).__name__}: {exc}")
    return lines


SPOHN_RANKS = [0, 0, 1, 2, 5, 64, 65, "infinity"]
SPOHN_LEVELS = ["0", ".5", "1", "1", ".25", "1/3", "1e-5"]
SPOHN_JUNK = [-1, True, 0.5, 3000000, "2", "-1/2", "x", [1], {}, None]
SPOHN_SCALES = [
    ["0", "1"], ["0", ".5", "1"], ["0", ".25", ".5", "1"], ["0", "1/3", "1"], "01",
    [".1", "1"], ["0", "x", "1"], [0, 1],
]
SPOHN_BASES = ["2", "3", "5/2", "10", "1.00001", "1", "0", "-2", "x", "1e50", "1e1000000000"]


def convert_spohn_lines(tmp_path, seed, count):
    """One line per seeded convert-spohn run: exit code, stdout and stderr,
    with the input path written as ``<input>``.  Most tables hold values of
    their direction's kind, and some one value of the wrong kind."""
    rng = random.Random(seed)
    path = tmp_path / "input.json"
    lines = []
    for i in range(count):
        direction = rng.choice(("to-possibility", "to-disbelief"))
        kind = SPOHN_RANKS if direction == "to-possibility" else SPOHN_LEVELS
        table = {
            label: rng.choice(kind if rng.random() < 0.85 else SPOHN_JUNK)
            for label in rng.sample(["s1", "s2", "s3"], rng.choice((0, 1, 2, 2, 3, 3, 3)))
        }
        doc = rng.choice((
            table, {"values": table}, {"scale": rng.choice(SPOHN_SCALES), "values": table},
            rng.choice(SPOHN_JUNK),
        ))
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["convert-spohn", str(path), "--direction", direction,
                "--base", rng.choice(SPOHN_BASES)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        shown = f"{code} {out.getvalue()!r} {err.getvalue()!r}"
        lines.append(f"{i}: {shown.replace(str(path), '<input>')}")
    return lines


class TestSeededEdits:
    """Every outcome of a seeded set of malformed inputs, pinned by digest:
    each message, exit code and which of several errors is reported
    (digests taken with CPython 3.11)."""

    def test_scenario_edits_are_pinned(self):
        lines = scenario_edit_lines(seed=25, count=2000)
        # Every edit parses or raises one ScenarioError, never another error.
        assert all(line.endswith(": ok") or ": ScenarioError: <scenario>: " in line
                   for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "c22beb6b9c0be4d6140a4d68d6aceaf6f7c24dbda8418d60b650d9b0e6b1a436"

    def test_convert_spohn_inputs_are_pinned(self, tmp_path):
        lines = convert_spohn_lines(tmp_path, seed=25, count=1000)
        assert all(line.split()[1] in ("0", "1") for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4a2c602824f223f74bdaaa5cb0ef45ce0ba87658ec24d7ee63a57f1c5306ea44"


# Words of a Python error that reached the user instead of a message.
PYTHON_ERROR_WORDS = ("Traceback", "'int' object", "not supported between", "unhashable")
FUZZ_COMMANDS = [
    *(["rank", "--method", method] for method in ("binary", "pessimistic", "optimistic")),
    *(["evaluate", "--method", method] for method in ("binary", "pessimistic", "optimistic")),
    *(["verify", "--sample", str(sample)] for sample in range(4)),
    *(["convert-spohn", "--direction", d] for d in ("to-possibility", "to-disbelief")),
]


class TestSeededCliFuzz:
    def test_edited_scenarios_exit_cleanly(self, tmp_path):
        """Seeded edits of the worked example and the serving request
        (deleted keys, and values replaced by numbers, strings, arrays,
        objects and labels off the scale) through ``main``: rank and evaluate
        under every method, verify with 0 to 3 samples, and convert-spohn of
        the state possibilities both ways.  Each run exits 0 to 3 with at
        most one error line and names no Python type, and the 1,500 runs
        take under 10 s."""
        start = time.perf_counter()
        rng = random.Random(29)
        bases = [Path(WORKED).read_text(), Path(RANK_REQUEST).read_text()]
        path, report = tmp_path / "edited.json", tmp_path / "report.txt"
        for _ in range(1500):
            doc = json.loads(rng.choice(bases))
            for _ in range(rng.choice((1, 1, 2, 3))):
                edit_document(rng, doc)
            command, *options = rng.choice(FUZZ_COMMANDS)
            if command == "convert-spohn":
                doc = doc.get("state_possibility", doc)
                argv = [command, str(path), *options]
            else:
                argv = [command, "--scenario", str(path), *options]
            if command == "verify":
                argv += ["--out", str(report)]
            path.write_text(json.dumps(doc), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            shown = out.getvalue() + err.getvalue()
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, EXIT_BOUND), (argv, doc)
            assert sum(line.startswith("error:") for line in shown.splitlines()) <= 1, shown
            assert not any(word in shown for word in PYTHON_ERROR_WORDS), shown
        assert time.perf_counter() - start < 10
