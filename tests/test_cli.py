"""Command-line tool: subcommands, exit codes, output formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ontoflux
from ontoflux import cli
from ontoflux.cli import _parse_seed_range, main
from ontoflux.errors import OntofluxError
from ontoflux.io import RESULT_FIELDS

TRAVEL_QUERY = "O1:Event(x) ∧ O1:keyword(x, Sea)"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drop_wall_time(csv_text: str) -> list[str]:
    # wall_time_s is the only nondeterministic column and sits last
    return [line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n")]


# --- merge-query -------------------------------------------------------------


def test_merge_query_travel_answer(capsys, fixture_path) -> None:
    code, out, _ = run_cli(
        capsys,
        "merge-query",
        str(fixture_path("travel_local.onto")),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        TRAVEL_QUERY,
    )
    assert code == 0
    assert out.split("\n")[0] == "x=Trip p=1.000000000"


def test_merge_query_mapped_only(capsys, fixture_path) -> None:
    # keyword(Trip, Place) only exists through the mappings, so the
    # mapped-only score is the 0.9 * 0.9 derivation chain
    code, out, _ = run_cli(
        capsys,
        "merge-query",
        str(fixture_path("travel_local.onto")),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        "O1:Event(x) ∧ O1:keyword(x, Place)",
        "--mapped-only",
    )
    assert code == 0
    assert out.split("\n")[0] == "x=Trip p=0.810000000"


def test_merge_query_threshold_filters_mappings(capsys, fixture_path) -> None:
    # only the 0.9 mappings survive; the answer set is unchanged here
    code, out, _ = run_cli(
        capsys,
        "merge-query",
        str(fixture_path("travel_local.onto")),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        TRAVEL_QUERY,
        "--threshold",
        "0.85",
    )
    assert code == 0
    assert out.split("\n")[0] == "x=Trip p=1.000000000"


def travel_events(capsys, fixture_path, threshold: str) -> tuple[int, str, str]:
    return run_cli(
        capsys,
        "merge-query",
        str(fixture_path("travel_local.onto")),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        "O1:Event(x)",
        "--threshold",
        threshold,
    )


@pytest.mark.parametrize("threshold", ["nan", "1.5", "-0.1"])
def test_merge_query_rejects_a_threshold_outside_the_unit_interval(capsys, fixture_path, threshold) -> None:
    # the message is the one monitor gives for the same value
    code, out, err = travel_events(capsys, fixture_path, threshold)
    assert code == 1
    assert out == ""
    assert err == f"error: acceptance threshold {float(threshold)} outside [0, 1]\n"


@pytest.mark.parametrize(
    "threshold, answers",
    [
        ("0", ["x=Trip p=1.000000000", "x=Holyday p=0.800000000"]),
        ("0.8", ["x=Trip p=1.000000000", "x=Holyday p=0.800000000"]),  # the threshold is inclusive
        ("1", ["x=Trip p=1.000000000"]),  # no mapping reaches 1: the local answer alone
    ],
)
def test_merge_query_accepts_a_threshold_in_the_unit_interval(capsys, fixture_path, threshold, answers) -> None:
    code, out, _ = travel_events(capsys, fixture_path, threshold)
    assert code == 0
    assert out.splitlines() == answers


def test_merge_query_out_file(capsys, fixture_path, tmp_path) -> None:
    out_file = tmp_path / "answers.txt"
    code, out, _ = run_cli(
        capsys,
        "merge-query",
        str(fixture_path("travel_local.onto")),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        TRAVEL_QUERY,
        "--out",
        str(out_file),
    )
    assert code == 0
    assert out == ""
    assert out_file.read_text().split("\n")[0] == "x=Trip p=1.000000000"


def test_merge_query_missing_file_is_exit_1(capsys, fixture_path, tmp_path) -> None:
    code, _, err = run_cli(
        capsys,
        "merge-query",
        str(tmp_path / "nope.onto"),
        str(fixture_path("travel_external.onto")),
        str(fixture_path("travel.map")),
        TRAVEL_QUERY,
    )
    assert code == 1
    assert err.startswith("error:")


# --- validate ----------------------------------------------------------------


def test_validate_valid_theory(capsys, fixture_path) -> None:
    code, out, _ = run_cli(capsys, "validate", str(fixture_path("frags_valid.mth")))
    assert code == 0
    assert out.startswith("ok:")


def test_validate_cycle_is_exit_2(capsys, fixture_path) -> None:
    code, out, _ = run_cli(capsys, "validate", str(fixture_path("frags_cycle.mth")))
    assert code == 2
    assert "CycleDetected" in out


def test_validate_syntax_error_is_exit_1(capsys, tmp_path) -> None:
    bad = tmp_path / "broken.mth"
    bad.write_text("mfrag f\nevent\n")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


# --- simulate ------------------------------------------------------------------


def test_simulate_deterministic_modulo_wall_time(capsys, fixture_path) -> None:
    config = str(fixture_path("exo_small.cfg"))
    code_a, out_a, _ = run_cli(capsys, "simulate", "--config", config)
    code_b, out_b, _ = run_cli(capsys, "simulate", "--config", config)
    assert code_a == code_b == 0
    assert out_a.split("\n")[0] == ",".join(RESULT_FIELDS)
    assert drop_wall_time(out_a) == drop_wall_time(out_b)


def test_simulate_json_format(capsys, fixture_path) -> None:
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(fixture_path("exo_small.cfg")), "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert isinstance(record, dict)
    assert record["regime"] == "exo"
    assert record["seed"] == 7


def test_simulate_seed_and_regime_overrides(capsys, fixture_path) -> None:
    config = str(fixture_path("exo_small.cfg"))
    _, base, _ = run_cli(capsys, "simulate", "--config", config)
    _, reseeded, _ = run_cli(capsys, "simulate", "--config", config, "--seed", "8")
    _, endo, _ = run_cli(capsys, "simulate", "--config", config, "--regime", "endo")
    assert drop_wall_time(reseeded) != drop_wall_time(base)
    assert drop_wall_time(reseeded)[1].split(",")[8] == "8"
    assert drop_wall_time(endo)[1].split(",")[0] == "endo"


def test_simulate_bad_config_is_exit_1(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.cfg"
    bad.write_text("regime = exo\nbogus = 1\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("old, new", [("base_stock = 4", "base_stock = 2.7"), ("seed = 7", "seed = 7.9")])
def test_simulate_non_integral_integer_key_is_exit_1(capsys, tmp_path, fixture_text, old, new) -> None:
    bad = tmp_path / "fraction.cfg"
    bad.write_text(fixture_text("exo_small.cfg").replace(old, new))
    code, out, err = run_cli(capsys, "simulate", "--config", str(bad))
    assert code == 1 and out == ""
    assert f"key {new.split()[0]}: not an integer" in err


@pytest.mark.parametrize("command", [("simulate",), ("sweep", "--seeds", "0..0")])
def test_non_finite_horizon_is_exit_1_without_simulating(
    capsys, tmp_path, fixture_text, monkeypatch, command
) -> None:
    def refuse(config):
        raise AssertionError(f"horizon = {config.horizon} reached the simulator")

    monkeypatch.setattr(cli, "run_simulation", refuse)
    bad = tmp_path / "nan.cfg"
    bad.write_text(fixture_text("exo_small.cfg").replace("horizon = 200.0", "horizon = nan"))
    code, _, err = run_cli(capsys, command[0], "--config", str(bad), *command[1:])
    assert code == 1
    assert "key horizon: not a finite number" in err


# argparse reads a separate "-2..0" as an option, so the range is attached with "="
@pytest.mark.parametrize("command", [("simulate", "--seed", "-1"), ("sweep", "--seeds=-2..0")])
def test_negative_seed_is_exit_1_without_simulating(capsys, fixture_path, monkeypatch, command) -> None:
    def refuse(config):
        raise AssertionError(f"seed = {config.seed} reached the simulator")

    monkeypatch.setattr(cli, "run_simulation", refuse)
    code, out, err = run_cli(capsys, command[0], "--config", str(fixture_path("exo_small.cfg")), *command[1:])
    assert code == 1 and out == ""
    assert "seed must be a nonnegative integer" in err


# --- sweep -----------------------------------------------------------------------


def test_sweep_rows_in_seed_order(capsys, fixture_path) -> None:
    config = str(fixture_path("exo_small.cfg"))
    code, out, _ = run_cli(capsys, "sweep", "--config", config, "--seeds", "0..2")
    assert code == 0
    rows = drop_wall_time(out)
    assert len(rows) == 4
    assert [row.split(",")[8] for row in rows[1:]] == ["0", "1", "2"]

    # each row matches a single-seed run of the same config
    for seed, row in zip(("0", "1", "2"), rows[1:]):
        _, single, _ = run_cli(capsys, "simulate", "--config", config, "--seed", seed)
        assert drop_wall_time(single)[1] == row


def test_sweep_bad_range_is_exit_1(capsys, fixture_path) -> None:
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(fixture_path("exo_small.cfg")), "--seeds", "5..1"
    )
    assert code == 1
    assert "range is empty" in err


def test_parse_seed_range() -> None:
    assert _parse_seed_range("0..3") == [0, 1, 2, 3]
    assert _parse_seed_range("7..7") == [7]
    with pytest.raises(OntofluxError):
        _parse_seed_range("1-3")


# --- monitor ----------------------------------------------------------------------


def test_monitor_event_log(capsys, fixture_path) -> None:
    code, out, _ = run_cli(
        capsys,
        "monitor",
        str(fixture_path("monitor_base.onto")),
        str(fixture_path("monitor_script.evt")),
        "--ticks",
        "50",
        "--close",
        "up:Event",
        "--close",
        "up:Agent",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("tick=1 ")
    assert lines[-1] == "tick=50 step=e detail=clock 50.0"


def test_monitor_runs_are_byte_identical(capsys, fixture_path, tmp_path) -> None:
    args = [
        "monitor",
        str(fixture_path("monitor_base.onto")),
        str(fixture_path("monitor_script.evt")),
        "--ticks",
        "50",
        "--close",
        "up:Event",
    ]
    first, second = tmp_path / "a.log", tmp_path / "b.log"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_repeated_calls_in_one_process_see_only_their_own_arguments(capsys, fixture_path) -> None:
    monitor = ["monitor", str(fixture_path("monitor_base.onto")), str(fixture_path("monitor_script.evt")),
               "--ticks", "50"]
    both = [*monitor, "--close", "up:Event", "--close", "up:Agent"]
    first = run_cli(capsys, *both)
    merged = run_cli(capsys, "merge-query", str(fixture_path("travel_local.onto")),
                     str(fixture_path("travel_external.onto")), str(fixture_path("travel.map")), TRAVEL_QUERY)
    validated = run_cli(capsys, "validate", str(fixture_path("frags_valid.mth")))
    one = run_cli(capsys, *monitor, "--close", "up:Event")
    again = run_cli(capsys, *both)
    assert first[0] == 0 and again == first
    assert one[0] == 0 and one[1] != first[1]
    assert merged[:2] == (0, "x=Trip p=1.000000000\n")
    assert validated[0] == 0
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser().parse_args(both).close == ["up:Event", "up:Agent"]
    assert cli._build_parser().parse_args(monitor).close is None


def test_monitor_default_tick_count_covers_script(capsys, fixture_path) -> None:
    code, out, _ = run_cli(
        capsys,
        "monitor",
        str(fixture_path("monitor_base.onto")),
        str(fixture_path("monitor_script.evt")),
    )
    assert code == 0
    assert "tick=50 step=e detail=clock 50.0" in out


def test_monitor_bad_close_name_is_exit_1(capsys, fixture_path) -> None:
    code, _, err = run_cli(
        capsys,
        "monitor",
        str(fixture_path("monitor_base.onto")),
        str(fixture_path("monitor_script.evt")),
        "--close",
        "Event",
    )
    assert code == 1
    assert "qualified name" in err


def test_monitor_with_merge(capsys, fixture_path, tmp_path) -> None:
    script = tmp_path / "one.evt"
    script.write_text("namespace O1\nat 0.5 assert Event(Extra)\n")
    code, out, _ = run_cli(
        capsys,
        "monitor",
        str(fixture_path("travel_local.onto")),
        str(script),
        "--ticks",
        "2",
        "--namespace",
        "O1",
        "--mappings",
        str(fixture_path("travel.map")),
        "--external",
        str(fixture_path("travel_external.onto")),
        "--threshold",
        "0.85",
    )
    assert code == 0
    assert "step=c detail=accept m2,m4" in out


def test_monitor_foreign_mapping_target_is_exit_1(capsys, fixture_path) -> None:
    # the travel mappings target O1; merging them into the up ontology
    # is a namespace clash, reported as a config-level failure
    code, _, err = run_cli(
        capsys,
        "monitor",
        str(fixture_path("monitor_base.onto")),
        str(fixture_path("monitor_script.evt")),
        "--ticks",
        "2",
        "--mappings",
        str(fixture_path("travel.map")),
        "--external",
        str(fixture_path("travel_external.onto")),
    )
    assert code == 1
    assert "namespace" in err


# --- process-level sanity -----------------------------------------------------------


def test_console_process_round(fixture_path) -> None:
    # the child imports the same checkout as this process, whether or not it is installed
    package_root = str(Path(ontoflux.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ontoflux",
            "merge-query",
            str(fixture_path("travel_local.onto")),
            str(fixture_path("travel_external.onto")),
            str(fixture_path("travel.map")),
            TRAVEL_QUERY,
        ],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root, "ONTOFLUX_LOG": "debug"},
    )
    assert proc.returncode == 0
    assert proc.stdout.split("\n")[0] == "x=Trip p=1.000000000"
