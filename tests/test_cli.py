"""Command line behaviour: wiring, files written, and the exit-code contract."""

import argparse
import json
import re

import pytest

from loadshift import cli
from loadshift.errors import InfeasibleProblemError
from loadshift.simulate import MODES, RunParams


def generate(tmp_path, *extra):
    bundle = tmp_path / "bundle"
    rc = cli.main(
        [
            "generate",
            "--out", str(bundle),
            "--households", "2",
            "--seed", "7",
            "--history-days", "20",
            "--target-kwh", "10",
            *extra,
        ]
    )
    assert rc == 0
    return bundle


def test_generate_writes_a_loadable_bundle(tmp_path, capsys):
    bundle = generate(tmp_path)
    out = capsys.readouterr().out
    assert "2 households" in out
    assert (bundle / "manifest.json").exists()
    assert (bundle / "households" / "h002" / "history.csv").exists()
    assert cli.main(["validate", "--bundle", str(bundle)]) == 0


def test_generate_rejects_a_nan_target_with_exit_2(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    rc = cli.main(["generate", "--out", str(bundle), "--target-kwh", "nan"])
    assert rc == 2
    assert "daily_energy_kwh must be finite" in capsys.readouterr().err
    assert not bundle.exists()


def test_run_writes_results_and_report(tmp_path):
    bundle = generate(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--bundle", str(bundle), "--out", str(out), "--seed", "1",
         "--epochs", "10"]
    )
    assert rc == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["format_version"] == 1
    assert doc["mode"] == "offline"
    assert len(doc["results"]) == 2
    first = doc["results"][0]
    assert len(first["before"]) == 48
    assert len(first["assignment"]["pv_flags"]) == 48
    assert (out / "report.json").exists()
    assert (out / "report.csv").read_text().startswith("household,day,period,")


def test_run_is_reproducible_byte_for_byte(tmp_path):
    bundle = generate(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(
            ["run", "--bundle", str(bundle), "--out", str(out), "--seed", "4",
             "--epochs", "10"]
        ) == 0
    for name in ("results.json", "report.json", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_flag_defaults_are_the_run_params_defaults():
    args = cli.build_parser().parse_args(["run", "--bundle", "b", "--out", "o"])
    defaults = RunParams()
    assert args.epochs == defaults.max_epochs
    assert args.history_window == defaults.history_window_days


def test_run_online_mode_flag(tmp_path):
    bundle = generate(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["run", "--bundle", str(bundle), "--out", str(out), "--seed", "1",
         "--epochs", "10", "--mode", "online"]
    )
    assert rc == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["mode"] == "online"


def test_train_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["train", "--bundle", "b", "--household", "h001"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'train'" in capsys.readouterr().err
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(subparsers.choices) == ["generate", "run", "validate"]


@pytest.mark.parametrize("command", ["generate", "run"])
def test_mode_choices_are_the_simulation_modes(command):
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    mode = next(a for a in subparsers.choices[command]._actions if a.dest == "mode")
    assert tuple(mode.choices) == MODES


def test_validation_failure_exits_2(tmp_path, capsys):
    bundle = generate(tmp_path)
    pricing = bundle / "pricing.csv"
    lines = pricing.read_text().splitlines()
    lines[9] = "9,oops,0"
    pricing.write_text("\n".join(lines) + "\n")

    assert cli.main(["validate", "--bundle", str(bundle)]) == 2
    err = capsys.readouterr().err
    assert "pricing.csv:10: non-numeric price" in err

    rc = cli.main(["run", "--bundle", str(bundle), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "pricing.csv:10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(days=5), "days must be a list, got 5"),
        (
            lambda doc: doc["households"][0]["pv"].update(battery_capacity="abc"),
            "pv battery_capacity must be a number, got 'abc'",
        ),
    ],
    ids=["days", "battery_capacity"],
)
def test_wrong_typed_manifest_field_exits_2(tmp_path, capsys, mutate, message):
    bundle = generate(tmp_path)
    doc = json.loads((bundle / "manifest.json").read_text())
    mutate(doc)
    (bundle / "manifest.json").write_text(json.dumps(doc))

    assert cli.main(["validate", "--bundle", str(bundle)]) == 2
    assert message in capsys.readouterr().err
    rc = cli.main(["run", "--bundle", str(bundle), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


def _break_days_order(bundle):
    doc = json.loads((bundle / "manifest.json").read_text())
    doc["days"] = ["2025-02-02", "2025-02-01"]
    (bundle / "manifest.json").write_text(json.dumps(doc))


def _append_invalid_utf8(bundle):
    with (bundle / "pricing.csv").open("ab") as handle:
        handle.write(b"\xff\xfe")


def _oversized_manifest_integer(bundle):
    text = (bundle / "manifest.json").read_text()
    (bundle / "manifest.json").write_text(
        text.replace('"format_version": 1', '"format_version": ' + "9" * 5000)
    )


def _many_candidate_starts(bundle):
    path = bundle / "households" / "h001" / "appliances.csv"
    lines = path.read_text().splitlines()
    path.write_text(
        "\n".join(re.sub(r",1$", ",600", line) if ",shiftable," in line else line
                  for line in lines) + "\n"
    )


@pytest.mark.parametrize(
    "breakage, message",
    [
        (_break_days_order, "simulation days must be strictly increasing"),
        (_append_invalid_utf8, "pricing.csv: not UTF-8 text"),
        (_oversized_manifest_integer, "manifest.json: invalid JSON: Exceeds the limit"),
        (_many_candidate_starts, "candidate starts exceed MAX_CANDIDATE_STARTS 1024"),
    ],
    ids=["days out of order", "invalid utf-8", "oversized integer", "candidate starts"],
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, breakage, message):
    bundle = generate(tmp_path)
    breakage(bundle)
    assert cli.main(["validate", "--bundle", str(bundle)]) == 2
    assert message in capsys.readouterr().err
    rc = cli.main(["run", "--bundle", str(bundle), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_missing_bundle_exits_2(tmp_path, capsys):
    rc = cli.main(["validate", "--bundle", str(tmp_path / "nowhere")])
    assert rc == 2
    rc = cli.main(
        ["run", "--bundle", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


def test_bad_day_override_exits_2(tmp_path, capsys):
    bundle = generate(tmp_path)
    rc = cli.main(
        ["run", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
         "--days", "not-a-date"]
    )
    assert rc == 2
    assert "not-a-date" in capsys.readouterr().err


def test_day_without_history_exits_2(tmp_path, capsys):
    bundle = generate(tmp_path)
    rc = cli.main(
        ["run", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
         "--days", "2030-01-01", "--epochs", "10"]
    )
    assert rc == 2
    assert "2030-01-01" in capsys.readouterr().err


def test_infeasible_problem_exits_3(tmp_path, capsys, monkeypatch):
    bundle = generate(tmp_path)

    def boom(*args, **kwargs):
        raise InfeasibleProblemError("h001 2025-01-21: no feasible start", ("wash",))

    monkeypatch.setattr(cli, "run_fleet", boom)
    rc = cli.main(
        ["run", "--bundle", str(bundle), "--out", str(tmp_path / "o")]
    )
    assert rc == 3
    assert "no feasible start" in capsys.readouterr().err


def test_run_out_naming_a_file_exits_2_before_simulating(tmp_path, capsys, monkeypatch):
    bundle = generate(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me")

    def no_fleet(*args, **kwargs):
        raise AssertionError("the fleet ran before --out was checked")

    monkeypatch.setattr(cli, "run_fleet", no_fleet)
    rc = cli.main(["run", "--bundle", str(bundle), "--out", str(taken)])
    assert rc == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "keep me"


def test_generate_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    rc = cli.main(["generate", "--out", str(taken), "--households", "1", "--history-days", "5"])
    assert rc == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == "keep me"
