import configparser
from pathlib import Path

import pytest

from pinchsec.cli import build_parser, main


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for argv in (["power-sweep"], ["antenna-sweep"], ["convergence"], ["single-drop"]):
        args = parser.parse_args(argv)
        assert callable(args.entry)


def test_power_sweep_command(tmp_path, capsys):
    out = tmp_path / "ps"
    code = main(["power-sweep", "--trials", "2", "--antennas", "4",
                 "--powers", "0,10", "--methods", "initial-single-antenna,shapley",
                 "--seed", "9", "--out", str(out)])
    assert code == 0
    assert (out / "raw_rows.csv").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "effective_config.ini").exists()
    stdout = capsys.readouterr().out
    assert "mean secrecy rate" in stdout
    assert "raw_rows" in stdout


def test_antenna_sweep_command(tmp_path):
    out = tmp_path / "as"
    code = main(["antenna-sweep", "--trials", "2", "--antenna-counts", "2,3",
                 "--power", "5", "--methods", "shapley", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    config = configparser.ConfigParser()
    config.read(out / "effective_config.ini")
    assert config["experiment"]["power_dbm"] == "5.0"
    assert config["experiment"]["antenna_counts"] == "2, 3"


def test_convergence_command_writes_traces(tmp_path):
    out = tmp_path / "conv"
    code = main(["convergence", "--trials", "2", "--antennas", "5",
                 "--power", "15", "--seed", "4", "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    config = configparser.ConfigParser()
    config.read(out / "effective_config.ini")
    assert config["experiment"]["convergence_power_dbm"] == "15.0"


def test_timing_flag_emits_timings(tmp_path):
    out = tmp_path / "timed"
    code = main(["power-sweep", "--trials", "1", "--antennas", "3",
                 "--powers", "10", "--methods", "shapley", "--timing",
                 "--out", str(out)])
    assert code == 0
    assert (out / "timings.csv").exists()


def test_single_drop_command(capsys):
    code = main(["single-drop", "--antennas", "5", "--seed", "12", "--power", "10"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "bob at" in stdout and "eve at" in stdout
    assert "payoff-driven activation" in stdout
    assert "value-driven activation" in stdout
    assert "exhaustive optimum" in stdout
    assert "payoffs at the final coalition" in stdout


def test_single_drop_prints_the_golden_walkthrough(capsys):
    assert main(["single-drop", "--antennas", "8", "--seed", "42"]) == 0
    golden = Path(__file__).parent / "data" / "single_drop_n8_seed42.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", [
    ["--methods", "annealing"], ["--trials", "9"], ["--workers", "4"], ["--out", "x"],
    ["--timing"], ["--sa-steps", "10"], ["--sa-temperature", "2"],
])
def test_single_drop_rejects_study_flags(capsys, flag):
    with pytest.raises(SystemExit) as info:
        main(["single-drop", "--antennas", "5", "--seed", "3", *flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_single_drop_skips_exhaustive_when_too_large(capsys, monkeypatch):
    import pinchsec.cli as cli
    monkeypatch.setattr(cli, "ENUMERATION_CAP", 4)
    code = main(["single-drop", "--antennas", "6", "--seed", "12"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "payoff-driven activation" in stdout
    assert "exhaustive optimum" not in stdout


def test_unknown_method_fails_cleanly(tmp_path, capsys):
    code = main(["power-sweep", "--trials", "1", "--methods", "telepathy",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_path_fails_cleanly(tmp_path, capsys):
    code = main(["power-sweep", "--config", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\n"
        "trials = 7\n"
        "n_antennas = 4\n"
        "powers_dbm = 0, 10\n"
        "methods = shapley\n",
        encoding="utf-8")
    out = tmp_path / "run"
    code = main(["power-sweep", "--config", str(ini), "--trials", "2",
                 "--out", str(out)])
    assert code == 0
    echo = configparser.ConfigParser()
    echo.read(out / "effective_config.ini")
    assert echo["experiment"]["trials"] == "2"        # CLI wins
    assert echo["experiment"]["n_antennas"] == "4"    # file survives
    assert echo["experiment"]["methods"] == "shapley"


def test_default_out_dir_is_per_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["power-sweep", "--trials", "1", "--antennas", "3",
                 "--powers", "10", "--methods", "initial-single-antenna"])
    assert code == 0
    assert (tmp_path / "results" / "power-sweep" / "raw_rows.csv").exists()
