import configparser
from dataclasses import fields, replace
from pathlib import Path

import pytest

from pinchsec import ExperimentConfig, cli
from pinchsec.cli import build_parser, main
from pinchsec.harness import config_from_ini, effective_config_ini


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


def test_convergence_refuses_methods(capsys):
    # convergence always runs the two games and its reference
    with pytest.raises(SystemExit) as info:
        main(["convergence", "--trials", "1", "--antennas", "3", "--methods", "annealing"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_convergence_refuses_methods_from_a_config_file(tmp_path, capsys):
    # an INI file can still set methods; the echo would then name methods
    # the study never ran
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nn_antennas = 4\ntrials = 1\nmethods = annealing\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    code = main(["convergence", "--config", str(ini), "--out", str(out)])
    assert code == 2
    assert "methods" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    ini = tmp_path / "typo.ini"
    ini.write_text("[experiment]\ntrails = 5\n", encoding="utf-8")
    code = main(["power-sweep", "--config", str(ini), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", [
    "[experiment]\ntrials = 5\ntrials = 6\n",
    "[experiment]\ntrials = 5\n[experiment]\nmaster_seed = 2\n",
    "trials = 5\n",
], ids=["repeated-key", "repeated-section", "no-section-header"])
def test_malformed_config_file_fails_cleanly(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text, encoding="utf-8")
    code = main(["power-sweep", "--config", str(ini), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ini) in err
    assert not (tmp_path / "run").exists()


COMMON_FLAGS = {"master_seed": ["--seed", "7"], "n_antennas": ["--antennas", "3"]}
STUDY_FLAGS = {
    **COMMON_FLAGS,
    "trials": ["--trials", "2"], "workers": ["--workers", "2"],
    "sa_steps": ["--sa-steps", "30"], "sa_initial_temperature": ["--sa-temperature", "0.5"],
    "timing": ["--timing"],
}
SWEEP_FLAGS = {**STUDY_FLAGS, "methods": ["--methods", "annealing,shapley"]}


@pytest.mark.parametrize("command, flags, expected", [
    ("power-sweep", {**SWEEP_FLAGS, "power_dbm_axis": ["--powers", "3,12.5"]},
     dict(power_dbm_axis=(3.0, 12.5))),
    ("antenna-sweep", {**SWEEP_FLAGS, "antenna_axis": ["--antenna-counts", "2,4"],
                       "power_dbm": ["--power", "7.5"]},
     dict(antenna_axis=(2, 4), power_dbm=7.5)),
    ("convergence", {**STUDY_FLAGS, "convergence_power_dbm": ["--power", "3"]},
     dict(convergence_power_dbm=3.0)),
])
def test_every_study_flag_reaches_its_field(tmp_path, monkeypatch, command, flags, expected):
    out = tmp_path / "run"
    expected = ExperimentConfig(
        master_seed=7, n_antennas=3, trials=2, workers=2, out_dir=str(out), sa_steps=30,
        sa_initial_temperature=0.5, timing=True, **expected,
        **({"methods": ("annealing", "shapley")} if "methods" in flags else {}))
    # each flag moves its own field off the default, and no other field moves
    defaults = ExperimentConfig()
    for name in flags:
        assert getattr(expected, name) != getattr(defaults, name), name
    assert {"out_dir", *flags} == {f.name for f in fields(ExperimentConfig)
                                   if getattr(expected, f.name) != getattr(defaults, f.name)}
    seen = []
    write_outputs = cli.write_outputs
    monkeypatch.setattr(cli, "write_outputs",
                        lambda result, config: seen.append(config) or write_outputs(result, config))
    argv = [command, "--out", str(out)] + [piece for flag in flags.values() for piece in flag]
    assert main(argv) == 0
    assert seen == [expected]
    echo = (out / "effective_config.ini").read_text(encoding="utf-8")
    assert echo == effective_config_ini(expected)
    assert config_from_ini(out / "effective_config.ini") == replace(expected, out_dir=None,
                                                                    workers=1)


def test_single_drop_flags_reach_their_fields(capsys):
    assert main(["single-drop", "--antennas", "3", "--seed", "7", "--power", "25"]) == 0
    assert capsys.readouterr().out.startswith("seed 7, trial 0: N=3, P_t=25 dBm,")
