"""End-to-end tests of the command-line interface."""

import pytest

from curiosity_marl import cli, harness


def test_run_tiny_experiment(tmp_path, capsys):
    code = cli.main(
        [
            "run",
            "--method", "none",
            "--total-episodes", "24",
            "--eval-interval", "12",
            "--reward-mode", "dense",
            "--results-dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final score" in out
    assert (tmp_path / "none_same_landmark_2ag_s0.csv").exists()


def test_run_reads_config_file_with_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("method = none\ntotal_episodes = 24\neval_interval = 12\nseed = 3\n")
    code = cli.main(
        [
            "run",
            "--config", str(cfg_file),
            "--seed", "5",  # flag beats file
            "--set", "reward_mode=dense",
            "--results-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "none_same_landmark_2ag_s5.csv").exists()
    side = (tmp_path / "out" / "none_same_landmark_2ag_s5.config").read_text()
    assert harness.parse_config(side).world.reward_mode == "dense"


def test_run_bad_config_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--set", "n_agents=3", "--results-dir", str(tmp_path)])
    assert code == 2
    assert "n_agents" in capsys.readouterr().err


def test_run_rejected_setting_exits_2_before_writing(tmp_path, capsys):
    """A value the networks cannot take is rejected with the config check, so
    no sidecar or CSV is left behind."""
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--set", "leaky_slope=2", "--results-dir", str(out_dir)])
    assert code == 2
    assert "error: leaky_slope:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_run_malformed_set_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--set", "no_equals_sign", "--results-dir", str(tmp_path)])
    assert code == 2
    assert "--set" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_sweep_command(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text(
        "methods = none, icm_joint\nseeds = 0\n"
        "total_episodes = 24\neval_interval = 12\nreward_mode = dense\n"
    )
    code = cli.main(
        ["sweep", "--config", str(sweep_file), "--results-dir", str(tmp_path / "out")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok    ") == 2
    assert "2/2 cells completed" in out


def test_sweep_missing_lists_exits_2(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text("methods = none\n")  # no seeds
    code = cli.main(["sweep", "--config", str(sweep_file)])
    assert code == 2


def test_sweep_repeated_seed_exits_2(tmp_path, capsys):
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text("methods = none\nseeds = 0, 0\ntotal_episodes = 8\n")
    code = cli.main(["sweep", "--config", str(sweep_file), "--results-dir", str(tmp_path)])
    assert code == 2
    assert "seeds" in capsys.readouterr().err


def test_gradcheck_small(capsys):
    code = cli.main(["gradcheck", "--networks", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "mutation control" in out


def test_report_roundtrip(tmp_path, capsys):
    for seed in (0, 1):
        cli.main(
            [
                "run",
                "--method", "none",
                "--seed", str(seed),
                "--total-episodes", "24",
                "--eval-interval", "12",
                "--reward-mode", "dense",
                "--results-dir", str(tmp_path),
            ]
        )
    capsys.readouterr()
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "none" in out and "±" in out
    assert (tmp_path / "summary.csv").exists()


def test_report_empty_dir_exits_1(tmp_path, capsys):
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 1
    assert "no completed runs" in capsys.readouterr().err
