"""End-to-end tests of the command-line interface."""

import numpy as np
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


@pytest.mark.parametrize(
    "given",
    [
        ["--set", "collision_radius=nan", "--reward-mode", "dense"],
        ["--set", "start_jitter=nan"],
        ["--set", "lambda=inf"],
    ],
    ids=["collision_radius", "start_jitter", "lambda"],
)
def test_run_non_finite_setting_exits_2_before_writing(given, tmp_path, capsys):
    """A NaN collision radius would drop every collision penalty, and other
    non-finite values fail mid-run after the sidecar is written; each is
    rejected with the config check instead."""
    out_dir = tmp_path / "out"
    code = cli.main(["run", *given, "--total-episodes", "8", "--results-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {given[1].split('=')[0]}: must be finite")
    assert not out_dir.exists()


def test_run_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


@pytest.mark.parametrize(
    "key,given",
    [
        ("seed", ["--set", "seed=1", "--set", "seed=2"]),
        ("seed", ["--seed", "1", "--set", "seed=2"]),
        ("seed", ["--seed", "1", "--seed", "2"]),
        ("lambda", ["--lambda", "0.1", "--set", " lambda = 0.2"]),
    ],
    ids=["set_twice", "flag_and_set", "flag_twice", "flag_and_spaced_set"],
)
def test_run_key_given_twice_exits_2_before_writing(key, given, tmp_path, capsys):
    """A key given twice on the command line is rejected by name, as a
    config file's is, instead of one value winning without a word."""
    out_dir = tmp_path / "out"
    code = cli.main(["run", *given, "--total-episodes", "8", "--results-dir", str(out_dir)])
    assert code == 2
    assert f"error: {key}: given twice" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_malformed_set_exits_2(tmp_path, capsys):
    code = cli.main(["run", "--set", "no_equals_sign", "--results-dir", str(tmp_path)])
    assert code == 2
    assert "--set" in capsys.readouterr().err


def test_run_unwritable_results_dir_exits_1(capsys):
    """A results directory that cannot be made is a run failure, reported
    in one line rather than a traceback."""
    code = cli.main(["run", "--method", "none", "--results-dir", "/dev/null/x"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/dev/null/x" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_without_workers_exits_2(workers, tmp_path, capsys):
    sweep_file = tmp_path / "sweep.cfg"
    sweep_file.write_text("methods = none\nseeds = 0\ntotal_episodes = 8\n")
    out = tmp_path / "out"
    code = cli.main(
        ["sweep", "--config", str(sweep_file), "--workers", workers, "--results-dir", str(out)]
    )
    assert code == 2
    assert "error: workers: must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_small(capsys):
    code = cli.main(["gradcheck", "--networks", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "mutation control" in out


@pytest.mark.parametrize(
    "suite, result",
    [
        ("critic_gradient_suite", (float("nan"), 1.0)),
        ("curiosity_gradient_suite", (float("nan"), 1.0)),
        ("curiosity_gradient_suite", (0.0, float("nan"))),
    ],
    ids=["critic_error", "curiosity_error", "curiosity_mutant"],
)
def test_gradcheck_nan_fails(suite, result, capsys, monkeypatch):
    """A NaN from a suite that is not the first one checked is a failure,
    not a value the max or min over the suites can drop."""
    owner = cli.coma if suite.startswith("critic") else cli.cur
    monkeypatch.setattr(owner, suite, lambda seed: result)
    code = cli.main(["gradcheck", "--networks", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "nan" in out
    assert out.splitlines()[-1] == "FAIL"


def test_gradcheck_fails_on_lost_actor_mutant(capsys, monkeypatch):
    """A sign-flip mutant that the actor's checker does not catch makes the
    actor suite's error NaN, which fails gradcheck; the other suites keep
    their mutants."""
    mutation_control = cli.nc.mutation_control

    def actor_mutant_lost(net, closure):
        if closure.__qualname__.startswith("actor_loss_closure"):
            return 0.0
        return mutation_control(net, closure)

    monkeypatch.setattr(cli.nc, "mutation_control", actor_mutant_lost)
    assert np.isnan(cli.coma.actor_gradient_suite(n_policies=2))
    code = cli.main(["gradcheck", "--networks", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "actor-loss gradient suite: max relative error nan" in out
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("networks", ["0", "-1"])
def test_gradcheck_without_networks_exits_2(networks, capsys):
    """An audit of no networks checks nothing, so it is a usage error rather
    than a pass or a failed check."""
    code = cli.main(["gradcheck", "--networks", networks])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: --networks: must be >= 1" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_gradcheck_negative_seed_exits_2_before_any_suite(capsys, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli.nc, "gradient_suite", no_suite)
    code = cli.main(["gradcheck", "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: --seed: must be >= 0" in captured.err
    assert captured.out == ""


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


def test_report_refuses_to_pool_runs_of_other_settings(tmp_path, capsys):
    """A dense and a sparse run of one method in one directory are no two
    seeds of one cell: report names the key that differs, in one error line,
    and writes no table."""
    for seed, mode in (("0", "sparse"), ("1", "dense")):
        cli.main(
            [
                "run", "--method", "none", "--seed", seed, "--reward-mode", mode,
                "--total-episodes", "8", "--results-dir", str(tmp_path),
            ]
        )
    capsys.readouterr()
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: reward_mode: ")
    assert "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "summary.csv").exists()


def test_report_unwritable_summary_exits_1(tmp_path, capsys):
    """A summary.csv that cannot be written is a report failure, reported in
    one line rather than a traceback, after the table."""
    cli.main(["run", "--method", "none", "--total-episodes", "8", "--results-dir", str(tmp_path)])
    (tmp_path / "summary.csv").mkdir()
    capsys.readouterr()
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "none" in captured.out
    assert captured.err.startswith("error: ") and "summary.csv" in captured.err
    assert "Traceback" not in captured.err


def test_report_skips_malformed_run(tmp_path, capsys, caplog):
    """A run whose sidecar does not parse is left out of the report with a
    warning, and the report of the other runs succeeds."""
    for seed in ("0", "1"):
        cli.main(
            [
                "run", "--method", "none", "--seed", seed, "--total-episodes", "8",
                "--results-dir", str(tmp_path),
            ]
        )
    sidecar = tmp_path / "none_same_landmark_2ag_s1.config"
    sidecar.write_text(sidecar.read_text().replace("method = none", "method = bogus"))
    capsys.readouterr()
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    table = captured.out.splitlines()
    assert any(line.split()[0] == "none" and line.split()[3] == "1" for line in table[2:])
    assert any("none_same_landmark_2ag_s1" in r.getMessage() for r in caplog.records)


def test_report_empty_dir_exits_1(tmp_path, capsys):
    code = cli.main(["report", "--results-dir", str(tmp_path)])
    assert code == 1
    assert "no completed runs" in capsys.readouterr().err
