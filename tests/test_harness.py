"""Tests for config parsing, run orchestration, CSV output, and aggregation."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import coma, harness
from curiosity_marl.nav_env import ConfigurationError

TINY = """
method = none
total_episodes = 60
eval_interval = 20
reward_mode = dense
"""


# --- config parsing ----------------------------------------------------------


def test_parse_empty_gives_defaults():
    cfg = harness.parse_config("")
    assert cfg == harness.RunConfig()
    assert cfg.world.scenario == "same_landmark"
    assert cfg.method == "mcm"
    assert cfg.train.intrinsic_lambda == 0.05


def test_parse_sets_fields_ignores_comments():
    text = """
    # experiment settings
    scenario = different_landmark   # inline comment
    n_agents = 4

    seed = 7
    lambda = 0.25
    hidden_dims = 32, 16
    """
    cfg = harness.parse_config(text)
    assert cfg.world.scenario == "different_landmark"
    assert cfg.world.n_agents == 4
    assert cfg.seed == 7
    assert cfg.train.intrinsic_lambda == 0.25
    assert cfg.train.hidden_dims == (32, 16)


def test_overrides_beat_file_text():
    cfg = harness.parse_config("seed = 1\nmethod = none\n", {"seed": "9"})
    assert cfg.seed == 9
    assert cfg.method == "none"


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match="unknown config key: learning_rate"):
        harness.parse_config("learning_rate = 0.01\n")


def test_malformed_value_names_the_key():
    with pytest.raises(ConfigurationError, match="seed"):
        harness.parse_config("seed = banana\n")
    with pytest.raises(ConfigurationError, match="expected `key = value`"):
        harness.parse_config("just some words\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n_agents = 3\n", "n_agents"),
        ("method = dreamer\n", "method"),
        ("seed = -1\n", "seed"),
        ("eval_interval = 0\n", "eval_interval"),
        ("lambda = -0.5\n", "lambda"),
        ("clip_max = 0\n", "clip_max"),
        ("gamma = 1.5\n", "gamma"),
        ("scenario = maze\n", "scenario"),
        ("hidden_dims = 0\n", "hidden_dims"),
        ("episodes_per_update = 0\n", "episodes_per_update"),
        ("critic_epochs = 0\n", "critic_epochs"),
        ("td_lambda = 1.5\n", "td_lambda"),
        ("epsilon_start = 0.2\n", "epsilon_start"),
        ("actor_lr = -1\n", "actor_lr"),
        ("critic_lr = 0\n", "critic_lr"),
        ("leaky_slope = 2\n", "leaky_slope"),
        ("step_size = 0\n", "step_size"),
        ("episode_length = 0\n", "episode_length"),
        ("start_jitter = -1\n", "start_jitter"),
    ],
)
def test_invalid_configs_rejected(text, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        harness.parse_config(text)


def test_render_parse_round_trip():
    cfg = harness.parse_config(
        "scenario = different_landmark\nseed = 3\nlambda = 0.125\n"
        "actor_lr = 0.0003\nhidden_dims = 48,24\n"
    )
    again = harness.parse_config(harness.render_config(cfg))
    assert again == cfg


# A default sidecar as written before the settings were nested, in that key
# order. Key order in a rendered file may change; the 29 keys, their values
# and the run_id may not, or older results directories stop loading.
DEFAULT_SIDECAR = """\
scenario = same_landmark
n_agents = 2
reward_mode = sparse
method = mcm
seed = 0
total_episodes = 0
eval_interval = 100
lambda = 0.05
clip_max = 1.0
half_extent = 1.0
step_size = 0.1
episode_length = 50
success_radius = 0.1
collision_radius = 0.05
c_collide = 1.0
c_success = 5.0
start_jitter = 0.05
gamma = 0.95
td_lambda = 0.8
actor_lr = 0.001
critic_lr = 0.001
curiosity_lr = 0.001
episodes_per_update = 8
entropy_coeff = 0.01
critic_epochs = 4
epsilon_start = 0.1
epsilon_end = 0.02
hidden_dims = 64,64
leaky_slope = 0.01
"""


def test_render_writes_every_file_key_once():
    rendered = harness.render_config(harness.RunConfig())
    keys = [line.split(" = ")[0] for line in rendered.splitlines()]
    assert len(keys) == 29
    assert sorted(keys) == sorted(harness.parse_pairs(DEFAULT_SIDECAR))


def test_older_sidecar_parses_to_defaults():
    assert harness.parse_config(DEFAULT_SIDECAR) == harness.RunConfig()
    assert sorted(harness.parse_pairs(DEFAULT_SIDECAR).items()) == sorted(
        harness.parse_pairs(harness.render_config(harness.RunConfig())).items()
    )


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.0, 10.0, allow_nan=False),
    gamma=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**31),
    interval=st.integers(1, 10**6),
)
def test_render_round_trip_exact(lam, gamma, seed, interval):
    train = dataclasses.replace(harness.RunConfig().train, intrinsic_lambda=lam, gamma=gamma)
    cfg = dataclasses.replace(harness.RunConfig(), train=train, seed=seed, eval_interval=interval)
    again = harness.parse_config(harness.render_config(cfg))
    assert again == cfg


def test_auto_episode_budget():
    assert harness.parse_config("").resolved_total_episodes == 30_000
    assert harness.parse_config("n_agents = 4\n").resolved_total_episodes == 50_000
    assert harness.parse_config("total_episodes = 123\n").resolved_total_episodes == 123


def test_run_id_format():
    cfg = harness.parse_config("method = icm_min\nscenario = different_landmark\nseed = 5\n")
    assert harness.run_id(cfg) == "icm_min_different_landmark_2ag_s5"


def test_resolve_results_dir(monkeypatch, tmp_path):
    monkeypatch.delenv(harness.RESULTS_ENV_VAR, raising=False)
    assert harness.resolve_results_dir("x") == "x"
    assert harness.resolve_results_dir(None) == "results"
    monkeypatch.setenv(harness.RESULTS_ENV_VAR, str(tmp_path))
    assert harness.resolve_results_dir(None) == str(tmp_path)
    assert harness.resolve_results_dir("y") == "y"


# --- single runs -------------------------------------------------------------


def test_final_score_last_tenth():
    xs = np.arange(100, dtype=float)
    assert harness.final_score_of(xs) == pytest.approx(np.mean(np.arange(90, 100)))
    assert harness.final_score_of(np.array([0.3])) == 0.3
    assert harness.final_score_of(np.array([1.0, 2.0, 3.0])) == 3.0


def test_run_experiment_writes_csv_and_sidecar(tmp_path):
    cfg = harness.parse_config(TINY)
    result = harness.run_experiment(cfg, str(tmp_path))
    rid = harness.run_id(cfg)
    csv_path = tmp_path / (rid + ".csv")
    side_path = tmp_path / (rid + ".config")
    assert csv_path.exists() and side_path.exists()

    lines = csv_path.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 1 + 3  # 60 episodes / interval 20
    rows = harness.parse_csv_rows(csv_path.read_text())
    assert [r["episode"] for r in rows] == [20, 40, 60]
    assert all(r["run_id"] == rid for r in rows)
    assert all(r["method"] == "none" for r in rows)
    # interval means match the returned per-episode arrays exactly
    np.testing.assert_equal(rows[0]["extrinsic_return"], result.extrinsic[:20].mean())
    np.testing.assert_equal(rows[2]["normalized_reward"], result.normalized[40:60].mean())

    side_cfg = harness.parse_config(side_path.read_text())
    assert side_cfg.train.total_episodes == 60
    assert side_cfg == cfg
    assert len(result.normalized) == 60
    assert result.final_score == harness.final_score_of(result.normalized)


def test_csv_rows_reach_disk_as_they_are_emitted(tmp_path, monkeypatch):
    """Each row is on disk once emitted, so a killed run keeps its rows and
    progress can be watched from the file."""
    cfg = harness.parse_config("method = none\ntotal_episodes = 40\neval_interval = 8\n")
    csv_path = tmp_path / (harness.run_id(cfg) + ".csv")
    real_train_round = coma.train_round
    seen = []

    def train_round_reading_csv(*args):
        done = args[5]
        rows = harness.parse_csv_rows(csv_path.read_text())  # checks the header
        assert [r["episode"] for r in rows] == list(range(8, done + 1, 8))
        seen.append(done)
        return real_train_round(*args)

    monkeypatch.setattr(coma, "train_round", train_round_reading_csv)
    harness.run_experiment(cfg, str(tmp_path))
    assert seen == [0, 8, 16, 24, 32]


def test_run_experiment_partial_tail_row(tmp_path):
    cfg = harness.parse_config("method = none\ntotal_episodes = 50\neval_interval = 20\n")
    harness.run_experiment(cfg, str(tmp_path))
    rows = harness.parse_csv_rows(
        (tmp_path / (harness.run_id(cfg) + ".csv")).read_text()
    )
    assert [r["episode"] for r in rows] == [20, 40, 50]


def test_run_experiment_deterministic(tmp_path):
    cfg = harness.parse_config(TINY)
    a = harness.run_experiment(cfg, str(tmp_path / "a"))
    b = harness.run_experiment(cfg, str(tmp_path / "b"))
    np.testing.assert_array_equal(a.normalized, b.normalized)
    np.testing.assert_array_equal(a.extrinsic, b.extrinsic)
    csv_a = (tmp_path / "a" / (harness.run_id(cfg) + ".csv")).read_text()
    csv_b = (tmp_path / "b" / (harness.run_id(cfg) + ".csv")).read_text()
    assert csv_a == csv_b


def test_dense_training_improves_reward(tmp_path):
    """Plain counterfactual training on the dense shaping must show a clear
    learning signal within 5000 episodes: the last evaluation window beats
    the first by a wide margin."""
    cfg = harness.parse_config(
        "method = none\nreward_mode = dense\nscenario = same_landmark\n"
        "total_episodes = 5000\neval_interval = 500\nseed = 3\n"
    )
    res = harness.run_experiment(cfg, str(tmp_path))
    assert res.extrinsic[-500:].mean() > res.extrinsic[:500].mean() + 5.0


def test_csv_floats_survive_round_trip(tmp_path):
    cfg = harness.parse_config(TINY)
    result = harness.run_experiment(cfg, str(tmp_path))
    rows = harness.parse_csv_rows(
        (tmp_path / (harness.run_id(cfg) + ".csv")).read_text()
    )
    # %.17g is lossless for doubles: re-read values are bit-identical
    assert rows[1]["extrinsic_return"] == result.extrinsic[20:40].mean()


def test_parse_csv_rejects_foreign_text():
    with pytest.raises(ValueError):
        harness.parse_csv_rows("not,a,results,file\n1,2,3,4\n")
    truncated = harness.CSV_HEADER + "\nonly,three,cols\n"
    with pytest.raises(ValueError):
        harness.parse_csv_rows(truncated)


def test_load_run_reconstructs_final_score(tmp_path):
    cfg = harness.parse_config(
        "method = none\ntotal_episodes = 100\neval_interval = 10\nreward_mode = dense\n"
    )
    result = harness.run_experiment(cfg, str(tmp_path))
    summary = harness.load_run(str(tmp_path), harness.run_id(cfg))
    # interval boundary lines up with the last-10% window, so this is exact
    assert summary.final_score == pytest.approx(result.final_score, abs=1e-15)
    assert summary.config == result.config


def test_truncated_run_is_not_reported(tmp_path):
    """A run killed before its budget leaves a CSV that stops early; it must
    not be scored or counted as finished."""
    cfg = harness.parse_config(
        "method = none\ntotal_episodes = 40\neval_interval = 10\nreward_mode = dense\n"
    )
    harness.run_experiment(cfg, str(tmp_path))
    rid = harness.run_id(cfg)
    csv_path = tmp_path / (rid + ".csv")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 4
    csv_path.write_text("\n".join(lines[:3]) + "\n")  # header + 2 of 4 rows
    with pytest.raises(harness.IncompleteRunError, match="20 of 40"):
        harness.load_run(str(tmp_path), rid)
    assert harness.load_results(str(tmp_path)) == []


def test_load_results_skips_orphan_sidecar(tmp_path):
    cfg = harness.parse_config("method = none\ntotal_episodes = 20\neval_interval = 10\n")
    harness.run_experiment(cfg, str(tmp_path))
    (tmp_path / "ghost_same_landmark_2ag_s0.config").write_text(
        harness.render_config(harness.RunConfig())
    )
    summaries = harness.load_results(str(tmp_path))
    assert len(summaries) == 1
    assert summaries[0].config.method == "none"


# --- aggregation -------------------------------------------------------------


def _summary(method, scenario, n_agents, seed, score):
    world = dataclasses.replace(harness.RunConfig().world, scenario=scenario, n_agents=n_agents)
    cfg = dataclasses.replace(harness.RunConfig(), method=method, world=world, seed=seed)
    return harness.RunSummary(cfg, score)


def test_aggregate_two_seed_example():
    rows = harness.aggregate(
        [
            _summary("mcm", "same_landmark", 2, 0, 0.8),
            _summary("mcm", "same_landmark", 2, 1, 0.9),
        ]
    )
    assert len(rows) == 1
    assert rows[0].mean == pytest.approx(0.85)
    assert rows[0].std == pytest.approx(0.0707, abs=1e-4)
    assert rows[0].n_seeds == 2


def test_aggregate_singleton_std_zero():
    rows = harness.aggregate([_summary("none", "same_landmark", 2, 0, 0.5)])
    assert rows[0].std == 0.0


def test_aggregate_groups_and_sorts():
    rows = harness.aggregate(
        [
            _summary("none", "same_landmark", 2, 0, 0.1),
            _summary("mcm", "same_landmark", 2, 0, 0.7),
            _summary("mcm", "same_landmark", 2, 1, 0.9),
            _summary("mcm", "different_landmark", 2, 0, 0.6),
            _summary("mcm", "same_landmark", 4, 0, 0.4),
        ]
    )
    keys = [(r.method, r.scenario, r.n_agents) for r in rows]
    assert keys == sorted(keys)
    by_key = {k: r for k, r in zip(keys, rows)}
    assert by_key[("mcm", "same_landmark", 2)].mean == pytest.approx(0.8)
    assert by_key[("mcm", "same_landmark", 2)].n_seeds == 2
    assert by_key[("none", "same_landmark", 2)].n_seeds == 1


def test_format_and_csv_aggregate():
    rows = harness.aggregate(
        [
            _summary("mcm", "same_landmark", 2, 0, 0.8),
            _summary("mcm", "same_landmark", 2, 1, 0.9),
        ]
    )
    text = harness.format_aggregate(rows)
    assert "0.8500 ± 0.0707" in text
    assert "mcm" in text and "same_landmark" in text
    csv = harness.aggregate_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == "method,scenario,n_agents,n_seeds,mean,std"
    parts = lines[1].split(",")
    assert parts[0] == "mcm"
    assert float(parts[4]) == pytest.approx(0.85)


# --- sweeps ------------------------------------------------------------------

SWEEP_BASE = {"total_episodes": "24", "eval_interval": "12", "reward_mode": "dense"}


def test_parse_sweep_splits_lists():
    methods, seeds, base = harness.parse_sweep(
        "methods = none, mcm\nseeds = 0, 1\ntotal_episodes = 24\n"
    )
    assert methods == ["none", "mcm"]
    assert seeds == [0, 1]
    assert base == {"total_episodes": "24"}


def test_parse_sweep_requires_lists():
    with pytest.raises(ConfigurationError, match="methods"):
        harness.parse_sweep("seeds = 0\n")
    with pytest.raises(ConfigurationError, match="seeds"):
        harness.parse_sweep("methods = none\n")
    with pytest.raises(ConfigurationError, match="seeds"):
        harness.parse_sweep("methods = none\nseeds = x\n")


def test_sweep_serial_produces_all_files(tmp_path):
    cells = harness.sweep(["none", "icm_indiv"], [0, 1], SWEEP_BASE, str(tmp_path))
    assert len(cells) == 4
    assert all(c.ok for c in cells)
    for cell in cells:
        assert (tmp_path / (cell.run_id + ".csv")).exists()
        assert (tmp_path / (cell.run_id + ".config")).exists()
    assert len(list(tmp_path.iterdir())) == 8


def test_sweep_parallel_matches_serial(tmp_path):
    """Workers only change scheduling: each run is a pure function of its
    config, so parallel output bytes equal serial output bytes."""
    serial = harness.sweep(["none", "mcm"], [0, 1], SWEEP_BASE, str(tmp_path / "s"), workers=1)
    parallel = harness.sweep(["none", "mcm"], [0, 1], SWEEP_BASE, str(tmp_path / "p"), workers=2)
    assert [c.run_id for c in serial] == [c.run_id for c in parallel]
    assert all(c.ok for c in parallel)
    for cell in serial:
        a = (tmp_path / "s" / (cell.run_id + ".csv")).read_text()
        b = (tmp_path / "p" / (cell.run_id + ".csv")).read_text()
        assert a == b


def test_sweep_reports_failing_cells(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file, not a directory")
    cells = harness.sweep(["none"], [0], SWEEP_BASE, str(blocker))
    assert len(cells) == 1
    assert not cells[0].ok
    assert cells[0].error


def test_sweep_invalid_method_fails_fast(tmp_path):
    with pytest.raises(ConfigurationError, match="method"):
        harness.sweep(["not_a_method"], [0], SWEEP_BASE, str(tmp_path))


@pytest.mark.parametrize(
    "text,name",
    [("methods = mcm, mcm\nseeds = 0\n", "methods"), ("methods = none\nseeds = 0, 1, 0\n", "seeds")],
    ids=["methods", "seeds"],
)
def test_sweep_rejects_repeated_cells(tmp_path, text, name):
    """A repeated method or seed would make two cells write one CSV."""
    methods, seeds, base = harness.parse_sweep(text)
    with pytest.raises(ConfigurationError, match=name):
        harness.sweep(methods, seeds, dict(SWEEP_BASE, **base), str(tmp_path), workers=2)
    assert list(tmp_path.iterdir()) == []


def test_aggregate_over_sweep_results(tmp_path):
    harness.sweep(["none", "mcm"], [0, 1], SWEEP_BASE, str(tmp_path))
    summaries = harness.load_results(str(tmp_path))
    assert len(summaries) == 4
    rows = harness.aggregate(summaries)
    assert len(rows) == 2  # one per method
    assert {r.method for r in rows} == {"none", "mcm"}
    assert all(r.n_seeds == 2 for r in rows)
