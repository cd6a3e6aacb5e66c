"""Tests for config parsing, run orchestration, CSV output, and aggregation."""

import ctypes
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import CuriosityKind, coma, harness, nav_env
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


def test_key_given_twice_is_rejected_with_both_lines():
    """A repeated key is an error, not a silent override by its last value."""
    text = "seed = 1\n# a comment\nmethod = none\n  seed = 2  # again\n"
    with pytest.raises(ConfigurationError, match="seed: given twice, on lines 1 and 4"):
        harness.parse_config(text)
    with pytest.raises(ConfigurationError, match="seeds: given twice, on lines 2 and 3"):
        harness.parse_sweep("methods = none\nseeds = 0\nseeds = 1, 2\n")
    # an override still replaces the file's one value
    assert harness.parse_config("seed = 1\n", {"seed": "2"}).seed == 2


@pytest.mark.parametrize("raw", ["64,,64", "64,", ",64", "", " , "])
def test_empty_list_item_is_rejected(raw):
    with pytest.raises(ConfigurationError, match="hidden_dims: malformed value"):
        harness.parse_config(f"hidden_dims = {raw}\n")
    with pytest.raises(ConfigurationError, match="seeds: malformed value"):
        harness.parse_sweep(f"methods = none\nseeds = {raw.replace('64', '0')}\n")
    with pytest.raises(ConfigurationError, match="methods: malformed value"):
        harness.parse_sweep(f"methods = {raw.replace('64', 'none')}\nseeds = 0\n")


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
        ("success_radius = 1\n", "success_radius"),
        ("reward_mode = shaped\n", "reward_mode"),
        ("episode_length = 0\n", "episode_length"),
        ("start_jitter = -1\n", "start_jitter"),
        ("collision_radius = -1\n", "collision_radius"),
        ("c_collide = -3\n", "c_collide"),
        ("entropy_coeff = -5\n", "entropy_coeff"),
    ],
)
def test_invalid_configs_rejected(text, fragment):
    """Each message starts with the key its section names the value by."""
    with pytest.raises(ConfigurationError, match=f"^{fragment}: "):
        harness.parse_config(text)


FLOAT_KEYS = [
    "half_extent", "step_size", "success_radius", "collision_radius", "c_collide",
    "c_success", "start_jitter", "gamma", "td_lambda", "actor_lr", "critic_lr",
    "curiosity_lr", "entropy_coeff", "epsilon_start", "epsilon_end", "lambda",
    "clip_max", "leaky_slope",
]


def test_float_keys_are_every_float_setting():
    cfg = harness.RunConfig()
    names = {
        f.name
        for section in (cfg.world, cfg.train)
        for f in dataclasses.fields(section)
        if isinstance(getattr(section, f.name), float)
    }
    assert {coma.TrainConfig.KEYS.get(name, name) for name in names} == set(FLOAT_KEYS)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_by_name(key, value):
    """Every range check passes a NaN, since each comparison with it is
    False, so a non-finite value is rejected before the range checks."""
    with pytest.raises(ConfigurationError, match=f"^{key}: must be finite$"):
        harness.parse_config(f"{key} = {value}\n")


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


def _given_as(values, *types):
    """Pairs (value, the value given as one of types)."""
    return st.tuples(values, st.sampled_from(types)).map(lambda vt: (vt[0], vt[1](vt[0])))


def _code_built(method, seed, interval, lam, gamma, hidden):
    train = coma.TrainConfig(intrinsic_lambda=lam, gamma=gamma, hidden_dims=hidden)
    return harness.RunConfig(method=method, seed=seed, eval_interval=interval, train=train)


@settings(max_examples=30, deadline=None)
@given(
    method=_given_as(st.sampled_from([k.value for k in CuriosityKind]), str, CuriosityKind),
    seed=_given_as(st.integers(0, 2**31), int, np.int64),
    interval=_given_as(st.integers(1, 10**6), int, np.int64),
    lam=_given_as(st.floats(0.0, 10.0, allow_nan=False), float, np.float64),
    gamma=_given_as(st.floats(0.0, 0.999), float, np.float64),
    hidden=_given_as(st.lists(st.integers(1, 99), min_size=1, max_size=3).map(tuple), tuple, list),
)
def test_render_round_trip_exact(method, seed, interval, lam, gamma, hidden):
    """A config built in code, with numpy scalars, a list hidden_dims or a
    CuriosityKind member, renders as the config of the same values in their
    fields' declared types, and parses back to that config exactly."""
    pairs = (method, seed, interval, lam, gamma, hidden)
    declared = _code_built(*(value for value, _ in pairs))
    cfg = _code_built(*(given for _, given in pairs))
    assert harness.render_config(cfg) == harness.render_config(declared)
    assert harness.parse_config(harness.render_config(cfg)) == declared


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


@pytest.mark.parametrize(
    "given,declared",
    [
        ({"hidden_dims": [7, 5]}, {"hidden_dims": (7, 5)}),
        ({"intrinsic_lambda": np.float64(0.05)}, {"intrinsic_lambda": 0.05}),
        ({"method": CuriosityKind.NONE}, {"method": "none"}),
    ],
    ids=["list_hidden_dims", "numpy_lambda", "curiosity_kind"],
)
def test_run_of_a_code_built_config_is_reported(given, declared, tmp_path, caplog):
    """A finished run whose config was built in code with a value of
    another type than its field's is reloaded, not skipped, as the run of
    the same values in their declared types."""

    def run_config(settings):
        settings = dict(settings)
        method = settings.pop("method", "mcm")
        return harness.RunConfig(method, train=coma.TrainConfig(total_episodes=16, **settings))

    result = harness.run_experiment(run_config(given), str(tmp_path))
    expected = run_config(declared)
    rid = harness.run_id(expected)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        rid + ext for ext in (".config", ".csv", ".summary")
    ]
    rows = harness.parse_csv_rows((tmp_path / (rid + ".csv")).read_text())
    assert {row["method"] for row in rows} == {expected.method}
    with caplog.at_level("WARNING", logger="curiosity_marl.harness"):
        loaded = harness.load_results(str(tmp_path))
    assert not caplog.records
    assert loaded == [harness.RunSummary(expected, result.final_score)]


@pytest.mark.parametrize(
    "section,field,value",
    [
        ("world", "episode_length", 5.5),
        ("train", "episodes_per_update", 8.5),
        ("run", "eval_interval", 2.5),
        ("run", "seed", 1.5),
        ("world", "n_agents", 2.0),
        ("train", "hidden_dims", (7.5, 5)),
        ("train", "total_episodes", 16.0),
        ("train", "critic_epochs", True),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_code_built_config_with_a_non_integer_int_setting_writes_nothing(
    section, field, value, tmp_path
):
    """An int setting, or an item of a tuple of them, holds an int or a numpy
    integer, not a float or a bool: validate names the key before any file
    is written. Unchecked, a float would die in numpy with a bare TypeError,
    some after a sidecar and a CSV header are written, and a bool would train."""
    given = {"run": {}, "world": {}, "train": {"total_episodes": 16}}
    given[section][field] = value
    cfg = harness.RunConfig(
        "none",
        **given["run"],
        world=nav_env.WorldConfig(**given["world"]),
        train=coma.TrainConfig(**given["train"]),
    )
    with pytest.raises(ConfigurationError, match=f"^{field}: must be an integer$"):
        harness.run_experiment(cfg, str(tmp_path / "r"))
    assert not (tmp_path / "r").exists()


def test_numpy_integer_seed_trains(tmp_path):
    cfg = harness.RunConfig("none", seed=np.int64(3), train=coma.TrainConfig(total_episodes=8))
    harness.run_experiment(cfg, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "none_same_landmark_2ag_s3" + ext for ext in (".config", ".csv", ".summary")
    ]


def test_csv_rows_reach_disk_as_they_are_emitted(tmp_path, monkeypatch):
    """Each row is on disk once emitted, so a killed run keeps its rows and
    progress can be watched from the file."""
    cfg = harness.parse_config("method = none\ntotal_episodes = 40\neval_interval = 8\n")
    csv_path = tmp_path / (harness.run_id(cfg) + ".csv")
    real_train_round = coma.train_round
    seen = []

    def train_round_reading_csv(state):
        done = state.episodes
        rows = harness.parse_csv_rows(csv_path.read_text())  # checks the header
        assert [r["episode"] for r in rows] == list(range(8, done + 1, 8))
        seen.append(done)
        return real_train_round(state)

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
    # the summary file records the run's own final score, bit for bit
    assert summary.final_score == result.final_score
    assert summary.config == result.config


def test_load_run_scores_unaligned_tail_as_the_run_did(tmp_path, monkeypatch):
    """The last-10% window (episodes 36-39 of 40) starts inside the second
    20-episode CSV row, so no mean of whole rows gives the run's own score:
    34 failed episodes and then 6 docked ones score 1.0 at the run and 0.3
    from the CSV's overlap weighting."""
    cfg = harness.parse_config("method = none\ntotal_episodes = 40\neval_interval = 20\n")
    length = cfg.world.episode_length

    def fake_round(state):
        played = np.arange(state.episodes, state.episodes + state.cfg.episodes_per_update)
        steps = np.where(played >= 34, length, 0)
        state.normalized[played] = steps / length
        state.episodes = int(played[-1]) + 1
        return coma.RoundStats(critic_loss=0.0, actor_loss=0.0)

    monkeypatch.setattr(coma, "train_round", fake_round)
    result = harness.run_experiment(cfg, str(tmp_path))
    assert result.final_score == 1.0
    assert harness.load_run(str(tmp_path), harness.run_id(cfg)).final_score == 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        harness.run_id(cfg) + ext for ext in (".config", ".csv", ".summary")
    ]


@pytest.mark.parametrize("damage", ["missing", "garbled", "other_budget"])
def test_run_without_a_good_summary_is_not_reported(damage, tmp_path, caplog):
    """A run whose summary file is missing (it never finished, or was
    written before summaries existed), does not parse, or counts another
    budget is skipped with a warning that names it."""
    for seed in (0, 1):
        cfg = harness.parse_config(f"method = none\ntotal_episodes = 16\nseed = {seed}\n")
        harness.run_experiment(cfg, str(tmp_path))
    rid = harness.run_id(cfg)
    path = tmp_path / (rid + ".summary")
    if damage == "missing":
        path.unlink()
        error = harness.IncompleteRunError
    else:
        garbled = "final_score\n"
        path.write_text(garbled if damage == "garbled" else "final_score = 0.5\nepisodes = 8\n")
        error = ValueError
    with pytest.raises(error):
        harness.load_run(str(tmp_path), rid)
    with caplog.at_level("WARNING", logger="curiosity_marl.harness"):
        loaded = harness.load_results(str(tmp_path))
    assert [harness.run_id(r.config) for r in loaded] == [rid.replace("_s1", "_s0")]
    assert any(rid in record.getMessage() for record in caplog.records)


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


def test_rerun_killed_before_its_summary_does_not_keep_the_old_one(tmp_path, monkeypatch):
    """A run id rerun into the same directory with another setting, and
    killed after its last CSV row but before its summary lands, must not
    pass with the earlier run's score."""
    cfg = harness.parse_config("method = none\ntotal_episodes = 16\n")
    harness.run_experiment(cfg, str(tmp_path))
    rid = harness.run_id(cfg)
    (tmp_path / (rid + ".summary")).write_text("final_score = 0.123456789\nepisodes = 16\n")

    class Killed(Exception):
        pass

    def killed(src, dst):
        raise Killed

    monkeypatch.setattr(harness.os, "replace", killed)
    rerun = harness.parse_config("method = none\ntotal_episodes = 16\nentropy_coeff = 0.02\n")
    with pytest.raises(Killed):
        harness.run_experiment(rerun, str(tmp_path))
    with pytest.raises(harness.IncompleteRunError):
        harness.load_run(str(tmp_path), rid)


@pytest.mark.parametrize("damage", ["bad_sidecar", "unknown_header", "short_row"])
def test_load_results_skips_unreadable_run(damage, tmp_path, caplog):
    """A run whose sidecar or CSV does not parse, such as a CSV whose last
    row was cut off when the run was killed, is skipped with a warning that
    names it; the other runs are still loaded."""
    for seed in (0, 1):
        cfg = harness.parse_config(f"method = none\ntotal_episodes = 16\nseed = {seed}\n")
        harness.run_experiment(cfg, str(tmp_path))
    rid = harness.run_id(cfg)
    if damage == "bad_sidecar":
        path = tmp_path / (rid + ".config")
        path.write_text(path.read_text().replace("method = none", "method = bogus"))
    else:
        path = tmp_path / (rid + ".csv")
        lines = path.read_text().splitlines()
        if damage == "unknown_header":
            lines[0] = lines[0].replace("episode", "episodes")
        else:
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="curiosity_marl.harness"):
        summaries = harness.load_results(str(tmp_path))
    assert [s.config.seed for s in summaries] == [0]
    assert any(rid in r.getMessage() and "skipping" in r.getMessage() for r in caplog.records)


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


@pytest.mark.parametrize(
    "section,field,value,key",
    [
        ("world", "reward_mode", "dense", "reward_mode"),
        ("world", "episode_length", 30, "episode_length"),
        ("train", "intrinsic_lambda", 0.1, "lambda"),
    ],
)
def test_aggregate_refuses_runs_whose_configs_differ_beyond_the_seed(section, field, value, key):
    """Runs of one (method, scenario, n_agents) cell are pooled as seeds of
    one config only if nothing else differs; otherwise aggregate names the
    first key that differs and both run ids."""
    base = _summary("none", "same_landmark", 2, 0, 0.5)
    other = _summary("none", "same_landmark", 2, 1, 0.0)
    changed = dataclasses.replace(getattr(other.config, section), **{field: value})
    other = harness.RunSummary(dataclasses.replace(other.config, **{section: changed}), 0.0)
    rids = "none_same_landmark_2ag_s0 and none_same_landmark_2ag_s1"
    with pytest.raises(ValueError, match=f"^{key}: runs {rids} differ "):
        harness.aggregate([base, other])


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


@pytest.mark.parametrize("key", ["method", "seed"])
def test_parse_sweep_rejects_a_single_cell_key(key):
    """Every cell sets its own method and seed, so a sweep file's
    `method = mcm` or `seed = 7` would be dropped without a word."""
    with pytest.raises(ConfigurationError, match=f"^{key}: .*`{key}s`"):
        harness.parse_sweep(f"methods = none\nseeds = 0\n{key} = 7\n")


def test_sweep_serial_produces_all_files(tmp_path):
    cells = harness.sweep(["none", "icm_indiv"], [0, 1], SWEEP_BASE, str(tmp_path))
    assert len(cells) == 4
    assert all(c.ok for c in cells)
    for cell in cells:
        assert (tmp_path / (cell.run_id + ".csv")).exists()
        assert (tmp_path / (cell.run_id + ".config")).exists()
        assert (tmp_path / (cell.run_id + ".summary")).exists()
    assert len(list(tmp_path.iterdir())) == 12


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


def test_sweep_workers_run_one_blas_thread(tmp_path, monkeypatch):
    """Each pool worker runs OpenBLAS on one thread, so that a sweep's
    workers do not run more BLAS threads than there are cores; the sweeping
    process keeps its own count."""
    get_threads = harness._openblas_function("get_num_threads")
    if get_threads is None:
        pytest.skip("numpy's bundled OpenBLAS exports no get_num_threads")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    own = get_threads()

    def report_threads(cfg, results_dir):
        (tmp_path / harness.run_id(cfg)).write_text(str(get_threads()))

    monkeypatch.setattr(harness, "run_experiment", report_threads)
    cells = harness.sweep(["none"], [0, 1], SWEEP_BASE, str(tmp_path / "r"), workers=2)
    assert all(c.ok for c in cells)
    assert [(tmp_path / c.run_id).read_text() for c in cells] == ["1", "1"]
    assert get_threads() == own


def test_sweep_without_a_blas_thread_setter_warns_once_and_runs(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(harness, "_openblas_function", lambda name: None)
    monkeypatch.setattr(harness, "run_experiment", lambda cfg, results_dir: None)
    cells = harness.sweep(["none"], [0, 1], SWEEP_BASE, str(tmp_path), workers=2)
    assert all(c.ok for c in cells)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "no OpenBLAS thread setter" in caplog.text


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


@pytest.mark.parametrize("workers", [0, -2])
def test_sweep_rejects_workers_below_one(tmp_path, workers):
    """workers < 1 used to fall through to a serial run and exit 0."""
    with pytest.raises(ConfigurationError, match="workers: must be >= 1"):
        harness.sweep(["none"], [0], SWEEP_BASE, str(tmp_path), workers=workers)
    assert list(tmp_path.iterdir()) == []


def test_aggregate_over_sweep_results(tmp_path):
    harness.sweep(["none", "mcm"], [0, 1], SWEEP_BASE, str(tmp_path))
    summaries = harness.load_results(str(tmp_path))
    assert len(summaries) == 4
    rows = harness.aggregate(summaries)
    assert len(rows) == 2  # one per method
    assert {r.method for r in rows} == {"none", "mcm"}
    assert all(r.n_seeds == 2 for r in rows)
