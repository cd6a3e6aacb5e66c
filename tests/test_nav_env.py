"""Environment tests: geometry, reward predicates, determinism, replay logs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import nav_env
from curiosity_marl.nav_env import (
    ConfigurationError,
    EpisodeExhaustedError,
    NavEnv,
    WorldConfig,
)


def make_env(config, positions):
    """An env of config whose episode, or batch of episodes, sits at
    positions at t = 0."""
    env = NavEnv(config)
    env.positions = np.asarray(positions, float)
    return env


class TestConfig:
    def test_defaults_valid(self):
        WorldConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_agents": 1},
            {"scenario": "ring"},
            {"reward_mode": "shaped"},
            {"step_size": 0.0},
            {"episode_length": 0},
            {"success_radius": -0.1},
            {"half_extent": 0.0},
            {"c_success": -1.0},
            {"start_jitter": -0.01},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorldConfig(**kwargs).validate()

    def test_env_rejects_a_non_finite_setting_by_key(self):
        """A NaN collision radius passes every range check and drops every
        collision penalty; the env's own config check rejects it by key."""
        config = WorldConfig(collision_radius=float("nan"), reward_mode="dense")
        with pytest.raises(ConfigurationError, match="^collision_radius: must be finite$"):
            NavEnv(config)

    def test_obs_dim(self):
        assert WorldConfig(n_agents=2, scenario="same_landmark").obs_dim == 4
        assert WorldConfig(n_agents=2, scenario="different_landmark").obs_dim == 6
        assert WorldConfig(n_agents=4, scenario="same_landmark").obs_dim == 8
        assert WorldConfig(n_agents=4, scenario="different_landmark").obs_dim == 10

    def test_landmark_assignment(self):
        same = NavEnv(WorldConfig(n_agents=4, scenario="same_landmark"))
        different = NavEnv(WorldConfig(n_agents=4, scenario="different_landmark"))
        assert np.array_equal(same.targets, same.landmarks[[0, 0, 0, 0]])
        assert np.array_equal(different.targets, different.landmarks[[0, 1, 0, 1]])


class TestResetAndObserve:
    def test_reset_within_bounds_and_jittered(self):
        config = WorldConfig(start_jitter=0.05)
        env = NavEnv(config)
        obs = env.reset(np.random.default_rng(7))
        assert np.all(np.abs(env.positions) <= config.half_extent)
        assert np.all(np.abs(env.positions - env.starts) <= config.start_jitter + 1e-12)
        assert obs.shape == (2, config.obs_dim)
        assert env.timestep == 0

    def test_observation_layout(self):
        config = WorldConfig(n_agents=2, scenario="different_landmark")
        positions = np.array([[0.1, 0.2], [-0.3, 0.4]])
        lm = NavEnv(config).landmarks
        obs = nav_env.observe(positions, lm)
        # agent 0: both landmarks relative, then agent 1 relative
        np.testing.assert_array_equal(obs[0][:2], lm[0] - positions[0])
        np.testing.assert_array_equal(obs[0][2:4], lm[1] - positions[0])
        np.testing.assert_array_equal(obs[0][4:], positions[1] - positions[0])
        np.testing.assert_array_equal(obs[1][4:], positions[0] - positions[1])

    @given(
        pos=st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
            ),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry_property(self, pos):
        """Agent j seen from i is the exact negation of i seen from j."""
        config = WorldConfig(n_agents=3, scenario="same_landmark")
        # the same_landmark layout, which NavEnv builds for 2 or 4 agents only
        obs = nav_env.observe(np.array(pos), NavEnv(WorldConfig(n_agents=2)).landmarks)
        offset = 2 * config.n_landmarks
        for i in range(3):
            others_i = [m for m in range(3) if m != i]
            for slot, m in enumerate(others_i):
                rel_im = obs[i][offset + 2 * slot : offset + 2 * slot + 2]
                slot_back = [k for k in range(3) if k != m].index(i)
                rel_mi = obs[m][offset + 2 * slot_back : offset + 2 * slot_back + 2]
                np.testing.assert_array_equal(rel_im, -rel_mi)

    def test_reconstruction_from_landmark_block(self):
        """Absolute positions are recoverable from the landmark-relative block."""
        config = WorldConfig(n_agents=4, scenario="different_landmark")
        rng = np.random.default_rng(3)
        positions = rng.uniform(-1, 1, (4, 2))
        lm = NavEnv(config).landmarks
        obs = nav_env.observe(positions, lm)
        for i in range(4):
            recovered = lm[0] - obs[i][:2]
            np.testing.assert_allclose(recovered, positions[i], atol=1e-15)


def two_block_observe(pos, landmarks):
    """observe as two separate subtractions, landmarks then other agents,
    joined by one concatenate."""
    n = pos.shape[-2]
    rel_landmarks = landmarks - pos[..., :, None, :]
    rel_others = pos[..., nav_env.other_agents(n), :] - pos[..., :, None, :]
    batch = pos.shape[:-2]
    return np.concatenate(
        [rel_landmarks.reshape(*batch, n, -1), rel_others.reshape(*batch, n, -1)], axis=-1
    )


@pytest.mark.parametrize("n_episodes", [None, 8])
@pytest.mark.parametrize("n_agents", [2, 4])
@pytest.mark.parametrize("scenario", ["same_landmark", "different_landmark"])
def test_observe_equals_two_block_concatenate_bit_for_bit(scenario, n_agents, n_episodes):
    config = WorldConfig(n_agents=n_agents, scenario=scenario)
    rng = np.random.default_rng(43)
    env = NavEnv(config)
    env.reset(rng, n_episodes)
    batch = () if n_episodes is None else (n_episodes,)
    positions = rng.uniform(-1, 1, (*batch, n_agents, 2))
    obs = nav_env.observe(positions, env.landmarks)
    assert obs.shape == (*batch, n_agents, config.obs_dim)
    assert np.array_equal(obs, two_block_observe(positions, env.landmarks))


class TestStep:
    def test_action_deltas(self):
        config = WorldConfig()
        for action, delta in [
            (0, (0.0, 0.1)),
            (1, (0.0, -0.1)),
            (2, (-0.1, 0.0)),
            (3, (0.1, 0.0)),
            (4, (0.0, 0.0)),
        ]:
            env = make_env(config, [[0.0, 0.0], [0.0, 0.0]])
            env.step((action, 4))
            np.testing.assert_allclose(env.positions[0], delta, atol=1e-15)
            np.testing.assert_array_equal(env.positions[1], [0.0, 0.0])
            assert env.timestep == 1

    def test_clamping_at_boundary(self):
        env = make_env(WorldConfig(), [[1.0, 1.0], [-1.0, -1.0]])
        env.step((3, 2))  # push further out
        np.testing.assert_array_equal(env.positions[0], [1.0, 1.0])
        np.testing.assert_array_equal(env.positions[1], [-1.0, -1.0])

    def test_episode_exhaustion(self):
        config = WorldConfig(episode_length=2)
        env = NavEnv(config)
        env.reset(np.random.default_rng(0))
        assert not env.step((4, 4)).done
        assert env.step((4, 4)).done
        with pytest.raises(EpisodeExhaustedError):
            env.step((4, 4))

    def test_invalid_actions(self):
        env = make_env(WorldConfig(), [[0.0, 0.0], [0.0, 0.0]])
        for action in [(0,), (0, 5), (-1, 0)]:
            with pytest.raises(ValueError):
                env.step(action)
            with pytest.raises(ValueError):
                env.move(action)
        np.testing.assert_array_equal(env.positions, np.zeros((2, 2)))
        assert env.timestep == 0

    def test_move_before_reset_raises(self):
        env = NavEnv(WorldConfig())
        with pytest.raises(RuntimeError, match="reset"):
            env.move((4, 4))
        with pytest.raises(RuntimeError, match="reset"):
            env.step((4, 4))
        assert env.positions is None and env.timestep == 0

    def test_move_rebinds_positions_and_leaves_a_kept_reference_unchanged(self):
        """move writes a new array; the one a caller kept still holds the
        positions before the move."""
        env = NavEnv(WorldConfig())
        env.reset(np.random.default_rng(0), n_episodes=3)
        kept = env.positions
        before = kept.copy()
        env.move(np.full((3, 2), 3))
        assert env.positions is not kept
        assert np.array_equal(kept, before)
        assert not np.array_equal(env.positions, before)
        assert env.timestep == 1

    def test_score_needs_no_reset(self):
        """score reads only the world's constants, so it works on a fresh env
        and leaves its state unset."""
        config = WorldConfig(scenario="different_landmark", reward_mode="dense")
        env = NavEnv(config)
        reward, success = env.score(np.array([[-1.0, 0.45], [1.0, 0.45]]))  # docked
        assert reward == config.c_success and success
        assert env.positions is None and env.timestep == 0

    @pytest.mark.parametrize(
        "action",
        [[1.9, 0.2], np.array([1.0, 0.0]), np.array([True, False]), [np.nan, 0]],
        ids=["float_list", "float_array", "bool_array", "nan"],
    )
    def test_non_integer_actions_rejected(self, action):
        """A float or bool action is no index: it is rejected, not truncated
        or cast to one."""
        env = NavEnv(WorldConfig())
        env.reset(np.random.default_rng(0))
        before = env.positions
        with pytest.raises(ValueError, match=r"indices in \[0, 5\)"):
            env.move(action)
        with pytest.raises(ValueError, match=r"indices in \[0, 5\)"):
            env.step(action)
        assert env.positions is before and env.timestep == 0

    @pytest.mark.parametrize(
        "action",
        [[3, 1], (3, 1), np.array([3, 1], np.int32), np.array([3, 1], np.uint8)],
        ids=["int_list", "int_tuple", "int32", "uint8"],
    )
    def test_integer_actions_accepted(self, action):
        env = make_env(WorldConfig(), [[0.0, 0.0], [0.0, 0.0]])
        env.move(action)
        np.testing.assert_array_equal(env.positions, [[0.1, 0.0], [0.0, -0.1]])

    @pytest.mark.parametrize("n_agents", [2, 4])
    def test_move_clamps_as_clip_bit_for_bit(self, n_agents):
        """The in-place clamp gives np.clip's bits, at the walls and inside."""
        config = WorldConfig(n_agents=n_agents)
        h = config.half_extent
        rng = np.random.default_rng(41)
        positions = rng.uniform(-h, h, (200, n_agents, 2))
        positions[:40] = rng.choice([-h, h, -0.95 * h, 0.95 * h], (40, n_agents, 2))
        env = NavEnv(config)
        env.reset(rng, n_episodes=200)
        env.positions = positions
        actions = rng.integers(0, 5, (200, n_agents))
        deltas = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        expected = np.clip(positions + config.step_size * deltas[actions], -h, h)
        env.move(actions)
        assert np.array_equal(env.positions, expected)

    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_positions_always_in_bounds(self, seed, n_steps):
        config = WorldConfig(episode_length=60)
        rng = np.random.default_rng(seed)
        env = NavEnv(config)
        env.reset(rng)
        for _ in range(n_steps):
            env.step(tuple(rng.integers(0, 5, size=2)))
            assert np.all(np.abs(env.positions) <= config.half_extent)


class TestRewards:
    def test_sparse_requires_all_agents(self):
        env = NavEnv(WorldConfig(scenario="different_landmark"))
        lm = env.landmarks
        assert env.score(np.array([lm[0], lm[1]])) == (1.0, True)
        assert env.score(np.array([lm[0], lm[1] + [0.2, 0.0]])) == (0.0, False)

    def test_sparse_boundary_inclusive(self):
        # radius 0.125 keeps the distance arithmetic exact in binary, so the
        # first agent sits precisely on the disc boundary, not one ulp off
        env = NavEnv(WorldConfig(scenario="same_landmark", success_radius=0.125))
        lm = env.landmarks[0]
        assert env.score(np.array([lm - [0.125, 0.0], lm]))[1]
        assert not env.score(np.array([lm - [0.1250001, 0.0], lm]))[1]

    def test_sparse_reward_paid_every_step_it_holds(self):
        config = WorldConfig(scenario="same_landmark", start_jitter=0.0)
        lm = NavEnv(config).landmarks[0]
        env = make_env(config, [lm, lm])
        total = 0.0
        for _ in range(5):
            total += env.step((4, 4)).extrinsic_reward  # stay put
        assert total == 5.0

    def test_dense_reward_hand_example(self):
        config = WorldConfig(scenario="different_landmark", reward_mode="dense", c_collide=1.0)
        env = NavEnv(config)
        lm = env.landmarks
        # agent 0 sits on landmark 0; agent 1 is 0.3 right of landmark 1
        positions = np.array([lm[0], lm[1] + [0.3, 0.0]])
        expected = -(0.0 + 0.3)
        assert env.score(positions)[0] == pytest.approx(expected, abs=1e-12)

    def test_dense_success_bonus_hand_example(self):
        config = WorldConfig(scenario="same_landmark", reward_mode="dense", start_jitter=0.0)
        env = NavEnv(config)
        lm = env.landmarks[0]
        # both agents inside the success disc, separated by ~0.127 so the
        # collision penalty stays out of the picture
        positions = np.array([lm + [-0.09, 0.0], lm + [0.0, -0.09]])
        expected = -(0.09 + 0.09) + config.c_success
        assert env.score(positions)[0] == pytest.approx(expected, abs=1e-12)

    def test_dense_pulls_every_agent(self):
        """Moving the farther agent closer must strictly improve the reward
        even while another agent already sits on the landmark."""
        env = NavEnv(WorldConfig(scenario="same_landmark", reward_mode="dense"))
        lm = env.landmarks[0]
        near = np.array([lm, lm + [0.4, 0.0]])
        far = np.array([lm, lm + [0.6, 0.0]])
        assert env.score(near)[0] > env.score(far)[0]

    def test_dense_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for scenario, n in [("same_landmark", 2), ("different_landmark", 4)]:
            config = WorldConfig(n_agents=n, scenario=scenario, reward_mode="dense")
            env = NavEnv(config)
            assignment = [0] * n if scenario == "same_landmark" else [i % 2 for i in range(n)]
            for _ in range(50):
                positions = rng.uniform(-1, 1, (n, 2))
                expected = 0.0
                docked = 0
                for i in range(n):
                    lm = env.landmarks[assignment[i]]
                    dx = positions[i][0] - lm[0]
                    dy = positions[i][1] - lm[1]
                    d = (dx * dx + dy * dy) ** 0.5
                    expected -= d
                    docked += d <= config.success_radius
                if docked == n:
                    expected += config.c_success
                for i in range(n):
                    for k in range(i + 1, n):
                        sep = positions[i] - positions[k]
                        if (sep[0] ** 2 + sep[1] ** 2) ** 0.5 < 2 * config.collision_radius:
                            expected -= config.c_collide
                assert env.score(positions)[0] == pytest.approx(expected, abs=1e-12)

    def test_dense_collision_penalty(self):
        config = WorldConfig(
            scenario="same_landmark", reward_mode="dense", c_collide=1.0, collision_radius=0.05
        )
        env = NavEnv(config)
        lm = env.landmarks[0]
        # same agent-1 distance in both states; only the pairwise collision
        # penalty differs
        apart = np.array([lm, lm + [0.11, 0.0]])
        together = np.array([lm + [0.02, 0.0], lm + [0.11, 0.0]])
        assert env.score(together)[0] == pytest.approx(
            env.score(apart)[0] - 1.0 - 0.02, abs=1e-12
        )

    def test_dense_translation_invariance(self):
        config = WorldConfig(scenario="different_landmark", reward_mode="dense")
        rng = np.random.default_rng(23)
        positions = rng.uniform(-0.5, 0.5, (2, 2))
        env, shifted = NavEnv(config), NavEnv(config)
        shift = np.array([0.2, -0.1])
        shifted.landmarks = env.landmarks + shift
        shifted.targets = env.targets + shift
        assert shifted.score(positions + shift)[0] == pytest.approx(
            env.score(positions)[0], abs=1e-12
        )

    def test_dense_mode_still_reports_success(self):
        config = WorldConfig(reward_mode="dense", scenario="same_landmark", start_jitter=0.0)
        lm = NavEnv(config).landmarks[0]
        assert make_env(config, [lm, lm]).step((4, 4)).success


def oracle_step(config, positions, actions):
    """One episode's step, agent by agent and pair by pair: new positions,
    observations, reward and success."""
    n = len(positions)
    h = config.half_extent
    deltas = {0: (0.0, 1.0), 1: (0.0, -1.0), 2: (-1.0, 0.0), 3: (1.0, 0.0), 4: (0.0, 0.0)}
    new = np.empty((n, 2))
    for i in range(n):
        for c in range(2):
            moved = positions[i][c] + config.step_size * deltas[int(actions[i])][c]
            new[i][c] = min(max(moved, -h), h)
    if config.scenario == "same_landmark":
        landmarks, assignment = np.array([[1.0, 0.6]]), [0] * n
    else:
        landmarks, assignment = np.array([[-1.0, 0.45], [1.0, 0.45]]), [i % 2 for i in range(n)]
    obs = []
    for i in range(n):
        row = [landmarks[m][c] - new[i][c] for m in range(len(landmarks)) for c in range(2)]
        row += [new[k][c] - new[i][c] for k in range(n) if k != i for c in range(2)]
        obs.append(row)
    dists = np.linalg.norm(new - landmarks[assignment], axis=1)
    success = bool(np.all(dists <= config.success_radius))
    if config.reward_mode == "sparse":
        return new, np.array(obs), (1.0 if success else 0.0), success
    reward = -float(dists.sum())
    if success:
        reward += config.c_success
    for i in range(n):
        for k in range(i + 1, n):
            if np.linalg.norm(new[i] - new[k]) < 2.0 * config.collision_radius:
                reward -= config.c_collide
    return new, np.array(obs), reward, success


class TestLockstep:
    @pytest.mark.parametrize("reward_mode", ["sparse", "dense"])
    @pytest.mark.parametrize("n_agents,scenario", [(2, "same_landmark"), (4, "different_landmark")])
    def test_batched_step_matches_single_episode_oracle(self, reward_mode, n_agents, scenario):
        """Every episode of a batch steps exactly as the one-episode oracle
        does, bit for bit, with episodes pinned against the walls, on their
        landmarks and in multi-pair collisions among them."""
        config = WorldConfig(n_agents=n_agents, scenario=scenario, reward_mode=reward_mode)
        rng = np.random.default_rng(40)
        targets = NavEnv(config).targets
        corner = np.tile([[1.0, -1.0]], (n_agents, 1))
        huddle = 0.02 * rng.standard_normal((n_agents, 2))  # every pair collides
        docked = targets + 0.01 * rng.standard_normal((n_agents, 2))
        spread = rng.uniform(-1, 1, (5, n_agents, 2))
        positions = np.concatenate([corner[None], huddle[None], docked[None], spread])
        actions = rng.integers(0, 5, positions.shape[:2])
        actions[0] = [3, 1] * (n_agents // 2)  # push out through the corner
        actions[2] = 4  # stay docked
        env = make_env(config, positions)
        result = env.step(actions)
        for e in range(len(positions)):
            pos, obs, reward, success = oracle_step(config, positions[e], actions[e])
            np.testing.assert_array_equal(env.positions[e], pos)
            np.testing.assert_array_equal(result.next_joint_obs[e], obs)
            assert result.extrinsic_reward[e] == reward
            assert result.success[e] == success
        np.testing.assert_array_equal(env.positions[0], corner)
        assert result.success[2]
        if reward_mode == "dense":
            n_pairs = n_agents * (n_agents - 1) // 2
            assert result.extrinsic_reward[1] <= -n_pairs * config.c_collide

    @pytest.mark.parametrize("reward_mode", ["sparse", "dense"])
    @pytest.mark.parametrize("n_agents,scenario", [(2, "same_landmark"), (4, "different_landmark")])
    def test_moved_positions_score_as_steps(self, reward_mode, n_agents, scenario):
        """Moving without scoring and then scoring the kept (E, T, N, 2)
        positions in one call gives, bit for bit, the observations, rewards
        and success that NavEnv.step gives, and every step of it equals the
        one-episode oracle's, with agents huddled so pairs collide and
        pushed onto their landmarks and the walls."""
        config = WorldConfig(n_agents=n_agents, scenario=scenario, reward_mode=reward_mode)
        rng = np.random.default_rng(42)
        stepped, moved = NavEnv(config), NavEnv(config)
        stepped.reset(np.random.default_rng(43), 6)
        start_pos = stepped.positions.copy()
        start_pos[0] = stepped.targets
        start_pos[1] = 0.0  # every pair collides
        stepped.positions = moved.positions = start_pos
        positions = np.empty((6, config.episode_length, n_agents, 2))
        results = []
        for t in range(config.episode_length):
            actions = rng.integers(0, 5, (6, n_agents))
            actions[:2] = 4  # stay docked, stay huddled
            actions[2] = 3  # run into the right wall
            before = stepped.positions
            result = stepped.step(actions)
            results.append(result)
            assert result.done == (t + 1 == config.episode_length)
            for e in range(6):
                pos, obs, reward, success = oracle_step(config, before[e], actions[e])
                np.testing.assert_array_equal(stepped.positions[e], pos)
                np.testing.assert_array_equal(result.next_joint_obs[e], obs)
                assert result.extrinsic_reward[e] == reward
                assert result.success[e] == success
            np.testing.assert_array_equal(moved.move(actions), result.next_joint_obs)
            positions[:, t] = moved.positions
        reward, success = moved.score(positions)
        assert np.array_equal(reward, np.stack([r.extrinsic_reward for r in results], axis=1))
        assert np.array_equal(success, np.stack([r.success for r in results], axis=1))
        assert success[0].all() and not success[1:].any()

    def test_batched_reset_draws_episode_by_episode(self):
        config = WorldConfig(n_agents=4)
        batched, single = NavEnv(config), NavEnv(config)
        obs = batched.reset(np.random.default_rng(41), n_episodes=3)
        assert obs.shape == (3, 4, config.obs_dim)
        rng = np.random.default_rng(41)
        for e in range(3):
            single_obs = single.reset(rng)
            np.testing.assert_array_equal(batched.positions[e], single.positions)
            np.testing.assert_array_equal(obs[e], single_obs)

    def test_batched_step_rejects_wrong_action_shape(self):
        env = NavEnv(WorldConfig())
        env.reset(np.random.default_rng(0), n_episodes=3)
        with pytest.raises(ValueError):
            env.step(np.zeros((2, 2), int))
        with pytest.raises(ValueError):
            env.step(np.zeros(2, int))


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        config = WorldConfig()

        def play(seed):
            rng = np.random.default_rng(seed)
            action_rng = np.random.default_rng(seed + 1)
            env = NavEnv(config)
            env.reset(rng)
            out = []
            for _ in range(config.episode_length):
                result = env.step(tuple(action_rng.integers(0, 5, size=2)))
                out.append((env.positions, result.extrinsic_reward))
            return out

        a, b = play(123), play(123)
        for (pa, ra), (pb, rb) in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
            assert ra == rb
