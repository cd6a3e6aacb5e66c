"""Environment tests: geometry, reward predicates, determinism, replay logs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import nav_env
from curiosity_marl.nav_env import (
    ConfigurationError,
    EnvState,
    EpisodeExhaustedError,
    NavEnv,
    WorldConfig,
)


def make_state(config, positions):
    return EnvState(
        agent_positions=np.asarray(positions, float),
        landmark_positions=nav_env.canonical_layout(config)[1],
        landmark_assignment=nav_env.landmark_assignment(config.scenario, config.n_agents),
        timestep=0,
    )


def step(config, state, joint_action):
    """The reference step of one state: nav_env.move, then nav_env.score of
    the new state. NavEnv.step, and the trainer's path of moving a whole
    round and scoring it in one call, are checked against it."""
    new_state = nav_env.move(config, state, joint_action)
    reward, success = nav_env.score(config, new_state)
    return new_state, nav_env.StepResult(
        next_joint_obs=nav_env.observe(new_state),
        extrinsic_reward=reward,
        done=new_state.timestep >= config.episode_length,
        success=success,
    )


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

    def test_obs_dim(self):
        assert WorldConfig(n_agents=2, scenario="same_landmark").obs_dim == 4
        assert WorldConfig(n_agents=2, scenario="different_landmark").obs_dim == 6
        assert WorldConfig(n_agents=4, scenario="same_landmark").obs_dim == 8
        assert WorldConfig(n_agents=4, scenario="different_landmark").obs_dim == 10

    def test_landmark_assignment(self):
        assert nav_env.landmark_assignment("same_landmark", 4) == (0, 0, 0, 0)
        assert nav_env.landmark_assignment("different_landmark", 4) == (0, 1, 0, 1)


class TestResetAndObserve:
    def test_reset_within_bounds_and_jittered(self):
        config = WorldConfig(start_jitter=0.05)
        base, _ = nav_env.canonical_layout(config)
        state, obs = nav_env.reset(config, np.random.default_rng(7))
        assert np.all(np.abs(state.agent_positions) <= config.half_extent)
        assert np.all(np.abs(state.agent_positions - base) <= config.start_jitter + 1e-12)
        assert obs.shape == (2, config.obs_dim)

    def test_observation_layout(self):
        config = WorldConfig(n_agents=2, scenario="different_landmark")
        positions = np.array([[0.1, 0.2], [-0.3, 0.4]])
        state = make_state(config, positions)
        obs = nav_env.observe(state)
        lm = state.landmark_positions
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
        state = make_state(config, np.array(pos))
        obs = nav_env.observe(state)
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
        state = make_state(config, rng.uniform(-1, 1, (4, 2)))
        obs = nav_env.observe(state)
        for i in range(4):
            recovered = state.landmark_positions[0] - obs[i][:2]
            np.testing.assert_allclose(recovered, state.agent_positions[i], atol=1e-15)


def two_block_observe(state):
    """observe as two separate subtractions, landmarks then other agents,
    joined by one concatenate."""
    pos = state.agent_positions
    n = pos.shape[-2]
    rel_landmarks = state.landmark_positions - pos[..., :, None, :]
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
    state, _ = nav_env.reset(config, rng, n_episodes)
    batch = () if n_episodes is None else (n_episodes,)
    state = dataclasses.replace(state, agent_positions=rng.uniform(-1, 1, (*batch, n_agents, 2)))
    obs = nav_env.observe(state)
    assert obs.shape == (*batch, n_agents, config.obs_dim)
    assert np.array_equal(obs, two_block_observe(state))


class TestStep:
    def test_action_deltas(self):
        config = WorldConfig()
        state = make_state(config, [[0.0, 0.0], [0.0, 0.0]])
        for action, delta in [
            (0, (0.0, 0.1)),
            (1, (0.0, -0.1)),
            (2, (-0.1, 0.0)),
            (3, (0.1, 0.0)),
            (4, (0.0, 0.0)),
        ]:
            new_state, _ = step(config, state, (action, 4))
            np.testing.assert_allclose(new_state.agent_positions[0], delta, atol=1e-15)
            np.testing.assert_array_equal(new_state.agent_positions[1], [0.0, 0.0])

    def test_clamping_at_boundary(self):
        config = WorldConfig()
        state = make_state(config, [[1.0, 1.0], [-1.0, -1.0]])
        new_state, _ = step(config, state, (3, 2))  # push further out
        np.testing.assert_array_equal(new_state.agent_positions[0], [1.0, 1.0])
        np.testing.assert_array_equal(new_state.agent_positions[1], [-1.0, -1.0])

    def test_episode_exhaustion(self):
        config = WorldConfig(episode_length=2)
        env = NavEnv(config)
        env.reset(np.random.default_rng(0))
        assert not env.step((4, 4)).done
        assert env.step((4, 4)).done
        with pytest.raises(EpisodeExhaustedError):
            env.step((4, 4))

    def test_invalid_actions(self):
        config = WorldConfig()
        state = make_state(config, [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            step(config, state, (0,))
        with pytest.raises(ValueError):
            step(config, state, (0, 5))
        with pytest.raises(ValueError):
            step(config, state, (-1, 0))

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
        before = env.state
        with pytest.raises(ValueError, match=r"indices in \[0, 5\)"):
            env.move(action)
        with pytest.raises(ValueError, match=r"indices in \[0, 5\)"):
            env.step(action)
        assert env.state is before

    @pytest.mark.parametrize(
        "action",
        [[3, 1], (3, 1), np.array([3, 1], np.int32), np.array([3, 1], np.uint8)],
        ids=["int_list", "int_tuple", "int32", "uint8"],
    )
    def test_integer_actions_accepted(self, action):
        config = WorldConfig()
        state = make_state(config, [[0.0, 0.0], [0.0, 0.0]])
        moved = nav_env.move(config, state, action).agent_positions
        np.testing.assert_array_equal(moved, [[0.1, 0.0], [0.0, -0.1]])

    @pytest.mark.parametrize("n_agents", [2, 4])
    def test_move_clamps_as_clip_bit_for_bit(self, n_agents):
        """The in-place clamp gives np.clip's bits, at the walls and inside."""
        config = WorldConfig(n_agents=n_agents)
        h = config.half_extent
        rng = np.random.default_rng(41)
        positions = rng.uniform(-h, h, (200, n_agents, 2))
        positions[:40] = rng.choice([-h, h, -0.95 * h, 0.95 * h], (40, n_agents, 2))
        state, _ = nav_env.reset(config, rng, n_episodes=200)
        state = dataclasses.replace(state, agent_positions=positions)
        actions = rng.integers(0, 5, (200, n_agents))
        deltas = np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        expected = np.clip(positions + config.step_size * deltas[actions], -h, h)
        assert np.array_equal(nav_env.move(config, state, actions).agent_positions, expected)

    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_positions_always_in_bounds(self, seed, n_steps):
        config = WorldConfig(episode_length=60)
        rng = np.random.default_rng(seed)
        env = NavEnv(config)
        env.reset(rng)
        for _ in range(n_steps):
            env.step(tuple(rng.integers(0, 5, size=2)))
            assert np.all(np.abs(env.state.agent_positions) <= config.half_extent)


class TestRewards:
    def test_sparse_requires_all_agents(self):
        config = WorldConfig(scenario="different_landmark")
        lm = nav_env.canonical_layout(config)[1]
        on_both = make_state(config, [lm[0], lm[1]])
        assert nav_env.sparse_reward(config, on_both) == (1.0, True)
        one_off = make_state(config, [lm[0], lm[1] + np.array([0.2, 0.0])])
        assert nav_env.sparse_reward(config, one_off) == (0.0, False)

    def test_sparse_boundary_inclusive(self):
        # radius 0.125 keeps the distance arithmetic exact in binary, so the
        # first agent sits precisely on the disc boundary, not one ulp off
        config = WorldConfig(scenario="same_landmark", success_radius=0.125)
        lm = nav_env.canonical_layout(config)[1][0]
        exactly_on_edge = make_state(config, [lm - np.array([0.125, 0.0]), lm])
        assert nav_env.sparse_reward(config, exactly_on_edge)[1]
        just_outside = make_state(config, [lm - np.array([0.1250001, 0.0]), lm])
        assert not nav_env.sparse_reward(config, just_outside)[1]

    def test_sparse_reward_paid_every_step_it_holds(self):
        config = WorldConfig(scenario="same_landmark", start_jitter=0.0)
        lm = nav_env.canonical_layout(config)[1][0]
        state = make_state(config, [lm, lm])
        total = 0.0
        for _ in range(5):
            state, result = step(config, state, (4, 4))  # stay put
            total += result.extrinsic_reward
        assert total == 5.0

    def test_dense_reward_hand_example(self):
        config = WorldConfig(scenario="different_landmark", reward_mode="dense", c_collide=1.0)
        lm = nav_env.canonical_layout(config)[1]
        # agent 0 sits on landmark 0; agent 1 is 0.3 right of landmark 1
        state = make_state(config, [lm[0], lm[1] + np.array([0.3, 0.0])])
        expected = -(0.0 + 0.3)
        assert nav_env.score(config, state)[0] == pytest.approx(expected, abs=1e-12)

    def test_dense_success_bonus_hand_example(self):
        config = WorldConfig(scenario="same_landmark", reward_mode="dense", start_jitter=0.0)
        lm = nav_env.canonical_layout(config)[1][0]
        # both agents inside the success disc, separated by ~0.127 so the
        # collision penalty stays out of the picture
        state = make_state(config, [lm + np.array([-0.09, 0.0]), lm + np.array([0.0, -0.09])])
        expected = -(0.09 + 0.09) + config.c_success
        assert nav_env.score(config, state)[0] == pytest.approx(expected, abs=1e-12)

    def test_dense_pulls_every_agent(self):
        """Moving the farther agent closer must strictly improve the reward
        even while another agent already sits on the landmark."""
        config = WorldConfig(scenario="same_landmark", reward_mode="dense")
        lm = nav_env.canonical_layout(config)[1][0]
        near = make_state(config, [lm, lm + np.array([0.4, 0.0])])
        far = make_state(config, [lm, lm + np.array([0.6, 0.0])])
        assert nav_env.score(config, near)[0] > nav_env.score(config, far)[0]

    def test_dense_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for scenario, n in [("same_landmark", 2), ("different_landmark", 4)]:
            config = WorldConfig(n_agents=n, scenario=scenario, reward_mode="dense")
            assignment = nav_env.landmark_assignment(scenario, n)
            for _ in range(50):
                state = make_state(config, rng.uniform(-1, 1, (n, 2)))
                expected = 0.0
                docked = 0
                for i in range(n):
                    lm = state.landmark_positions[assignment[i]]
                    dx = state.agent_positions[i][0] - lm[0]
                    dy = state.agent_positions[i][1] - lm[1]
                    d = (dx * dx + dy * dy) ** 0.5
                    expected -= d
                    docked += d <= config.success_radius
                if docked == n:
                    expected += config.c_success
                for i in range(n):
                    for k in range(i + 1, n):
                        sep = state.agent_positions[i] - state.agent_positions[k]
                        if (sep[0] ** 2 + sep[1] ** 2) ** 0.5 < 2 * config.collision_radius:
                            expected -= config.c_collide
                assert nav_env.score(config, state)[0] == pytest.approx(
                    expected, abs=1e-12
                )

    def test_dense_collision_penalty(self):
        config = WorldConfig(
            scenario="same_landmark", reward_mode="dense", c_collide=1.0, collision_radius=0.05
        )
        lm = nav_env.canonical_layout(config)[1][0]
        # same agent-1 distance in both states; only the pairwise collision
        # penalty differs
        apart = make_state(config, [lm, lm + np.array([0.11, 0.0])])
        together = make_state(config, [lm + np.array([0.02, 0.0]), lm + np.array([0.11, 0.0])])
        assert nav_env.score(config, together)[0] == pytest.approx(
            nav_env.score(config, apart)[0] - 1.0 - 0.02, abs=1e-12
        )

    def test_dense_translation_invariance(self):
        config = WorldConfig(scenario="different_landmark", reward_mode="dense")
        rng = np.random.default_rng(23)
        positions = rng.uniform(-0.5, 0.5, (2, 2))
        state = make_state(config, positions)
        shift = np.array([0.2, -0.1])
        shifted = nav_env.EnvState(
            agent_positions=positions + shift,
            landmark_positions=state.landmark_positions + shift,
            landmark_assignment=state.landmark_assignment,
            timestep=0,
        )
        assert nav_env.score(config, shifted)[0] == pytest.approx(
            nav_env.score(config, state)[0], abs=1e-12
        )

    def test_dense_mode_still_reports_success(self):
        config = WorldConfig(reward_mode="dense", scenario="same_landmark", start_jitter=0.0)
        lm = nav_env.canonical_layout(config)[1][0]
        state = make_state(config, [lm, lm])
        _, result = step(config, state, (4, 4))
        assert result.success


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
    landmarks = nav_env.canonical_layout(config)[1]
    assignment = nav_env.landmark_assignment(config.scenario, n)
    obs = []
    for i in range(n):
        row = [landmarks[m][c] - new[i][c] for m in range(len(landmarks)) for c in range(2)]
        row += [new[k][c] - new[i][c] for k in range(n) if k != i for c in range(2)]
        obs.append(row)
    dists = np.linalg.norm(new - landmarks[list(assignment)], axis=1)
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
        landmarks = nav_env.canonical_layout(config)[1]
        targets = landmarks[list(nav_env.landmark_assignment(scenario, n_agents))]
        corner = np.tile([[1.0, -1.0]], (n_agents, 1))
        huddle = 0.02 * rng.standard_normal((n_agents, 2))  # every pair collides
        docked = targets + 0.01 * rng.standard_normal((n_agents, 2))
        spread = rng.uniform(-1, 1, (5, n_agents, 2))
        positions = np.concatenate([corner[None], huddle[None], docked[None], spread])
        actions = rng.integers(0, 5, positions.shape[:2])
        actions[0] = [3, 1] * (n_agents // 2)  # push out through the corner
        actions[2] = 4  # stay docked
        state = EnvState(
            positions, landmarks, nav_env.landmark_assignment(scenario, n_agents), 0
        )
        new_state, result = step(config, state, actions)
        for e in range(len(positions)):
            pos, obs, reward, success = oracle_step(config, positions[e], actions[e])
            np.testing.assert_array_equal(new_state.agent_positions[e], pos)
            np.testing.assert_array_equal(result.next_joint_obs[e], obs)
            assert result.extrinsic_reward[e] == reward
            assert result.success[e] == success
        np.testing.assert_array_equal(new_state.agent_positions[0], corner)
        assert result.success[2]
        if reward_mode == "dense":
            n_pairs = n_agents * (n_agents - 1) // 2
            assert result.extrinsic_reward[1] <= -n_pairs * config.c_collide

    @pytest.mark.parametrize("reward_mode", ["sparse", "dense"])
    @pytest.mark.parametrize("n_agents,scenario", [(2, "same_landmark"), (4, "different_landmark")])
    def test_moved_positions_score_as_steps(self, reward_mode, n_agents, scenario):
        """Moving without scoring and then scoring the kept (E, T, N, 2)
        positions in one call gives, bit for bit, the observations, rewards
        and success that the reference step gives, and so does NavEnv.step,
        with agents huddled so pairs collide and pushed onto their landmarks
        and the walls."""
        config = WorldConfig(n_agents=n_agents, scenario=scenario, reward_mode=reward_mode)
        rng = np.random.default_rng(42)
        landmarks = nav_env.canonical_layout(config)[1]
        start, _ = nav_env.reset(config, np.random.default_rng(43), 6)
        start_pos = start.agent_positions.copy()
        start_pos[0] = landmarks[list(nav_env.landmark_assignment(scenario, n_agents))]
        start_pos[1] = 0.0  # every pair collides
        stepped, moved = NavEnv(config), NavEnv(config)
        state = dataclasses.replace(start, agent_positions=start_pos)
        stepped.state = moved.state = state
        positions = np.empty((6, config.episode_length, n_agents, 2))
        results = []
        for t in range(config.episode_length):
            actions = rng.integers(0, 5, (6, n_agents))
            actions[:2] = 4  # stay docked, stay huddled
            actions[2] = 3  # run into the right wall
            state, result = step(config, state, actions)
            results.append(result)
            got = dataclasses.astuple(stepped.step(actions))
            assert all(map(np.array_equal, got, dataclasses.astuple(result)))
            np.testing.assert_array_equal(moved.move(actions), result.next_joint_obs)
            positions[:, t] = moved.state.agent_positions
        reward, success = moved.score(positions)
        assert np.array_equal(reward, np.stack([r.extrinsic_reward for r in results], axis=1))
        assert np.array_equal(success, np.stack([r.success for r in results], axis=1))
        assert success[0].all() and not success[1:].any()

    def test_batched_reset_draws_episode_by_episode(self):
        config = WorldConfig(n_agents=4)
        state, obs = nav_env.reset(config, np.random.default_rng(41), n_episodes=3)
        assert obs.shape == (3, 4, config.obs_dim)
        rng = np.random.default_rng(41)
        for e in range(3):
            single, single_obs = nav_env.reset(config, rng)
            np.testing.assert_array_equal(state.agent_positions[e], single.agent_positions)
            np.testing.assert_array_equal(obs[e], single_obs)

    def test_batched_step_rejects_wrong_action_shape(self):
        config = WorldConfig()
        state, _ = nav_env.reset(config, np.random.default_rng(0), n_episodes=3)
        with pytest.raises(ValueError):
            step(config, state, np.zeros((2, 2), int))
        with pytest.raises(ValueError):
            step(config, state, np.zeros(2, int))


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
                out.append((env.state.agent_positions.copy(), result.extrinsic_reward))
            return out

        a, b = play(123), play(123)
        for (pa, ra), (pb, rb) in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
            assert ra == rb
