"""Tests for the counterfactual actor-critic trainer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import coma, curiosity, nav_env
from curiosity_marl import neural_core as nc


def zero_network(net):
    for p in net.parameters():
        p[:] = 0.0
    return net


def small_world(**kw):
    return nav_env.WorldConfig(**kw)


def fresh_setup(n_agents=2, kind="none", seed=0, **cfg_kw):
    """Policies, critic, env, bank, and config wired from one seed."""
    rng = np.random.default_rng(seed)
    world = small_world(n_agents=n_agents)
    cfg = coma.TrainConfig(**cfg_kw)
    env = nav_env.NavEnv(world)
    policies = coma.make_policy_set(n_agents, world.obs_dim, rng)
    critic = coma.make_critic(n_agents, world.obs_dim, rng)
    bank = curiosity.make_bank(kind, n_agents, world.obs_dim, rng)
    return policies, critic, env, bank, cfg


# --- configuration -----------------------------------------------------------


def test_train_config_defaults():
    cfg = coma.TrainConfig()
    assert cfg.gamma == 0.95
    assert cfg.td_lambda == 0.8
    assert cfg.actor_lr == 1e-3
    assert cfg.critic_lr == 1e-3
    assert cfg.episodes_per_update == 8
    assert cfg.epsilon_start == 0.1
    assert cfg.epsilon_end == 0.02
    cfg.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("gamma", 1.0),
        ("gamma", -0.1),
        ("td_lambda", 1.5),
        ("td_lambda", -0.2),
        ("episodes_per_update", 0),
        ("total_episodes", -1),
        ("critic_epochs", 0),
        ("epsilon_start", 0.3),
        ("epsilon_start", 0.2),
        ("epsilon_end", -0.01),
        ("intrinsic_lambda", -1.0),
        ("intrinsic_clip", 0.0),
        ("intrinsic_clip", -1.0),
    ],
)
def test_train_config_rejects(field, value):
    cfg = dataclasses.replace(coma.TrainConfig(), **{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


def test_epsilon_anneal_endpoints_and_midpoint():
    cfg = coma.TrainConfig(total_episodes=1000)
    assert coma.epsilon_at(cfg, 0) == pytest.approx(0.1)
    assert coma.epsilon_at(cfg, 250) == pytest.approx(0.06)
    assert coma.epsilon_at(cfg, 500) == pytest.approx(0.02)
    # constant after the first half
    assert coma.epsilon_at(cfg, 900) == pytest.approx(0.02)
    assert coma.epsilon_at(cfg, 10**6) == pytest.approx(0.02)


# --- policy distribution and sampling ---------------------------------------


def test_policy_probs_uniform_at_zero_logits():
    rng = np.random.default_rng(0)
    net = zero_network(nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng))
    for eps in (0.0, 0.02, 0.1):
        p = coma.policy_probs(net, np.zeros(4), eps)
        # (1 - 5e)/5 + e = 1/5 regardless of the floor
        np.testing.assert_allclose(p, 0.2, rtol=0, atol=1e-15)


def test_policy_probs_floor_and_ceiling():
    rng = np.random.default_rng(1)
    net = zero_network(nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng))
    net.head_b[0][2] = 50.0  # saturate one logit
    p = coma.policy_probs(net, np.zeros(4), 0.04)
    assert p[2] == pytest.approx(1.0 - 4 * 0.04)  # (1-5e)*1 + e
    for a in range(5):
        if a != 2:
            assert p[a] == pytest.approx(0.04)
    assert p.sum() == pytest.approx(1.0)


def test_policy_probs_rejects_nonfinite_logits():
    rng = np.random.default_rng(2)
    net = nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng)
    net.head_w[0][0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        coma.policy_probs(net, np.ones(4), 0.02)


def test_select_actions_matches_probabilities():
    """Empirical frequencies over 1e5 draws agree with the distribution to 3 sigma."""
    rng = np.random.default_rng(3)
    policies = coma.make_policy_set(2, 8, rng)
    obs = np.stack([rng.standard_normal(8), rng.standard_normal(8)])
    eps = 0.05
    expected = np.stack(
        [coma.policy_probs(policies.networks[i], obs[i], eps) for i in range(2)]
    )
    n_draws = 100_000
    counts = np.zeros((2, 5))
    for _ in range(n_draws):
        acts, probs = coma.select_actions(policies, obs[None], eps, rng.random((1, 2)))
        np.testing.assert_array_equal(probs[0], expected)
        for i in range(2):
            counts[i, acts[0, i]] += 1
    freq = counts / n_draws
    sigma = np.sqrt(expected * (1 - expected) / n_draws)
    assert np.all(np.abs(freq - expected) < 3.5 * sigma + 1e-12)


def test_select_actions_probs_respect_floor():
    rng = np.random.default_rng(4)
    policies = coma.make_policy_set(3, 10, rng)
    obs = rng.standard_normal((6, 3, 10))
    acts, probs = coma.select_actions(policies, obs, 0.02, rng.random((6, 3)))
    assert acts.shape == (6, 3)
    assert probs.shape == (6, 3, 5)
    assert np.all(probs >= 0.02 - 1e-12)
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-12)


def sample_one(probs, u):
    """One action by inverse CDF, the scalar way."""
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), 4)


@pytest.mark.parametrize("n_agents", [2, 4])
def test_lockstep_select_actions_match_per_row_oracle(n_agents):
    """One forward per agent over E episodes gives every row the
    distribution a one-row forward gives it, and the action that row's
    uniform picks from that distribution."""
    rng = np.random.default_rng(30)
    policies = coma.make_policy_set(n_agents, 8, rng)
    obs = rng.standard_normal((16, n_agents, 8))
    uniforms = rng.random((16, n_agents))
    acts, probs = coma.select_actions(policies, obs, 0.05, uniforms)
    for row in range(16):
        for i in range(n_agents):
            expected = coma.policy_probs(policies.networks[i], obs[row, i], 0.05)
            np.testing.assert_allclose(probs[row, i], expected, rtol=0, atol=1e-12)
            assert acts[row, i] == sample_one(expected, uniforms[row, i])


@pytest.mark.parametrize("n_agents,reward_mode", [(2, "sparse"), (4, "dense")])
def test_lockstep_rollout_matches_sequential_episodes(n_agents, reward_mode):
    """On frozen parameters, the lockstep rollout draws the actions that
    playing its episodes one after another, step by step and agent by agent,
    draws from the same generators, and sees the same environment."""
    world = small_world(n_agents=n_agents, reward_mode=reward_mode)
    rng = np.random.default_rng(31)
    policies = coma.make_policy_set(n_agents, world.obs_dim, rng)
    bank = curiosity.make_bank("mcm", n_agents, world.obs_dim, rng)
    cfg = coma.TrainConfig(episodes_per_update=5)
    eps = 0.1
    buf = coma.rollout_episode(
        nav_env.NavEnv(world), policies, bank, cfg, eps,
        np.random.default_rng(32), np.random.default_rng(33),
    )
    env_rng, action_rng = np.random.default_rng(32), np.random.default_rng(33)
    t_max = world.episode_length
    for episode in range(cfg.episodes_per_update):
        env = nav_env.NavEnv(world)
        obs = env.reset(env_rng)
        np.testing.assert_array_equal(buf.obs[episode, 0], obs)
        for t in range(t_max):
            acts = [
                sample_one(coma.policy_probs(net, obs[i], eps), action_rng.random())
                for i, net in enumerate(policies.networks)
            ]
            result = env.step(acts)
            obs = result.next_joint_obs
            assert buf.actions[episode, t].tolist() == acts
            np.testing.assert_array_equal(buf.obs[episode, t + 1], obs)
            assert buf.extrinsic[episode, t] == result.extrinsic_reward
            assert buf.success[episode, t] == result.success
    steps = buf.transitions()
    np.testing.assert_allclose(
        buf.intrinsic.reshape(-1, n_agents),
        [curiosity.intrinsic_rewards(bank, *(a[b : b + 1] for a in steps))[0]
         for b in range(len(steps[0]))],
        rtol=0, atol=1e-12,
    )


# --- critic features and advantage ------------------------------------------


def test_critic_input_layout():
    joint_obs = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    x = coma.critic_inputs(joint_obs, np.array([[2, 4]]))
    assert x.shape == (1, 2, coma.critic_input_dim(2, 2))
    # joint obs flattened, then agent 1's one-hot action, then agent one-hot
    expected = np.array([1, 2, 3, 4, 0, 0, 0, 0, 1, 1, 0], float)
    np.testing.assert_array_equal(x[0, 0], expected)
    expected1 = np.array([1, 2, 3, 4, 0, 0, 1, 0, 0, 0, 1], float)
    np.testing.assert_array_equal(x[0, 1], expected1)

    joint_obs = np.arange(8, dtype=float).reshape(1, 4, 2)
    x = coma.critic_inputs(joint_obs, np.array([[0, 1, 2, 3]]))
    assert x.shape == (1, 4, coma.critic_input_dim(4, 2))
    one_hots = np.eye(5)
    for agent in range(4):
        others = [m for m in range(4) if m != agent]
        expected = np.concatenate(
            [np.arange(8.0), *(one_hots[m] for m in others), np.eye(4)[agent]]
        )
        np.testing.assert_array_equal(x[0, agent], expected)


def test_critic_input_dim_matches():
    assert coma.critic_input_dim(2, 12) == 2 * 12 + 5 + 2
    assert coma.critic_input_dim(4, 24) == 4 * 24 + 3 * 5 + 4
    rng = np.random.default_rng(5)
    critic = coma.make_critic(2, 12, rng)
    assert critic.network.spec.input_dim == coma.critic_input_dim(2, 12)


def critic_q(critic, joint_obs, joint_action, agent):
    """Q-values (1, 5) of one agent's candidate actions at one joint state."""
    x = coma.critic_inputs(joint_obs[None], np.array([joint_action]))
    return nc.forward(critic.network, x[:, agent])[0][0]


def test_counterfactual_advantage_against_hand_sum():
    rng = np.random.default_rng(6)
    critic = coma.make_critic(2, 6, rng)
    joint_obs = rng.standard_normal((2, 6))
    pi = rng.dirichlet(np.ones(5))
    q = critic_q(critic, joint_obs, (1, 3), 0)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([1]))
    hand = q[0, 1] - sum(pi[a] * q[0, a] for a in range(5))
    assert adv.shape == (1,)
    assert adv[0] == pytest.approx(hand, abs=1e-12)


def test_counterfactual_advantage_zero_for_constant_critic():
    rng = np.random.default_rng(7)
    critic = coma.make_critic(2, 6, rng)
    zero_network(critic.network)
    critic.network.head_b[0][:] = -3.7  # every Q identical
    pi = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    q = critic_q(critic, np.ones((2, 6)), (4, 0), 1)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([0]))
    assert adv[0] == pytest.approx(0.0, abs=1e-12)


def test_counterfactual_advantage_zero_for_deterministic_policy():
    rng = np.random.default_rng(8)
    critic = coma.make_critic(2, 6, rng)
    pi = np.zeros(5)
    pi[3] = 1.0
    q = critic_q(critic, rng.standard_normal((2, 6)), (3, 2), 0)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([3]))
    assert adv[0] == pytest.approx(0.0, abs=1e-12)


def test_counterfactual_advantage_policy_expectation_is_zero():
    rng = np.random.default_rng(9)
    critic = coma.make_critic(2, 6, rng)
    joint_obs = rng.standard_normal((2, 6))
    pi = rng.dirichlet(np.ones(5))
    # one row per candidate action u of agent 0, agent 1 fixed at action 2
    q = np.concatenate([critic_q(critic, joint_obs, (u, 2), 0) for u in range(5)])
    adv = coma.counterfactual_advantages(q, np.tile(pi, (5, 1)), np.arange(5))
    total = 0.0
    for u in range(5):
        total += pi[u] * adv[u]
    assert total == pytest.approx(0.0, abs=1e-12)


# --- lambda returns ----------------------------------------------------------


def test_td_lambda_one_is_monte_carlo():
    rng = np.random.default_rng(10)
    rewards = rng.standard_normal(50)
    q = rng.standard_normal(50)
    gamma = 0.95
    targets = coma.td_lambda_targets(rewards, q, gamma, 1.0)
    # discounted suffix sums, independent of q
    mc = np.array(
        [sum(gamma**k * rewards[t + k] for k in range(50 - t)) for t in range(50)]
    )
    np.testing.assert_allclose(targets, mc, rtol=1e-12)


def test_td_lambda_zero_is_one_step():
    rng = np.random.default_rng(11)
    rewards = rng.standard_normal(10)
    q = rng.standard_normal(10)
    targets = coma.td_lambda_targets(rewards, q, 0.9, 0.0)
    assert targets[-1] == rewards[-1]
    for t in range(9):
        assert targets[t] == pytest.approx(rewards[t] + 0.9 * q[t + 1], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    t_max=st.integers(1, 30),
    gamma=st.floats(0.0, 0.999),
    lam=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_td_lambda_recursion_oracle(t_max, gamma, lam, seed):
    rng = np.random.default_rng(seed)
    rewards = rng.standard_normal(t_max)
    q = rng.standard_normal(t_max)
    targets = coma.td_lambda_targets(rewards, q, gamma, lam)
    expected = np.empty(t_max)
    expected[t_max - 1] = rewards[t_max - 1]
    for t in range(t_max - 2, -1, -1):
        expected[t] = rewards[t] + gamma * (
            (1 - lam) * q[t + 1] + lam * expected[t + 1]
        )
    np.testing.assert_allclose(targets, expected, rtol=1e-12, atol=1e-12)


def test_td_lambda_vectorized_matches_per_stream_loop():
    """Trailing axes are independent streams: one call over (T, E, N)
    equals calling once per (episode, agent) stream, bit for bit."""
    rng = np.random.default_rng(34)
    rewards = rng.standard_normal((50, 8, 4))
    q = rng.standard_normal((50, 8, 4))
    targets = coma.td_lambda_targets(rewards, q, 0.95, 0.8)
    assert targets.shape == (50, 8, 4)
    for e in range(8):
        for n in range(4):
            stream = coma.td_lambda_targets(rewards[:, e, n], q[:, e, n], 0.95, 0.8)
            np.testing.assert_array_equal(targets[:, e, n], stream)


def test_td_lambda_rejects_length_mismatch():
    with pytest.raises(ValueError):
        coma.td_lambda_targets(np.zeros(5), np.zeros(4), 0.9, 0.5)


# --- rollouts ----------------------------------------------------------------


def test_rollout_shapes_and_bookkeeping():
    policies, critic, env, bank, cfg = fresh_setup()
    rng = np.random.default_rng(12)
    buf = coma.rollout_episode(env, policies, bank, cfg, 0.05, rng, rng)
    e, t_max, d = cfg.episodes_per_update, env.config.episode_length, env.config.obs_dim
    assert buf.obs.shape == (e, t_max + 1, 2, d)
    assert buf.actions.shape == (e, t_max, 2)
    assert buf.probs.shape == (e, t_max, 2, 5)
    assert buf.extrinsic.shape == buf.success.shape == (e, t_max)
    assert buf.intrinsic.shape == buf.mixed.shape == (e, t_max, 2)
    np.testing.assert_allclose(buf.probs.sum(axis=3), 1.0, atol=1e-12)
    np.testing.assert_array_equal(buf.extrinsic, buf.success.astype(float))  # sparse
    obs, actions, next_obs = buf.transitions()
    assert obs.shape == next_obs.shape == (e * t_max, 2, d)
    np.testing.assert_array_equal(obs[t_max + 3], buf.obs[1, 3])
    np.testing.assert_array_equal(next_obs[t_max + 3], buf.obs[1, 4])
    np.testing.assert_array_equal(actions[t_max + 3], buf.actions[1, 3])


def test_rollout_without_curiosity_mixes_nothing():
    policies, critic, env, bank, cfg = fresh_setup(kind="none")
    rng = np.random.default_rng(13)
    buf = coma.rollout_episode(env, policies, bank, cfg, 0.05, rng, rng)
    np.testing.assert_array_equal(buf.intrinsic, 0.0)
    np.testing.assert_array_equal(buf.mixed, buf.extrinsic[..., None] * np.ones((1, 1, 2)))


def test_rollout_shared_curiosity_gives_identical_streams():
    """A single joint model scores every agent, so mixed rewards coincide
    exactly and (at lambda=1) so do the critic's regression targets."""
    policies, critic, env, bank, cfg = fresh_setup(kind="icm_joint")
    rng = np.random.default_rng(14)
    buf = coma.rollout_episode(env, policies, bank, cfg, 0.05, rng, rng)
    np.testing.assert_array_equal(buf.mixed[..., 0], buf.mixed[..., 1])
    assert buf.intrinsic.max() > 0.0
    q = np.zeros((env.config.episode_length, cfg.episodes_per_update))
    t0 = coma.td_lambda_targets(buf.mixed[..., 0].T, q, cfg.gamma, 1.0)
    t1 = coma.td_lambda_targets(buf.mixed[..., 1].T, q, cfg.gamma, 1.0)
    np.testing.assert_array_equal(t0, t1)


# --- actor surrogate ---------------------------------------------------------


def test_actor_gradient_matches_finite_differences():
    worst = coma.actor_gradient_suite(n_policies=20, seed=0)
    assert worst < 1e-5


def test_actor_loss_value_against_hand_formula():
    probs = np.array([[0.1, 0.2, 0.3, 0.25, 0.15], [0.2, 0.2, 0.2, 0.2, 0.2]])
    actions = np.array([2, 0])
    advantages = np.array([1.5, -0.5])
    beta = 0.01
    loss, _ = coma.actor_loss_grads(probs, actions, advantages, 0.0, beta)
    ent = [-np.sum(p * np.log(p)) for p in probs]
    hand = np.mean(
        [
            -1.5 * np.log(0.3) - beta * ent[0],
            0.5 * np.log(0.2) - beta * ent[1],
        ]
    )
    assert loss == pytest.approx(hand, abs=1e-12)


def test_actor_update_increases_advantaged_action_probability():
    """With a fixed positive advantage on one action, repeated updates should
    concentrate the policy on it."""
    rng = np.random.default_rng(15)
    net = nc.init_network(nc.NetworkSpec(4, (5,), (16, 16)), rng)
    opt = nc.init_adam(net, lr=1e-2)
    obs = rng.standard_normal((1, 4))
    before = coma.policy_probs(net, obs[0], 0.0)[3]
    for _ in range(50):
        probs = (1.0 - 5 * 0.02) * coma.softmax(nc.forward(net, obs)[0][0]) + 0.02
        _, dl_dz = coma.actor_loss_grads(
            probs, np.array([3]), np.array([1.0]), 0.02, 0.0
        )
        _, cache = nc.forward(net, obs)
        grads = nc.backward(net, cache, [dl_dz])
        nc.adam_step(opt, net, grads)
    after = coma.policy_probs(net, obs[0], 0.0)[3]
    assert after > before
    assert after > 0.9


# --- critic regression -------------------------------------------------------


def test_critic_update_reduces_loss_on_frozen_batch():
    policies, critic, env, bank, cfg = fresh_setup(episodes_per_update=4)
    rng = np.random.default_rng(16)
    buf = coma.rollout_episode(env, policies, bank, cfg, 0.1, rng, rng)
    first = coma.critic_update(critic, buf, cfg)
    losses = [coma.critic_update(critic, buf, cfg) for _ in range(30)]
    assert losses[-1] < first
    assert losses[-1] < 0.5 * first


def test_critic_targets_use_pre_update_bootstrap():
    """Targets are computed once from the pre-update critic, then held fixed
    across the epochs of one update call."""
    policies, critic, env, bank, cfg = fresh_setup(episodes_per_update=2)
    rng = np.random.default_rng(17)
    buf = coma.rollout_episode(env, policies, bank, cfg, 0.1, rng, rng)
    x, taken, targets = coma._critic_batch(critic, buf, cfg)
    t_max = env.config.episode_length
    assert x.shape[0] == 2 * t_max * 2
    assert taken.shape == targets.shape == (x.shape[0],)
    # recompute by hand for every (episode, agent) stream; rows run episode
    # by episode, agent by agent, step by step
    for episode in range(2):
        for agent in range(2):
            q_taken = []
            for t in range(t_max):
                joint_action = buf.actions[episode, t]
                x_t = coma.critic_inputs(buf.obs[episode, t][None], joint_action[None])
                q = nc.forward(critic.network, x_t[0, agent])[0][0]
                q_taken.append(q[joint_action[agent]])
            expected = coma.td_lambda_targets(
                buf.mixed[episode, :, agent], np.array(q_taken), cfg.gamma, cfg.td_lambda
            )
            start = (episode * 2 + agent) * t_max
            np.testing.assert_allclose(
                targets[start : start + t_max], expected, rtol=1e-10
            )


# --- full training rounds ----------------------------------------------------


def test_train_round_stats_and_determinism():
    results = []
    for _ in range(2):
        rng_env = np.random.default_rng(100)
        rng_act = np.random.default_rng(200)
        policies, critic, env, bank, cfg = fresh_setup(seed=18)
        cfg = dataclasses.replace(cfg, total_episodes=64)
        done = 0
        stats = None
        while done < 32:
            stats = coma.train_round(
                policies, critic, env, bank, cfg, done, rng_env, rng_act
            )
            done += cfg.episodes_per_update
        results.append(
            (
                [w.copy() for w in policies.networks[0].parameters()],
                stats.extrinsic_returns,
                stats.critic_loss,
            )
        )
    for a, b in zip(results[0][0], results[1][0]):
        np.testing.assert_array_equal(a, b)
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]


def test_train_round_reports_per_episode_scalars():
    policies, critic, env, bank, cfg = fresh_setup(kind="mcm", seed=19)
    rng_env = np.random.default_rng(20)
    rng_act = np.random.default_rng(21)
    stats = coma.train_round(policies, critic, env, bank, cfg, 0, rng_env, rng_act)
    assert len(stats.extrinsic_returns) == cfg.episodes_per_update
    assert len(stats.success_steps) == cfg.episodes_per_update
    assert len(stats.mean_intrinsic) == cfg.episodes_per_update
    assert all(m > 0 for m in stats.mean_intrinsic)
    assert len(stats.curiosity_losses) == policies.n_agents
    assert np.isfinite(stats.critic_loss)
    assert np.isfinite(stats.actor_loss)


def test_train_round_without_curiosity_skips_bank():
    policies, critic, env, bank, cfg = fresh_setup(kind="none", seed=22)
    rng_env = np.random.default_rng(23)
    rng_act = np.random.default_rng(24)
    params_before = [m.copy() for m in bank.modules] if bank.modules else []
    stats = coma.train_round(policies, critic, env, bank, cfg, 0, rng_env, rng_act)
    assert stats.curiosity_losses == []
    assert bank.modules == params_before == []


def test_policies_stay_valid_distributions_after_training():
    policies, critic, env, bank, cfg = fresh_setup(kind="mcm_sep", seed=25)
    rng_env = np.random.default_rng(26)
    rng_act = np.random.default_rng(27)
    for round_idx in range(4):
        coma.train_round(
            policies, critic, env, bank, cfg, round_idx * 8, rng_env, rng_act
        )
    obs = env.reset(rng_env)
    eps = coma.epsilon_at(cfg, 32)
    for i in range(2):
        p = coma.policy_probs(policies.networks[i], obs[i], eps)
        assert np.all(p >= eps - 1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_mixing_weight_zero_leaves_policy_trajectory_unchanged():
    """With the intrinsic weight at zero, a curious run and a plain run make
    bit-identical action choices (the curiosity stream only adds observers)."""
    trajectories = []
    for kind in ("none", "mcm"):
        seq = np.random.SeedSequence(314)
        env_ss, act_ss, net_ss, bank_ss = seq.spawn(4)
        env_rng = np.random.default_rng(env_ss)
        act_rng = np.random.default_rng(act_ss)
        net_rng = np.random.default_rng(net_ss)
        bank_rng = np.random.default_rng(bank_ss)
        world = small_world()
        cfg = coma.TrainConfig(total_episodes=48, intrinsic_lambda=0.0)
        env = nav_env.NavEnv(world)
        policies = coma.make_policy_set(2, world.obs_dim, net_rng)
        critic = coma.make_critic(2, world.obs_dim, net_rng)
        bank = curiosity.make_bank(kind, 2, world.obs_dim, bank_rng)
        acts = []
        done = 0
        while done < 48:
            stats = coma.train_round(
                policies, critic, env, bank, cfg, done, env_rng, act_rng
            )
            done += cfg.episodes_per_update
            acts.append([stats.extrinsic_returns, stats.critic_loss])
        params = [p.copy() for p in policies.networks[0].parameters()]
        trajectories.append((acts, params))
    (acts_a, params_a), (acts_b, params_b) = trajectories
    assert acts_a == acts_b
    for a, b in zip(params_a, params_b):
        np.testing.assert_array_equal(a, b)
