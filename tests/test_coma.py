"""Tests for the counterfactual actor-critic trainer."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import coma, curiosity, harness, nav_env
from curiosity_marl import neural_core as nc
from member_copies import member


def zero_network(net):
    for p in net.parameters():
        p[:] = 0.0
    return net


def small_world(**kw):
    return nav_env.WorldConfig(**kw)


def run_config(n_agents=2, kind="none", seed=0, reward_mode="sparse", **cfg_kw):
    return harness.RunConfig(
        method=kind,
        seed=seed,
        world=small_world(n_agents=n_agents, reward_mode=reward_mode),
        train=coma.TrainConfig(**cfg_kw),
    )


def fresh_setup(*args, **kwargs):
    """A fresh TrainState built from one run config, and the resolved
    TrainConfig it keeps."""
    state = coma.init_state(run_config(*args, **kwargs))
    return state, state.cfg


def record_module_losses(monkeypatch):
    """The module losses of every curiosity_update call, one list per call."""
    recorded = []
    curiosity_update = curiosity.curiosity_update

    def recording(*args):
        rewards, losses = curiosity_update(*args)
        recorded.append(losses)
        return rewards, losses

    monkeypatch.setattr(curiosity, "curiosity_update", recording)
    return recorded


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


@pytest.mark.parametrize(
    "field,value,key",
    [("actor_lr", float("nan"), "actor_lr"), ("intrinsic_lambda", float("inf"), "lambda")],
)
def test_train_config_rejects_non_finite_by_key(field, value, key):
    """A config built in code gets the non-finite check too, and the message
    names the config-file key."""
    with pytest.raises(nav_env.ConfigurationError, match=f"^{key}: must be finite$"):
        coma.TrainConfig(**{field: value}).validate()


def test_epsilon_anneal_endpoints_and_midpoint():
    state, cfg = fresh_setup(total_episodes=1000)

    def epsilon_at(episodes):
        state.episodes = episodes
        return coma.epsilon_at(state)

    assert epsilon_at(0) == pytest.approx(0.1)
    assert epsilon_at(250) == pytest.approx(0.06)
    assert epsilon_at(500) == pytest.approx(0.02)
    # constant after the first half
    assert epsilon_at(900) == pytest.approx(0.02)
    assert epsilon_at(10**6) == pytest.approx(0.02)


# --- policy distribution and sampling ---------------------------------------


def test_policy_probs_uniform_at_zero_logits():
    rng = np.random.default_rng(0)
    net = zero_network(nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng))
    for eps in (0.0, 0.02, 0.1):
        p = coma.policy_probs(net, np.zeros((1, 4)), eps)
        # (1 - 5e)/5 + e = 1/5 regardless of the floor
        np.testing.assert_allclose(p, 0.2, rtol=0, atol=1e-15)


def test_policy_probs_floor_and_ceiling():
    rng = np.random.default_rng(1)
    net = zero_network(nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng))
    net.head_b[0][0, 0, 2] = 50.0  # saturate one logit
    p = coma.policy_probs(net, np.zeros((1, 4)), 0.04)[0, 0]
    assert p[2] == pytest.approx(1.0 - 4 * 0.04)  # (1-5e)*1 + e
    for a in range(5):
        if a != 2:
            assert p[a] == pytest.approx(0.04)
    assert p.sum() == pytest.approx(1.0)


def allocating_floor_mix(logits, epsilon):
    """softmax and floor mix with a fresh array for every operation."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p, (1.0 - 5 * epsilon) * p + epsilon


@pytest.mark.parametrize("near", [0.0, 700.0, -700.0])
def test_in_place_softmax_and_floor_mix_bit_for_bit(near):
    """The in-place softmax and floor mix give the allocating expressions'
    bits, on ordinary logits and near the exp overflow, and leave the logits
    as they were."""
    rng = np.random.default_rng(37)
    logits = near + 3.0 * rng.standard_normal((3, 40, coma.N_ACTIONS))
    logits[0, 0] = near  # a row of ties
    kept = logits.copy()
    p, mixed = allocating_floor_mix(logits, 0.02)
    assert np.array_equal(coma.softmax(logits), p)
    assert np.array_equal(coma.floor_mix(logits, 0.02), mixed)
    assert np.array_equal(logits, kept)


def test_policy_probs_rejects_nonfinite_logits():
    rng = np.random.default_rng(2)
    net = nc.init_network(nc.NetworkSpec(4, (5,), (8, 8)), rng)
    net.head_w[0][0, 0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        coma.policy_probs(net, np.ones((1, 4)), 0.02)


def test_select_actions_matches_probabilities(monkeypatch):
    """Empirical frequencies over 1e5 draws agree with the distribution to
    3.5 sigma. The draws run in ten calls of 1e4 rows, so that the trunk's
    work arrays stay small, and on a work arena of their own, so that the
    rest of the test run does not keep its 31 MB."""
    monkeypatch.setattr(nc, "_ARENA", nc._Arena())
    rng = np.random.default_rng(3)
    policies = coma.make_policy_set(2, 8, rng, coma.TrainConfig())
    obs = np.stack([rng.standard_normal(8), rng.standard_normal(8)])
    eps = 0.05
    expected = np.stack(
        [coma.policy_probs(member(policies.network, i), obs[i][None], eps)[0, 0] for i in range(2)]
    )
    n_draws, chunk = 100_000, 10_000
    u = rng.random((n_draws, 2))
    counts = np.zeros((2, 5), dtype=np.int64)
    for start in range(0, n_draws, chunk):
        acts, probs = coma.select_actions(
            policies, np.broadcast_to(obs, (chunk, 2, 8)), eps, u[start : start + chunk]
        )
        np.testing.assert_array_equal(probs, np.broadcast_to(expected, probs.shape))
        counts += np.stack([np.bincount(acts[:, i], minlength=5) for i in range(2)])
    freq = counts / n_draws
    sigma = np.sqrt(expected * (1 - expected) / n_draws)
    assert np.all(np.abs(freq - expected) < 3.5 * sigma + 1e-12)


def test_select_actions_probs_respect_floor():
    rng = np.random.default_rng(4)
    policies = coma.make_policy_set(3, 10, rng, coma.TrainConfig())
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
    policies = coma.make_policy_set(n_agents, 8, rng, coma.TrainConfig())
    obs = rng.standard_normal((16, n_agents, 8))
    uniforms = rng.random((16, n_agents))
    acts, probs = coma.select_actions(policies, obs, 0.05, uniforms)
    for row in range(16):
        for i in range(n_agents):
            expected = coma.policy_probs(
                member(policies.network, i), obs[row, i][None], 0.05
            )[0, 0]
            np.testing.assert_allclose(probs[row, i], expected, rtol=0, atol=1e-12)
            assert acts[row, i] == sample_one(expected, uniforms[row, i])


@pytest.mark.parametrize("n_agents,reward_mode", [(2, "sparse"), (4, "dense")])
def test_lockstep_rollout_matches_sequential_episodes(n_agents, reward_mode):
    """On frozen parameters, the lockstep rollout draws the actions that
    playing its episodes one after another, step by step and agent by agent,
    draws from the same generators, and sees the same environment."""
    state, cfg = fresh_setup(n_agents, "mcm", 31, reward_mode, episodes_per_update=5)
    world, policies, bank = state.env.config, state.policies, state.bank
    eps = 0.1
    frozen = copy.deepcopy(bank.agents.network)  # the rollout trains bank
    scorer = dataclasses.replace(bank, agents=dataclasses.replace(bank.agents, network=frozen))
    env_rng, action_rng = copy.deepcopy(state.env_rng), copy.deepcopy(state.action_rng)
    buf = coma.rollout_episode(state, eps)
    t_max = world.episode_length
    for episode in range(cfg.episodes_per_update):
        env = nav_env.NavEnv(world)
        obs = env.reset(env_rng)
        np.testing.assert_array_equal(buf.obs[episode, 0], obs)
        for t in range(t_max):
            acts = [
                sample_one(coma.policy_probs(net, obs[i][None], eps)[0, 0], action_rng.random())
                for i, net in enumerate(member(policies.network, n) for n in range(n_agents))
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
        [curiosity.intrinsic_rewards(scorer, *(a[b : b + 1] for a in steps))[0]
         for b in range(len(steps[0]))],
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("n_agents", [2, 4])
def test_one_network_pass_per_role(n_agents, monkeypatch):
    """One whole train_round runs each network's pre-update forward once: the
    policy stack one forward per rollout step for all agents plus one in
    actor_update; the critic one forward per epoch, the first of which also
    gives its targets, plus one in actor_update; and each curiosity role
    (the per-agent stack and the joint module) one forward, which both
    scores and trains it. Every update runs one backward and one Adam step
    per role and epoch."""
    state, cfg = fresh_setup(n_agents, kind="mcm_sep", seed=35)
    policies, critic, bank = state.policies, state.critic, state.bank
    calls = {"forward": [], "backward": [], "adam_step": []}
    for name in calls:
        def counted(*args, _fn=getattr(nc, name), _name=name, **kwargs):
            calls[_name].append(args[0].network if _name == "adam_step" else args[0])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(nc, name, counted)

    def passes_of(net):
        return {name: sum(n is net for n in nets) for name, nets in calls.items()}

    module_losses = record_module_losses(monkeypatch)
    coma.train_round(state)
    (losses,) = module_losses
    assert len(losses) == n_agents + 1
    e = cfg.episodes_per_update
    assert np.array_equal(state.curiosity_loss[:e], np.full(e, np.mean(losses)))
    t_max, epochs = state.env.config.episode_length, cfg.critic_epochs
    assert passes_of(policies.network) == {"forward": t_max + 1, "backward": 1, "adam_step": 1}
    assert passes_of(critic.network) == {
        "forward": epochs + 1, "backward": epochs, "adam_step": epochs
    }
    for role in (bank.agents, bank.joint):
        assert passes_of(role.network) == {"forward": 1, "backward": 1, "adam_step": 1}
    assert len(calls["forward"]) == t_max + 1 + epochs + 1 + 2
    assert len(calls["backward"]) == len(calls["adam_step"]) == 1 + epochs + 2


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
    critic = coma.make_critic(2, 12, rng, coma.TrainConfig())
    assert critic.network.spec.input_dim == coma.critic_input_dim(2, 12)


@pytest.mark.parametrize("rows,n_agents,obs_dim", [(800, 2, 4), (1600, 4, 8), (370, 4, 8)])
def test_critic_q_of_a_row_does_not_depend_on_its_position(rows, n_agents, obs_dim):
    """A critic forward over a permutation of the same rows gives every
    row's Q bit for bit. critic_update trains on a round's rows in one order,
    and actor_update forwards the same array and reorders its Q, so each
    agent's advantages rest on this. 800 rows of 15 and 1,600 of 51 are a
    2- and a 4-agent round's critic batches; 370 is no multiple of a block."""
    rng = np.random.default_rng(rows)
    critic = coma.make_critic(n_agents, obs_dim, rng, coma.TrainConfig())
    x = rng.standard_normal((rows, coma.critic_input_dim(n_agents, obs_dim)))
    perm = rng.permutation(rows)
    (q,), _ = nc.forward(critic.network, x)
    (q_perm,), _ = nc.forward(critic.network, x[perm])
    assert np.array_equal(q_perm[0], q[0][perm])


def critic_q(critic, joint_obs, joint_action, agent):
    """Q-values (1, 5) of one agent's candidate actions at one joint state."""
    x = coma.critic_inputs(joint_obs[None], np.array([joint_action]))
    return nc.forward(critic.network, x[:, agent])[0][0][0]


def test_counterfactual_advantage_against_hand_sum():
    rng = np.random.default_rng(6)
    critic = coma.make_critic(2, 6, rng, coma.TrainConfig())
    joint_obs = rng.standard_normal((2, 6))
    pi = rng.dirichlet(np.ones(5))
    q = critic_q(critic, joint_obs, (1, 3), 0)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([1]))
    hand = q[0, 1] - sum(pi[a] * q[0, a] for a in range(5))
    assert adv.shape == (1,)
    assert adv[0] == pytest.approx(hand, abs=1e-12)


def test_counterfactual_advantage_zero_for_constant_critic():
    rng = np.random.default_rng(7)
    critic = coma.make_critic(2, 6, rng, coma.TrainConfig())
    zero_network(critic.network)
    critic.network.head_b[0][:] = -3.7  # every Q identical
    pi = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    q = critic_q(critic, np.ones((2, 6)), (4, 0), 1)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([0]))
    assert adv[0] == pytest.approx(0.0, abs=1e-12)


def test_counterfactual_advantage_zero_for_deterministic_policy():
    rng = np.random.default_rng(8)
    critic = coma.make_critic(2, 6, rng, coma.TrainConfig())
    pi = np.zeros(5)
    pi[3] = 1.0
    q = critic_q(critic, rng.standard_normal((2, 6)), (3, 2), 0)
    adv = coma.counterfactual_advantages(q, pi[None], np.array([3]))
    assert adv[0] == pytest.approx(0.0, abs=1e-12)


def test_counterfactual_advantage_policy_expectation_is_zero():
    rng = np.random.default_rng(9)
    critic = coma.make_critic(2, 6, rng, coma.TrainConfig())
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


def recurrence_td_lambda(rewards, q_taken, gamma, td_lambda):
    """The lambda-return recursion with (1 - lam) * q taken inside each step."""
    targets = np.empty_like(rewards)
    targets[-1] = rewards[-1]
    for t in range(len(rewards) - 2, -1, -1):
        targets[t] = rewards[t] + gamma * (
            (1.0 - td_lambda) * q_taken[t + 1] + td_lambda * targets[t + 1]
        )
    return targets


@pytest.mark.parametrize("shape", [(50,), (50, 8, 4)], ids=["T", "T_E_N"])
def test_td_lambda_equals_stepwise_recursion_bit_for_bit(shape):
    """Scaling every step's bootstrap by (1 - lam) at once changes no bit."""
    rng = np.random.default_rng(36)
    rewards, q = rng.standard_normal(shape), rng.standard_normal(shape)
    expected = recurrence_td_lambda(rewards, q, 0.95, 0.8)
    assert np.array_equal(coma.td_lambda_targets(rewards, q, 0.95, 0.8), expected)


def test_td_lambda_rejects_length_mismatch():
    with pytest.raises(ValueError):
        coma.td_lambda_targets(np.zeros(5), np.zeros(4), 0.9, 0.5)


# --- rollouts ----------------------------------------------------------------


def test_rollout_shapes_and_bookkeeping():
    state, cfg = fresh_setup(seed=12)
    buf = coma.rollout_episode(state, 0.05)
    world = state.env.config
    e, t_max, d = cfg.episodes_per_update, world.episode_length, world.obs_dim
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
    state, cfg = fresh_setup(kind="none", seed=13)
    buf = coma.rollout_episode(state, 0.05)
    np.testing.assert_array_equal(buf.intrinsic, 0.0)
    np.testing.assert_array_equal(buf.mixed, buf.extrinsic[..., None] * np.ones((1, 1, 2)))


def test_rollout_shared_curiosity_gives_identical_streams():
    """A single joint model scores every agent, so mixed rewards coincide
    exactly and (at lambda=1) so do the critic's regression targets."""
    state, cfg = fresh_setup(kind="icm_joint", seed=14)
    buf = coma.rollout_episode(state, 0.05)
    np.testing.assert_array_equal(buf.mixed[..., 0], buf.mixed[..., 1])
    assert buf.intrinsic.max() > 0.0
    q = np.zeros((state.env.config.episode_length, cfg.episodes_per_update))
    t0 = coma.td_lambda_targets(buf.mixed[..., 0].T, q, cfg.gamma, 1.0)
    t1 = coma.td_lambda_targets(buf.mixed[..., 1].T, q, cfg.gamma, 1.0)
    np.testing.assert_array_equal(t0, t1)


# --- actor surrogate ---------------------------------------------------------


def test_actor_gradient_matches_finite_differences():
    worst = coma.actor_gradient_suite(n_policies=20, seed=0)
    assert worst < 1e-5


@pytest.mark.parametrize("n_agents", [2, 4])
def test_stacked_actor_closure_equals_member_closures(n_agents):
    """The policy stack's loss is the sum of the agents' one-member losses and
    each member's gradients are its one-member gradients, bit for bit: the
    one-member closure that actor_gradient_suite audits is the one
    actor_update trains each agent on."""
    rng = np.random.default_rng(41)
    policies = coma.make_policy_set(n_agents, 6, rng, coma.TrainConfig(hidden_dims=(7, 5)))
    obs = rng.standard_normal((n_agents, 9, 6))
    actions = rng.integers(0, nav_env.N_ACTIONS, (n_agents, 9))
    advantages = rng.standard_normal((n_agents, 9))
    loss, grads_fn = coma.actor_loss_closure(obs, actions, advantages, 0.05, 0.01)(
        policies.network
    )
    grads = grads_fn()
    member_losses = []
    for m in range(n_agents):
        closure = coma.actor_loss_closure(
            obs[m][None], actions[m][None], advantages[m][None], 0.05, 0.01
        )
        member_loss, member_grads_fn = closure(member(policies.network, m))
        member_losses.append(float(member_loss))
        for g, member_g in zip(grads, member_grads_fn()):
            assert np.array_equal(g[m : m + 1], member_g)
    assert loss == np.sum(member_losses)


def test_actor_update_trains_on_the_audited_closure(monkeypatch):
    """actor_update takes its loss and gradients from actor_loss_closure, the
    closure actor_gradient_suite audits, and from nothing else."""
    state, cfg = fresh_setup(2, seed=42)
    policies, critic = state.policies, state.critic
    buf = coma.rollout_episode(state, 0.1)
    closures = []
    actor_loss_closure = coma.actor_loss_closure

    def counted(*args, **kwargs):
        closure = actor_loss_closure(*args, **kwargs)
        closures.append(closure(policies.network)[0])
        return closure

    monkeypatch.setattr(coma, "actor_loss_closure", counted)
    loss = coma.actor_update(policies, critic, buf, cfg, 0.1)
    assert closures == [loss]


@pytest.mark.parametrize("suite", [coma.actor_gradient_suite, coma.critic_gradient_suite])
@pytest.mark.parametrize("n_networks", [0, -1])
def test_empty_gradient_suites_raise(suite, n_networks):
    with pytest.raises(ValueError):
        suite(n_networks)


def test_critic_gradient_matches_finite_differences():
    worst, mutant = coma.critic_gradient_suite(n_critics=20, seed=3)
    assert worst < 1e-6
    assert mutant > 1e-3


def test_critic_loss_closure_matches_hand_formula():
    """Only the taken action's Q enters the loss, so only its output row
    carries a gradient."""
    rng = np.random.default_rng(40)
    net = nc.init_network(nc.NetworkSpec(3, (5,), (6, 6)), rng)
    x = rng.standard_normal((4, 3))
    taken = np.array([0, 4, 4, 2])
    targets = rng.standard_normal(4)
    q = nc.forward(net, x)[0][0][0]
    loss, grads_fn = coma.critic_loss_closure(x, taken, targets)(net)
    hand = sum((q[r, taken[r]] - targets[r]) ** 2 for r in range(4)) / 4
    assert loss.shape == ()
    assert float(loss) == pytest.approx(hand, rel=1e-12)
    head_b_grad = grads_fn()[-1][0, 0]  # summed output gradient per action
    assert np.all(head_b_grad[[1, 3]] == 0.0)
    assert np.all(head_b_grad[[0, 2, 4]] != 0.0)


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
    learner = nc.Learner(net, lr=1e-2)
    obs = rng.standard_normal((1, 4))
    before = coma.policy_probs(net, obs, 0.0)[0, 0, 3]
    for _ in range(50):
        probs = (1.0 - 5 * 0.02) * coma.softmax(nc.forward(net, obs)[0][0]) + 0.02
        _, dl_dz = coma.actor_loss_grads(
            probs, np.array([[3]]), np.array([[1.0]]), 0.02, 0.0
        )
        _, cache = nc.forward(net, obs)
        grads = nc.backward(net, cache, [dl_dz])
        nc.adam_step(learner, grads)
    after = coma.policy_probs(net, obs, 0.0)[0, 0, 3]
    assert after > before
    assert after > 0.9


# --- critic regression -------------------------------------------------------


def test_critic_update_reduces_loss_on_frozen_batch():
    state, cfg = fresh_setup(seed=16, episodes_per_update=4)
    buf = coma.rollout_episode(state, 0.1)
    first = coma.critic_update(state.critic, buf, cfg)
    losses = [coma.critic_update(state.critic, buf, cfg) for _ in range(30)]
    assert losses[-1] < first
    assert losses[-1] < 0.5 * first


def test_critic_targets_use_pre_update_bootstrap():
    """Targets are computed once from the pre-update critic, then held fixed
    across the epochs of one update call."""
    state, cfg = fresh_setup(seed=17, episodes_per_update=2)
    critic = state.critic
    buf = coma.rollout_episode(state, 0.1)
    x, taken, targets, _ = coma._critic_batch(critic, buf, cfg)
    t_max = state.env.config.episode_length
    assert x.shape[0] == 2 * t_max * 2
    # the round's one (E, N, T, in) array of critic rows, not a copy of it
    assert buf.critic_rows.flags.c_contiguous and np.shares_memory(x, buf.critic_rows)
    assert taken.shape == targets.shape == (x.shape[0],)
    # recompute by hand for every (episode, agent) stream; rows run episode
    # by episode, agent by agent, step by step
    for episode in range(2):
        for agent in range(2):
            q_taken = []
            for t in range(t_max):
                joint_action = buf.actions[episode, t]
                x_t = coma.critic_inputs(buf.obs[episode, t][None], joint_action[None])
                q = nc.forward(critic.network, x_t[0, agent][None])[0][0][0, 0]
                q_taken.append(q[joint_action[agent]])
            expected = coma.td_lambda_targets(
                buf.mixed[episode, :, agent], np.array(q_taken), cfg.gamma, cfg.td_lambda
            )
            start = (episode * 2 + agent) * t_max
            np.testing.assert_allclose(
                targets[start : start + t_max], expected, rtol=1e-10
            )


# --- full training rounds ----------------------------------------------------


def reference_round(state):
    """train_round as a sequence of separate passes: env rewards scored step
    by step, a scoring forward of the bank before the critic and actor
    updates, the critic's targets from a forward of their own in (episode,
    step, agent) row order, the bank's update on a fresh forward last, and
    the per-episode values written one episode at a time."""
    policies, critic, env, bank = state.policies, state.critic, state.env, state.bank
    cfg, epsilon = state.cfg, coma.epsilon_at(state)
    e = min(cfg.episodes_per_update, len(state.normalized) - state.episodes)
    t_max, n = env.config.episode_length, policies.network.members
    first_obs = env.reset(state.env_rng, e)
    uniforms = state.action_rng.random((e, t_max, n))
    obs = np.empty((e, t_max + 1, *first_obs.shape[1:]))
    obs[:, 0] = first_obs
    actions = np.empty((e, t_max, n), dtype=int)
    probs = np.empty((e, t_max, n, nav_env.N_ACTIONS))
    extrinsic = np.empty((e, t_max))
    success = np.empty((e, t_max), dtype=bool)
    for t in range(t_max):
        actions[:, t], probs[:, t] = coma.select_actions(
            policies, obs[:, t], epsilon, uniforms[:, t]
        )
        result = env.step(actions[:, t])
        obs[:, t + 1] = result.next_joint_obs
        extrinsic[:, t] = result.extrinsic_reward
        success[:, t] = result.success
    steps = (
        obs[:, :-1].reshape(e * t_max, n, -1),
        actions.reshape(e * t_max, n),
        obs[:, 1:].reshape(e * t_max, n, -1),
    )
    intrinsic = curiosity.intrinsic_rewards(bank, *steps).reshape(e, t_max, n)
    mixed = curiosity.mix_rewards(
        extrinsic[..., None], intrinsic, cfg.intrinsic_lambda, cfg.intrinsic_clip
    )
    buf = coma.RolloutBuffer(obs, actions, probs, extrinsic, success, intrinsic, mixed, [])

    x = coma.critic_inputs(steps[0], steps[1])  # (E*T, N, in)
    q = nc.forward(critic.network, x.reshape(e * t_max * n, -1))[0][0]
    q_taken = np.take_along_axis(q.reshape(e, t_max, n, -1), actions[..., None], axis=3)[..., 0]
    targets = coma.td_lambda_targets(
        mixed.transpose(1, 0, 2), q_taken.transpose(1, 0, 2), cfg.gamma, cfg.td_lambda
    )
    closure = coma.critic_loss_closure(
        x.reshape(e, t_max, n, -1).transpose(0, 2, 1, 3).reshape(e * n * t_max, -1),
        actions.transpose(0, 2, 1).reshape(-1),
        targets.transpose(1, 2, 0).reshape(-1),
    )
    critic_losses = []
    for _ in range(cfg.critic_epochs):
        loss, grads_fn = closure(critic.network)
        nc.adam_step(critic, grads_fn())
        critic_losses.append(loss)
    actor_loss = coma.actor_update(policies, critic, buf, cfg, epsilon)

    curiosity_losses = []
    for learner, xs, extras, heads in curiosity._module_batches(bank, *steps):
        member_losses, _, grads_fn = curiosity.module_loss_closure(xs, extras, heads)(
            learner.network
        )
        nc.adam_step(learner, grads_fn())
        curiosity_losses.extend(member_losses.tolist())
    round_loss = float(np.mean(curiosity_losses)) if curiosity_losses else 0.0
    for k in range(e):
        slot = state.episodes + k
        state.normalized[slot] = int(success[k].sum()) / t_max
        state.extrinsic[slot] = extrinsic[k].sum()
        state.mean_intrinsic[slot] = intrinsic[k].mean()
        state.curiosity_loss[slot] = round_loss
    state.episodes += e
    return coma.RoundStats(critic_loss=float(critic_losses[0]), actor_loss=actor_loss)


def trained_state(state):
    """Every parameter and Adam moment of every network, with step counts,
    and the state's per-episode arrays and episode count."""
    arrays, counts = [], [state.episodes]
    for learner in (state.policies, state.critic, state.bank.agents, state.bank.joint):
        if learner is not None:
            arrays += [*learner.network.parameters(), *learner.m, *learner.v]
            counts.append(learner.step_count)
    arrays += [state.normalized, state.extrinsic, state.mean_intrinsic, state.curiosity_loss]
    return arrays, counts


@pytest.mark.parametrize("kind", ["none", "mcm", "icm_joint", "icm_min"])
@pytest.mark.parametrize("n_agents", [2, 4])
@pytest.mark.parametrize("reward_mode", ["sparse", "dense"])
def test_train_round_equals_separate_passes_bit_for_bit(kind, n_agents, reward_mode):
    """Scoring rewards after the rollout and sharing each network's
    pre-update forward change no bit of a round: its stats, parameters,
    Adam moments and per-episode values equal those of the separate passes.
    This holds because a row's Q does not depend on the row's position in
    the critic's batch."""
    run = run_config(n_agents, kind, 60, reward_mode, episodes_per_update=4, total_episodes=64)
    runs = []
    for play in (coma.train_round, reference_round):
        state = coma.init_state(run)
        stats = [play(state) for _ in range(2)]
        runs.append((stats, trained_state(state)))
    (stats, (arrays, counts)), (ref_stats, (ref_arrays, ref_counts)) = runs
    assert stats == ref_stats
    assert counts == ref_counts
    assert len(arrays) == len(ref_arrays)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays))


def test_two_rounds_fill_a_twelve_episode_budget(tmp_path):
    """With 12 episodes at 8 per round, the first round fills slots 0-7 and
    leaves 8-11 empty, and the second plays the 4 left. The filled arrays
    are the ones run_experiment writes its CSV from, bit for bit. A third
    round, with no episode left, raises and plays nothing."""
    run = run_config(2, "mcm", 5, episodes_per_update=8, total_episodes=12)
    names = ("normalized", "extrinsic", "mean_intrinsic", "curiosity_loss")
    state = coma.init_state(run)
    coma.train_round(state)
    assert state.episodes == 8
    assert not any(getattr(state, name)[8:].any() for name in names)
    coma.train_round(state)
    assert state.episodes == 12
    result = harness.run_experiment(run, str(tmp_path))
    for name in names:
        assert getattr(state, name).shape == (12,)
        assert np.array_equal(getattr(state, name), getattr(result, name)), name
    assert state.mean_intrinsic.all() and state.curiosity_loss.all()
    with pytest.raises(ValueError, match="all 12 episodes"):
        coma.train_round(state)
    assert state.episodes == 12


def test_state_keeps_the_resolved_config():
    """A state keeps the TrainConfig it was built from, with total_episodes
    resolved to the length of its arrays; every other setting is the run's."""
    run = run_config(2, "none", 4, critic_epochs=3)
    state = coma.init_state(run)
    assert run.train.total_episodes == 0
    assert state.cfg.total_episodes == len(state.normalized) == 30_000
    assert state.cfg == dataclasses.replace(run.train, total_episodes=30_000)


def test_init_state_builds_every_network_from_its_train_config():
    """The policies, the critic, mcm_sep's per-agent stack and its joint
    module all take the config's trunk sizes and slope, and each its own
    learning rate."""
    run = run_config(
        2, "mcm_sep", 0, hidden_dims=(7, 5), leaky_slope=0.02,
        actor_lr=2e-3, critic_lr=3e-3, curiosity_lr=4e-3,
    )
    state = coma.init_state(run)
    learners = [
        (state.policies, 2e-3), (state.critic, 3e-3),
        (state.bank.agents, 4e-3), (state.bank.joint, 4e-3),
    ]
    for learner, lr in learners:
        net = learner.network
        assert learner.lr == lr
        assert net.spec.hidden_dims == (7, 5) and net.spec.leaky_slope == 0.02
        assert [w.shape[1] for w in net.trunk_w] == [7, 5]


@pytest.mark.parametrize(
    "field,value,key",
    [
        ("intrinsic_lambda", -0.1, "lambda"),
        ("intrinsic_clip", 0.0, "clip_max"),
        ("intrinsic_lambda", np.float32("nan"), "lambda"),
    ],
)
def test_init_state_checks_a_run_config_built_in_code(field, value, key):
    """A state is never built from an unchecked config: init_state runs the
    config's own validate, whose message names the config-file key. A float
    field is checked as a float whatever the value's type, so a NaN given
    as an np.float32, which is no Python float, is rejected too."""
    with pytest.raises(nav_env.ConfigurationError, match=f"^{key}: "):
        coma.init_state(run_config(2, "mcm", 0, **{field: value}))


def test_unresolved_budget_trains_as_the_resolved_one_bit_for_bit():
    """A state built from a run config whose total_episodes is 0 holds the
    agent-count default budget, and epsilon anneals over that budget: two
    rounds of it equal two rounds of a state built from the resolved
    config, bit for bit."""
    run = run_config(2, "none", 4)
    resolved = dataclasses.replace(
        run, train=dataclasses.replace(run.train, total_episodes=run.resolved_total_episodes)
    )
    runs = []
    for built_from in (run, resolved):
        state = coma.init_state(built_from)
        stats = [coma.train_round(state) for _ in range(2)]
        runs.append((stats, trained_state(state)))
    (stats, (arrays, counts)), (ref_stats, (ref_arrays, ref_counts)) = runs
    assert run.train.total_episodes == 0 and len(state.normalized) == 30_000
    assert stats == ref_stats
    assert counts == ref_counts
    assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays))


@pytest.mark.parametrize("kind", ["none", "mcm", "icm_min", "mcm_sep"])
def test_states_trained_in_turn_equal_states_trained_alone(kind, tmp_path, monkeypatch):
    """Every network's passes take their work arrays from one process-wide
    arena, and no run sees another's: two states of different seeds,
    trained round by round in turn, each equal that state trained alone,
    bit for bit. A run made after the gradient audits have grown the arena
    writes the CSV bytes of the same run made before them on a fresh one."""
    monkeypatch.setattr(nc, "_ARENA", nc._Arena())
    # small enough that the audit of nc.gradient_suite grows the arena
    small = run_config(2, kind, 70, episodes_per_update=4, total_episodes=12, hidden_dims=(8, 8))
    harness.run_experiment(small, str(tmp_path / "before"))
    held = nc._ARENA.floats.size
    nc.gradient_suite()
    assert nc._ARENA.floats.size > held
    harness.run_experiment(small, str(tmp_path / "after"))
    name = harness.run_id(small) + ".csv"
    csvs = [(tmp_path / run / name).read_bytes() for run in ("before", "after")]
    assert csvs[0] == csvs[1]

    runs = [run_config(2, kind, seed, episodes_per_update=4, total_episodes=12) for seed in (70, 71)]
    alone = []
    for run in runs:
        state = coma.init_state(run)
        alone.append(([coma.train_round(state) for _ in range(3)], trained_state(state)))
    states = [coma.init_state(run) for run in runs]
    stats = [[], []]
    for _ in range(3):
        for k, state in enumerate(states):
            stats[k].append(coma.train_round(state))
    for k, state in enumerate(states):
        (ref_stats, (ref_arrays, ref_counts)), (arrays, counts) = alone[k], trained_state(state)
        assert stats[k] == ref_stats
        assert counts == ref_counts
        assert len(arrays) == len(ref_arrays)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays))


def test_work_arena_holds_the_largest_pass_of_a_round(monkeypatch):
    """After one round of a 4-agent `none` state, the arena holds exactly
    the critic's pass: 8 episodes x 4 agents x 50 steps of rows, times an
    activation per 64-wide layer and a 64-wide scratch. Later rounds, and
    the rounds of a second state, reuse that one array."""
    monkeypatch.setattr(nc, "_ARENA", nc._Arena())
    state, cfg = fresh_setup(4, "none", 3)
    assert (cfg.episodes_per_update, state.env.config.episode_length) == (8, 50)
    assert cfg.hidden_dims == (64, 64)
    coma.train_round(state)
    arena = nc._ARENA.floats
    assert arena.size == (8 * 4 * 50) * (64 + 64 + 64)
    second, _ = fresh_setup(4, "none", 4)
    for _ in range(4):
        coma.train_round(state)
        coma.train_round(second)
        assert nc._ARENA.floats is arena


def test_train_round_stats_and_determinism():
    results = []
    for _ in range(2):
        state, cfg = fresh_setup(seed=18, total_episodes=64)
        stats = None
        while state.episodes < 32:
            stats = coma.train_round(state)
        results.append(
            (
                [w.copy() for w in member(state.policies.network, 0).parameters()],
                state.extrinsic.tolist(),
                stats.critic_loss,
            )
        )
    for a, b in zip(results[0][0], results[1][0]):
        np.testing.assert_array_equal(a, b)
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]


def test_train_round_reports_per_episode_scalars(monkeypatch):
    state, cfg = fresh_setup(kind="mcm", seed=19)
    module_losses = record_module_losses(monkeypatch)
    stats = coma.train_round(state)
    e = cfg.episodes_per_update
    assert state.episodes == e
    assert all(np.isfinite(a[:e]).all() for a in (state.extrinsic, state.normalized))
    assert np.all(state.mean_intrinsic[:e] > 0)
    (losses,) = module_losses
    assert len(losses) == state.policies.network.members
    assert np.array_equal(state.curiosity_loss[:e], np.full(e, np.mean(losses)))
    assert np.isfinite(stats.critic_loss)
    assert np.isfinite(stats.actor_loss)


def test_train_round_without_curiosity_skips_bank(monkeypatch):
    state, cfg = fresh_setup(kind="none", seed=22)
    module_losses = record_module_losses(monkeypatch)
    coma.train_round(state)
    assert module_losses == [[]]
    e = cfg.episodes_per_update
    assert np.array_equal(state.curiosity_loss[:e], np.zeros(e))
    assert np.array_equal(state.mean_intrinsic[:e], np.zeros(e))
    assert state.bank.agents is None and state.bank.joint is None


def test_policies_stay_valid_distributions_after_training():
    state, cfg = fresh_setup(kind="mcm_sep", seed=25)
    for _ in range(4):
        coma.train_round(state)
    obs = state.env.reset(state.env_rng)
    eps = coma.epsilon_at(state)
    for i in range(2):
        p = coma.policy_probs(member(state.policies.network, i), obs[i][None], eps)
        assert np.all(p >= eps - 1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_mixing_weight_zero_leaves_policy_trajectory_unchanged():
    """With the intrinsic weight at zero, a curious run and a plain run make
    bit-identical action choices (the curiosity stream only adds observers)."""
    trajectories = []
    for kind in ("none", "mcm"):
        state, cfg = fresh_setup(kind=kind, seed=314, total_episodes=48, intrinsic_lambda=0.0)
        critic_losses = []
        while state.episodes < 48:
            critic_losses.append(coma.train_round(state).critic_loss)
        params = [p.copy() for p in member(state.policies.network, 0).parameters()]
        trajectories.append(
            (state.extrinsic.tolist(), state.normalized.tolist(), critic_losses, params)
        )
    (*acts_a, params_a), (*acts_b, params_b) = trajectories
    assert acts_a == acts_b
    for a, b in zip(params_a, params_b):
        np.testing.assert_array_equal(a, b)
