"""Curiosity tests: losses and intrinsic rewards vs scalar-loop oracles,
roster architecture, reward mixing."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import coma
from curiosity_marl import curiosity as cur
from curiosity_marl import neural_core as nc
from curiosity_marl.curiosity import CuriosityKind
from curiosity_marl.nav_env import N_ACTIONS
from member_copies import member

HIDDEN = (8, 8)


def random_batch(rng, b, n_agents=2, obs_dim=4):
    """Stacked transitions: obs (B, N, d), actions (B, N), next_obs (B, N, d)."""
    obs = rng.standard_normal((b, n_agents, obs_dim))
    actions = rng.integers(0, N_ACTIONS, (b, n_agents))
    next_obs = rng.standard_normal((b, n_agents, obs_dim))
    return obs, actions, next_obs


def rows(batch):
    """The transitions of a stacked batch one at a time, as (obs, actions, next_obs)."""
    return zip(*batch)


def bank_of(kind, seed, n_agents=2, obs_dim=4, lr=1e-3):
    cfg = coma.TrainConfig(hidden_dims=HIDDEN, curiosity_lr=lr)
    return cur.make_bank(kind, n_agents, obs_dim, np.random.default_rng(seed), cfg)


def modules(bank):
    """Every module of the bank as a one-member network, in roster order:
    copies of the per-agent stack's members by agent, then the joint module."""
    stack = bank.agents
    agents = [] if stack is None else [member(stack.network, a) for a in range(bank.n_agents)]
    return agents + ([] if bank.joint is None else [bank.joint.network])


def scalar_sq_err(pred, target):
    """Component-loop squared error, deliberately free of numpy reductions."""
    total = 0.0
    for a, b in zip(np.asarray(pred).ravel(), np.asarray(target).ravel()):
        total += (a - b) ** 2
    return total


def joint_oracle_input(obs, actions):
    """Joint observation then every agent's one-hot action, ascending order,
    as one row."""
    return np.concatenate([obs.ravel(), *(cur.one_hot_action(int(a)) for a in actions)])[None]


def indiv_oracle_input(obs, actions, agent):
    return np.concatenate([obs[agent], cur.one_hot_action(int(actions[agent]))])[None]


def two_headed_oracle(bank, obs, actions, next_obs, agent):
    """Recompute one agent's two-headed prediction errors from first principles."""
    o_n = obs[agent]
    u_n = cur.one_hot_action(int(actions[agent]))
    others = [m for m in range(bank.n_agents) if m != agent]
    o_others = np.concatenate([obs[m] for m in others])
    u_others = np.concatenate([cur.one_hot_action(int(actions[m])) for m in others])
    trunk_in = np.concatenate([o_n, u_n])
    extra = np.concatenate([o_others, u_others])
    pred_own, pred_joint = nc.forward(
        member(bank.agents.network, agent), trunk_in[None], [None, extra[None]]
    )[0]
    own_err = scalar_sq_err(pred_own, next_obs[agent])
    joint_err = scalar_sq_err(pred_joint, next_obs.ravel())
    return own_err, joint_err


def per_row_oracle(bank, obs, actions, next_obs):
    """One transition's per-agent intrinsic rewards, every module run on one
    row (a one-row input) and every error summed component by component."""
    n = bank.n_agents
    kind = bank.kind
    if kind is CuriosityKind.NONE:
        return np.zeros(n)

    def indiv_err(module, agent):
        pred = nc.forward(module, indiv_oracle_input(obs, actions, agent))[0][0]
        return scalar_sq_err(pred, next_obs[agent])

    if cur.METHODS[kind][0] == 2:
        errs = [two_headed_oracle(bank, obs, actions, next_obs, a) for a in range(n)]
        pick = {
            CuriosityKind.MCM: lambda own, joint: own + joint,
            CuriosityKind.MCM_INDIV: lambda own, joint: own,
            CuriosityKind.MCM_JOINT: lambda own, joint: joint,
        }[kind]
        return np.array([pick(own, joint) for own, joint in errs])
    if kind is CuriosityKind.ICM_INDIV:
        return np.array([indiv_err(member(bank.agents.network, a), a) for a in range(n)])
    if kind is CuriosityKind.ICM_MIN:
        return np.array([min(indiv_err(m, a) for m in modules(bank)) for a in range(n)])
    joint_pred = nc.forward(bank.joint.network, joint_oracle_input(obs, actions))[0][0]
    joint_err = scalar_sq_err(joint_pred, next_obs.ravel())
    if kind is CuriosityKind.ICM_JOINT:
        return np.full(n, joint_err)
    return np.array([indiv_err(member(bank.agents.network, a), a) + joint_err for a in range(n)])


class TestRoster:
    @pytest.mark.parametrize(
        "kind,n_modules,n_heads_each",
        [
            ("icm_indiv", 2, [1, 1]),
            ("icm_joint", 1, [1]),
            ("icm_min", 2, [1, 1]),
            ("mcm", 2, [2, 2]),
            ("mcm_indiv", 2, [2, 2]),
            ("mcm_joint", 2, [2, 2]),
            ("mcm_sep", 3, [1, 1, 1]),
        ],
    )
    def test_module_counts(self, kind, n_modules, n_heads_each):
        bank = bank_of(kind, 0)
        assert len(modules(bank)) == n_modules
        assert [m.spec.n_heads for m in modules(bank)] == n_heads_each

    def test_none_has_no_modules(self):
        bank = bank_of("none", 0)
        assert modules(bank) == []
        batch = random_batch(np.random.default_rng(0), 3)
        np.testing.assert_array_equal(cur.intrinsic_rewards(bank, *batch), np.zeros((3, 2)))

    def test_two_headed_wiring(self):
        """Other agents' inputs feed only the joint head, after the trunk."""
        bank = bank_of("mcm", 1)
        spec = bank.agents.network.spec
        obs_dim, n = 4, bank.n_agents
        assert spec.input_dim == obs_dim + N_ACTIONS
        assert spec.output_dims == (obs_dim, n * obs_dim)
        assert spec.head_extra_input_dims == (0, (n - 1) * (obs_dim + N_ACTIONS))

    def test_four_agent_bank(self):
        bank = bank_of("mcm_sep", 0, n_agents=4, obs_dim=8)
        assert len(modules(bank)) == 5
        joint = bank.joint.network
        assert joint.spec.input_dim == 4 * (8 + N_ACTIONS)
        assert joint.spec.output_dims == (4 * 8,)


class TestIntrinsicOracles:
    def test_two_headed_reward_formula(self):
        """Intrinsic reward is the unhalved sum of both head errors."""
        rng = np.random.default_rng(42)
        bank = bank_of("mcm", 7)
        batch = random_batch(rng, 20)
        rewards = cur.intrinsic_rewards(bank, *batch)
        for reward, row in zip(rewards, rows(batch)):
            for agent in range(2):
                own, joint = two_headed_oracle(bank, *row, agent)
                assert reward[agent] == pytest.approx(own + joint, abs=1e-12)

    def test_head_ablations(self):
        rng = np.random.default_rng(43)
        banks = {k: bank_of(k, 11) for k in ("mcm", "mcm_indiv", "mcm_joint")}
        batch = random_batch(rng, 20)
        full = cur.intrinsic_rewards(banks["mcm"], *batch)
        indiv = cur.intrinsic_rewards(banks["mcm_indiv"], *batch)
        joint = cur.intrinsic_rewards(banks["mcm_joint"], *batch)
        np.testing.assert_allclose(full, indiv + joint, atol=1e-12)

    def test_icm_indiv_oracle(self):
        rng = np.random.default_rng(44)
        bank = bank_of("icm_indiv", 3)
        batch = random_batch(rng, 10)
        rewards = cur.intrinsic_rewards(bank, *batch)
        for reward, (obs, actions, next_obs) in zip(rewards, rows(batch)):
            for agent in range(2):
                x = indiv_oracle_input(obs, actions, agent)
                pred = nc.forward(member(bank.agents.network, agent), x)[0][0]
                assert reward[agent] == pytest.approx(
                    scalar_sq_err(pred, next_obs[agent]), abs=1e-12
                )

    def test_icm_joint_shared_scalar(self):
        rng = np.random.default_rng(45)
        bank = bank_of("icm_joint", 4, n_agents=4, obs_dim=6)
        batch = random_batch(rng, 10, n_agents=4, obs_dim=6)
        rewards = cur.intrinsic_rewards(bank, *batch)
        for reward, (obs, actions, next_obs) in zip(rewards, rows(batch)):
            assert np.all(reward == reward[0])
            pred = nc.forward(bank.joint.network, joint_oracle_input(obs, actions))[0][0]
            assert reward[0] == pytest.approx(
                scalar_sq_err(pred, next_obs.ravel()), abs=1e-12
            )

    def test_icm_min_cross_evaluation(self):
        """Each agent gets the smallest error among every agent's model
        scored on its own transition."""
        rng = np.random.default_rng(46)
        bank = bank_of("icm_min", 5, n_agents=3, obs_dim=4)
        batch = random_batch(rng, 10, n_agents=3, obs_dim=4)
        rewards = cur.intrinsic_rewards(bank, *batch)
        for reward, (obs, actions, next_obs) in zip(rewards, rows(batch)):
            for agent in range(3):
                x = indiv_oracle_input(obs, actions, agent)
                errors = [
                    scalar_sq_err(nc.forward(m, x)[0][0], next_obs[agent])
                    for m in modules(bank)
                ]
                assert reward[agent] == pytest.approx(min(errors), abs=1e-12)

    def test_mcm_sep_adds_separate_joint_error(self):
        rng = np.random.default_rng(47)
        bank = bank_of("mcm_sep", 6)
        batch = random_batch(rng, 10)
        rewards = cur.intrinsic_rewards(bank, *batch)
        for reward, (obs, actions, next_obs) in zip(rewards, rows(batch)):
            joint_pred = nc.forward(bank.joint.network, joint_oracle_input(obs, actions))[0][0]
            joint_err = scalar_sq_err(joint_pred, next_obs.ravel())
            for agent in range(2):
                x = indiv_oracle_input(obs, actions, agent)
                own_err = scalar_sq_err(
                    nc.forward(member(bank.agents.network, agent), x)[0][0], next_obs[agent]
                )
                assert reward[agent] == pytest.approx(own_err + joint_err, abs=1e-12)

    @pytest.mark.parametrize("kind", [k for k in CuriosityKind if k is not CuriosityKind.NONE])
    def test_one_forward_per_role(self, kind, monkeypatch):
        """Scoring runs each role once over the whole batch; icm_min's stack
        scores every agent's transitions with every member in that one pass.
        curiosity_update scores and trains on one forward per role, and
        icm_min adds only its cross-scoring forward, ahead of the update."""
        bank = bank_of(kind, 10, n_agents=4)
        nets = []
        forward = nc.forward

        def counted(net, *args, **kwargs):
            nets.append(net)
            return forward(net, *args, **kwargs)

        monkeypatch.setattr(nc, "forward", counted)
        batch = random_batch(np.random.default_rng(53), 6, n_agents=4)
        cur.intrinsic_rewards(bank, *batch)
        roles = [role.network for role in (bank.agents, bank.joint) if role is not None]
        assert list(map(id, nets)) == list(map(id, roles))
        nets.clear()
        cur.curiosity_update(bank, *batch)
        expected = (roles[:1] if kind is CuriosityKind.ICM_MIN else []) + roles
        assert list(map(id, nets)) == list(map(id, expected))

    @pytest.mark.parametrize("kind", [k.value for k in CuriosityKind])
    @pytest.mark.parametrize("n_agents", [2, 4])
    def test_update_returns_the_pre_update_rewards(self, kind, n_agents):
        """The rewards curiosity_update scores on its training forward are, bit
        for bit, the ones intrinsic_rewards gives before the update."""
        bank = bank_of(kind, 12, n_agents=n_agents)
        batch = random_batch(np.random.default_rng(55), 7, n_agents=n_agents)
        expected = cur.intrinsic_rewards(bank, *batch)
        rewards, losses = cur.curiosity_update(bank, *batch)
        assert np.array_equal(rewards, expected) and rewards.flags.c_contiguous
        assert len(losses) == len(modules(bank))
        assert kind == "none" or not np.array_equal(cur.intrinsic_rewards(bank, *batch), expected)

    def test_rewards_nonnegative(self):
        rng = np.random.default_rng(48)
        for kind in CuriosityKind:
            bank = bank_of(kind, 8)
            assert np.all(cur.intrinsic_rewards(bank, *random_batch(rng, 5)) >= 0.0)

    @pytest.mark.parametrize("kind", [k.value for k in CuriosityKind])
    def test_rewards_share_one_layout(self, kind):
        """Every kind returns C-contiguous (B, N) rewards, so a mean over them
        sums in one memory order whatever the method."""
        bank = bank_of(kind, 11, n_agents=4)
        rewards = cur.intrinsic_rewards(bank, *random_batch(np.random.default_rng(54), 6, 4))
        assert rewards.shape == (6, 4) and rewards.flags.c_contiguous

    @pytest.mark.parametrize("kind", [k.value for k in CuriosityKind])
    @pytest.mark.parametrize("n_agents", [2, 4])
    def test_batched_rewards_match_per_row_oracle(self, kind, n_agents):
        """One forward per module over a whole batch scores every transition
        as the per-row oracle does, for every method."""
        rng = np.random.default_rng(49)
        bank = bank_of(kind, 9, n_agents=n_agents, obs_dim=6)
        batch = random_batch(rng, 40, n_agents=n_agents, obs_dim=6)
        rewards = cur.intrinsic_rewards(bank, *batch)
        assert rewards.shape == (40, n_agents)
        expected = np.array([per_row_oracle(bank, *row) for row in rows(batch)])
        np.testing.assert_allclose(rewards, expected, rtol=0, atol=1e-12)


class TestLossOracles:
    def test_two_headed_loss_is_half_reward(self):
        """Training loss halves the error sum that the reward leaves unhalved."""
        bank = bank_of("mcm", 13)
        batch = random_batch(np.random.default_rng(50), 1)
        rewards = cur.intrinsic_rewards(bank, *batch)[0]
        _, losses = cur.curiosity_update(bank, *batch)  # pre-update losses
        for agent in range(2):
            assert losses[agent] == pytest.approx(0.5 * rewards[agent], abs=1e-12)

    def test_one_headed_loss_matches_scalar_loop(self):
        bank = bank_of("icm_indiv", 14)
        rng = np.random.default_rng(51)
        batch = random_batch(rng, 6)
        frozen = [copy.deepcopy(m) for m in modules(bank)]
        _, losses = cur.curiosity_update(bank, *batch)
        for agent in range(2):
            manual = 0.0
            for obs, actions, next_obs in rows(batch):
                x = indiv_oracle_input(obs, actions, agent)
                pred = nc.forward(frozen[agent], x)[0][0]
                manual += scalar_sq_err(pred, next_obs[agent])
            assert losses[agent] == pytest.approx(manual / 6, abs=1e-10)

    def test_update_reduces_loss_on_fixed_batch(self):
        bank = bank_of("mcm", 15, lr=1e-2)
        batch = random_batch(np.random.default_rng(52), 4)
        _, first = cur.curiosity_update(bank, *batch)
        for _ in range(100):
            _, last = cur.curiosity_update(bank, *batch)
        assert sum(last) < 0.2 * sum(first)

    def test_gradients_match_finite_differences(self):
        worst, mutant = cur.curiosity_gradient_suite(n_modules=20, seed=5)
        assert worst < 1e-6
        assert mutant > 1e-3

    @pytest.mark.parametrize("n_modules", [0, -1])
    def test_empty_gradient_suite_raises(self, n_modules):
        with pytest.raises(ValueError):
            cur.curiosity_gradient_suite(n_modules)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            cur.curiosity_update(bank_of("mcm", 0), *random_batch(np.random.default_rng(0), 0))


class TestMixing:
    def test_reference_point(self):
        mixed = cur.mix_rewards(0.0, np.array([5.0, 5.0]), 0.05, 1.0)
        np.testing.assert_array_equal(mixed, [0.05, 0.05])

    def test_clip_before_scale(self):
        mixed = cur.mix_rewards(1.0, np.array([0.5, 100.0]), 0.1, 2.0)
        np.testing.assert_allclose(mixed, [1.05, 1.2], atol=1e-15)

    def test_lambda_zero_is_exactly_extrinsic(self):
        i = np.array([3.7, 1e9, 0.0])
        np.testing.assert_array_equal(cur.mix_rewards(-2.5, i, 0.0, 1.0), [-2.5] * 3)

    @given(
        e=st.floats(-10, 10),
        i=st.floats(0, 100),
        lam=st.floats(0, 1),
        clip=st.floats(0.1, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixing_bounds(self, e, i, lam, clip):
        mixed = cur.mix_rewards(e, np.array([i]), lam, clip)[0]
        assert e <= mixed <= e + lam * clip + 1e-12
