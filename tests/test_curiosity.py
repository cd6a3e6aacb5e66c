"""Curiosity tests: losses and intrinsic rewards vs scalar-loop oracles,
roster architecture, reward mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import curiosity as cur
from curiosity_marl import neural_core as nc
from curiosity_marl.curiosity import CuriosityKind, Transition
from curiosity_marl.nav_env import N_ACTIONS

HIDDEN = (8, 8)


def random_transitions(rng, n, n_agents=2, obs_dim=4):
    out = []
    for _ in range(n):
        out.append(
            Transition(
                joint_obs=rng.standard_normal((n_agents, obs_dim)),
                joint_action=tuple(int(a) for a in rng.integers(0, N_ACTIONS, n_agents)),
                extrinsic_reward=float(rng.standard_normal()),
                next_joint_obs=rng.standard_normal((n_agents, obs_dim)),
                done=False,
            )
        )
    return out


def bank_of(kind, seed, n_agents=2, obs_dim=4, lr=1e-3):
    return cur.make_bank(
        kind, n_agents, obs_dim, np.random.default_rng(seed), hidden_dims=HIDDEN, lr=lr
    )


def scalar_sq_err(pred, target):
    """Component-loop squared error, deliberately free of numpy reductions."""
    total = 0.0
    for a, b in zip(np.asarray(pred).ravel(), np.asarray(target).ravel()):
        total += (a - b) ** 2
    return total


def joint_oracle_input(t):
    """Joint observation then every agent's one-hot action, ascending order."""
    actions = [cur.one_hot_action(a) for a in t.joint_action]
    return np.concatenate([t.joint_obs.ravel(), *actions])


def two_headed_oracle(bank, t, agent):
    """Recompute one agent's two-headed prediction errors from first principles."""
    o_n = t.joint_obs[agent]
    u_n = cur.one_hot_action(t.joint_action[agent])
    others = [m for m in range(bank.n_agents) if m != agent]
    o_others = np.concatenate([t.joint_obs[m] for m in others])
    u_others = np.concatenate([cur.one_hot_action(t.joint_action[m]) for m in others])
    pred_own, pred_joint = cur.mcm_forward(bank.modules[agent], o_n, u_n, o_others, u_others)
    own_err = scalar_sq_err(pred_own, t.next_joint_obs[agent])
    joint_err = scalar_sq_err(pred_joint, t.next_joint_obs.ravel())
    return own_err, joint_err


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
        assert len(bank.modules) == n_modules
        assert [m.spec.n_heads for m in bank.modules] == n_heads_each

    def test_none_has_no_modules(self):
        bank = bank_of("none", 0)
        assert bank.modules == []
        t = random_transitions(np.random.default_rng(0), 1)[0]
        np.testing.assert_array_equal(cur.intrinsic_rewards(bank, t), [0.0, 0.0])

    def test_two_headed_wiring(self):
        """Other agents' inputs feed only the joint head, after the trunk."""
        bank = bank_of("mcm", 1)
        spec = bank.modules[0].spec
        obs_dim, n = bank.obs_dim, bank.n_agents
        assert spec.input_dim == obs_dim + N_ACTIONS
        assert spec.output_dims == (obs_dim, n * obs_dim)
        assert spec.head_extra_input_dims == (0, (n - 1) * (obs_dim + N_ACTIONS))

    def test_four_agent_bank(self):
        bank = bank_of("mcm_sep", 0, n_agents=4, obs_dim=8)
        assert len(bank.modules) == 5
        joint = bank.modules[-1]
        assert joint.spec.input_dim == 4 * (8 + N_ACTIONS)
        assert joint.spec.output_dims == (4 * 8,)


class TestIntrinsicOracles:
    def test_two_headed_reward_formula(self):
        """Intrinsic reward is the unhalved sum of both head errors."""
        rng = np.random.default_rng(42)
        bank = bank_of("mcm", 7)
        for t in random_transitions(rng, 20):
            rewards = cur.intrinsic_rewards(bank, t)
            for agent in range(2):
                own, joint = two_headed_oracle(bank, t, agent)
                assert rewards[agent] == pytest.approx(own + joint, abs=1e-12)

    def test_head_ablations(self):
        rng = np.random.default_rng(43)
        banks = {k: bank_of(k, 11) for k in ("mcm", "mcm_indiv", "mcm_joint")}
        for t in random_transitions(rng, 20):
            full = cur.intrinsic_rewards(banks["mcm"], t)
            indiv = cur.intrinsic_rewards(banks["mcm_indiv"], t)
            joint = cur.intrinsic_rewards(banks["mcm_joint"], t)
            np.testing.assert_allclose(full, indiv + joint, atol=1e-12)

    def test_icm_indiv_oracle(self):
        rng = np.random.default_rng(44)
        bank = bank_of("icm_indiv", 3)
        for t in random_transitions(rng, 10):
            rewards = cur.intrinsic_rewards(bank, t)
            for agent in range(2):
                x = np.concatenate(
                    [t.joint_obs[agent], cur.one_hot_action(t.joint_action[agent])]
                )
                pred = nc.forward(bank.modules[agent], x)[0][0]
                assert rewards[agent] == pytest.approx(
                    scalar_sq_err(pred, t.next_joint_obs[agent]), abs=1e-12
                )

    def test_icm_joint_shared_scalar(self):
        rng = np.random.default_rng(45)
        bank = bank_of("icm_joint", 4, n_agents=4, obs_dim=6)
        for t in random_transitions(rng, 10, n_agents=4, obs_dim=6):
            rewards = cur.intrinsic_rewards(bank, t)
            assert np.all(rewards == rewards[0])
            pred = nc.forward(bank.modules[0], joint_oracle_input(t))[0][0]
            assert rewards[0] == pytest.approx(
                scalar_sq_err(pred, t.next_joint_obs.ravel()), abs=1e-12
            )

    def test_icm_min_cross_evaluation(self):
        """Each agent gets the smallest error among every agent's model
        scored on its own transition."""
        rng = np.random.default_rng(46)
        bank = bank_of("icm_min", 5, n_agents=3, obs_dim=4)
        for t in random_transitions(rng, 10, n_agents=3, obs_dim=4):
            rewards = cur.intrinsic_rewards(bank, t)
            for agent in range(3):
                x = np.concatenate(
                    [t.joint_obs[agent], cur.one_hot_action(t.joint_action[agent])]
                )
                errors = [
                    scalar_sq_err(nc.forward(m, x)[0][0], t.next_joint_obs[agent])
                    for m in bank.modules
                ]
                assert rewards[agent] == pytest.approx(min(errors), abs=1e-12)

    def test_mcm_sep_adds_separate_joint_error(self):
        rng = np.random.default_rng(47)
        bank = bank_of("mcm_sep", 6)
        for t in random_transitions(rng, 10):
            rewards = cur.intrinsic_rewards(bank, t)
            joint_pred = nc.forward(bank.modules[-1], joint_oracle_input(t))[0][0]
            joint_err = scalar_sq_err(joint_pred, t.next_joint_obs.ravel())
            for agent in range(2):
                x = np.concatenate(
                    [t.joint_obs[agent], cur.one_hot_action(t.joint_action[agent])]
                )
                own_err = scalar_sq_err(
                    nc.forward(bank.modules[agent], x)[0][0], t.next_joint_obs[agent]
                )
                assert rewards[agent] == pytest.approx(own_err + joint_err, abs=1e-12)

    def test_rewards_nonnegative(self):
        rng = np.random.default_rng(48)
        for kind in CuriosityKind:
            bank = bank_of(kind, 8)
            for t in random_transitions(rng, 5):
                assert np.all(cur.intrinsic_rewards(bank, t) >= 0.0)


class TestLossOracles:
    def test_two_headed_loss_is_half_reward(self):
        """Training loss halves the error sum that the reward leaves unhalved."""
        bank = bank_of("mcm", 13)
        t = random_transitions(np.random.default_rng(50), 1)[0]
        rewards = cur.intrinsic_rewards(bank, t)
        losses = cur.curiosity_update(bank, [t])  # pre-update losses
        for agent in range(2):
            assert losses[agent] == pytest.approx(0.5 * rewards[agent], abs=1e-12)

    def test_one_headed_loss_matches_scalar_loop(self):
        bank = bank_of("icm_indiv", 14)
        rng = np.random.default_rng(51)
        batch = random_transitions(rng, 6)
        frozen = [m.copy() for m in bank.modules]
        losses = cur.curiosity_update(bank, batch)
        for agent in range(2):
            manual = 0.0
            for t in batch:
                x = np.concatenate(
                    [t.joint_obs[agent], cur.one_hot_action(t.joint_action[agent])]
                )
                pred = nc.forward(frozen[agent], x)[0][0]
                manual += scalar_sq_err(pred, t.next_joint_obs[agent])
            assert losses[agent] == pytest.approx(manual / len(batch), abs=1e-10)

    def test_update_reduces_loss_on_fixed_batch(self):
        bank = bank_of("mcm", 15, lr=1e-2)
        batch = random_transitions(np.random.default_rng(52), 4)
        first = cur.curiosity_update(bank, batch)
        for _ in range(100):
            last = cur.curiosity_update(bank, batch)
        assert sum(last) < 0.2 * sum(first)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            cur.curiosity_update(bank_of("mcm", 0), [])


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

    def test_validation(self):
        with pytest.raises(ValueError):
            cur.mix_rewards(0.0, np.zeros(2), -0.1, 1.0)
        with pytest.raises(ValueError):
            cur.mix_rewards(0.0, np.zeros(2), 0.1, 0.0)
