"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run the fast criteria with `pytest tests/test_acceptance.py -s`; the two
training-trend criteria are hours-scale and live behind the `nightly`
marker (`pytest -m nightly -s`).
"""

import dataclasses
import time

import numpy as np
import pytest

from curiosity_marl import coma, curiosity, harness, nav_env
from curiosity_marl import neural_core as nc
from member_copies import member


def _verdict(name: str):
    """Print one pass/fail line per criterion, whatever the outcome."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"\n[acceptance] {name}: {'FAIL' if exc_type else 'PASS'}")
            return False

    return _Reporter()


def test_criterion_1_gradient_suite():
    with _verdict(
        "1 gradient suites (network, actor, critic, curiosity; fd vs analytic, mutation control)"
    ):
        start = time.monotonic()
        net_err, mutant_err = nc.gradient_suite(n_networks=100, seed=0)
        actor_err = coma.actor_gradient_suite(n_policies=20, seed=0)
        critic_err, critic_mutant = coma.critic_gradient_suite(n_critics=20, seed=0)
        module_err, module_mutant = curiosity.curiosity_gradient_suite(n_modules=20, seed=0)
        elapsed = time.monotonic() - start
        assert net_err < 1e-6, f"network gradient error {net_err:.3e}"
        assert actor_err < 1e-5, f"actor gradient error {actor_err:.3e}"
        assert critic_err < 1e-6, f"critic gradient error {critic_err:.3e}"
        assert module_err < 1e-6, f"curiosity gradient error {module_err:.3e}"
        for mutant in (mutant_err, critic_mutant, module_mutant):
            assert mutant > 1e-3, f"mutation control slipped through ({mutant:.3e})"
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_formula_oracles():
    with _verdict("2 curiosity formula oracles (1000 transitions, 1e-12)"):
        rng = np.random.default_rng(42)
        n_agents, obs_dim, cfg = 2, 4, coma.TrainConfig()
        kinds = ("mcm", "mcm_indiv", "mcm_joint", "icm_indiv", "icm_joint", "icm_min")
        banks = {
            k: curiosity.make_bank(k, n_agents, obs_dim, np.random.default_rng(7), cfg)
            for k in kinds
        }

        def sq_err(pred, target):
            return float(sum((p - t) ** 2 for p, t in zip(pred.ravel(), target.ravel())))

        # 1000 transitions scored in one batch per bank, as training scores
        # a round, then checked row by row
        draws = []
        for _ in range(1000):
            joint_obs = rng.uniform(-1, 1, (n_agents, obs_dim))
            nxt = rng.uniform(-1, 1, (n_agents, obs_dim))
            acts = rng.integers(0, 5, n_agents)
            draws.append((joint_obs, acts, nxt))
        batch = tuple(np.stack(column) for column in zip(*draws))
        rewards = {k: curiosity.intrinsic_rewards(banks[k], *batch) for k in kinds}

        for row, (joint_obs, acts, nxt) in enumerate(draws):
            # two-headed reward vs scalar re-computation
            own_errs, joint_errs = [], []
            for n in range(n_agents):
                others = [m for m in range(n_agents) if m != n]
                o_others = joint_obs[others].ravel()
                u_others = np.concatenate(
                    [curiosity.one_hot_action(acts[m]) for m in others]
                )
                trunk_in = np.concatenate([joint_obs[n], curiosity.one_hot_action(acts[n])])
                extra = np.concatenate([o_others, u_others])
                (own_pred, joint_pred), _ = nc.forward(
                    member(banks["mcm"].agents.network, n), trunk_in[None], [None, extra[None]]
                )
                own_errs.append(sq_err(own_pred, nxt[n]))
                joint_errs.append(sq_err(joint_pred, nxt.ravel()))
            reward = rewards["mcm"][row]
            for n in range(n_agents):
                assert abs(reward[n] - (own_errs[n] + joint_errs[n])) < 1e-12

            # ablation reads decompose the full reward (the three banks were
            # built from identical rngs, so their parameters coincide)
            r_indiv = rewards["mcm_indiv"][row]
            r_joint = rewards["mcm_joint"][row]
            np.testing.assert_allclose(reward, r_indiv + r_joint, rtol=0, atol=1e-12)

            # icm_min: brute-force min over every agent's model on n's transition
            r_min = rewards["icm_min"][row]
            for n in range(n_agents):
                own_input = np.concatenate([joint_obs[n], curiosity.one_hot_action(acts[n])])
                errs = []
                for m in range(n_agents):
                    model = member(banks["icm_min"].agents.network, m)
                    pred, _ = nc.forward(model, own_input[None])
                    errs.append(sq_err(pred[0], nxt[n]))
                assert abs(r_min[n] - min(errs)) < 1e-12

            # icm_joint: one shared model, identical reward for every agent
            r_shared = rewards["icm_joint"][row]
            assert float(np.ptp(r_shared)) == 0.0

        # decomposition with genuinely shared parameters across ablation reads
        seq = np.random.SeedSequence(123)
        b_full = curiosity.make_bank("mcm", 2, obs_dim, np.random.default_rng(seq), cfg)
        b_own = curiosity.make_bank("mcm_indiv", 2, obs_dim, np.random.default_rng(seq), cfg)
        b_joint = curiosity.make_bank("mcm_joint", 2, obs_dim, np.random.default_rng(seq), cfg)
        for _ in range(100):
            joint_obs = rng.uniform(-1, 1, (1, 2, obs_dim))
            nxt = rng.uniform(-1, 1, (1, 2, obs_dim))
            acts = rng.integers(0, 5, (1, 2))
            tr = (joint_obs, acts, nxt)
            full = curiosity.intrinsic_rewards(b_full, *tr)
            part = curiosity.intrinsic_rewards(b_own, *tr) + curiosity.intrinsic_rewards(
                b_joint, *tr
            )
            np.testing.assert_allclose(full, part, rtol=0, atol=1e-12)

        # mixing: e = 0, i = 5, lambda = 0.05, clip = 1 -> 0.05
        mixed = curiosity.mix_rewards(0.0, np.array([5.0, 5.0]), 0.05, 1.0)
        np.testing.assert_allclose(mixed, 0.05, rtol=0, atol=1e-15)


def test_criterion_3_environment_suite():
    with _verdict("3 environment suite (determinism, clamping, grid oracle, symmetry)"):
        config = nav_env.WorldConfig()

        # bit-identical trajectories for repeated seeds
        for seed in (0, 1, 99):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            env_a, env_b = nav_env.NavEnv(config), nav_env.NavEnv(config)
            obs_a, obs_b = env_a.reset(rng_a), env_b.reset(rng_b)
            np.testing.assert_array_equal(obs_a, obs_b)
            act_rng = np.random.default_rng(seed + 1000)
            for _ in range(config.episode_length):
                acts = tuple(int(a) for a in act_rng.integers(0, 5, 2))
                ra, rb = env_a.step(acts), env_b.step(acts)
                np.testing.assert_array_equal(ra.next_joint_obs, rb.next_joint_obs)
                assert ra.extrinsic_reward == rb.extrinsic_reward
                assert ra.success == rb.success

        # clamping invariant over 1e5 random steps
        rng = np.random.default_rng(5)
        env = nav_env.NavEnv(config)
        env.reset(rng)
        steps = 0
        while steps < 100_000:
            if env.timestep == config.episode_length:
                env.reset(rng)
            env.step(tuple(int(a) for a in rng.integers(0, 5, 2)))
            assert np.all(np.abs(env.positions) <= config.half_extent)
            steps += 1

        # sparse predicate vs exhaustive 50x50 position grid
        grid = np.linspace(-1, 1, 50)
        lm = env.landmarks
        fixed = lm[0] + np.array([-0.05, -0.05])  # inside the success disc
        for x in grid:
            for y in grid:
                pos = np.array([[x, y], fixed])
                got, success = env.score(pos)
                d0 = np.hypot(x - lm[0][0], y - lm[0][1])
                d1 = np.hypot(*(fixed - lm[0]))
                want = d0 <= 0.1 and d1 <= 0.1
                assert got == float(want) and success == want, (
                    f"sparse mismatch at ({x:.3f},{y:.3f})"
                )

        # observation antisymmetry and position reconstruction
        rng = np.random.default_rng(6)
        for n_agents in (2, 4):
            cfg_n = nav_env.WorldConfig(n_agents=n_agents)
            lm_n = nav_env.NavEnv(cfg_n).landmarks
            for _ in range(200):
                pos = rng.uniform(-1, 1, (n_agents, 2))
                obs = nav_env.observe(pos, lm_n)
                off = 2 * cfg_n.n_landmarks
                for i in range(n_agents):
                    others_i = [m for m in range(n_agents) if m != i]
                    for slot, m in enumerate(others_i):
                        rel_im = obs[i][off + 2 * slot : off + 2 * slot + 2]
                        back = [k for k in range(n_agents) if k != m].index(i)
                        rel_mi = obs[m][off + 2 * back : off + 2 * back + 2]
                        np.testing.assert_array_equal(rel_im, -rel_mi)
                    recovered = lm_n[0] - obs[i][:2]
                    np.testing.assert_allclose(recovered, pos[i], atol=1e-14)


def test_criterion_4_lambda_zero_equivalence(tmp_path):
    with _verdict("4 lambda=0 equivalence (mcm vs none, 500 episodes, bit-identical)"):
        start = time.monotonic()
        base = "total_episodes = 500\neval_interval = 100\nseed = 11\n"
        plain = harness.run_experiment(
            harness.parse_config(base + "method = none\n"), str(tmp_path / "plain")
        )
        curious = harness.run_experiment(
            harness.parse_config(base + "method = mcm\nlambda = 0.0\n"),
            str(tmp_path / "curious"),
        )
        np.testing.assert_array_equal(plain.normalized, curious.normalized)
        np.testing.assert_array_equal(plain.extrinsic, curious.extrinsic)
        assert curious.mean_intrinsic.max() > 0.0  # the observer did run
        assert time.monotonic() - start < 300.0


@pytest.mark.nightly
def test_criterion_5_nightly_fig_trend(tmp_path):
    with _verdict("5 shaped-reward trend (dense >=0.5 by 20k, sparse <0.3; 4/5 seeds)"):
        seeds = [0, 1, 2, 3, 4]
        base = {"total_episodes": "20000", "eval_interval": "500"}
        dense_dir = tmp_path / "dense"
        sparse_dir = tmp_path / "sparse"
        harness.sweep(
            ["none"], seeds, dict(base, reward_mode="dense"), str(dense_dir), workers=5
        )
        harness.sweep(
            ["none"], seeds, dict(base, reward_mode="sparse"), str(sparse_dir), workers=5
        )
        dense_hits = sparse_holds = 0
        for seed in seeds:
            rid = f"none_same_landmark_2ag_s{seed}"
            rows = harness.parse_csv_rows((dense_dir / (rid + ".csv")).read_text())
            best = max(r["normalized_reward"] for r in rows)
            print(f"  dense  seed {seed}: best window {best:.3f}")
            dense_hits += best >= 0.5
            rows = harness.parse_csv_rows((sparse_dir / (rid + ".csv")).read_text())
            level = sum(r["normalized_reward"] for r in rows) / len(rows)
            print(f"  sparse seed {seed}: budget mean {level:.3f}")
            sparse_holds += level < 0.3
        assert dense_hits >= 4, f"dense reached 0.5 on only {dense_hits}/5 seeds"
        assert sparse_holds >= 4, f"sparse stayed under 0.3 on only {sparse_holds}/5 seeds"


@pytest.mark.nightly
def test_criterion_6_nightly_method_ordering(tmp_path):
    with _verdict("6 method ordering (mcm beats plain/indiv baselines at 30k)"):
        seeds = [0, 1, 2, 3, 4]
        base = {"total_episodes": "30000", "eval_interval": "500"}

        same_dir = tmp_path / "same"
        harness.sweep(
            ["mcm", "none"], seeds,
            dict(base, scenario="same_landmark"), str(same_dir), workers=5,
        )
        summaries = harness.load_results(str(same_dir))
        by_method = {
            r.method: r.mean for r in harness.aggregate(summaries)
        }
        print(f"  same_landmark: mcm {by_method['mcm']:.3f} vs none {by_method['none']:.3f}")
        assert by_method["mcm"] - by_method["none"] >= 0.15

        diff_dir = tmp_path / "diff"
        harness.sweep(
            ["mcm", "icm_indiv"], seeds,
            dict(base, scenario="different_landmark"), str(diff_dir), workers=5,
        )
        summaries = harness.load_results(str(diff_dir))
        by_method = {r.method: r.mean for r in harness.aggregate(summaries)}
        print(
            f"  different_landmark: mcm {by_method['mcm']:.3f} "
            f"vs icm_indiv {by_method['icm_indiv']:.3f}"
        )
        assert by_method["mcm"] - by_method["icm_indiv"] >= 0.10


def test_criterion_7_overfit_sanity():
    with _verdict("7 overfit sanity (curiosity single transition, critic single episode)"):
        start = time.monotonic()
        world = nav_env.WorldConfig(reward_mode="dense")
        env = nav_env.NavEnv(world)

        bank = curiosity.make_bank(
            "mcm", 2, world.obs_dim, np.random.default_rng(1), coma.TrainConfig()
        )
        obs = env.reset(np.random.default_rng(2))
        r = env.step((3, 0))
        tr = (obs[None], np.array([[3, 0]]), r.next_joint_obs[None])
        initial = float(np.mean(curiosity.curiosity_update(bank, *tr)[1]))
        for _ in range(499):
            last = float(np.mean(curiosity.curiosity_update(bank, *tr)[1]))
        assert last < 1e-3 * initial, f"curiosity loss only fell to {last / initial:.2e}"

        cfg = coma.TrainConfig(episodes_per_update=1)
        state = coma.init_state(harness.RunConfig(method="none", seed=3, world=world, train=cfg))
        episode = coma.rollout_episode(state, 0.1)
        initial = coma.critic_update(state.critic, episode, cfg)
        for _ in range(199):
            last = coma.critic_update(state.critic, episode, cfg)
        assert last < 0.10 * initial, f"critic loss only fell to {last / initial:.2%}"
        assert time.monotonic() - start < 120.0


def test_criterion_8_harness(tmp_path):
    with _verdict("8 harness (config round-trip, CSV parse-back, sweep, aggregate)"):
        cfg = harness.parse_config(
            "method = icm_min\nscenario = different_landmark\nlambda = 0.125\n"
            "total_episodes = 48\neval_interval = 16\n"
        )
        assert harness.parse_config(harness.render_config(cfg)) == cfg

        result = harness.run_experiment(cfg, str(tmp_path / "one"))
        rid = harness.run_id(cfg)
        rows = harness.parse_csv_rows((tmp_path / "one" / (rid + ".csv")).read_text())
        assert [r["episode"] for r in rows] == [16, 32, 48]
        assert rows[-1]["normalized_reward"] == result.normalized[32:48].mean()

        methods = [k.value for k in curiosity.CuriosityKind]
        assert len(methods) == 8
        cells = harness.sweep(
            methods, [0, 1],
            {"total_episodes": "16", "eval_interval": "8"},
            str(tmp_path / "sweep"),
        )
        assert len(cells) == 16 and all(c.ok for c in cells)
        files = list((tmp_path / "sweep").iterdir())
        assert len([f for f in files if f.suffix == ".csv"]) == 16
        assert len([f for f in files if f.suffix == ".config"]) == 16

        rows = harness.aggregate(
            [
                harness.RunSummary(dataclasses.replace(harness.RunConfig(), seed=0), 0.8),
                harness.RunSummary(dataclasses.replace(harness.RunConfig(), seed=1), 0.9),
            ]
        )
        assert rows[0].mean == pytest.approx(0.85, abs=1e-12)
        assert rows[0].std == pytest.approx(np.std([0.8, 0.9], ddof=1), abs=1e-12)
        assert rows[0].std == pytest.approx(0.0707, abs=5e-5)
