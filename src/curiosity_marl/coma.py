"""Counterfactual actor-critic trainer for cooperative navigation.

Centralized-training/decentralized-execution: each agent owns a policy over
its local observation, while a single shared critic scores the joint
observation against every candidate action of one agent at a time. Policies
are trained on counterfactual advantages of their own mixed-reward stream;
the critic regresses lambda-returns of those streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curiosity as cur
from . import neural_core as nc
from .nav_env import N_ACTIONS, NavEnv


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.95
    td_lambda: float = 0.8
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    episodes_per_update: int = 8
    entropy_coeff: float = 0.01
    critic_epochs: int = 4
    epsilon_start: float = 0.1
    epsilon_end: float = 0.02
    total_episodes: int = 30_000
    intrinsic_lambda: float = 0.05
    intrinsic_clip: float = 1.0

    def validate(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.td_lambda <= 1.0:
            raise ValueError("td_lambda must lie in [0, 1]")
        if self.episodes_per_update < 1 or self.total_episodes < 1:
            raise ValueError("episode counts must be positive")
        if self.critic_epochs < 1:
            raise ValueError("critic_epochs must be positive")
        for name in ("epsilon_start", "epsilon_end"):
            eps = getattr(self, name)
            # at 1/N_ACTIONS the floor-mixed policy degenerates to uniform and
            # the softmax jacobian vanishes, so the open interval is required
            if not 0.0 <= eps < 1.0 / N_ACTIONS:
                raise ValueError(f"{name} must lie in [0, 1/{N_ACTIONS})")
        if self.intrinsic_lambda < 0.0:
            raise ValueError("intrinsic_lambda must be >= 0")
        if self.intrinsic_clip <= 0.0:
            raise ValueError("intrinsic_clip must be > 0")


@dataclass
class PolicySet:
    networks: list[nc.Network]
    opts: list[nc.AdamState]

    @property
    def n_agents(self) -> int:
        return len(self.networks)


@dataclass
class CentralCritic:
    network: nc.Network
    opt: nc.AdamState
    n_agents: int
    obs_dim: int


@dataclass
class EpisodeBuffer:
    """One rolled-out episode: transitions plus everything the updates need."""

    transitions: list[cur.Transition]
    probs: np.ndarray  # (T, N, 5) mixed action probabilities
    intrinsic: np.ndarray  # (T, N)
    mixed: np.ndarray  # (T, N)
    extrinsic_return: float
    success_steps: int

    @property
    def success_any(self) -> bool:
        return self.success_steps > 0


@dataclass
class RoundStats:
    """Per-episode scalars from one train_round, plus update diagnostics."""

    extrinsic_returns: list[float] = field(default_factory=list)
    success_steps: list[int] = field(default_factory=list)
    success_any: list[bool] = field(default_factory=list)
    mean_intrinsic: list[float] = field(default_factory=list)
    curiosity_losses: list[float] = field(default_factory=list)
    critic_loss: float = 0.0
    actor_loss: float = 0.0


def make_policy_set(
    n_agents: int,
    obs_dim: int,
    rng: np.random.Generator,
    hidden_dims=(64, 64),
    leaky_slope: float = 0.01,
    lr: float = 1e-3,
) -> PolicySet:
    spec = nc.NetworkSpec(
        input_dim=obs_dim,
        output_dims=(N_ACTIONS,),
        hidden_dims=tuple(hidden_dims),
        leaky_slope=leaky_slope,
    )
    networks = [nc.init_network(spec, rng) for _ in range(n_agents)]
    return PolicySet(networks, [nc.init_adam(net, lr=lr) for net in networks])


def critic_input_dim(n_agents: int, obs_dim: int) -> int:
    return n_agents * obs_dim + (n_agents - 1) * N_ACTIONS + n_agents


def make_critic(
    n_agents: int,
    obs_dim: int,
    rng: np.random.Generator,
    hidden_dims=(64, 64),
    leaky_slope: float = 0.01,
    lr: float = 1e-3,
) -> CentralCritic:
    spec = nc.NetworkSpec(
        input_dim=critic_input_dim(n_agents, obs_dim),
        output_dims=(N_ACTIONS,),
        hidden_dims=tuple(hidden_dims),
        leaky_slope=leaky_slope,
    )
    network = nc.init_network(spec, rng)
    return CentralCritic(network, nc.init_adam(network, lr=lr), n_agents, obs_dim)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def floor_mix(logits: np.ndarray, epsilon: float) -> np.ndarray:
    """Action distribution (1 - 5*eps) * softmax(logits) + eps."""
    return (1.0 - N_ACTIONS * epsilon) * softmax(logits) + epsilon


def policy_probs(network: nc.Network, obs: np.ndarray, epsilon: float) -> np.ndarray:
    """One agent's floor-mixed action distribution for one observation."""
    logits, _ = nc.forward(network, obs)
    logits = logits[0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite policy logits")
    return floor_mix(logits, epsilon)


def select_actions(
    policies: PolicySet,
    joint_obs: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Sample each agent's action independently from its floor-mixed policy."""
    n = policies.n_agents
    probs = np.empty((n, N_ACTIONS))
    actions = []
    for i in range(n):
        probs[i] = policy_probs(policies.networks[i], joint_obs[i], epsilon)
        u = rng.random()
        a = int(np.searchsorted(np.cumsum(probs[i]), u, side="right"))
        actions.append(min(a, N_ACTIONS - 1))
    return tuple(actions), probs


def epsilon_at(cfg: TrainConfig, episode_index: int) -> float:
    """Exploration floor, annealed linearly over the first half of training."""
    half = max(1, cfg.total_episodes // 2)
    frac = min(1.0, max(0.0, episode_index / half))
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


def critic_inputs(joint_obs: np.ndarray, joint_actions: np.ndarray) -> np.ndarray:
    """Critic feature rows (B, N, in) for every step and agent: flattened joint
    observation, one-hot actions of every other agent (ascending order), then
    the agent's one-hot index. joint_obs is (B, N, d), joint_actions (B, N)."""
    b, n, d = joint_obs.shape
    one_hot = cur.one_hot_action(joint_actions)  # (B, N, 5)
    x = np.empty((b, n, critic_input_dim(n, d)))
    x[:, :, : n * d] = joint_obs.reshape(b, 1, n * d)
    for agent in range(n):
        others = [m for m in range(n) if m != agent]
        x[:, agent, n * d : -n] = one_hot[:, others].reshape(b, -1)
    x[:, :, -n:] = np.eye(n)
    return x


def counterfactual_advantages(q: np.ndarray, pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Q of each taken action u minus the policy-expected Q over all actions;
    q and pi are (B, 5), u is (B,)."""
    return q[np.arange(len(u)), u] - np.sum(pi * q, axis=1)


def td_lambda_targets(
    rewards: np.ndarray, q_taken: np.ndarray, gamma: float, td_lambda: float
) -> np.ndarray:
    """Lambda-returns G_t = r_t + gamma*((1-lam)*q_{t+1} + lam*G_{t+1}) with a
    zero terminal bootstrap (G at the last step is just its reward)."""
    rewards = np.asarray(rewards, float)
    q_taken = np.asarray(q_taken, float)
    if rewards.shape != q_taken.shape:
        raise ValueError("rewards and q_taken must have the same length")
    t_max = len(rewards)
    targets = np.empty(t_max)
    targets[-1] = rewards[-1]
    for t in range(t_max - 2, -1, -1):
        targets[t] = rewards[t] + gamma * (
            (1.0 - td_lambda) * q_taken[t + 1] + td_lambda * targets[t + 1]
        )
    return targets


def rollout_episode(
    env: NavEnv,
    policies: PolicySet,
    bank: cur.CuriosityBank,
    cfg: TrainConfig,
    epsilon: float,
    env_rng: np.random.Generator,
    action_rng: np.random.Generator,
) -> EpisodeBuffer:
    """Play one full episode with the current components, scoring intrinsic
    rewards online with the bank's pre-update parameters."""
    joint_obs = env.reset(env_rng)
    n = policies.n_agents
    t_max = env.config.episode_length
    transitions: list[cur.Transition] = []
    probs = np.empty((t_max, n, N_ACTIONS))
    intrinsic = np.empty((t_max, n))
    mixed = np.empty((t_max, n))
    extrinsic_return = 0.0
    success_steps = 0
    for t in range(t_max):
        actions, probs[t] = select_actions(policies, joint_obs, epsilon, action_rng)
        result = env.step(actions)
        tr = cur.Transition(
            joint_obs=joint_obs,
            joint_action=actions,
            extrinsic_reward=result.extrinsic_reward,
            next_joint_obs=result.next_joint_obs,
            done=result.done,
        )
        transitions.append(tr)
        intrinsic[t] = cur.intrinsic_rewards(bank, tr)
        mixed[t] = cur.mix_rewards(
            result.extrinsic_reward, intrinsic[t], cfg.intrinsic_lambda, cfg.intrinsic_clip
        )
        extrinsic_return += result.extrinsic_reward
        success_steps += int(result.success)
        joint_obs = result.next_joint_obs
    return EpisodeBuffer(
        transitions, probs, intrinsic, mixed, extrinsic_return, success_steps
    )


def _critic_batch(
    critic: CentralCritic, buffers: list[EpisodeBuffer], cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack critic inputs, taken-action indices, and lambda-return targets
    for every (episode, step, agent) triple, using pre-update Q estimates."""
    n = critic.n_agents
    xs, takens, targets = [], [], []
    for buf in buffers:
        t_max = len(buf.transitions)
        taken = np.array([tr.joint_action for tr in buf.transitions])  # (T, N)
        x_ep = critic_inputs(np.stack([tr.joint_obs for tr in buf.transitions]), taken)
        q_all, _ = nc.forward(critic.network, x_ep.reshape(t_max * n, -1))
        q_all = q_all[0].reshape(t_max, n, N_ACTIONS)
        q_taken = np.take_along_axis(q_all, taken[:, :, None], axis=2)[:, :, 0]
        for agent in range(n):
            tgt = td_lambda_targets(
                buf.mixed[:, agent], q_taken[:, agent], cfg.gamma, cfg.td_lambda
            )
            xs.append(x_ep[:, agent])
            takens.append(taken[:, agent])
            targets.append(tgt)
    return np.concatenate(xs), np.concatenate(takens), np.concatenate(targets)


def critic_update(
    critic: CentralCritic, buffers: list[EpisodeBuffer], cfg: TrainConfig
) -> float:
    """Regress the critic's taken-action Q toward frozen lambda-return targets
    for critic_epochs Adam steps; returns the pre-update mean squared error."""
    x, taken, targets = _critic_batch(critic, buffers, cfg)
    b = x.shape[0]
    initial_loss = None
    for _ in range(cfg.critic_epochs):
        q, cache = nc.forward(critic.network, x)
        q = q[0]
        q_taken = q[np.arange(b), taken]
        diff = q_taken - targets
        if initial_loss is None:
            initial_loss = float(diff @ diff) / b
        out_grad = np.zeros_like(q)
        out_grad[np.arange(b), taken] = 2.0 * diff / b
        grads = nc.backward(critic.network, cache, [out_grad])
        nc.adam_step(critic.opt, critic.network, grads)
    return initial_loss


def actor_loss_grads(
    probs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    epsilon: float,
    entropy_coeff: float,
) -> tuple[float, np.ndarray]:
    """Mean policy-gradient surrogate -A*log(pi[u]) - beta*H(pi) over a batch
    of steps for one agent, and its gradient w.r.t. the network logits.

    probs are the floor-mixed distributions actually sampled from; the floor
    scales the softmax jacobian by (1 - 5*eps).
    """
    b = probs.shape[0]
    log_pi = np.log(probs)
    taken = log_pi[np.arange(b), actions]
    entropy = -np.sum(probs * log_pi, axis=1)
    loss = float(np.mean(-advantages * taken - entropy_coeff * entropy))
    # dL/dpi
    dl_dpi = entropy_coeff * (log_pi + 1.0)
    dl_dpi[np.arange(b), actions] -= advantages / probs[np.arange(b), actions]
    g = (1.0 - N_ACTIONS * epsilon) * dl_dpi / b
    # softmax backward: p is recovered from the mixed probs
    p = (probs - epsilon) / (1.0 - N_ACTIONS * epsilon)
    dl_dz = p * (g - np.sum(g * p, axis=1, keepdims=True))
    return loss, dl_dz


def actor_loss_closure(
    obs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    epsilon: float,
    entropy_coeff: float,
):
    """(loss, grads) closure over a frozen step batch, for gradient audits."""
    obs = np.atleast_2d(np.asarray(obs, float))
    actions = np.asarray(actions, int)
    advantages = np.asarray(advantages, float)

    def loss_and_grad(net: nc.Network):
        outputs, cache = nc.forward(net, obs)
        probs = floor_mix(outputs[0], epsilon)
        loss, dl_dz = actor_loss_grads(probs, actions, advantages, epsilon, entropy_coeff)
        return loss, nc.backward(net, cache, [dl_dz])

    return loss_and_grad


def actor_gradient_suite(n_policies: int = 20, seed: int = 0, h: float = 1e-5) -> float:
    """Finite-difference audit of the actor surrogate gradient on random
    small policies and frozen batches; returns the max relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_policies):
        obs_dim = int(rng.integers(2, 8))
        hidden = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        spec = nc.NetworkSpec(obs_dim, (N_ACTIONS,), hidden)
        net = nc.init_network(spec, rng)
        batch = int(rng.integers(1, 5))
        obs = rng.standard_normal((batch, obs_dim))
        for _ in range(200):
            _, cache = nc.forward(net, obs)
            if nc.min_kink_distance(cache) > 1e-3:
                break
            obs = rng.standard_normal((batch, obs_dim))
        actions = rng.integers(0, N_ACTIONS, size=batch)
        advantages = rng.standard_normal(batch)
        closure = actor_loss_closure(obs, actions, advantages, 0.05, 0.01)
        worst = max(worst, nc.grad_check(net, closure, h))
    return worst


def actor_update(
    policies: PolicySet,
    critic: CentralCritic,
    buffers: list[EpisodeBuffer],
    cfg: TrainConfig,
    epsilon: float,
) -> float:
    """One Adam step per policy on the counterfactual-advantage surrogate,
    with advantages from the current critic. Returns the summed actor loss.

    Advantages are z-scored per agent within the batch before entering the
    surrogate. The raw counterfactual advantage shrinks by an order of
    magnitude once agents are near their landmarks, and without the rescaling
    the logit drift during the long approach phase saturates the policies
    before the fine docking signal can be expressed."""
    n = policies.n_agents
    total_loss = 0.0
    joint_obs = np.stack([tr.joint_obs for buf in buffers for tr in buf.transitions])
    actions = np.array(
        [tr.joint_action for buf in buffers for tr in buf.transitions]
    )  # (B, N)
    probs = np.concatenate([buf.probs for buf in buffers])  # (B, N, 5)
    b = actions.shape[0]
    critic_x = critic_inputs(joint_obs, actions).reshape(b * n, -1)
    q_all, _ = nc.forward(critic.network, critic_x)
    q_all = q_all[0].reshape(b, n, N_ACTIONS)
    for agent in range(n):
        pi = probs[:, agent, :]
        u = actions[:, agent]
        advantages = counterfactual_advantages(q_all[:, agent, :], pi, u)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        loss, dl_dz = actor_loss_grads(pi, u, advantages, epsilon, cfg.entropy_coeff)
        _, cache = nc.forward(policies.networks[agent], joint_obs[:, agent])
        grads = nc.backward(policies.networks[agent], cache, [dl_dz])
        nc.adam_step(policies.opts[agent], policies.networks[agent], grads)
        total_loss += loss
    return total_loss


def train_round(
    policies: PolicySet,
    critic: CentralCritic,
    env: NavEnv,
    bank: cur.CuriosityBank,
    cfg: TrainConfig,
    episode_index: int,
    env_rng: np.random.Generator,
    action_rng: np.random.Generator,
) -> RoundStats:
    """Roll out a batch of episodes, then update critic, actors, and the
    curiosity bank in that order."""
    epsilon = epsilon_at(cfg, episode_index)
    buffers = [
        rollout_episode(env, policies, bank, cfg, epsilon, env_rng, action_rng)
        for _ in range(cfg.episodes_per_update)
    ]
    stats = RoundStats()
    for buf in buffers:
        stats.extrinsic_returns.append(buf.extrinsic_return)
        stats.success_steps.append(buf.success_steps)
        stats.success_any.append(buf.success_any)
        stats.mean_intrinsic.append(float(buf.intrinsic.mean()))
    stats.critic_loss = critic_update(critic, buffers, cfg)
    stats.actor_loss = actor_update(policies, critic, buffers, cfg, epsilon)
    if bank.kind is not cur.CuriosityKind.NONE:
        batch = [tr for buf in buffers for tr in buf.transitions]
        stats.curiosity_losses = cur.curiosity_update(bank, batch)
    return stats
