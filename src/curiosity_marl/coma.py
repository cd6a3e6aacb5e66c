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
from .nav_env import N_ACTIONS, ConfigurationError, NavEnv


@dataclass(frozen=True)
class TrainConfig:
    """Every training hyperparameter. total_episodes = 0 means the
    agent-count default, which the harness resolves before training.
    intrinsic_lambda and intrinsic_clip are the config-file keys `lambda`
    and `clip_max`, and check messages name them so."""

    gamma: float = 0.95
    td_lambda: float = 0.8
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    curiosity_lr: float = 1e-3
    episodes_per_update: int = 8
    entropy_coeff: float = 0.01
    critic_epochs: int = 4
    epsilon_start: float = 0.1
    epsilon_end: float = 0.02
    total_episodes: int = 0
    intrinsic_lambda: float = 0.05
    intrinsic_clip: float = 1.0
    hidden_dims: tuple[int, ...] = (64, 64)
    leaky_slope: float = 0.01

    def validate(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigurationError("gamma: must lie in [0, 1)")
        if not 0.0 <= self.td_lambda <= 1.0:
            raise ConfigurationError("td_lambda: must lie in [0, 1]")
        for name in ("actor_lr", "critic_lr", "curiosity_lr"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name}: must be > 0")
        for name in ("episodes_per_update", "critic_epochs"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name}: must be >= 1")
        if self.total_episodes < 0:
            raise ConfigurationError("total_episodes: must be >= 0 (0 = default budget)")
        for name in ("epsilon_start", "epsilon_end"):
            eps = getattr(self, name)
            # at 1/N_ACTIONS the floor-mixed policy degenerates to uniform and
            # the softmax jacobian vanishes, so the open interval is required
            if not 0.0 <= eps < 1.0 / N_ACTIONS:
                raise ConfigurationError(f"{name}: must lie in [0, 1/{N_ACTIONS})")
        if self.intrinsic_lambda < 0.0:
            raise ConfigurationError("lambda: must be >= 0")
        if self.intrinsic_clip <= 0.0:
            raise ConfigurationError("clip_max: must be > 0")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims: must be positive integers")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigurationError("leaky_slope: must lie in (0, 1)")


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
class RolloutBuffer:
    """One round's episodes, played in lockstep, as arrays with a leading
    episode axis E. obs[:, t + 1] is the joint observation after the joint
    action actions[:, t]."""

    obs: np.ndarray  # (E, T+1, N, d)
    actions: np.ndarray  # (E, T, N)
    probs: np.ndarray  # (E, T, N, 5) mixed action probabilities sampled from
    extrinsic: np.ndarray  # (E, T)
    success: np.ndarray  # (E, T) bool
    intrinsic: np.ndarray  # (E, T, N)
    mixed: np.ndarray  # (E, T, N)

    def transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's (obs, actions, next_obs), episode by episode."""
        return _flat_transitions(self.obs, self.actions)


def _flat_transitions(obs: np.ndarray, actions: np.ndarray):
    """(obs (B, N, d), actions (B, N), next_obs (B, N, d)) over all B = E*T
    steps, episode by episode, from obs (E, T+1, N, d) and actions (E, T, N)."""
    e, t_max, n = actions.shape
    return (
        obs[:, :-1].reshape(e * t_max, n, -1),
        actions.reshape(e * t_max, n),
        obs[:, 1:].reshape(e * t_max, n, -1),
    )


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
    """One agent's floor-mixed action distribution for one observation (d,),
    or one per row of a batch (B, d)."""
    outputs, _ = nc.forward(network, obs)
    logits = outputs[0]
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite policy logits")
    return floor_mix(logits, epsilon)


def select_actions(
    policies: PolicySet,
    joint_obs: np.ndarray,
    epsilon: float,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each agent's action independently from its floor-mixed policy,
    for a batch of joint observations (E, N, d): one forward per agent over
    all E rows. Each action is the inverse CDF of its uniform in [0, 1),
    given as (E, N). Returns actions (E, N) and probabilities (E, N, 5)."""
    probs = np.stack(
        [policy_probs(net, joint_obs[:, i], epsilon) for i, net in enumerate(policies.networks)],
        axis=1,
    )
    # count of CDF entries <= u, as searchsorted(side="right") finds it
    actions = np.sum(np.cumsum(probs, axis=-1) <= uniforms[..., None], axis=-1)
    return np.minimum(actions, N_ACTIONS - 1), probs


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
    zero terminal bootstrap (G at the last step is just its reward).
    rewards and q_taken are (T, ...): one backward pass over T serves every
    stream along the trailing axes."""
    rewards = np.asarray(rewards, float)
    q_taken = np.asarray(q_taken, float)
    if rewards.shape != q_taken.shape:
        raise ValueError("rewards and q_taken must have the same shape")
    t_max = len(rewards)
    targets = np.empty_like(rewards)
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
) -> RolloutBuffer:
    """Play the round's cfg.episodes_per_update episodes in lockstep with the
    current components, then score every transition's intrinsic reward.

    Every episode's start jitter is drawn from env_rng at reset, and every
    action uniform from action_rng in one (E, T, N) block: the values each
    stream would give with the episodes played one after another, step by
    step and agent by agent. The bank does not change during the rollout, so
    scoring all E*T transitions after the last step, in one forward per
    module, gives the rewards that scoring each step online would."""
    e = cfg.episodes_per_update
    t_max = env.config.episode_length
    n = policies.n_agents
    first_obs = env.reset(env_rng, e)
    uniforms = action_rng.random((e, t_max, n))
    obs = np.empty((e, t_max + 1, *first_obs.shape[1:]))
    obs[:, 0] = first_obs
    actions = np.empty((e, t_max, n), dtype=int)
    probs = np.empty((e, t_max, n, N_ACTIONS))
    extrinsic = np.empty((e, t_max))
    success = np.empty((e, t_max), dtype=bool)
    for t in range(t_max):
        actions[:, t], probs[:, t] = select_actions(
            policies, obs[:, t], epsilon, uniforms[:, t]
        )
        result = env.step(actions[:, t])
        obs[:, t + 1] = result.next_joint_obs
        extrinsic[:, t] = result.extrinsic_reward
        success[:, t] = result.success
    intrinsic = cur.intrinsic_rewards(bank, *_flat_transitions(obs, actions))
    intrinsic = intrinsic.reshape(e, t_max, n)
    mixed = cur.mix_rewards(
        extrinsic[..., None], intrinsic, cfg.intrinsic_lambda, cfg.intrinsic_clip
    )
    return RolloutBuffer(obs, actions, probs, extrinsic, success, intrinsic, mixed)


def _critic_batch(
    critic: CentralCritic, buf: RolloutBuffer, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack critic inputs, taken-action indices, and lambda-return targets
    for every (episode, agent, step) triple, in that row order, using
    pre-update Q estimates."""
    obs, taken, _ = buf.transitions()
    e, t_max, n = buf.actions.shape
    x = critic_inputs(obs, taken)  # (E*T, N, in)
    q_all, _ = nc.forward(critic.network, x.reshape(e * t_max * n, -1))
    q_all = q_all[0].reshape(e, t_max, n, N_ACTIONS)
    q_taken = np.take_along_axis(q_all, buf.actions[..., None], axis=3)[..., 0]
    targets = td_lambda_targets(  # (T, E, N)
        buf.mixed.transpose(1, 0, 2), q_taken.transpose(1, 0, 2), cfg.gamma, cfg.td_lambda
    )
    return (
        x.reshape(e, t_max, n, -1).transpose(0, 2, 1, 3).reshape(e * n * t_max, -1),
        buf.actions.transpose(0, 2, 1).reshape(-1),
        targets.transpose(1, 2, 0).reshape(-1),
    )


def critic_update(critic: CentralCritic, buf: RolloutBuffer, cfg: TrainConfig) -> float:
    """Regress the critic's taken-action Q toward frozen lambda-return targets
    for critic_epochs Adam steps; returns the pre-update mean squared error."""
    x, taken, targets = _critic_batch(critic, buf, cfg)
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
    buf: RolloutBuffer,
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
    joint_obs, actions, _ = buf.transitions()  # (B, N, d), (B, N)
    b = actions.shape[0]
    probs = buf.probs.reshape(b, n, N_ACTIONS)
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
    """Roll out a batch of episodes in lockstep, then update critic, actors,
    and the curiosity bank in that order."""
    epsilon = epsilon_at(cfg, episode_index)
    buf = rollout_episode(env, policies, bank, cfg, epsilon, env_rng, action_rng)
    stats = RoundStats(
        extrinsic_returns=buf.extrinsic.sum(axis=1).tolist(),
        success_steps=buf.success.sum(axis=1).tolist(),
        success_any=buf.success.any(axis=1).tolist(),
        mean_intrinsic=buf.intrinsic.mean(axis=(1, 2)).tolist(),
    )
    stats.critic_loss = critic_update(critic, buf, cfg)
    stats.actor_loss = actor_update(policies, critic, buf, cfg, epsilon)
    if bank.kind is not cur.CuriosityKind.NONE:
        stats.curiosity_losses = cur.curiosity_update(bank, *buf.transitions())
    return stats
