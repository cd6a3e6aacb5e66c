"""Counterfactual actor-critic trainer for cooperative navigation.

Centralized-training/decentralized-execution: each agent owns a policy over
its local observation (member n of one stacked network is agent n's
policy), while a single shared critic scores the joint
observation against every candidate action of one agent at a time. Policies
are trained on counterfactual advantages of their own mixed-reward stream;
the critic regresses lambda-returns of those streams.

One run's whole training state is one TrainState: init_state builds it from
a run config, and each train_round advances it by one round of episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from . import curiosity as cur
from . import neural_core as nc
from .nav_env import N_ACTIONS, ConfigurationError, NavEnv, check_types, other_agents

if TYPE_CHECKING:
    from .harness import RunConfig


@dataclass(frozen=True)
class TrainConfig:
    """Every training hyperparameter. total_episodes = 0 means the
    agent-count default; init_state keeps this config with the resolved
    budget in the state, and a round reads it from there. KEYS names the
    config-file keys of the fields whose key is not their name, and check
    messages name them so."""

    KEYS: ClassVar[dict[str, str]] = {"intrinsic_lambda": "lambda", "intrinsic_clip": "clip_max"}

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
        check_types(self)
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
        if self.entropy_coeff < 0.0:
            raise ConfigurationError("entropy_coeff: must be >= 0")
        if self.intrinsic_lambda < 0.0:
            raise ConfigurationError(f"{self.KEYS['intrinsic_lambda']}: must be >= 0")
        if self.intrinsic_clip <= 0.0:
            raise ConfigurationError(f"{self.KEYS['intrinsic_clip']}: must be > 0")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigurationError("hidden_dims: must be positive integers")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigurationError("leaky_slope: must lie in (0, 1)")


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
    curiosity_losses: list[float]  # each module's pre-update loss on these steps

    def transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's (obs, actions, next_obs), episode by episode."""
        return _flat_transitions(self.obs, self.actions)

    @cached_property
    def critic_rows(self) -> np.ndarray:
        """critic_inputs of every step and agent as one C-contiguous
        (E, N, T, in) array, episode by episode, agent by agent, step by
        step: the critic's row order. Built once for the critic and the
        actor update."""
        return critic_inputs(self.obs[:, :-1], self.actions).swapaxes(1, 2)


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
    """Update diagnostics of one train_round; its per-episode values go into
    the TrainState's arrays."""

    critic_loss: float
    actor_loss: float


def _action_spec(input_dim: int, cfg: TrainConfig) -> nc.NetworkSpec:
    """One output per action, a policy's logits or the critic's Q values,
    over the config's trunk."""
    return nc.NetworkSpec(input_dim, (N_ACTIONS,), tuple(cfg.hidden_dims), cfg.leaky_slope)


def make_policy_set(
    n_agents: int, obs_dim: int, rng: np.random.Generator, cfg: TrainConfig
) -> nc.Learner:
    """The agents' policies, trained at cfg.actor_lr: member n of the stack
    is agent n's."""
    return nc.Learner(nc.init_network(_action_spec(obs_dim, cfg), rng, n_agents), cfg.actor_lr)


def critic_input_dim(n_agents: int, obs_dim: int) -> int:
    return n_agents * obs_dim + (n_agents - 1) * N_ACTIONS + n_agents


def make_critic(
    n_agents: int, obs_dim: int, rng: np.random.Generator, cfg: TrainConfig
) -> nc.Learner:
    """The shared critic, a stack of one, trained at cfg.critic_lr."""
    spec = _action_spec(critic_input_dim(n_agents, obs_dim), cfg)
    return nc.Learner(nc.init_network(spec, rng), cfg.critic_lr)


@dataclass
class TrainState:
    """One run's TrainConfig, its total_episodes resolved, and everything
    its training changes: the learners (their Adam moments included), the
    environment, the two streams every round draws from, the number of
    episodes played, and one slot per episode of the budget for each
    per-episode value its CSV is made from."""

    cfg: TrainConfig
    policies: nc.Learner
    critic: nc.Learner
    bank: cur.CuriosityBank
    env: NavEnv
    env_rng: np.random.Generator  # start jitter
    action_rng: np.random.Generator  # action uniforms
    normalized: np.ndarray  # (total_episodes,) share of steps at success
    extrinsic: np.ndarray  # (total_episodes,) extrinsic return
    mean_intrinsic: np.ndarray  # (total_episodes,) over steps and agents
    curiosity_loss: np.ndarray  # (total_episodes,) its round's mean module loss
    episodes: int = 0


def init_state(run: RunConfig) -> TrainState:
    """A fresh state for a run config, checked first by run.validate, which
    keeps the run's TrainConfig with its budget resolved and builds every
    network from it. The run's seed is split into four independent streams:
    the environment's and the actions', which the state keeps, the networks'
    (the policies draw first, then the critic) and the bank's. So runs never
    share random state, and running them in parallel cannot change any
    run's output."""
    run.validate()
    env_ss, action_ss, net_ss, bank_ss = np.random.SeedSequence(run.seed).spawn(4)
    net_rng = np.random.default_rng(net_ss)
    world, total = run.world, run.resolved_total_episodes
    cfg = replace(run.train, total_episodes=total)
    return TrainState(
        cfg=cfg,
        policies=make_policy_set(world.n_agents, world.obs_dim, net_rng, cfg),
        critic=make_critic(world.n_agents, world.obs_dim, net_rng, cfg),
        bank=cur.make_bank(
            run.method, world.n_agents, world.obs_dim, np.random.default_rng(bank_ss), cfg
        ),
        env=NavEnv(world),
        env_rng=np.random.default_rng(env_ss),
        action_rng=np.random.default_rng(action_ss),
        normalized=np.zeros(total),
        extrinsic=np.zeros(total),
        mean_intrinsic=np.zeros(total),
        curiosity_loss=np.zeros(total),
    )


def softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def floor_mix(logits: np.ndarray, epsilon: float) -> np.ndarray:
    """Action distribution (1 - 5*eps) * softmax(logits) + eps."""
    p = softmax(logits)
    p *= 1.0 - N_ACTIONS * epsilon
    p += epsilon
    return p


def policy_probs(network: nc.Network, obs: np.ndarray, epsilon: float) -> np.ndarray:
    """Floor-mixed action distributions (N, B, 5), one per row of the policy
    network's output: obs is (N, B, d), agent by agent, for a stack of N
    policies, or a batch (B, d) shared by them."""
    outputs, _ = nc.forward(network, obs)
    logits = outputs[0]
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite policy logits")
    return floor_mix(logits, epsilon)


def select_actions(
    policies: nc.Learner,
    joint_obs: np.ndarray,
    epsilon: float,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each agent's action independently from its floor-mixed policy,
    for a batch of joint observations (E, N, d): one forward of the policy
    stack, agent n's member over the E rows of agent n. Each action is the
    inverse CDF of its uniform in [0, 1), given as (E, N). Returns actions
    (E, N) and probabilities (E, N, 5)."""
    probs = policy_probs(policies.network, joint_obs.transpose(1, 0, 2), epsilon)
    probs = probs.transpose(1, 0, 2)
    # count of CDF entries <= u, as searchsorted(side="right") finds it
    actions = (probs.cumsum(axis=-1) <= uniforms[..., None]).sum(axis=-1)
    return np.minimum(actions, N_ACTIONS - 1, out=actions), probs


def epsilon_at(state: TrainState) -> float:
    """Exploration floor of the state's next round, annealed linearly over
    the first half of the state's budget."""
    cfg = state.cfg
    half = max(1, cfg.total_episodes // 2)
    frac = min(1.0, max(0.0, state.episodes / half))
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


def critic_inputs(joint_obs: np.ndarray, joint_actions: np.ndarray) -> np.ndarray:
    """Critic feature rows (..., T, N, in) for every step and agent: flattened
    joint observation, one-hot actions of every other agent (ascending
    order), then the agent's one-hot index. joint_obs is (..., T, N, d),
    joint_actions (..., T, N). The rows lie agent-major in memory: the
    result's swapaxes(-3, -2) is a C-contiguous (..., N, T, in) array."""
    *lead, t, n, d = joint_obs.shape
    one_hot = cur.one_hot_action(joint_actions)  # (..., T, N, 5)
    x = np.empty((*lead, n, t, critic_input_dim(n, d))).swapaxes(-3, -2)
    x[..., : n * d] = joint_obs.reshape(*lead, t, 1, n * d)
    x[..., n * d : -n] = one_hot[..., other_agents(n), :].reshape(*lead, t, n, -1)
    x[..., -n:] = np.eye(n)
    return x


def counterfactual_advantages(q: np.ndarray, pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Q of each taken action u minus the policy-expected Q over all actions;
    q and pi are (..., 5), u is (...)."""
    return np.take_along_axis(q, u[..., None], axis=-1)[..., 0] - np.sum(pi * q, axis=-1)


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
    bootstrap = (1.0 - td_lambda) * q_taken
    targets = np.empty_like(rewards)
    targets[-1] = rewards[-1]
    for t in range(len(rewards) - 2, -1, -1):
        targets[t] = rewards[t] + gamma * (bootstrap[t + 1] + td_lambda * targets[t + 1])
    return targets


def rollout_episode(state: TrainState, epsilon: float) -> RolloutBuffer:
    """Play the round's episodes, episodes_per_update or the fewer left of
    the state's budget, in lockstep with the current policies, then score
    them, in this order:

    1. the loop only samples actions, moves the agents and observes;
    2. env.score gives every step's extrinsic reward and success at once,
       from the stacked (E, T, N, 2) positions;
    3. cur.curiosity_update runs one forward per curiosity role over all
       E*T transitions, whose prediction errors are both the intrinsic
       rewards (from the pre-update bank) and the loss of the role's Adam
       step, so the bank trains here;
    4. the mixed rewards combine the two.

    Every episode's start jitter is drawn from the state's env_rng at reset,
    and every action uniform from its action_rng in one (E, T, N) block: the
    values each stream would give with the episodes played one after
    another, step by step and agent by agent. Neither the scoring nor the
    bank changes during the loop, so scoring after the last step gives the
    rewards that scoring each step online would."""
    env, policies, cfg = state.env, state.policies, state.cfg
    e = min(cfg.episodes_per_update, cfg.total_episodes - state.episodes)
    if e < 1:
        raise ValueError(f"the state has played all {state.episodes} episodes of its budget")
    t_max = env.config.episode_length
    n = policies.network.members
    first_obs = env.reset(state.env_rng, e)
    uniforms = state.action_rng.random((e, t_max, n))
    obs = np.empty((e, t_max + 1, *first_obs.shape[1:]))
    obs[:, 0] = first_obs
    actions = np.empty((e, t_max, n), dtype=int)
    probs = np.empty((e, t_max, n, N_ACTIONS))
    positions = np.empty((e, t_max, n, 2))
    for t in range(t_max):
        actions[:, t], probs[:, t] = select_actions(
            policies, obs[:, t], epsilon, uniforms[:, t]
        )
        obs[:, t + 1] = env.move(actions[:, t])
        positions[:, t] = env.positions
    extrinsic, success = env.score(positions)
    intrinsic, curiosity_losses = cur.curiosity_update(
        state.bank, *_flat_transitions(obs, actions)
    )
    intrinsic = intrinsic.reshape(e, t_max, n)
    mixed = cur.mix_rewards(
        extrinsic[..., None], intrinsic, cfg.intrinsic_lambda, cfg.intrinsic_clip
    )
    return RolloutBuffer(
        obs, actions, probs, extrinsic, success, intrinsic, mixed, curiosity_losses
    )


def _critic_batch(critic: nc.Learner, buf: RolloutBuffer, cfg: TrainConfig):
    """Critic inputs, taken-action indices and lambda-return targets for
    every (episode, agent, step) triple, in that row order, plus the
    pre-update critic's forward over those inputs, from which the targets'
    bootstrap Q estimates are taken: (x, taken, targets, forwarded)."""
    e, n, t_max, _ = buf.critic_rows.shape
    x = buf.critic_rows.reshape(e * n * t_max, -1)
    taken = buf.actions.transpose(0, 2, 1).reshape(-1)
    forwarded = nc.forward(critic.network, x)
    (q,), _ = forwarded
    q_taken = q[0, np.arange(len(taken)), taken].reshape(e, n, t_max)
    targets = td_lambda_targets(  # (T, E, N)
        buf.mixed.transpose(1, 0, 2), q_taken.transpose(2, 0, 1), cfg.gamma, cfg.td_lambda
    )
    return x, taken, targets.transpose(1, 2, 0).reshape(-1), forwarded


def critic_loss_closure(x: np.ndarray, taken: np.ndarray, targets: np.ndarray):
    """(loss, grads_fn) closure for the critic's regression: the mean over
    rows of (Q(x)[taken] - target)^2. Only the taken action's output gets a
    gradient. A caller that has run nc.forward(net, x) may pass its result
    as forwarded instead of having it run again. The loss is a scalar on
    the one-member critic and (K,) on its probe. grads_fn() must run before
    the next forward of any network."""
    b = len(taken)
    rows = np.arange(b)

    def loss_and_grads(net: nc.Network, forwarded=None):
        (q,), cache = nc.forward(net, x) if forwarded is None else forwarded
        # the member's (B,), or (K, B) on a probe, one contiguous row per copy
        diff = np.ascontiguousarray(q[..., 0, rows, taken] - targets)

        def grads_fn():
            out_grad = np.zeros_like(q)
            out_grad[..., 0, rows, taken] = 2.0 * diff / b
            return nc.backward(net, cache, [out_grad])

        # diff @ diff per copy: a stacked (1, B) @ (B, 1) product over
        # contiguous rows takes the dot product diff @ diff takes for one
        # copy, bit for bit; a strided row may sum in another order
        return np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0] / b, grads_fn

    return loss_and_grads


def critic_update(critic: nc.Learner, buf: RolloutBuffer, cfg: TrainConfig) -> float:
    """Regress the critic's taken-action Q toward frozen lambda-return targets
    for critic_epochs Adam steps; returns the pre-update mean squared error.
    The first epoch trains on the forward that gave the targets."""
    x, taken, targets, forwarded = _critic_batch(critic, buf, cfg)
    closure = critic_loss_closure(x, taken, targets)
    losses = []
    for _ in range(cfg.critic_epochs):
        loss, grads_fn = closure(critic.network, forwarded)
        nc.adam_step(critic, grads_fn())
        losses.append(loss)
        forwarded = None
    return float(losses[0])


def critic_gradient_suite(n_critics: int = 20, seed: int = 0) -> tuple[float, float]:
    """Finite-difference audit of the critic regression gradient on random
    small critics and frozen batches. Returns (max relative error, relative
    error of the sign-flip mutant from the first critic)."""
    return nc.audit(_critic_case, n_critics, seed)


def _critic_case(rng: np.random.Generator, i: int):
    input_dim = int(rng.integers(2, 9))
    hidden = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
    net = nc.init_network(nc.NetworkSpec(input_dim, (N_ACTIONS,), hidden), rng)
    batch = int(rng.integers(2, 7))
    x, _ = nc.kink_free_draw(net, lambda: (rng.standard_normal((batch, input_dim)), None))
    taken = rng.integers(0, N_ACTIONS, size=batch)
    return net, critic_loss_closure(x, taken, rng.standard_normal(batch))


def actor_loss_grads(
    probs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    epsilon: float,
    entropy_coeff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean policy-gradient surrogate -A*log(pi[u]) - beta*H(pi) over a batch
    of B steps for one agent, and its gradient w.r.t. the network logits;
    probs are (..., B, 5), and actions and advantages broadcast against
    their (..., B) leading shape from the end. The loss is one batch mean
    per leading index, (...,): a scalar for one agent.

    probs are the floor-mixed distributions actually sampled from; the floor
    scales the softmax jacobian by (1 - 5*eps).
    """
    b = probs.shape[-2]
    taken = (..., *np.indices(actions.shape, sparse=True), actions)
    log_pi = np.log(probs)
    entropy = -np.sum(probs * log_pi, axis=-1)
    loss = np.mean(-advantages * log_pi[taken] - entropy_coeff * entropy, axis=-1)
    # dL/dpi
    dl_dpi = entropy_coeff * (log_pi + 1.0)
    dl_dpi[taken] -= advantages / probs[taken]
    g = (1.0 - N_ACTIONS * epsilon) * dl_dpi / b
    # softmax backward: p is recovered from the mixed probs
    p = (probs - epsilon) / (1.0 - N_ACTIONS * epsilon)
    dl_dz = p * (g - np.sum(g * p, axis=-1, keepdims=True))
    return loss, dl_dz


def actor_loss_closure(
    obs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    epsilon: float,
    entropy_coeff: float,
):
    """(loss, grads_fn) closure over a frozen step batch of a stack of N
    policies: obs (N, B, d), actions and advantages (N, B). The loss is the
    sum of the agents' losses: a scalar on the stack, (K,) on its probe.
    actor_update trains on it and actor_gradient_suite audits it. grads_fn()
    must run before the next forward of any network."""
    obs = np.asarray(obs, float)
    actions = np.asarray(actions, int)
    advantages = np.asarray(advantages, float)

    def loss_and_grads(net: nc.Network):
        outputs, cache = nc.forward(net, obs)
        probs = floor_mix(outputs[0], epsilon)
        loss, dl_dz = actor_loss_grads(probs, actions, advantages, epsilon, entropy_coeff)
        return np.sum(loss, axis=-1), lambda: nc.backward(net, cache, [dl_dz])

    return loss_and_grads


def actor_gradient_suite(n_policies: int = 20, seed: int = 0) -> float:
    """Finite-difference audit of the actor surrogate gradient on random
    small policies and frozen batches; returns the max relative error, or
    NaN, which fails every error bound, when the sign-flip mutant from the
    first policy does not show an error above nc.MUTANT_MIN."""
    worst, mutant = nc.audit(_actor_case, n_policies, seed)
    return worst if mutant > nc.MUTANT_MIN else float("nan")


def _actor_case(rng: np.random.Generator, i: int):
    obs_dim = int(rng.integers(2, 8))
    hidden = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
    net = nc.init_network(nc.NetworkSpec(obs_dim, (N_ACTIONS,), hidden), rng)
    batch = int(rng.integers(1, 5))
    obs, _ = nc.kink_free_draw(net, lambda: (rng.standard_normal((batch, obs_dim)), None))
    actions = rng.integers(0, N_ACTIONS, size=batch)
    advantages = rng.standard_normal(batch)
    return net, actor_loss_closure(obs[None], actions[None], advantages[None], 0.05, 0.01)


def actor_update(
    policies: nc.Learner,
    critic: nc.Learner,
    buf: RolloutBuffer,
    cfg: TrainConfig,
    epsilon: float,
) -> float:
    """One Adam step of the policy stack on actor_loss_closure, the
    counterfactual-advantage surrogate, with advantages from the current
    critic. Returns the sum of the agents' actor losses.

    Advantages are z-scored per agent within the batch before entering the
    surrogate. The raw counterfactual advantage shrinks by an order of
    magnitude once agents are near their landmarks, and without the rescaling
    the logit drift during the long approach phase saturates the policies
    before the fine docking signal can be expressed."""
    joint_obs, actions, _ = buf.transitions()  # (B, N, d), (B, N)
    e, n, t_max, _ = buf.critic_rows.shape
    b = e * t_max
    (q,), _ = nc.forward(critic.network, buf.critic_rows.reshape(b * n, -1))
    # agent-major and contiguous, so each agent's z-score reduces one
    # contiguous run, as a 1-D array's does
    q = q[0].reshape(e, n, t_max, N_ACTIONS).swapaxes(0, 1).reshape(n, b, N_ACTIONS)
    pi = np.ascontiguousarray(buf.probs.reshape(b, n, N_ACTIONS).transpose(1, 0, 2))
    u = np.ascontiguousarray(actions.T)  # (N, B)
    advantages = counterfactual_advantages(q, pi, u)
    advantages = (advantages - advantages.mean(axis=-1, keepdims=True)) / (
        advantages.std(axis=-1, keepdims=True) + 1e-8
    )
    closure = actor_loss_closure(
        joint_obs.transpose(1, 0, 2), u, advantages, epsilon, cfg.entropy_coeff
    )
    loss, grads_fn = closure(policies.network)
    nc.adam_step(policies, grads_fn())
    return float(loss)


def train_round(state: TrainState) -> RoundStats:
    """One round, in this order: rollout_episode plays a batch of episodes
    in lockstep, scores their rewards and trains the curiosity bank on the
    same pass that scored them; then the critic and the actors update, and
    the episodes' values fill their slots of the state's arrays.
    Each network's pre-update forward over the round runs once: the
    critic's gives both its targets and its first epoch, and the bank's
    gives both the intrinsic rewards and its Adam step. A round that raises
    leaves the episode count where it was."""
    cfg, epsilon = state.cfg, epsilon_at(state)
    buf = rollout_episode(state, epsilon)
    stats = RoundStats(
        critic_update(state.critic, buf, cfg),
        actor_update(state.policies, state.critic, buf, cfg, epsilon),
    )
    played = slice(state.episodes, state.episodes + len(buf.actions))
    state.normalized[played] = buf.success.sum(axis=1) / state.env.config.episode_length
    state.extrinsic[played] = buf.extrinsic.sum(axis=1)
    state.mean_intrinsic[played] = buf.intrinsic.mean(axis=(1, 2))
    state.curiosity_loss[played] = np.mean(buf.curiosity_losses) if buf.curiosity_losses else 0.0
    state.episodes = played.stop
    return stats
