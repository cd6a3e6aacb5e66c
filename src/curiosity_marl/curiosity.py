"""Forward-model curiosity: module banks, training losses, intrinsic rewards.

Each of the eight methods is a row of METHODS: its modules and the error
terms each agent's reward sums. A per-agent module predicts its owner's next
observation from (o^n, u^n); in the mcm family a second head predicts the
full next joint observation, with the other agents' observations and actions
concatenated after the shared trunk. Joint vectors always concatenate agents
in ascending index order: all observations first, then all one-hot actions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import neural_core as nc
from .nav_env import N_ACTIONS, other_agents

if TYPE_CHECKING:
    from .coma import TrainConfig


class CuriosityKind(str, Enum):
    NONE = "none"
    ICM_INDIV = "icm_indiv"
    ICM_JOINT = "icm_joint"
    ICM_MIN = "icm_min"
    MCM = "mcm"
    MCM_INDIV = "mcm_indiv"
    MCM_JOINT = "mcm_joint"
    MCM_SEP = "mcm_sep"


# Each method's row: the heads of its per-agent stack (0 for none, 1 for
# the agent's own next observation, 2 for that and the next joint
# observation), whether it trains one joint module, and the (role, head)
# error terms each agent's reward sums, roles being the bank's modules in
# order, the per-agent stack first. icm_min's reward is no sum of terms:
# it is the least of the agents' modules' errors on its own transition.
METHODS: dict[CuriosityKind, tuple[int, bool, tuple[tuple[int, int], ...] | None]] = {
    CuriosityKind.NONE: (0, False, ()),
    CuriosityKind.ICM_INDIV: (1, False, ((0, 0),)),
    CuriosityKind.ICM_JOINT: (0, True, ((0, 0),)),
    CuriosityKind.ICM_MIN: (1, False, None),
    CuriosityKind.MCM: (2, False, ((0, 0), (0, 1))),
    CuriosityKind.MCM_INDIV: (2, False, ((0, 0),)),
    CuriosityKind.MCM_JOINT: (2, False, ((0, 1),)),
    CuriosityKind.MCM_SEP: (1, True, ((0, 0), (1, 0))),
}


@dataclass
class CuriosityBank:
    """A method's modules by role, each trained and scored in one pass; a
    role the method lacks is None."""

    kind: CuriosityKind
    n_agents: int
    agents: nc.Learner | None  # member n is agent n's module
    joint: nc.Learner | None  # one module over the joint transition


def one_hot_action(action) -> np.ndarray:
    """One-hot vector (5,) for an action index; (..., 5) for an index array."""
    return np.eye(N_ACTIONS)[action]


def _agent_spec(
    heads: int, n_agents: int, obs_dim: int, hidden_dims, leaky_slope
) -> nc.NetworkSpec:
    """An agent's module with its first `heads` heads of two: its own next
    observation from (o^n, u^n), and the next joint observation, whose head
    takes the other agents' observations and one-hot actions as extra
    input."""
    return nc.NetworkSpec(
        input_dim=obs_dim + N_ACTIONS,
        output_dims=(obs_dim, n_agents * obs_dim)[:heads],
        hidden_dims=hidden_dims,
        leaky_slope=leaky_slope,
        head_extra_input_dims=(0, (n_agents - 1) * (obs_dim + N_ACTIONS))[:heads],
    )


def make_bank(
    kind: CuriosityKind | str,
    n_agents: int,
    obs_dim: int,
    rng: np.random.Generator,
    cfg: TrainConfig,
) -> CuriosityBank:
    """Build the module roster of a method's METHODS row over the config's
    trunk, trained at cfg.curiosity_lr: a stack of N per-agent modules with
    that row's heads, and one joint module if it has one. The per-agent
    modules draw from rng first, agent by agent, then the joint one."""
    kind = CuriosityKind(kind)
    heads, has_joint, _ = METHODS[kind]
    hidden, slope = tuple(cfg.hidden_dims), cfg.leaky_slope
    agents = joint = None
    if heads:
        spec = _agent_spec(heads, n_agents, obs_dim, hidden, slope)
        agents = nc.Learner(nc.init_network(spec, rng, n_agents), cfg.curiosity_lr)
    if has_joint:
        spec = nc.NetworkSpec(
            n_agents * (obs_dim + N_ACTIONS), (n_agents * obs_dim,), hidden, slope
        )
        joint = nc.Learner(nc.init_network(spec, rng), cfg.curiosity_lr)
    return CuriosityBank(kind, n_agents, agents, joint)


def _module_batches(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
):
    """(learner, inputs (M, B, in), extras, targets per head) for each role
    of the bank, the per-agent stack first, from stacked transitions: obs
    and next_obs are (B, N, d), actions (B, N).

    Member n of the per-agent stack predicts agent n's next observation,
    and with a second head the next joint observation, taking the other
    agents' observations and one-hot actions as extra input; the joint
    module predicts the next joint observation.
    """
    b, n_agents, _ = obs.shape
    one_hot = one_hot_action(actions)  # (B, N, 5)
    joint_target = next_obs.reshape(b, -1)
    jobs = []
    if bank.agents is not None:
        # agent-major and contiguous: each member's rows are laid out as a
        # one-agent batch's
        x = np.ascontiguousarray(np.concatenate([obs, one_hot], axis=2).transpose(1, 0, 2))
        own = np.ascontiguousarray(next_obs.transpose(1, 0, 2))
        if METHODS[bank.kind][0] == 2:
            others = other_agents(n_agents)
            extra = np.concatenate(
                [
                    obs[:, others].reshape(b, n_agents, -1),
                    one_hot[:, others].reshape(b, n_agents, -1),
                ],
                axis=2,
            ).transpose(1, 0, 2)
            jobs.append((bank.agents, x, [None, extra], [own, joint_target]))
        else:
            jobs.append((bank.agents, x, None, [own]))
    if bank.joint is not None:
        x = np.concatenate([obs.reshape(b, -1), one_hot.reshape(b, -1)], axis=1)
        jobs.append((bank.joint, x[None], None, [joint_target[None]]))
    return jobs


def module_loss_closure(
    inputs: np.ndarray,
    extras: list[np.ndarray | None] | None,
    targets: list[np.ndarray],
):
    """(losses, errors, grads_fn) closure for the batch-mean forward loss of
    every member of a module stack: ||prediction - target||^2 for one-headed
    modules, half the sum of both heads' squared errors for two-headed ones.
    inputs are (M, B, in), or (B, in) shared by every member, and each
    head's target broadcasts against its (M, B, out) predictions. losses is
    (M,); errors[k] is (M, B), every row's squared error on head k, from
    which intrinsic rewards are made; grads_fn() returns the gradients of
    the losses' sum, and must run before the next forward of any network.
    On a probe of K copies both gain the leading copy axis: (K, M) and
    (K, M, B)."""
    b = inputs.shape[-2]

    def loss_and_grads(module: nc.Network):
        outputs, cache = nc.forward(module, inputs, extras)
        diffs = [out - target for out, target in zip(outputs, targets)]
        squares = [diff * diff for diff in diffs]
        losses = 0.0
        for sq in squares:
            losses = losses + np.sum(sq, axis=(-2, -1))
        errors = [np.sum(sq, axis=-1) for sq in squares]
        if module.spec.n_heads == 2:
            # d(mean loss)/d(out): the 1/2 cancels the 2 of the squared norm
            return (
                0.5 * losses / b,
                errors,
                lambda: nc.backward(module, cache, [d / b for d in diffs]),
            )
        return losses / b, errors, lambda: nc.backward(module, cache, [2.0 * d / b for d in diffs])

    return loss_and_grads


def curiosity_update(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Score stacked transitions (obs and next_obs (B, N, d), actions
    (B, N)) and take one Adam step per role on their batch-mean forward
    loss, from one forward per role: the prediction errors of that forward
    are both the intrinsic rewards and the loss. icm_min scores with its own
    cross-scoring forward first.

    One-headed modules minimize ||prediction - target||^2; two-headed modules
    minimize half the sum of the squared individual and joint errors.
    Returns (rewards, losses): the (B, N) intrinsic rewards of the
    pre-update bank, as intrinsic_rewards gives them, and the pre-update
    mean loss of every module, the per-agent ones in agent order, then the
    joint one. A bank without modules returns zero rewards and no losses.
    """
    if len(obs) == 0:
        raise ValueError("curiosity_update requires a non-empty batch")
    terms = METHODS[bank.kind][2]
    jobs = _module_batches(bank, obs, actions, next_obs)
    if terms is None:
        rewards = _min_rewards(jobs[0])
    errors, losses = [], []
    for learner, x, extras, targets in jobs:
        member_losses, role_errors, grads_fn = module_loss_closure(x, extras, targets)(
            learner.network
        )
        nc.adam_step(learner, grads_fn())
        errors.append(role_errors)
        losses.extend(member_losses.tolist())
    if terms is not None:
        rewards = _combine_errors(terms, errors, actions.shape)
    return rewards, losses


def curiosity_gradient_suite(n_modules: int = 20, seed: int = 0) -> tuple[float, float]:
    """Finite-difference audit of the forward-model losses on random small
    stacks of 1-3 modules and frozen batches, alternating one- and
    two-headed shapes; the audited loss is the sum of the members' losses:
    a scalar on the stack, (K,) on its probe. Returns (max relative error,
    relative error of the sign-flip mutant from the first stack)."""
    return nc.audit(_module_case, n_modules, seed)


def _module_case(rng: np.random.Generator, i: int):
    n_agents, obs_dim = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    hidden = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
    spec = _agent_spec(1 + i % 2, n_agents, obs_dim, hidden, 0.01)
    members, batch = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    module = nc.init_network(spec, rng, members)

    def draw():
        extras = [
            rng.standard_normal((members, batch, d)) if d else None
            for d in spec.head_extra_input_dims
        ]
        return rng.standard_normal((members, batch, spec.input_dim)), extras

    x, extras = nc.kink_free_draw(module, draw)
    targets = [rng.standard_normal((members, batch, d)) for d in spec.output_dims]
    member_closure = module_loss_closure(x, extras, targets)

    def closure(net: nc.Network):
        losses, _, grads_fn = member_closure(net)
        return np.sum(losses, axis=-1), grads_fn

    return module, closure


def intrinsic_rewards(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
) -> np.ndarray:
    """Per-agent intrinsic rewards (B, N) for stacked transitions (obs and
    next_obs (B, N, d), actions (B, N)), one forward per role through
    module_loss_closure, whose errors curiosity_update also takes its
    rewards from, using the bank's current parameters and changing none.
    Always non-negative."""
    terms = METHODS[bank.kind][2]
    jobs = _module_batches(bank, obs, actions, next_obs)
    if terms is None:
        return _min_rewards(jobs[0])
    errors = [
        module_loss_closure(x, extras, targets)(learner.network)[1]
        for learner, x, extras, targets in jobs
    ]
    return _combine_errors(terms, errors, actions.shape)


def _min_rewards(job) -> np.ndarray:
    """icm_min's (B, N) rewards: every agent m's model is scored on every
    agent n's own transition, in one forward over agent-major rows, and
    agent n receives the smallest of those errors."""
    learner, x, _, (own,) = job
    n_agents, b, _ = x.shape
    rows, targets = x.reshape(n_agents * b, -1), [own.reshape(n_agents * b, -1)]
    errors = module_loss_closure(rows, None, targets)(learner.network)[1][0]  # (N models, N*B)
    return np.ascontiguousarray(errors.min(axis=0).reshape(n_agents, b).T)


def _combine_errors(
    terms: tuple[tuple[int, int], ...], errors: list[list[np.ndarray]], shape: tuple[int, int]
) -> np.ndarray:
    """The (B, N) = shape rewards that sum a METHODS row's (role, head)
    terms in table order, errors[role][head] being the (M, B) squared
    errors of every member's head; a joint module's one row goes to every
    agent. No terms give zeros, and starting from zeros changes no bit of a
    sum (0 + x is x)."""
    b, n_agents = shape
    per_agent = np.zeros((n_agents, b))
    for role, head in terms:
        per_agent += errors[role][head]
    return np.ascontiguousarray(per_agent.T)


def mix_rewards(
    e: float | np.ndarray, i: np.ndarray, lam: float, clip_max: float
) -> np.ndarray:
    """Per-agent mixed reward e + lam * min(i, clip_max); e broadcasts
    against i (a scalar, or (..., 1) against (..., N)). TrainConfig.validate
    checks the ranges of lam and clip_max (the lambda and clip_max keys)."""
    return e + lam * np.minimum(np.asarray(i, dtype=float), clip_max)
