"""Forward-model curiosity: module banks, training losses, intrinsic rewards.

Eight method variants are supported. The icm_* kinds use one-headed forward
models; the mcm family uses a two-headed model whose first head predicts the
owning agent's next observation from (o^n, u^n) and whose second head predicts
the full next joint observation, with the other agents' observations and
actions concatenated after the shared trunk (second head only). Joint vectors
always concatenate agents in ascending index order: all observations first,
then all one-hot actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import neural_core as nc
from .nav_env import N_ACTIONS


class CuriosityKind(str, Enum):
    NONE = "none"
    ICM_INDIV = "icm_indiv"
    ICM_JOINT = "icm_joint"
    ICM_MIN = "icm_min"
    MCM = "mcm"
    MCM_INDIV = "mcm_indiv"
    MCM_JOINT = "mcm_joint"
    MCM_SEP = "mcm_sep"


TWO_HEADED_KINDS = (CuriosityKind.MCM, CuriosityKind.MCM_INDIV, CuriosityKind.MCM_JOINT)
PER_AGENT_ONE_HEADED_KINDS = (CuriosityKind.ICM_INDIV, CuriosityKind.ICM_MIN)


@dataclass
class CuriosityBank:
    kind: CuriosityKind
    n_agents: int
    obs_dim: int
    modules: list[nc.Network]
    opts: list[nc.AdamState]


def one_hot_action(action) -> np.ndarray:
    """One-hot vector (5,) for an action index; (..., 5) for an index array."""
    return np.eye(N_ACTIONS)[action]


def _indiv_spec(obs_dim: int, hidden_dims, leaky_slope) -> nc.NetworkSpec:
    return nc.NetworkSpec(
        input_dim=obs_dim + N_ACTIONS,
        output_dims=(obs_dim,),
        hidden_dims=tuple(hidden_dims),
        leaky_slope=leaky_slope,
    )


def _joint_spec(n_agents: int, obs_dim: int, hidden_dims, leaky_slope) -> nc.NetworkSpec:
    return nc.NetworkSpec(
        input_dim=n_agents * (obs_dim + N_ACTIONS),
        output_dims=(n_agents * obs_dim,),
        hidden_dims=tuple(hidden_dims),
        leaky_slope=leaky_slope,
    )


def _two_headed_spec(n_agents: int, obs_dim: int, hidden_dims, leaky_slope) -> nc.NetworkSpec:
    return nc.NetworkSpec(
        input_dim=obs_dim + N_ACTIONS,
        output_dims=(obs_dim, n_agents * obs_dim),
        hidden_dims=tuple(hidden_dims),
        leaky_slope=leaky_slope,
        head_extra_input_dims=(0, (n_agents - 1) * (obs_dim + N_ACTIONS)),
    )


def make_bank(
    kind: CuriosityKind | str,
    n_agents: int,
    obs_dim: int,
    rng: np.random.Generator,
    hidden_dims=(64, 64),
    leaky_slope: float = 0.01,
    lr: float = 1e-3,
) -> CuriosityBank:
    """Build the module roster for a method: N two-headed modules for the mcm
    family, N one-headed for icm_indiv/icm_min, 1 for icm_joint, N individual
    plus 1 joint for mcm_sep, none for the plain baseline."""
    kind = CuriosityKind(kind)
    specs: list[nc.NetworkSpec] = []
    if kind in TWO_HEADED_KINDS:
        specs = [_two_headed_spec(n_agents, obs_dim, hidden_dims, leaky_slope)] * n_agents
    elif kind in PER_AGENT_ONE_HEADED_KINDS:
        specs = [_indiv_spec(obs_dim, hidden_dims, leaky_slope)] * n_agents
    elif kind is CuriosityKind.ICM_JOINT:
        specs = [_joint_spec(n_agents, obs_dim, hidden_dims, leaky_slope)]
    elif kind is CuriosityKind.MCM_SEP:
        specs = [_indiv_spec(obs_dim, hidden_dims, leaky_slope)] * n_agents
        specs.append(_joint_spec(n_agents, obs_dim, hidden_dims, leaky_slope))
    modules = [nc.init_network(spec, rng) for spec in specs]
    opts = [nc.init_adam(m, lr=lr) for m in modules]
    return CuriosityBank(kind, n_agents, obs_dim, modules, opts)


def mcm_forward(
    module: nc.Network,
    o_n: np.ndarray,
    u_n: np.ndarray,
    o_others: np.ndarray,
    u_others: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-headed prediction: (agent's next observation, next joint observation).

    Only the second head sees the other agents' observations and actions.
    o_others/u_others concatenate the remaining agents in ascending order;
    u_n and u_others are one-hot.
    """
    trunk_in = np.concatenate([np.asarray(o_n, float), np.asarray(u_n, float)])
    extra = np.concatenate([np.asarray(o_others, float), np.asarray(u_others, float)])
    outputs, _ = nc.forward(module, trunk_in, [None, extra])
    return outputs[0], outputs[1]


def _module_batches(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
):
    """Per-module (inputs, extras, targets) matrices for stacked transitions:
    obs and next_obs are (B, N, d), actions (B, N).

    Targets are a list per head. Individual module n predicts agent n's next
    observation; joint modules predict the concatenated next joint
    observation; two-headed modules predict both, their second head taking
    the other agents' observations and one-hot actions as extra input.
    """
    kind = bank.kind
    b, n_agents, _ = obs.shape
    one_hot = one_hot_action(actions)  # (B, N, 5)
    joint_target = next_obs.reshape(b, -1)
    jobs = []
    if kind not in (CuriosityKind.NONE, CuriosityKind.ICM_JOINT):  # one module per agent
        for n in range(n_agents):
            x = np.concatenate([obs[:, n], one_hot[:, n]], axis=1)
            if kind in TWO_HEADED_KINDS:
                others = [m for m in range(n_agents) if m != n]
                extra = np.concatenate(
                    [obs[:, others].reshape(b, -1), one_hot[:, others].reshape(b, -1)],
                    axis=1,
                )
                jobs.append((x, [None, extra], [next_obs[:, n], joint_target]))
            else:
                jobs.append((x, None, [next_obs[:, n]]))
    if kind in (CuriosityKind.ICM_JOINT, CuriosityKind.MCM_SEP):
        x = np.concatenate([obs.reshape(b, -1), one_hot.reshape(b, -1)], axis=1)
        jobs.append((x, None, [joint_target]))
    return jobs


def curiosity_update(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
) -> list[float]:
    """One Adam step per module on the batch-mean forward loss over stacked
    transitions: obs and next_obs are (B, N, d), actions (B, N).

    One-headed modules minimize ||prediction - target||^2; two-headed modules
    minimize half the sum of the squared individual and joint errors. Returns
    the pre-update mean loss of every module.
    """
    b = len(obs)
    if b == 0:
        raise ValueError("curiosity_update requires a non-empty batch")
    two_headed = bank.kind in TWO_HEADED_KINDS
    jobs = _module_batches(bank, obs, actions, next_obs)
    losses = []
    for module, opt, (x, extras, targets) in zip(bank.modules, bank.opts, jobs):
        outputs, cache = nc.forward(module, x, extras)
        out_grads = []
        loss = 0.0
        for out, target in zip(outputs, targets):
            diff = out - target
            loss += float(np.sum(diff * diff))
            # d(mean loss)/d(out); the 1/2 in the two-headed loss cancels
            # the 2 from the squared norm.
            out_grads.append((diff / b) if two_headed else (2.0 * diff / b))
        loss = (0.5 * loss / b) if two_headed else (loss / b)
        grads = nc.backward(module, cache, out_grads)
        nc.adam_step(opt, module, grads)
        losses.append(loss)
    return losses


def _sq_err(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Row-wise squared error of (B, k) predictions."""
    diff = pred - target
    return np.sum(diff * diff, axis=-1)


def intrinsic_rewards(
    bank: CuriosityBank, obs: np.ndarray, actions: np.ndarray, next_obs: np.ndarray
) -> np.ndarray:
    """Per-agent intrinsic rewards (B, N) for stacked transitions (obs and
    next_obs (B, N, d), actions (B, N)), one forward per module, using the
    bank's current (pre-update) parameters. Always non-negative."""
    kind = bank.kind
    b, n_agents = actions.shape
    if kind is CuriosityKind.NONE:
        return np.zeros((b, n_agents))
    jobs = _module_batches(bank, obs, actions, next_obs)

    if kind is CuriosityKind.ICM_MIN:
        # Every agent m's model is scored on agent n's own transition; agent n
        # receives the smallest of those errors. Rows are agent-major.
        x = np.concatenate([x for x, _, _ in jobs])
        own = np.concatenate([own for _, _, (own,) in jobs])
        errors = [_sq_err(nc.forward(m, x)[0][0], own) for m in bank.modules]
        return np.min(errors, axis=0).reshape(n_agents, b).T

    # errors[k][h]: (B,) squared errors of module k's head h
    errors = []
    for module, (x, extras, targets) in zip(bank.modules, jobs):
        outputs, _ = nc.forward(module, x, extras)
        errors.append([_sq_err(out, target) for out, target in zip(outputs, targets)])

    if kind is CuriosityKind.MCM:
        per_agent = [own + joint for own, joint in errors]
    elif kind is CuriosityKind.MCM_INDIV:
        per_agent = [own for own, _ in errors]
    elif kind is CuriosityKind.MCM_JOINT:
        per_agent = [joint for _, joint in errors]
    elif kind is CuriosityKind.ICM_INDIV:
        per_agent = [own for (own,) in errors]
    elif kind is CuriosityKind.ICM_JOINT:
        per_agent = [errors[0][0]] * n_agents
    elif kind is CuriosityKind.MCM_SEP:
        per_agent = [own + errors[-1][0] for (own,) in errors[:-1]]
    else:
        raise AssertionError(f"unhandled kind {kind}")
    return np.stack(per_agent, axis=1)


def mix_rewards(
    e: float | np.ndarray, i: np.ndarray, lam: float, clip_max: float
) -> np.ndarray:
    """Per-agent mixed reward e + lam * min(i, clip_max); e broadcasts
    against i (a scalar, or (..., 1) against (..., N))."""
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    if clip_max <= 0.0:
        raise ValueError("clip_max must be > 0")
    return e + lam * np.minimum(np.asarray(i, dtype=float), clip_max)
