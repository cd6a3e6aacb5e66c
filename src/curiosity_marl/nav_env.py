"""Deterministic 2D cooperative-navigation environment.

N agents move on the square [-half_extent, +half_extent]^2 with discrete
cardinal actions and must simultaneously occupy their assigned landmarks.
Two scenarios (same_landmark, different_landmark) in 2- and 4-agent
versions, each with a sparse and a dense reward mode. The functional core
steps one episode, or a batch of episodes in lockstep along leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

ACTION_NAMES = ("up", "down", "left", "right", "stay")
N_ACTIONS = len(ACTION_NAMES)

# Unit displacement per action, scaled by step_size in move().
_ACTION_DELTAS = np.array(
    [[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
)

SCENARIOS = ("same_landmark", "different_landmark")
REWARD_MODES = ("sparse", "dense")

# Canonical layout constants (start jitter is added on top of these).
AGENT_SPACING = 0.15
SAME_LANDMARK_POS = np.array([[1.0, 0.6]])
DIFFERENT_LANDMARK_POS = np.array([[-1.0, 0.45], [1.0, 0.45]])


class ConfigurationError(ValueError):
    """Raised for invalid scenario/world configuration."""


class EpisodeExhaustedError(RuntimeError):
    """Raised when step() or move() is called after the episode horizon."""


@dataclass(frozen=True)
class WorldConfig:
    n_agents: int = 2
    scenario: str = "same_landmark"
    reward_mode: str = "sparse"
    half_extent: float = 1.0
    step_size: float = 0.1
    episode_length: int = 50
    success_radius: float = 0.1
    collision_radius: float = 0.05
    c_collide: float = 1.0
    c_success: float = 5.0
    start_jitter: float = 0.05

    @property
    def n_landmarks(self) -> int:
        return 1 if self.scenario == "same_landmark" else 2

    @property
    def obs_dim(self) -> int:
        return 2 * self.n_landmarks + 2 * (self.n_agents - 1)

    def validate(self) -> None:
        if self.n_agents not in (2, 4):
            raise ConfigurationError(f"n_agents must be 2 or 4, got {self.n_agents}")
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.reward_mode not in REWARD_MODES:
            raise ConfigurationError(f"unknown reward_mode {self.reward_mode!r}")
        if not 0.0 < self.step_size < self.half_extent:
            raise ConfigurationError("need 0 < step_size < half_extent")
        if not 0.0 < self.success_radius < self.half_extent:
            raise ConfigurationError("need 0 < success_radius < half_extent")
        if self.episode_length < 1:
            raise ConfigurationError("episode_length must be >= 1")
        for name in ("collision_radius", "c_collide", "c_success", "start_jitter"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name}: must be >= 0")


@dataclass(frozen=True)
class EnvState:
    """A batch of episodes in lockstep: agent_positions is (..., N, 2), one
    (N, 2) block per episode, and every episode shares the landmarks and the
    clock. A single episode is the batch shape ()."""

    agent_positions: np.ndarray  # (..., N, 2)
    landmark_positions: np.ndarray  # (L, 2)
    landmark_assignment: tuple[int, ...]  # agent index -> landmark index
    timestep: int


@dataclass(frozen=True)
class StepResult:
    next_joint_obs: np.ndarray  # (..., N, obs_dim)
    extrinsic_reward: np.ndarray  # (...)
    done: bool
    success: np.ndarray  # (...) bool


def landmark_assignment(scenario: str, n_agents: int) -> tuple[int, ...]:
    """Fixed agent-to-landmark mapping: all to 0, or alternating by index."""
    if scenario == "same_landmark":
        return tuple(0 for _ in range(n_agents))
    if scenario == "different_landmark":
        return tuple(i % 2 for i in range(n_agents))
    raise ConfigurationError(f"unknown scenario {scenario!r}")


def canonical_layout(config: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Jitter-free start positions and landmark positions for a scenario.

    Agents always start in a centered row at the origin. same_landmark puts
    the shared landmark on the right edge, well away from the corners;
    different_landmark puts one landmark on the left edge and one on the
    right, slightly lower. Every landmark is 14-16 grid moves from the
    center, so a straight run reaches it with over half the episode left to
    sit on it — but an agent that merely holds a constant direction ends up
    pinned in a corner, not docked, so stopping on the landmark has to be
    learned.
    """
    n = config.n_agents
    offsets = AGENT_SPACING * (np.arange(n) - (n - 1) / 2.0)
    starts = np.zeros((n, 2))
    starts[:, 0] = offsets
    if config.scenario == "same_landmark":
        landmarks = SAME_LANDMARK_POS.copy()
    else:
        landmarks = DIFFERENT_LANDMARK_POS.copy()
    return starts, landmarks


def reset(
    config: WorldConfig, rng: np.random.Generator, n_episodes: int | None = None
) -> tuple[EnvState, np.ndarray]:
    """Start one episode, or n_episodes in lockstep; agents get per-component
    uniform start jitter, drawn episode by episode."""
    config.validate()
    starts, landmarks = canonical_layout(config)
    batch = () if n_episodes is None else (n_episodes,)
    j = config.start_jitter
    starts = starts + rng.uniform(-j, j, size=batch + starts.shape)
    h = config.half_extent
    state = EnvState(
        agent_positions=np.clip(starts, -h, h),
        landmark_positions=landmarks,
        landmark_assignment=landmark_assignment(config.scenario, config.n_agents),
        timestep=0,
    )
    return state, observe(state)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def other_agents(n: int) -> np.ndarray:
    """(N, N-1) agent indices: row i lists every agent but i, ascending."""
    return _frozen(np.array([[k for k in range(n) if k != i] for i in range(n)], dtype=int))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second agent of every unordered pair, as np.triu_indices(n, 1)."""
    return tuple(_frozen(i) for i in np.triu_indices(n, 1))


@lru_cache(maxsize=None)
def _assigned(assignment: tuple[int, ...]) -> np.ndarray:
    return _frozen(np.array(assignment, dtype=int))


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, np.linalg.norm's arithmetic for
    real input without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def observe(state: EnvState) -> np.ndarray:
    """Per-agent observations (..., N, obs_dim): relative landmark positions,
    then relative positions of the other agents in ascending index order
    (self skipped)."""
    pos = state.agent_positions
    *batch, n, _ = pos.shape
    n_landmarks = len(state.landmark_positions)
    # [..., i, j]: landmark j, then other agent j - L of i; minus i's position
    rel = np.empty((*batch, n, n_landmarks + n - 1, 2))
    rel[..., :n_landmarks, :] = state.landmark_positions
    rel[..., n_landmarks:, :] = pos[..., other_agents(n), :]
    rel -= pos[..., :, None, :]
    return rel.reshape(*batch, n, -1)


def move(config: WorldConfig, state: EnvState, joint_action) -> EnvState:
    """Move every agent one step_size along its action, clamp to the world,
    and advance the clock; nothing is scored. joint_action holds one action
    index per agent of every episode, (..., N)."""
    if state.timestep >= config.episode_length:
        raise EpisodeExhaustedError(
            f"episode already finished at t={state.timestep}"
        )
    actions = np.asarray(joint_action)
    want = state.agent_positions.shape[:-1]
    integers = actions.dtype.kind in "iu"  # a float or bool action is no index
    if not integers or actions.shape != want or actions.min() < 0 or actions.max() >= N_ACTIONS:
        raise ValueError(f"joint_action must be {want} integer indices in [0, 5)")
    h = config.half_extent
    # clamped in place: np.clip(new_pos, -h, h), bit for bit
    new_pos = state.agent_positions + config.step_size * _ACTION_DELTAS[actions]
    np.maximum(new_pos, -h, out=new_pos)
    np.minimum(new_pos, h, out=new_pos)
    return EnvState(
        new_pos, state.landmark_positions, state.landmark_assignment, state.timestep + 1
    )


def score(config: WorldConfig, state: EnvState) -> tuple[np.ndarray, np.ndarray]:
    """(extrinsic reward, success) of every set of agent positions in state
    under the reward mode, one of each per leading index. Every term is
    elementwise along the leading axes, so positions stacked over a round's
    steps, (E, T, N, 2), score as each step scores alone."""
    if config.reward_mode == "sparse":
        return sparse_reward(config, state)
    dists, success = _distances_and_success(config, state)
    return _dense_reward(config, state, dists, success), success


def _distances_and_success(
    config: WorldConfig, state: EnvState
) -> tuple[np.ndarray, np.ndarray]:
    """(..., N) distance of every agent to its assigned landmark, and
    whether every agent of an episode is within success_radius of it."""
    targets = state.landmark_positions[_assigned(state.landmark_assignment)]
    dists = _norm(state.agent_positions - targets)
    return dists, np.all(dists <= config.success_radius, axis=-1)


def sparse_reward(config: WorldConfig, state: EnvState) -> tuple[np.ndarray, np.ndarray]:
    """1 iff every agent is within success_radius of its assigned landmark;
    returns (reward, success), one of each per episode."""
    _, success = _distances_and_success(config, state)
    return success.astype(float), success


def _dense_reward(
    config: WorldConfig, state: EnvState, dists: np.ndarray, success: np.ndarray
) -> np.ndarray:
    """Distance-and-collision shaping with a success bonus on top, one value
    per episode, from the state's distances and success.

    Negative sum over agents of the distance to each agent's assigned
    landmark, minus a penalty per colliding agent pair (pairwise distance
    < 2*collision_radius), plus c_success whenever the all-agents success
    predicate holds. The pull term alone pays hovering near a landmark
    almost as well as sitting on it, so a critic trained on it ranks
    actions by approach direction and never by the final docking step;
    the bonus separates docked from nearly-docked states by a margin the
    critic cannot smooth away."""
    pos = state.agent_positions
    reward = -dists.sum(axis=-1)
    reward = reward + config.c_success * success
    first, second = _pairs(pos.shape[-2])
    hits = _norm(pos[..., first, :] - pos[..., second, :]) < 2.0 * config.collision_radius
    # one pair at a time, so several penalties round exactly as repeated
    # subtraction does; subtracting 0.0 for a pair apart changes no bit
    for pair in range(hits.shape[-1]):
        reward = reward - config.c_collide * hits[..., pair]
    return reward


class NavEnv:
    """Stateful wrapper over the functional reset/move/score core.

    reset(rng, n_episodes) starts a batch of episodes that then step in
    lockstep, one action per agent of every episode; reset(rng) plays a
    single episode. A trainer may move without scoring and score the
    positions it kept afterwards, in one call. One instance per logical
    training thread; instances share nothing.
    """

    def __init__(self, config: WorldConfig):
        config.validate()
        self.config = config
        self.state: EnvState | None = None

    def reset(self, rng: np.random.Generator, n_episodes: int | None = None) -> np.ndarray:
        self.state, obs = reset(self.config, rng, n_episodes)
        return obs

    def _started(self) -> EnvState:
        if self.state is None:
            raise RuntimeError("reset() must be called before step(), move() or score()")
        return self.state

    def step(self, joint_action) -> StepResult:
        """move, then score: one step of what training does for a round."""
        obs = self.move(joint_action)
        reward, success = self.score(self.state.agent_positions)
        return StepResult(obs, reward, self.state.timestep >= self.config.episode_length, success)

    def move(self, joint_action) -> np.ndarray:
        """Move every agent without scoring; returns the next joint
        observations."""
        self.state = move(self.config, self._started(), joint_action)
        return observe(self.state)

    def score(self, agent_positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(extrinsic reward, success) of agent positions (..., N, 2) in this
        world."""
        return score(self.config, replace(self._started(), agent_positions=agent_positions))
