"""Deterministic 2D cooperative-navigation environment.

N agents move on the square [-half_extent, +half_extent]^2 with discrete
cardinal actions and must simultaneously occupy their assigned landmarks.
Two scenarios (same_landmark, different_landmark) in 2- and 4-agent
versions, each with a sparse and a dense reward mode. NavEnv is the one
API: it steps one episode, or a batch of episodes in lockstep along leading
axes, and scores any positions of its world. observe is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar

import numpy as np

ACTION_NAMES = ("up", "down", "left", "right", "stay")
N_ACTIONS = len(ACTION_NAMES)

# Unit displacement per action, scaled by step_size in NavEnv.move().
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


def check_types(section) -> None:
    """Reject a config section's first value that its field's declared type
    does not allow, named by its config-file key: a non-finite float, or an
    int or tuple[int, ...] item that is a bool or no int or numpy integer.
    It runs before the section's range checks, which a NaN or 5.5 can pass."""
    for f in fields(section):
        value, key = getattr(section, f.name), section.KEYS.get(f.name, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ConfigurationError(f"{key}: must be finite")
        items = {"int": [value], "tuple[int, ...]": value}.get(f.type, ())
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in items):
            raise ConfigurationError(f"{key}: must be an integer")


@dataclass(frozen=True)
class WorldConfig:
    KEYS: ClassVar[dict[str, str]] = {}  # every config-file key is its field's name

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
        check_types(self)
        if self.n_agents not in (2, 4):
            raise ConfigurationError(f"n_agents: must be 2 or 4, got {self.n_agents}")
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"scenario: unknown scenario {self.scenario!r}")
        if self.reward_mode not in REWARD_MODES:
            raise ConfigurationError(f"reward_mode: unknown reward mode {self.reward_mode!r}")
        for name in ("step_size", "success_radius"):
            if not 0.0 < getattr(self, name) < self.half_extent:
                raise ConfigurationError(f"{name}: must lie in (0, half_extent)")
        if self.episode_length < 1:
            raise ConfigurationError("episode_length: must be >= 1")
        for name in ("collision_radius", "c_collide", "c_success", "start_jitter"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name}: must be >= 0")


@dataclass(frozen=True)
class StepResult:
    next_joint_obs: np.ndarray  # (..., N, obs_dim)
    extrinsic_reward: np.ndarray  # (...)
    done: bool
    success: np.ndarray  # (...) bool


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def other_agents(n: int) -> np.ndarray:
    """(N, N-1) agent indices: row i lists every agent but i, ascending."""
    return _frozen(np.array([[k for k in range(n) if k != i] for i in range(n)], dtype=int))


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, np.linalg.norm's arithmetic for
    real input without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def observe(positions: np.ndarray, landmarks: np.ndarray) -> np.ndarray:
    """Per-agent observations (..., N, obs_dim) of agent positions (..., N, 2)
    among landmarks (L, 2): relative landmark positions, then relative
    positions of the other agents in ascending index order (self skipped)."""
    *batch, n, _ = positions.shape
    n_landmarks = len(landmarks)
    # [..., i, j]: landmark j, then other agent j - L of i; minus i's position
    rel = np.empty((*batch, n, n_landmarks + n - 1, 2))
    rel[..., :n_landmarks, :] = landmarks
    rel[..., n_landmarks:, :] = positions[..., other_agents(n), :]
    rel -= positions[..., :, None, :]
    return rel.reshape(*batch, n, -1)


class NavEnv:
    """The world of one WorldConfig, and a batch of its episodes.

    The constructor validates the config and fixes the world's constants:
    the jitter-free start layout `starts` (N, 2), the `landmarks` (L, 2) and
    each agent's assigned landmark position, `targets` (N, 2). Agents start
    in a centered row at the origin. same_landmark puts the shared landmark
    on the right edge, well away from the corners; different_landmark puts
    one landmark on the left edge and one on the right, slightly lower, and
    assigns them to the agents alternately by index. Every landmark is
    14-16 grid moves from the center, so a straight run reaches it with over
    half the episode left to sit on it, but an agent that merely holds a
    constant direction ends up pinned in a corner, not docked, so stopping
    on the landmark has to be learned.

    The moving state is `positions` (..., N, 2), one (N, 2) block per
    episode, and the `timestep` every episode shares. reset(rng, n_episodes)
    starts a batch of episodes that then move in lockstep, one action per
    agent of every episode; reset(rng) plays a single episode, the batch
    shape (). A trainer may move without scoring and score the positions it
    kept afterwards, in one call; score reads only the constants, so it
    needs no reset. One instance per logical training thread; instances
    share nothing.
    """

    def __init__(self, config: WorldConfig):
        config.validate()
        self.config = config
        n = config.n_agents
        starts = np.zeros((n, 2))
        starts[:, 0] = AGENT_SPACING * (np.arange(n) - (n - 1) / 2.0)
        if config.scenario == "same_landmark":
            landmarks, assignment = SAME_LANDMARK_POS, [0] * n
        else:
            landmarks, assignment = DIFFERENT_LANDMARK_POS, [i % 2 for i in range(n)]
        self.starts = _frozen(starts)
        self.landmarks = _frozen(landmarks.copy())
        self.targets = _frozen(landmarks[assignment])
        self._pairs = np.triu_indices(n, 1)
        self.positions: np.ndarray | None = None
        self.timestep = 0

    def reset(self, rng: np.random.Generator, n_episodes: int | None = None) -> np.ndarray:
        """Start one episode, or n_episodes in lockstep, and return the first
        joint observations. Agents get per-component uniform start jitter,
        drawn episode by episode."""
        batch = () if n_episodes is None else (n_episodes,)
        j, h = self.config.start_jitter, self.config.half_extent
        starts = self.starts + rng.uniform(-j, j, size=batch + self.starts.shape)
        self.positions, self.timestep = np.clip(starts, -h, h), 0
        return observe(self.positions, self.landmarks)

    def step(self, joint_action) -> StepResult:
        """move, then score: one step of what training does for a round."""
        obs = self.move(joint_action)
        reward, success = self.score(self.positions)
        return StepResult(obs, reward, self.timestep >= self.config.episode_length, success)

    def move(self, joint_action) -> np.ndarray:
        """Move every agent one step_size along its action, clamp to the
        world and advance the clock; nothing is scored. joint_action holds
        one action index per agent of every episode, (..., N). positions is
        rebound to a new array, so one the caller kept is not written into,
        and a rejected action changes nothing. Returns the next joint
        observations."""
        if self.positions is None:
            raise RuntimeError("reset() must be called before step() or move()")
        if self.timestep >= self.config.episode_length:
            raise EpisodeExhaustedError(f"episode already finished at t={self.timestep}")
        actions = np.asarray(joint_action)
        want = self.positions.shape[:-1]
        integers = actions.dtype.kind in "iu"  # a float or bool action is no index
        if not integers or actions.shape != want or actions.min() < 0 or actions.max() >= N_ACTIONS:
            raise ValueError(f"joint_action must be {want} integer indices in [0, 5)")
        h = self.config.half_extent
        # clamped in place: np.clip(new_pos, -h, h), bit for bit
        new_pos = self.positions + self.config.step_size * _ACTION_DELTAS[actions]
        np.maximum(new_pos, -h, out=new_pos)
        np.minimum(new_pos, h, out=new_pos)
        self.positions, self.timestep = new_pos, self.timestep + 1
        return observe(new_pos, self.landmarks)

    def score(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(extrinsic reward, success) of agent positions (..., N, 2), one of
        each per leading index. Every term is elementwise along the leading
        axes, so positions stacked over a round's steps, (E, T, N, 2), score
        as each step scores alone.

        Success holds when every agent is within success_radius of its
        target. The sparse reward is 1 exactly then. The dense reward is the
        negative sum over agents of the distance to the target, minus
        c_collide per colliding agent pair (pairwise distance
        < 2*collision_radius), plus c_success whenever success holds. The
        pull term alone pays hovering near a landmark almost as well as
        sitting on it, so a critic trained on it ranks actions by approach
        direction and never by the final docking step; the bonus separates
        docked from nearly-docked states by a margin the critic cannot
        smooth away."""
        config = self.config
        dists = _norm(positions - self.targets)
        success = np.all(dists <= config.success_radius, axis=-1)
        if config.reward_mode == "sparse":
            return success.astype(float), success
        reward = -dists.sum(axis=-1)
        reward = reward + config.c_success * success
        first, second = self._pairs
        gaps = _norm(positions[..., first, :] - positions[..., second, :])
        hits = gaps < 2.0 * config.collision_radius
        # one pair at a time, so several penalties round exactly as repeated
        # subtraction does; subtracting 0.0 for a pair apart changes no bit
        for pair in range(hits.shape[-1]):
            reward = reward - config.c_collide * hits[..., pair]
        return reward, success
