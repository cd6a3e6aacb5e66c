"""Experiment orchestration: flat-file configs, seeded runs, CSV metrics,
sweeps over methods x seeds, and Table-style aggregation.

Config files are flat `key = value` lines with `#` comments. Every run is a
pure function of its resolved config: the master seed is split into
independent streams for the environment, action sampling, network
initialization, and curiosity-bank initialization, so runs never share
random state and parallel execution order cannot change any run's output.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from dataclasses import Field, dataclass, field, fields, replace

import numpy as np

from . import coma, curiosity, nav_env
from .nav_env import ConfigurationError

logger = logging.getLogger(__name__)

RESULTS_ENV_VAR = "CURIOSITY_MARL_RESULTS"
CSV_HEADER = (
    "run_id,method,scenario,n_agents,seed,episode,"
    "normalized_reward,extrinsic_return,mean_intrinsic,curiosity_loss"
)
AUTO_EPISODE_BUDGET = {2: 30_000, 4: 50_000}
PROGRESS_LOG_EVERY = 5000  # episodes between progress log lines


class IncompleteRunError(ValueError):
    """A run's CSV stops before its episode budget: it crashed or was killed."""


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one training run: the run's own settings, the world it
    trains in, and the training hyperparameters. The config-file keys are
    the fields of all three (see _settings)."""

    method: str = "mcm"
    seed: int = 0
    eval_interval: int = 100
    world: nav_env.WorldConfig = field(default_factory=nav_env.WorldConfig)
    train: coma.TrainConfig = field(default_factory=coma.TrainConfig)

    @property
    def resolved_total_episodes(self) -> int:
        return self.train.total_episodes or AUTO_EPISODE_BUDGET[self.world.n_agents]

    def validate(self) -> None:
        try:
            curiosity.CuriosityKind(self.method)
        except ValueError:
            raise ConfigurationError(
                f"method: unknown method {self.method!r}; choose from "
                f"{[k.value for k in curiosity.CuriosityKind]}"
            ) from None
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")
        if self.eval_interval < 1:
            raise ConfigurationError("eval_interval: must be >= 1")
        self.world.validate()
        self.train.validate()


# RunConfig fields that nest a section; every other field is a run setting.
_SECTIONS = {"world": nav_env.WorldConfig, "train": coma.TrainConfig}
# Two TrainConfig fields keep their established config-file keys.
_FIELD_TO_KEY = {"intrinsic_lambda": "lambda", "intrinsic_clip": "clip_max"}


def _parse_int(raw: str) -> int:
    return int(raw.strip())


def _parse_float(raw: str) -> float:
    return float(raw.strip())


def _parse_str(raw: str) -> str:
    return raw.strip()


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


# Field annotations are strings (postponed evaluation); map them to parsers.
_CONVERTERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": _parse_str,
    "tuple[int, ...]": _parse_int_tuple,
}


def _settings() -> list[tuple[str | None, Field]]:
    """(section, field) for every config key: the run's own fields (section
    None), then WorldConfig's, then TrainConfig's."""
    own = [(None, f) for f in fields(RunConfig) if f.name not in _SECTIONS]
    return own + [(name, f) for name, cls in _SECTIONS.items() for f in fields(cls)]


def _field_converters() -> dict[str, tuple[str | None, str, object]]:
    """Map config-file key -> (section, field name, converter)."""
    out = {}
    for section, f in _settings():
        annotation = f.type if isinstance(f.type, str) else f.type.__name__
        out[_FIELD_TO_KEY.get(f.name, f.name)] = (section, f.name, _CONVERTERS[annotation])
    return out


def parse_pairs(text: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw = stripped.split("=", 1)
        pairs[key.strip()] = raw.strip()
    return pairs


def parse_config(text: str = "", overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a validated RunConfig from file text plus override pairs
    (overrides win, mirroring CLI-flag precedence). Unknown keys are
    rejected by name."""
    converters = _field_converters()
    merged = parse_pairs(text)
    merged.update(overrides or {})
    values: dict[str | None, dict] = {section: {} for section in (None, *_SECTIONS)}
    for key, raw in merged.items():
        if key not in converters:
            raise ConfigurationError(f"unknown config key: {key}")
        section, attr, conv = converters[key]
        try:
            values[section][attr] = conv(raw)
        except (ValueError, TypeError):
            raise ConfigurationError(f"{key}: malformed value {raw!r}") from None
    cfg = RunConfig(
        **values[None], **{name: cls(**values[name]) for name, cls in _SECTIONS.items()}
    )
    cfg.validate()
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig in the same flat format parse_config reads."""
    lines = []
    for section, f in _settings():
        value = getattr(cfg if section is None else getattr(cfg, section), f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{_FIELD_TO_KEY.get(f.name, f.name)} = {rendered}")
    return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    config: RunConfig
    normalized: np.ndarray  # (total_episodes,)
    extrinsic: np.ndarray
    mean_intrinsic: np.ndarray
    curiosity_loss: np.ndarray
    success_any: np.ndarray  # bool
    final_score: float


def resolve_results_dir(explicit: str | None = None) -> str:
    return explicit or os.environ.get(RESULTS_ENV_VAR) or "results"


def run_id(cfg: RunConfig) -> str:
    return f"{cfg.method}_{cfg.world.scenario}_{cfg.world.n_agents}ag_s{cfg.seed}"


def final_score_of(normalized: np.ndarray) -> float:
    tail = max(1, len(normalized) // 10)
    return float(np.mean(normalized[-tail:]))


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def run_experiment(cfg: RunConfig, results_dir: str | None = None) -> RunResult:
    """Train one configuration end to end; write one CSV of per-interval
    means plus a sidecar echoing the fully resolved config."""
    cfg.validate()
    cfg = replace(cfg, train=replace(cfg.train, total_episodes=cfg.resolved_total_episodes))
    out_dir = resolve_results_dir(results_dir)
    os.makedirs(out_dir, exist_ok=True)
    rid = run_id(cfg)
    with open(os.path.join(out_dir, rid + ".config"), "w") as f:
        f.write(render_config(cfg))

    env_ss, action_ss, net_ss, bank_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    env_rng = np.random.default_rng(env_ss)
    action_rng = np.random.default_rng(action_ss)
    net_rng = np.random.default_rng(net_ss)
    bank_rng = np.random.default_rng(bank_ss)

    world, train_cfg = cfg.world, cfg.train
    env = nav_env.NavEnv(world)
    policies = coma.make_policy_set(
        world.n_agents, world.obs_dim, net_rng,
        train_cfg.hidden_dims, train_cfg.leaky_slope, train_cfg.actor_lr,
    )
    critic = coma.make_critic(
        world.n_agents, world.obs_dim, net_rng,
        train_cfg.hidden_dims, train_cfg.leaky_slope, train_cfg.critic_lr,
    )
    bank = curiosity.make_bank(
        cfg.method, world.n_agents, world.obs_dim, bank_rng,
        train_cfg.hidden_dims, train_cfg.leaky_slope, train_cfg.curiosity_lr,
    )

    total = train_cfg.total_episodes
    normalized = np.zeros(total)
    extrinsic = np.zeros(total)
    mean_intrinsic = np.zeros(total)
    curiosity_loss = np.zeros(total)
    success_any = np.zeros(total, dtype=bool)

    logger.info("run %s: starting %d episodes", rid, total)
    csv_path = os.path.join(out_dir, rid + ".csv")
    done = 0
    next_mark = cfg.eval_interval
    next_log = PROGRESS_LOG_EVERY
    with open(csv_path, "w") as csv_file:
        csv_file.write(CSV_HEADER + "\n")
        csv_file.flush()

        def emit_row(end: int, start: int) -> None:
            sl = slice(start, end)
            row = ",".join(
                [
                    rid,
                    cfg.method,
                    world.scenario,
                    str(world.n_agents),
                    str(cfg.seed),
                    str(end),
                    _g17(normalized[sl].mean()),
                    _g17(extrinsic[sl].mean()),
                    _g17(mean_intrinsic[sl].mean()),
                    _g17(curiosity_loss[sl].mean()),
                ]
            )
            csv_file.write(row + "\n")
            csv_file.flush()

        while done < total:
            n_eps = min(train_cfg.episodes_per_update, total - done)
            round_cfg = (
                train_cfg
                if n_eps == train_cfg.episodes_per_update
                else replace(train_cfg, episodes_per_update=n_eps)
            )
            try:
                stats = coma.train_round(
                    policies, critic, env, bank, round_cfg, done, env_rng, action_rng
                )
            except FloatingPointError as e:
                raise RuntimeError(
                    f"run {rid}: numeric failure near episode {done}: {e}"
                ) from e
            round_loss = (
                float(np.mean(stats.curiosity_losses)) if stats.curiosity_losses else 0.0
            )
            ep_len = world.episode_length
            for k in range(n_eps):
                extrinsic[done + k] = stats.extrinsic_returns[k]
                normalized[done + k] = stats.success_steps[k] / ep_len
                mean_intrinsic[done + k] = stats.mean_intrinsic[k]
                curiosity_loss[done + k] = round_loss
                success_any[done + k] = stats.success_any[k]
            done += n_eps
            while next_mark <= done:
                emit_row(next_mark, next_mark - cfg.eval_interval)
                next_mark += cfg.eval_interval
            if next_log <= done:
                logger.info(
                    "run %s: %d/%d episodes, recent normalized %.3f",
                    rid, done, total, float(np.mean(normalized[max(0, done - 500):done])),
                )
                next_log = (done // PROGRESS_LOG_EVERY + 1) * PROGRESS_LOG_EVERY
        if next_mark - cfg.eval_interval < total:
            emit_row(total, next_mark - cfg.eval_interval)

    score = final_score_of(normalized)
    logger.info("run %s: finished, final score %.4f", rid, score)
    return RunResult(
        cfg, normalized, extrinsic, mean_intrinsic, curiosity_loss, success_any, score
    )


@dataclass(frozen=True)
class RunSummary:
    """Slim stand-in for RunResult when reloading finished runs from disk."""

    config: RunConfig
    final_score: float


@dataclass(frozen=True)
class AggregateRow:
    method: str
    scenario: str
    n_agents: int
    n_seeds: int
    mean: float
    std: float


def aggregate(results) -> list[AggregateRow]:
    """Group final scores by (method, scenario, n_agents); sample std
    (ddof=1), 0.0 for singleton groups."""
    groups: dict[tuple[str, str, int], list[float]] = {}
    for r in results:
        key = (r.config.method, r.config.world.scenario, r.config.world.n_agents)
        groups.setdefault(key, []).append(r.final_score)
    rows = []
    for (method, scenario, n_agents), scores in sorted(groups.items()):
        arr = np.asarray(scores)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        rows.append(
            AggregateRow(method, scenario, n_agents, len(arr), float(arr.mean()), std)
        )
    return rows


def format_aggregate(rows: list[AggregateRow]) -> str:
    header = f"{'method':<12} {'scenario':<20} {'agents':>6} {'seeds':>5}  final score"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.method:<12} {r.scenario:<20} {r.n_agents:>6} {r.n_seeds:>5}  "
            f"{r.mean:.4f} ± {r.std:.4f}"
        )
    return "\n".join(lines)


def aggregate_csv(rows: list[AggregateRow]) -> str:
    out = ["method,scenario,n_agents,n_seeds,mean,std"]
    for r in rows:
        out.append(
            f"{r.method},{r.scenario},{r.n_agents},{r.n_seeds},{_g17(r.mean)},{_g17(r.std)}"
        )
    return "\n".join(out) + "\n"


def parse_csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized results CSV header")
    cols = CSV_HEADER.split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"bad results row: {ln!r}")
        row = dict(zip(cols, parts))
        for k in ("n_agents", "seed", "episode"):
            row[k] = int(row[k])
        for k in ("normalized_reward", "extrinsic_return", "mean_intrinsic", "curiosity_loss"):
            row[k] = float(row[k])
        rows.append(row)
    return rows


def load_run(results_dir: str, rid: str) -> RunSummary:
    """Rebuild a finished run's final score from its CSV, weighting each
    interval row by its overlap with the last 10% of episodes. Raises
    IncompleteRunError unless the last row reaches the episode budget."""
    with open(os.path.join(results_dir, rid + ".config")) as f:
        cfg = parse_config(f.read())
    with open(os.path.join(results_dir, rid + ".csv")) as f:
        rows = parse_csv_rows(f.read())
    total = cfg.resolved_total_episodes
    last = rows[-1]["episode"] if rows else 0
    if last != total:
        raise IncompleteRunError(f"run {rid}: CSV ends at episode {last} of {total}")
    threshold = 0.9 * total
    weighted = 0.0
    weight = 0.0
    prev = 0
    for row in rows:
        end = row["episode"]
        overlap = min(end, total) - max(prev, threshold)
        if overlap > 0:
            weighted += overlap * row["normalized_reward"]
            weight += overlap
        prev = end
    return RunSummary(cfg, weighted / weight)


def load_results(results_dir: str) -> list[RunSummary]:
    rids = sorted(
        name[: -len(".config")]
        for name in os.listdir(results_dir)
        if name.endswith(".config")
    )
    out = []
    for rid in rids:
        if not os.path.exists(os.path.join(results_dir, rid + ".csv")):
            logger.warning("run %s: config sidecar without CSV, skipping", rid)
            continue
        try:
            out.append(load_run(results_dir, rid))
        except IncompleteRunError as e:
            logger.warning("%s, skipping", e)
    return out


@dataclass(frozen=True)
class SweepCell:
    method: str
    seed: int
    run_id: str
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def parse_sweep(text: str) -> tuple[list[str], list[int], dict[str, str]]:
    """Sweep file = base run config plus `methods` and `seeds` list keys."""
    pairs = parse_pairs(text)
    try:
        methods_raw = pairs.pop("methods")
        seeds_raw = pairs.pop("seeds")
    except KeyError as e:
        raise ConfigurationError(f"sweep file must define {e.args[0]}") from None
    methods = [m.strip() for m in methods_raw.split(",") if m.strip()]
    try:
        seeds = [int(s) for s in seeds_raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigurationError(f"seeds: malformed value {seeds_raw!r}") from None
    if not methods or not seeds:
        raise ConfigurationError("methods and seeds must be non-empty")
    return methods, seeds, pairs


def _sweep_worker(args: tuple[RunConfig, str]) -> tuple[str, str | None]:
    cfg, results_dir = args
    try:
        run_experiment(cfg, results_dir)
        return run_id(cfg), None
    except Exception as e:  # report the failing cell, keep the sweep going
        return run_id(cfg), f"{type(e).__name__}: {e}"


def sweep(
    methods: list[str],
    seeds: list[int],
    base_pairs: dict[str, str],
    results_dir: str | None = None,
    workers: int = 1,
) -> list[SweepCell]:
    """Run the methods x seeds cross-product; every cell gets its own files.
    Returns one cell record per combination, failures included. A method or
    seed listed twice is rejected: its cells would share one run_id, and so
    one CSV, which parallel workers would write at once."""
    for name, values in (("methods", methods), ("seeds", seeds)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigurationError(f"{name}: listed more than once: {repeated}")
    out_dir = resolve_results_dir(results_dir)
    cfgs = []
    for method in methods:
        for seed in seeds:
            overrides = dict(base_pairs)
            overrides["method"] = method
            overrides["seed"] = str(seed)
            cfgs.append(parse_config("", overrides))
    jobs = [(cfg, out_dir) for cfg in cfgs]
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            outcomes = pool.map(_sweep_worker, jobs)
    else:
        outcomes = [_sweep_worker(job) for job in jobs]
    cells = []
    for cfg, (rid, error) in zip(cfgs, outcomes):
        if error is not None:
            logger.error("sweep cell %s failed: %s", rid, error)
        cells.append(SweepCell(cfg.method, cfg.seed, rid, error))
    return cells
