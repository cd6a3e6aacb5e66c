"""Experiment orchestration: flat-file configs, seeded runs, CSV metrics,
sweeps over methods x seeds, and Table-style aggregation.

Config files are flat `key = value` lines with `#` comments; a key may
appear once per file. Every run is a pure function of its resolved config:
run_experiment builds the run's coma.TrainState, which splits the master
seed into independent streams, advances it one coma.train_round at a time,
writes a CSV row whenever an interval of episodes is complete, and writes
the summary file last.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
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

    def __post_init__(self) -> None:
        # a CuriosityKind is kept as its plain string; validate rejects an unknown method
        with contextlib.suppress(ValueError):
            object.__setattr__(self, "method", curiosity.CuriosityKind(self.method).value)

    @property
    def resolved_total_episodes(self) -> int:
        return self.train.total_episodes or AUTO_EPISODE_BUDGET[self.world.n_agents]

    def validate(self) -> None:
        known = [k.value for k in curiosity.CuriosityKind]
        if self.method not in known:
            raise ConfigurationError(f"method: unknown method {self.method!r}; choose from {known}")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")
        if self.eval_interval < 1:
            raise ConfigurationError("eval_interval: must be >= 1")
        self.world.validate()
        self.train.validate()


# RunConfig fields that nest a section; every other field is a run setting.
# A section's KEYS name its fields' config-file keys where they differ.
_SECTIONS = {"world": nav_env.WorldConfig, "train": coma.TrainConfig}


def _split_items(raw: str) -> list[str]:
    """The items of a comma list; an empty one is an error, not skipped."""
    items = [p.strip() for p in raw.split(",")]
    if "" in items:
        raise ValueError(f"empty item in {raw!r}")
    return items


# Each declared field type's (parser, renderer), keyed by its annotation, a
# string by postponed evaluation. A value renders by its field's type, not its own.
_TEXT_FORMS = {
    "int": (int, lambda v: str(int(v))),
    "float": (float, lambda v: repr(float(v))),
    "str": (str.strip, str),
    "tuple[int, ...]": (
        lambda raw: tuple(int(p) for p in _split_items(raw)),
        lambda v: ",".join(str(int(x)) for x in v),
    ),
}


def _settings() -> dict[str, tuple[str | None, Field]]:
    """Config-file key -> (section, field) of every setting: the run's own
    fields (section None), then WorldConfig's, then TrainConfig's."""
    out = {f.name: (None, f) for f in fields(RunConfig) if f.name not in _SECTIONS}
    for section, cls in _SECTIONS.items():
        out.update({cls.KEYS.get(f.name, f.name): (section, f) for f in fields(cls)})
    return out


def parse_pairs(text: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment; blank lines ignored.
    A key given on two lines is rejected with both line numbers."""
    pairs: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in lines:
            raise ConfigurationError(f"{key}: given twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        pairs[key] = raw
    return pairs


def parse_config(text: str = "", overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a validated RunConfig from file text plus override pairs
    (overrides win, mirroring CLI-flag precedence). Unknown keys are
    rejected by name."""
    settings = _settings()
    merged = parse_pairs(text)
    merged.update(overrides or {})
    values: dict[str | None, dict] = {section: {} for section in (None, *_SECTIONS)}
    for key, raw in merged.items():
        if key not in settings:
            raise ConfigurationError(f"unknown config key: {key}")
        section, f = settings[key]
        try:
            values[section][f.name] = _TEXT_FORMS[f.type][0](raw)
        except (ValueError, TypeError):
            raise ConfigurationError(f"{key}: malformed value {raw!r}") from None
    cfg = RunConfig(
        **values[None], **{name: cls(**values[name]) for name, cls in _SECTIONS.items()}
    )
    cfg.validate()
    return cfg


def _texts(cfg: RunConfig) -> dict[str, str]:
    """Config-file key -> the text of its value, in _settings order."""
    return {
        key: _TEXT_FORMS[f.type][1](getattr(getattr(cfg, section) if section else cfg, f.name))
        for key, (section, f) in _settings().items()
    }


def render_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig in the same flat format parse_config reads."""
    return "".join(f"{key} = {text}\n" for key, text in _texts(cfg).items())


@dataclass
class RunResult:
    config: RunConfig
    normalized: np.ndarray  # (total_episodes,)
    extrinsic: np.ndarray
    mean_intrinsic: np.ndarray
    curiosity_loss: np.ndarray
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


def _csv_row(cfg: RunConfig, state: coma.TrainState, end: int) -> str:
    """The CSV row that ends at episode `end`: the mean of each value over
    the episodes since the last multiple of eval_interval before it."""
    world, sl = cfg.world, slice((end - 1) // cfg.eval_interval * cfg.eval_interval, end)
    means = (state.normalized, state.extrinsic, state.mean_intrinsic, state.curiosity_loss)
    return ",".join(
        [run_id(cfg), cfg.method, world.scenario, str(world.n_agents), str(cfg.seed), str(end)]
        + [_g17(a[sl].mean()) for a in means]
    )


def run_experiment(cfg: RunConfig, results_dir: str | None = None) -> RunResult:
    """Train one configuration end to end; write one CSV of per-interval
    means, a sidecar echoing the fully resolved config, and, once the CSV
    is closed, a summary file of the final score and episode count."""
    state = coma.init_state(cfg)  # checks cfg and resolves its budget
    cfg = replace(cfg, train=state.cfg)
    out_dir = resolve_results_dir(results_dir)
    os.makedirs(out_dir, exist_ok=True)
    rid = run_id(cfg)
    # an earlier run's summary would pass for this run's until it finishes
    summary_path = os.path.join(out_dir, rid + ".summary")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary_path)
    with open(os.path.join(out_dir, rid + ".config"), "w") as f:
        f.write(render_config(cfg))

    total = cfg.train.total_episodes
    # each row ends at a multiple of eval_interval, and the last at total
    row_ends = [*range(cfg.eval_interval, total, cfg.eval_interval), total]
    next_log = PROGRESS_LOG_EVERY
    logger.info("run %s: starting %d episodes", rid, total)
    with open(os.path.join(out_dir, rid + ".csv"), "w") as csv_file:
        csv_file.write(CSV_HEADER + "\n")
        csv_file.flush()
        while state.episodes < total:
            try:
                coma.train_round(state)
            except FloatingPointError as e:
                raise RuntimeError(
                    f"run {rid}: numeric failure near episode {state.episodes}: {e}"
                ) from e
            while row_ends and row_ends[0] <= state.episodes:
                csv_file.write(_csv_row(cfg, state, row_ends.pop(0)) + "\n")
                csv_file.flush()
            done = state.episodes
            if next_log <= done:
                recent = float(np.mean(state.normalized[max(0, done - 500):done]))
                logger.info(
                    "run %s: %d/%d episodes, recent normalized %.3f", rid, done, total, recent
                )
                next_log = (done // PROGRESS_LOG_EVERY + 1) * PROGRESS_LOG_EVERY

    score = final_score_of(state.normalized)
    # written last, and whole or not at all: a run without one never finished
    with open(summary_path + ".tmp", "w") as f:
        f.write(f"final_score = {_g17(score)}\nepisodes = {total}\n")
    os.replace(summary_path + ".tmp", summary_path)
    logger.info("run %s: finished, final score %.4f", rid, score)
    return RunResult(
        cfg, state.normalized, state.extrinsic, state.mean_intrinsic, state.curiosity_loss, score
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


def _check_seeds_of_one_cell(runs) -> None:
    """Raise ValueError naming the first config key, in render_config
    order, at which a run's config differs from the first run's in more
    than the seed, and both run ids."""
    first = _texts(runs[0].config)
    for r in runs[1:]:
        other = _texts(r.config)
        for key, value in first.items():
            if key != "seed" and other[key] != value:
                raise ValueError(
                    f"{key}: runs {run_id(runs[0].config)} and {run_id(r.config)} differ "
                    f"({value} and {other[key]}); only seeds of one config are pooled"
                )


def aggregate(results) -> list[AggregateRow]:
    """Group final scores by (method, scenario, n_agents); sample std
    (ddof=1), 0.0 for singleton groups. The runs of a group must differ in
    the seed alone, or ValueError names the first key that differs."""
    groups: dict[tuple[str, str, int], list] = {}
    for r in results:
        key = (r.config.method, r.config.world.scenario, r.config.world.n_agents)
        groups.setdefault(key, []).append(r)
    rows = []
    for (method, scenario, n_agents), runs in sorted(groups.items()):
        _check_seeds_of_one_cell(runs)
        arr = np.asarray([r.final_score for r in runs])
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
    """A finished run's config and the exact final score its summary file
    records. Raises IncompleteRunError unless the CSV's last row reaches
    the episode budget and the summary file exists, and ValueError when
    the summary does not parse or counts other episodes."""
    with open(os.path.join(results_dir, rid + ".config")) as f:
        cfg = parse_config(f.read())
    with open(os.path.join(results_dir, rid + ".csv")) as f:
        rows = parse_csv_rows(f.read())
    total = cfg.resolved_total_episodes
    last = rows[-1]["episode"] if rows else 0
    if last != total:
        raise IncompleteRunError(f"CSV ends at episode {last} of {total}")
    try:
        with open(os.path.join(results_dir, rid + ".summary")) as f:
            summary = parse_pairs(f.read())
    except FileNotFoundError:
        raise IncompleteRunError("no .summary file: unfinished, or older than summaries") from None
    try:
        score, episodes = float(summary["final_score"]), int(summary["episodes"])
    except (KeyError, ValueError):
        raise ValueError(f"malformed .summary file {summary!r}") from None
    if episodes != total:
        raise ValueError(f".summary counts {episodes} episodes of {total}")
    return RunSummary(cfg, score)


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
        except ValueError as e:  # incomplete, or a sidecar, CSV or summary that does not parse
            logger.warning("run %s: %s, skipping", rid, e)
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
    """Sweep file = base run config plus `methods` and `seeds` list keys.
    A `method` or `seed` key is rejected: every cell would override it."""
    pairs = parse_pairs(text)
    for key in ("method", "seed"):
        if key in pairs:
            raise ConfigurationError(
                f"{key}: not a sweep key; list the cells' {key}s under `{key}s`"
            )
    lists = []
    for key, conv in (("methods", str), ("seeds", int)):
        if key not in pairs:
            raise ConfigurationError(f"sweep file must define {key}")
        raw = pairs.pop(key)
        try:
            lists.append([conv(item) for item in _split_items(raw)])
        except ValueError:
            raise ConfigurationError(f"{key}: malformed value {raw!r}") from None
    return lists[0], lists[1], pairs


def _openblas_function(name: str):
    """numpy's bundled OpenBLAS function `name` (such as set_num_threads),
    under whichever symbol the wheel exports, or None."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for symbol in (f"{prefix}{name}64_", f"{prefix}{name}"):
                if hasattr(lib, symbol):
                    return getattr(lib, symbol)
    return None


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per sweep worker, so that the
    workers do not compete for the cores with BLAS threads of their own.
    The thread count changes no output byte."""
    set_threads = _openblas_function("set_num_threads")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


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
    one CSV, which parallel workers would write at once. So is a workers
    count below 1. With workers > 1, each pool worker runs OpenBLAS on one
    thread; a serial sweep keeps the process's count, at which one run
    trains about as fast as at one thread."""
    for name, values in (("methods", methods), ("seeds", seeds)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigurationError(f"{name}: listed more than once: {repeated}")
    if workers < 1:
        raise ConfigurationError("workers: must be >= 1")
    out_dir = resolve_results_dir(results_dir)
    cfgs = [
        parse_config("", {**base_pairs, "method": method, "seed": str(seed)})
        for method in methods
        for seed in seeds
    ]
    jobs = [(cfg, out_dir) for cfg in cfgs]
    if workers > 1:
        pin = _openblas_function("set_num_threads") is not None
        if not pin:
            logger.warning("no OpenBLAS thread setter: sweep workers keep the default count")
        with multiprocessing.Pool(workers, _one_blas_thread if pin else None) as pool:
            outcomes = pool.map(_sweep_worker, jobs)
    else:
        outcomes = [_sweep_worker(job) for job in jobs]
    cells = []
    for cfg, (rid, error) in zip(cfgs, outcomes):
        if error is not None:
            logger.error("sweep cell %s failed: %s", rid, error)
        cells.append(SweepCell(cfg.method, cfg.seed, rid, error))
    return cells
