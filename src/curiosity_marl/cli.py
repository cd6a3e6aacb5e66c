"""Command-line entry points: run, sweep, gradcheck, report.

Exit codes: 0 on success, 1 on run/check failure, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import coma, harness
from . import curiosity as cur
from . import neural_core as nc
from .nav_env import ConfigurationError

logger = logging.getLogger(__name__)

# (flag, config key) pairs exposed directly; anything else goes via --set.
_DIRECT_FLAGS = [
    ("--scenario", "scenario"),
    ("--n-agents", "n_agents"),
    ("--reward-mode", "reward_mode"),
    ("--method", "method"),
    ("--seed", "seed"),
    ("--total-episodes", "total_episodes"),
    ("--eval-interval", "eval_interval"),
    ("--lambda", "lambda"),
    ("--clip-max", "clip_max"),
]


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat `key = value` config file")
    for flag, key in _DIRECT_FLAGS:
        p.add_argument(
            flag, dest=f"cfg_{key}", action="append", metavar="V", help=f"override {key}"
        )
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def _add_results_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--results-dir",
        help=f"output directory (default ${harness.RESULTS_ENV_VAR} or ./results)",
    )


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    """The keys the direct flags and --set items give; a key given twice, by
    either or both, is rejected as it is in a config file."""
    given = [(key, v) for _, key in _DIRECT_FLAGS for v in getattr(args, f"cfg_{key}") or ()]
    for item in args.set:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        given.append((key.strip(), value.strip()))
    overrides: dict[str, str] = {}
    for key, value in given:
        if key in overrides:
            raise ConfigurationError(f"{key}: given twice on the command line")
        overrides[key] = value
    return overrides


def _read_config_text(path: str | None) -> str:
    if path is None:
        return ""
    with open(path) as f:
        return f.read()


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = harness.parse_config(_read_config_text(args.config), _collect_overrides(args))
    except (ConfigurationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        result = harness.run_experiment(cfg, args.results_dir)
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out_dir = harness.resolve_results_dir(args.results_dir)
    print(f"run {harness.run_id(result.config)}: final score {result.final_score:.4f}")
    print(f"results in {os.path.join(out_dir, harness.run_id(result.config) + '.csv')}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config) as f:
            methods, seeds, base = harness.parse_sweep(f.read())
    except (ConfigurationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        cells = harness.sweep(methods, seeds, base, args.results_dir, args.workers)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failures = 0
    for cell in cells:
        if cell.ok:
            print(f"ok    {cell.run_id}")
        else:
            failures += 1
            print(f"FAIL  {cell.run_id}: {cell.error}")
    print(f"{len(cells) - failures}/{len(cells)} cells completed")
    return 1 if failures else 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    for flag, value, least in (("--networks", args.networks, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag}: must be >= {least}", file=sys.stderr)
            return 2
    net_err, mutant_err = nc.gradient_suite(args.networks, args.seed)
    actor_err = coma.actor_gradient_suite(seed=args.seed)
    critic_err, critic_mutant = coma.critic_gradient_suite(seed=args.seed)
    module_err, module_mutant = cur.curiosity_gradient_suite(seed=args.seed)
    print(f"network gradient suite ({args.networks} nets): max relative error {net_err:.3e}")
    print(f"actor-loss gradient suite: max relative error {actor_err:.3e}")
    print(f"mutation control (sign flip): relative error {mutant_err:.3e}")
    print(
        f"critic-loss gradient suite: max relative error {critic_err:.3e}, "
        f"mutation control {critic_mutant:.3e}"
    )
    print(
        f"curiosity-loss gradient suite: max relative error {module_err:.3e}, "
        f"mutation control {module_mutant:.3e}"
    )
    # each bound checked on its own: a NaN fails it, where a max or min over
    # the suites could drop a NaN that does not come first
    ok = (
        all(err < 1e-6 for err in (net_err, critic_err, module_err))
        and actor_err < 1e-5
        and all(err > nc.MUTANT_MIN for err in (mutant_err, critic_mutant, module_mutant))
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = harness.resolve_results_dir(args.results_dir)
    try:
        results = harness.load_results(out_dir)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not results:
        print(f"no completed runs found in {out_dir}", file=sys.stderr)
        return 1
    try:
        rows = harness.aggregate(results)
    except ValueError as e:  # runs of one cell whose configs differ beyond the seed
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(harness.format_aggregate(rows))
    summary_path = os.path.join(out_dir, "summary.csv")
    try:
        with open(summary_path, "w") as f:
            f.write(harness.aggregate_csv(rows))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"\nsummary CSV written to {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curiosity-marl",
        description="Curiosity-driven multi-agent RL on cooperative navigation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration")
    _add_run_flags(p_run)
    _add_results_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a methods x seeds cross-product")
    p_sweep.add_argument("--config", required=True, help="sweep file with methods/seeds keys")
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel run count")
    _add_results_flag(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audits")
    p_grad.add_argument("--networks", type=int, default=100)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_report = sub.add_parser("report", help="aggregate a results directory")
    _add_results_flag(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
