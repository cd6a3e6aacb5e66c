"""Training-throughput benchmark for curiosity-marl.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mcm_2ag_sparse --seed 0 --seconds 40 --trace 0

The load is a closed loop with one client in one process: each training
round starts after the previous one ends. A run repeats its workload's fixed
unit of work (one 80-episode training run through `harness.run_experiment`,
or one pass of both gradient-audit suites) until `--seconds` have passed,
checks every repeat's output, and prints one JSON object as its last line.
Times are scaled to a reference machine speed measured alongside the work
(see Reference). `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced repeats and reports the per-layer metrics.
See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

TRAINING = {
    # the paper's method in the configuration of nightly criterion 6;
    # rollout-bound, and every layer does real work
    "mcm_2ag_sparse": {"method": "mcm", "n_agents": 2, "reward_mode": "sparse"},
    # curiosity bypassed, dense per-pair collision loop, twice the critic rows
    "none_4ag_dense": {"method": "none", "n_agents": 4, "reward_mode": "dense"},
}
GRADCHECK = "gradcheck"
WORKLOADS = (*TRAINING, GRADCHECK)

EPISODES_PER_REPEAT = 80
EVAL_INTERVAL = 20
GRADCHECK_NETWORKS = 100
ACTOR_POLICIES = 20  # coma.actor_gradient_suite's default
# Tail = the slowest round with at least this many rounds beyond it.
TAIL_BEYOND = 10
# Timings are reported at the machine speed where the reference kernel takes
# this long (about its time on an idle 2-core machine of the kind this was
# written on); see Reference.
REF_NOMINAL_S = 0.002
# Least time between two reference samples taken inside a repeat.
REF_GAP_S = 0.1

# The pass thresholds of `curiosity-marl gradcheck` (cli.cmd_gradcheck).
NET_ERR_MAX = 1e-6
ACTOR_ERR_MAX = 1e-5
MUTANT_ERR_MIN = 1e-3

ROW_CALLERS = (
    "coma.select_actions",
    "curiosity.intrinsic_rewards",
    "coma.critic_update",
    "coma.actor_update",
    "curiosity.curiosity_update",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------- machine


def _blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn_name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(*args: str):
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------- set-up


def import_seconds() -> float:
    """Wall time of `import curiosity_marl` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import curiosity_marl; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Reference:
    """A fixed numpy + Python kernel, independent of the program, shaped
    like its hot paths: batch-1 MLP forwards with softmax sampling, then a
    few batched matmuls.

    The shared machine this benchmark was written on runs the same code up to
    twice as fast or slow from one minute to the next. Timing this kernel
    before and after each repeat, and between rounds at most every REF_GAP_S
    within it, measures that speed. Every time the benchmark gates on is
    scaled by REF_NOMINAL_S / (mean kernel time over the repeat), so it reads
    as if taken on a machine of constant speed; the raw wall times are
    printed beside it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        self.xs = rng.standard_normal((50, 1, 8))
        self.w1 = rng.standard_normal((64, 8))
        self.w2 = rng.standard_normal((64, 64))
        self.w3 = rng.standard_normal((5, 64))
        self.big_x = rng.standard_normal((400, 51))
        self.big_w = rng.standard_normal((64, 51))

    def seconds(self) -> float:
        np = self.np
        t = perf_counter()
        acc = 0.0
        for x in self.xs:
            z = x @ self.w1.T
            a = np.where(z > 0.0, z, 0.01 * z)
            z = a @ self.w2.T
            a = np.where(z > 0.0, z, 0.01 * z)
            out = (a @ self.w3.T)[0]
            e = np.exp(out - out.max())
            p = e / e.sum()
            acc += int(np.searchsorted(np.cumsum(p), 0.5))
            v = np.concatenate([x[0], p])
            acc += float(v @ v)
        for _ in range(1):
            h = self.big_x @ self.big_w.T
            acc += float(np.where(h > 0.0, h, 0.01 * h).sum())
        elapsed = perf_counter() - t
        if not math.isfinite(acc):
            raise FloatingPointError("reference kernel diverged")
        return elapsed


class CallClock:
    """Start time and duration of every call to `owner.attr`; the wrapper is
    one Python call per training round or per audited network. While
    `sampling` is on, a reference sample precedes a call when REF_GAP_S have
    passed since the last one."""

    def __init__(self, owner, attr: str, reference: Reference) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.ref_samples: list[float] = []
        self.sampling = True
        self._reference = reference
        self._last_sample = perf_counter()
        fn = getattr(owner, attr)

        def timed(*args, **kwargs):
            if self.sampling and perf_counter() - self._last_sample >= REF_GAP_S:
                self.sample()
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.starts.append(t)
                self.durations.append(perf_counter() - t)

        setattr(owner, attr, timed)

    def sample(self) -> None:
        self.ref_samples.append(self._reference.seconds())
        self._last_sample = perf_counter()


# ---------------------------------------------------------------- workloads


def config_text(workload: str, seed: int) -> str:
    cell = TRAINING[workload]
    pairs = {
        "method": cell["method"],
        "scenario": "same_landmark",
        "n_agents": cell["n_agents"],
        "reward_mode": cell["reward_mode"],
        "seed": seed,
        "total_episodes": EPISODES_PER_REPEAT,
        "eval_interval": EVAL_INTERVAL,
    }
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "curiosity_marl", "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


class TrainingWorkload:
    """Repeated fixed-budget training runs of one (method, n_agents) cell."""

    unit = "episodes"

    def __init__(self, name: str, seed: int, blas_threads, reference: Reference) -> None:
        from curiosity_marl import coma, harness

        self.harness = harness
        self.text = config_text(name, seed)
        self.results_dir = os.path.join(OUT_DIR, "results")
        self.clock = CallClock(coma, "train_round", reference)
        self.per_repeat = EPISODES_PER_REPEAT
        self.csv = None
        self.csv_bytes = 0
        # A later run of the same source and seed in this checkout must write
        # the same CSV too. The digest is keyed by a hash of the source, so a
        # change to the program never compares against a stale trajectory,
        # and by the BLAS thread count, which changes the last bits of the
        # batched matmuls and so the trajectory.
        self.digest_path = os.path.join(
            OUT_DIR,
            "csv_digests",
            f"{source_digest()}_blas{blas_threads}_{name}_s{seed}.sha256",
        )

    def repeat(self, index: int) -> tuple[float, list[float], float]:
        """One training run, the same at every index. Returns the wall time
        of its training loop, its round durations, and the time from
        `parse_config` to the first round; raises on any error or wrong
        output."""
        i0 = len(self.clock.starts)
        t0 = perf_counter()
        cfg = self.harness.parse_config(self.text)
        self.harness.run_experiment(cfg, self.results_dir)
        t_end = perf_counter()
        first = self.clock.starts[i0]
        self.check(cfg)
        return t_end - first, self.clock.durations[i0:], first - t0

    def check(self, cfg) -> None:
        harness = self.harness
        path = os.path.join(self.results_dir, harness.run_id(cfg) + ".csv")
        with open(path, "rb") as f:
            data = f.read()
        rows = harness.parse_csv_rows(data.decode())
        expected_ends = list(range(EVAL_INTERVAL, EPISODES_PER_REPEAT + 1, EVAL_INTERVAL))
        if [r["episode"] for r in rows] != expected_ends:
            raise AssertionError(f"CSV episode column {[r['episode'] for r in rows]}")
        for r in rows:
            for key in ("normalized_reward", "extrinsic_return", "mean_intrinsic", "curiosity_loss"):
                if not math.isfinite(r[key]):
                    raise AssertionError(f"non-finite {key} in CSV row {r}")
        if self.csv is None:
            self.csv = data
            self.csv_bytes = len(data)
            self._check_digest(hashlib.sha256(data).hexdigest())
        elif data != self.csv:
            raise AssertionError("CSV differs between repeats of the same seed")

    def _check_digest(self, digest: str) -> None:
        if os.path.exists(self.digest_path):
            with open(self.digest_path) as f:
                if f.read().strip() != digest:
                    raise AssertionError("CSV differs from an earlier run of this seed")
        else:
            os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
            with open(self.digest_path, "w") as f:
                f.write(digest + "\n")


class GradcheckWorkload:
    """Repeated passes of both gradient-audit suites (`curiosity-marl
    gradcheck`). Pass i audits fresh networks from suite seed (seed, i), so
    the per-network timing distribution is sampled across many shapes."""

    unit = "networks"

    def __init__(self, seed: int, reference: Reference) -> None:
        import numpy as np
        from curiosity_marl import coma
        from curiosity_marl import neural_core as nc

        self.nc, self.coma = nc, coma
        self.seeds = np.random.SeedSequence(seed)
        self.clock = CallClock(nc, "grad_check", reference)
        self.per_repeat = GRADCHECK_NETWORKS + ACTOR_POLICIES
        self.csv_bytes = 0

    def repeat(self, index: int) -> tuple[float, list[float], float]:
        """One audit pass; returns its wall time and per-network audit
        times (nothing precedes the work, so no set-up time)."""
        suite_seed = int(self.seeds.generate_state(index + 1)[index])
        i0 = len(self.clock.starts)
        t0 = perf_counter()
        net_err, mutant_err = self.nc.gradient_suite(GRADCHECK_NETWORKS, suite_seed)
        actor_err = self.coma.actor_gradient_suite(ACTOR_POLICIES, suite_seed)
        elapsed = perf_counter() - t0
        if not (net_err < NET_ERR_MAX and actor_err < ACTOR_ERR_MAX and mutant_err > MUTANT_ERR_MIN):
            raise AssertionError(
                f"gradcheck failed: net {net_err:.3e}, actor {actor_err:.3e}, "
                f"mutant {mutant_err:.3e}"
            )
        return elapsed, self.clock.durations[i0:], 0.0


# ---------------------------------------------------------------- tracing


def make_recorder():
    import spans
    from curiosity_marl import coma, curiosity, harness, nav_env
    from curiosity_marl import neural_core as nc

    rec = spans.SpanRecorder()
    for owner, attr, name in (
        (harness, "run_experiment", "harness.run_experiment"),
        (coma, "train_round", "coma.train_round"),
        (coma, "rollout_episode", "coma.rollout_episode"),
        (coma, "select_actions", "coma.select_actions"),
        (coma, "critic_update", "coma.critic_update"),
        (coma, "actor_update", "coma.actor_update"),
        (curiosity, "intrinsic_rewards", "curiosity.intrinsic_rewards"),
        (curiosity, "mix_rewards", "curiosity.mix_rewards"),
        (curiosity, "curiosity_update", "curiosity.curiosity_update"),
        (nav_env.NavEnv, "step", "nav_env.step"),
        (nav_env.NavEnv, "reset", "nav_env.reset"),
        (nc, "forward", "neural_core.forward"),
        (nc, "backward", "neural_core.backward"),
        (nc, "adam_step", "neural_core.adam_step"),
        (nc, "gradient_suite", "neural_core.gradient_suite"),
        (nc, "grad_check", "neural_core.grad_check"),
        (nc, "mutation_control", "neural_core.mutation_control"),
        (coma, "actor_gradient_suite", "coma.actor_gradient_suite"),
    ):
        rec.target(owner, attr, name)
    return rec


def layer_metrics(rec, workload, root: str, scales: dict, overheads: list[float]) -> dict:
    """Per-layer figures, each the median over traced repeats of its total in
    one repeat (80 episodes, or one audit pass). Times are scaled to the
    reference speed with the scale of the repeat they were recorded in."""
    import spans

    t = spans.SpanTable(rec)
    run_scales = [scales[r] for r in t.runs]
    m = {}

    def put(name, values, unit):
        m[name] = (median(values), unit)

    def put_s(name, values):
        put(name, [v * k for v, k in zip(values, run_scales)], "s")

    put_s("nav_env.step.s", t.total_s("nav_env.step"))
    put("nav_env.step.calls", t.calls("nav_env.step"), "count")
    put_s("nav_env.reset.s", t.total_s("nav_env.reset"))
    for fn in ("intrinsic_rewards", "curiosity_update", "mix_rewards"):
        put_s(f"curiosity.{fn}.s", t.total_s(f"curiosity.{fn}"))
    for fn in ("train_round", "rollout_episode", "select_actions", "critic_update", "actor_update"):
        put_s(f"coma.{fn}.self_s", t.self_s(f"coma.{fn}"))
    put_s("neural_core.forward.s", t.total_s("neural_core.forward"))
    put("neural_core.forward.calls", t.calls("neural_core.forward"), "count")
    for caller in ROW_CALLERS:
        short = caller.split(".")[1]
        calls = t.calls("neural_core.forward", caller)
        rows = t.rows("neural_core.forward", caller)
        put_s(f"neural_core.forward.{short}.s", t.total_s("neural_core.forward", caller))
        put(f"neural_core.forward.{short}.calls", calls, "count")
        put(
            f"neural_core.forward.{short}.rows_per_call",
            [r / c if c else 0.0 for r, c in zip(rows, calls)],
            "rows",
        )
    put_s("neural_core.backward.s", t.total_s("neural_core.backward"))
    put("neural_core.backward.calls", t.calls("neural_core.backward"), "count")
    put_s("neural_core.adam_step.s", t.total_s("neural_core.adam_step"))
    m["neural_core.backward.useful_share"] = (
        rec.used_backwards / rec.backwards if rec.backwards else 0.0,
        "share",
    )
    put_s("harness.run_experiment.self_s", t.self_s("harness.run_experiment"))
    m["harness.csv_bytes"] = (workload.csv_bytes, "bytes")
    put("trace.overhead_share", overheads, "share")
    put("trace.coverage_share", t.child_share(root), "share")
    return m


# ---------------------------------------------------------------- main


def tail_of(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest sample with TAIL_BEYOND beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run(args, blas_threads) -> tuple[dict, dict, int, int]:
    reference = Reference()
    reference.seconds()  # the first call pays for lazy numpy set-up
    if args.workload == GRADCHECK:
        workload = GradcheckWorkload(args.seed, reference)
        root = "gradcheck.audit"
    else:
        workload = TrainingWorkload(args.workload, args.seed, blas_threads, reference)
        root = "harness.run_experiment"
    rec = make_recorder() if args.trace else None

    attempted = failed = 0
    # per untraced (False) or traced (True) repeat: units of work per second
    # at reference speed, and raw
    rates = {False: [], True: []}
    raw_rates: list[float] = []
    scales: dict[int, float] = {}
    overheads: list[float] = []
    rounds: list[float] = []
    raw_rounds: list[float] = []
    imports: list[float] = []
    pre_rounds: list[float] = []
    ref_s: list[float] = []
    started = last = perf_counter()
    # Start a repeat only if one as long as the last fits in the budget, but
    # make at least two: a CSV is compared against a repeat and, when
    # tracing, a traced repeat against the untraced one before it.
    while attempted < 2 or 2 * perf_counter() - last - started < args.seconds:
        last = perf_counter()
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        clock = workload.clock
        i_ref = len(clock.ref_samples)
        clock.sample()
        # reference samples would land inside the traced spans
        clock.sampling = not traced
        if traced:
            rec.install(attempted)
        try:
            # a traced repeat does the same work as the untraced one before it
            index = (attempted - 1) // 2 if args.trace else attempted - 1
            if traced and root == "gradcheck.audit":
                with rec.span(root):
                    loop_s, round_s, pre_round_s = workload.repeat(index)
            else:
                loop_s, round_s, pre_round_s = workload.repeat(index)
        except Exception as e:  # count the failed repeat and keep measuring
            failed += 1
            print(f"repeat {attempted} failed: {type(e).__name__}: {e}", file=sys.stderr)
            continue
        finally:
            if traced:
                rec.uninstall()
        clock.sample()
        samples = clock.ref_samples[i_ref:]
        # the loop time includes the samples taken between its rounds
        loop_s -= sum(samples[1:-1])
        ref = statistics.fmean(samples)
        # import samples spread over the run see the same machine as the
        # repeats, not one moment of it
        import_s = None if args.trace else import_seconds()
        scale = REF_NOMINAL_S / ref
        scales[attempted] = scale
        ref_s.append(ref)
        rate = workload.per_repeat / (loop_s * scale)
        if traced and len(rates[False]) == len(rates[True]) + 1:
            overheads.append(1.0 - rate / rates[False][-1])
        rates[traced].append(rate)
        if not traced:
            raw_rates.append(workload.per_repeat / loop_s)
            rounds.extend(d * scale for d in round_s)
            raw_rounds.extend(round_s)
        if import_s is not None:
            imports.append(import_s * scale)
            pre_rounds.append(pre_round_s * scale)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": attempted,
        "unit_of_work": workload.unit,
        "per_repeat": workload.per_repeat,
        # named metrics that are not gated: printed and kept in the result file
        "extra": {
            "failed_runs": (failed / attempted, "share"),
            "reference_ms": (1000.0 * median(ref_s), "ms"),
        },
    }
    if args.trace:
        if not overheads:
            return {}, details, attempted, failed
        metrics = layer_metrics(rec, workload, root, scales, overheads)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}_s{args.seed}.npz")
        rec.write(spans_path)
        details["spans_file"] = os.path.relpath(spans_path, ROOT)
        details["spans_recorded"] = len(rec.start)
        return metrics, details, attempted, failed

    if not rounds:
        return {}, details, attempted, failed
    tail, pct = tail_of(rounds)
    metrics = {
        "throughput_per_s": (median(rates[False]), "1/s"),
        "round_ms.p50": (1000.0 * median(rounds), "ms"),
        "round_ms.tail": (1000.0 * tail, "ms"),
        "setup_s": (median(imports) + median(pre_rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = details["extra"]
    extra["round_ms.tail.percentile"] = (pct, "percentile")
    extra["round_ms.samples"] = (len(rounds), "count")
    # raw wall-clock figures, not scaled to the reference speed
    if args.workload == GRADCHECK:
        extra["audit_s.wall"] = (workload.per_repeat / median(raw_rates), "s")
    else:
        extra["episodes_per_s.wall"] = (median(raw_rates), "1/s")
    extra["round_ms.p50.wall"] = (1000.0 * median(raw_rounds), "ms")
    details["reference_s"] = ref_s
    details["round_s"] = raw_rounds
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "curiosity_marl")):
        print(f"error: no curiosity_marl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    machine = machine_record()
    metrics, details, attempted, failed = run(args, machine["blas_threads"])
    correct = failed == 0 and bool(metrics)

    print("machine " + json.dumps(machine, sort_keys=True))
    for key, value in details.items():
        if not isinstance(value, (list, dict)):
            print(f"{key} {value}")
    for name, (value, unit) in {**metrics, **details["extra"]}.items():
        print(f"metric {name} {value!r} {unit}")
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "machine": machine,
        "details": details,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_path = os.path.join(
        OUT_DIR, f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    )
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
