"""Regenerate the bytes of the bit-identity contract and print their sha256s.

The contract: a config gives the same CSV bytes on every run, and
`curiosity-marl gradcheck --seed S` prints the same bytes. This script trains
the 64-config set (8 methods x {2, 4} agents x {sparse, dense} x 2 scenarios,
seed 3, 24 episodes, interval 8) into OUT_DIR, one subdirectory per reward
mode, runs gradcheck at seeds 0, 3 and 29, and prints one JSON object: this
machine's key and the sha256 of every CSV and of every gradcheck's stdout.

Those bytes depend on the numpy version and on the OpenBLAS kernel numpy's
bundled library picked for this CPU. They must not depend on its thread
count, so two runs of this script at different OPENBLAS_NUM_THREADS print
the same digests; the key still names the count. tests/test_bit_identity.py
runs this script with one BLAS thread and compares it with
bit_identity.json, which holds the digests of each key recorded so far:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bit_identity.py OUT_DIR [--write]

--write records this run's digests under its key in bit_identity.json: the
first record for a new machine, or a re-baseline after a change that alters
these bytes on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os

import numpy as np

from curiosity_marl import cli, harness
from curiosity_marl.curiosity import CuriosityKind

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bit_identity.json")
GRADCHECK_SEEDS = (0, 3, 29)


def _openblas(name: str, restype):
    """The named function of numpy's bundled OpenBLAS called with no
    arguments, or None when there is no such library or function."""
    fn = harness._openblas_function(name)
    if fn is None:
        return None
    fn.restype, fn.argtypes = restype, []
    return fn()


def machine_key() -> str:
    core = _openblas("get_corename", ctypes.c_char_p)
    threads = _openblas("get_num_threads", ctypes.c_int)
    core = core.decode() if core else "unknown"
    return f"numpy {np.__version__}, OpenBLAS {core}, {threads} BLAS threads"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for mode in ("sparse", "dense"):
        mode_dir = os.path.join(out_dir, mode)
        for kind in CuriosityKind:
            for n_agents in (2, 4):
                for scenario in ("same_landmark", "different_landmark"):
                    cfg = harness.parse_config("", {
                        "method": kind.value, "n_agents": str(n_agents),
                        "reward_mode": mode, "scenario": scenario, "seed": "3",
                        "total_episodes": "24", "eval_interval": "8",
                    })
                    harness.run_experiment(cfg, mode_dir)
                    name = f"{mode}/{harness.run_id(cfg)}.csv"
                    with open(os.path.join(out_dir, name), "rb") as f:
                        out[name] = _sha256(f.read())
    for seed in GRADCHECK_SEEDS:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["gradcheck", "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"gradcheck --seed {seed} exited {code}:\n{printed.getvalue()}")
        out[f"gradcheck --seed {seed}"] = _sha256(printed.getvalue().encode())
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--write", action="store_true", help="record under this key")
    args = parser.parse_args()
    result = {"key": machine_key(), "digests": digests(args.out_dir)}
    if args.write:
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                recorded = json.load(f)
        recorded[result["key"]] = result["digests"]
        with open(DIGESTS, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
