"""The bit-identity contract as a check: the 64-config CSV set and the
stdout of `gradcheck --seed S` hash to the digests recorded in
bit_identity.json for this machine's key (numpy version, OpenBLAS kernel,
one BLAS thread). See bit_identity.py for the set and for how to record a
new key or re-baseline one."""

import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def test_outputs_match_recorded_digests(tmp_path):
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, os.path.join(TESTS, "bit_identity.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    with open(os.path.join(TESTS, "bit_identity.json")) as f:
        want = json.load(f).get(got["key"])
    if want is None:
        pytest.skip(
            f"no digests recorded for key {got['key']!r}; record them from a "
            "commit whose bytes are known good with `OPENBLAS_NUM_THREADS=1 "
            "PYTHONPATH=src python tests/bit_identity.py OUT_DIR --write`"
        )
    for name in sorted(want.keys() | got["digests"].keys()):
        assert got["digests"].get(name) == want.get(name), f"first entry that differs: {name}"
