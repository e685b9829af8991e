"""Golden outputs: byte-exact files recorded from a known-good build.

The sum-tree golden involves no BLAS and must always match. The training
golden depends on BLAS rounding (RL dynamics amplify a one-ulp difference),
so it is pinned to the numpy/BLAS fingerprint it was recorded with; on any
other fingerprint the test skips and names the difference. It never
compares loosely.

Regenerate only for a declared numerics change:
    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from gqn.harness import RunConfig, train
from gqn.replay import SumTree

GOLDEN = Path(__file__).parent / "golden"

# Replay capacity 1024 < 3000 training transitions, so the ring buffer wraps
# and stale priority updates occur; linear growth passes every ladder level.
TRAIN_CONFIG = dict(env="pendulum_swingup", c_a=0.1, min_bins=2, max_bins=9,
                    growth="linear", total_episodes=6, eval_every=2, eval_episodes=2,
                    window=3, cooldown=1, seeds=(7,),
                    hyper_overrides={"hidden_dims": [16, 16], "batch_size": 16,
                                     "min_fill": 64, "learning_rate": 1e-3, "train_every": 2,
                                     "target_period": 50, "replay_capacity": 1024})
TRAIN_HASHED = ("checkpoint.bin", "growth_events.csv")

# (slots, priorities) writes; duplicate slots carry equal priorities.
SUMTREE_WRITES = (
    ([0, 1, 2, 3, 4, 5, 6, 7], [0.5, 1.25, 0.1, 3.0, 0.7, 0.3, 2.2, 0.05]),
    ([3, 3, 9, 15, 0], [0.4, 0.4, 1.1, 0.6, 0.2]),
    ([10, 11, 12, 13, 14, 8], [0.01, 7.5, 0.33, 0.125, 2.0, 0.9]),
    ([1, 14, 14, 6, 2, 1], [0.8, 1e-3, 1e-3, 4.25, 0.6, 0.8]),
)
# Prefix queries run after each write.
SUMTREE_QUERIES = (0.0, 0.2, 0.6999, 1.0, 5.5, 9.0, 12.3, 17.0, 20.0, 24.0)


def blas_fingerprint() -> dict:
    """numpy version, BLAS build and the BLAS kernel chosen at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy < 1.26 has no dict mode
        build = "unknown"
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                core = fn().decode()
                break
    return {"numpy": np.__version__, "blas": build, "blas_core": core,
            "machine": platform.machine()}


def sumtree_trace() -> dict:
    tree = SumTree(16)
    prefix = []
    for slots, priorities in SUMTREE_WRITES:
        tree.set_batch(np.array(slots), np.array(priorities))
        prefix.append(tree.find_prefix_batch(np.array(SUMTREE_QUERIES)).tolist())
    return {"nodes": [float(v).hex() for v in tree.nodes], "prefix_slots": prefix}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_golden_run(out_dir: Path) -> Path:
    config = RunConfig(**TRAIN_CONFIG)
    train(config, config.seeds[0], out_dir, resume=False)
    return out_dir


def test_sumtree_matches_golden():
    want = json.loads((GOLDEN / "sumtree.json").read_text())
    assert sumtree_trace() == want


def test_training_matches_golden(tmp_path):
    want = json.loads((GOLDEN / "train.json").read_text())
    here = blas_fingerprint()
    if here != want["fingerprint"]:
        pytest.skip(f"numpy/BLAS fingerprint {here} differs from the recorded "
                    f"{want['fingerprint']}; training bytes are only pinned there")
    run = train_golden_run(tmp_path / "run")
    assert (run / "run.csv").read_bytes() == (GOLDEN / "train_run.csv").read_bytes()
    assert {name: sha256(run / name) for name in TRAIN_HASHED} == want["sha256"]


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "sumtree.json").write_text(json.dumps(sumtree_trace(), indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        run = train_golden_run(Path(tmp) / "run")
        (GOLDEN / "train_run.csv").write_bytes((run / "run.csv").read_bytes())
        doc = {"fingerprint": blas_fingerprint(),
               "sha256": {name: sha256(run / name) for name in TRAIN_HASHED}}
    (GOLDEN / "train.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
