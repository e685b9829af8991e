"""Golden outputs: byte-exact files recorded from a known-good build.

The sum-tree and decode goldens, and the env rollouts with a 1-D action,
involve no BLAS and must always match. The training and greedy-evaluation
goldens depend on BLAS rounding (RL dynamics amplify a one-ulp difference),
and so do the multi-dimensional env rollouts, whose `a @ a` and `err @ err`
are BLAS dot products. Those are pinned to the numpy/BLAS fingerprint they
were recorded with; on any other fingerprint the test skips and names the
difference. No golden is compared loosely.

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

from gqn.actions import MaskViolationError, build_ladder, decode, grow
from gqn.agent import GqnAgent, Hyperparams
from gqn.envs import make_env
from gqn.harness import RunConfig, evaluate, train
from gqn.replay import SumTree

GOLDEN = Path(__file__).parent / "golden"

# Replay capacity 1024 < 3000 training transitions, so the ring buffer wraps
# and overwrites old rows; linear growth passes every ladder level. No
# priority update goes stale here: train_step updates the handles it has just
# sampled, with no push in between.
TRAIN_CONFIG = dict(env="pendulum_swingup", c_a=0.1, min_bins=2, max_bins=9,
                    growth="linear", total_episodes=6, eval_every=2, eval_episodes=2,
                    window=3, cooldown=1, seeds=(7,),
                    hyper_overrides={"hidden_dims": [16, 16], "batch_size": 16,
                                     "min_fill": 64, "learning_rate": 1e-3, "train_every": 2,
                                     "target_period": 50, "replay_capacity": 1024})
TRAIN_HASHED = ("checkpoint.bin", "growth_events.csv")

# Adaptive growth: the two-evaluation window fills by episode 1, and the
# stagnation rule grows the ladder at episodes 2, 5 and 9.
ADAPTIVE_CONFIG = dict(env="pendulum_swingup", min_bins=2, max_bins=9, growth="adaptive",
                       total_episodes=10, eval_every=1, eval_episodes=1, window=2,
                       cooldown=1, seeds=(7,),
                       hyper_overrides={"hidden_dims": [16, 16], "batch_size": 16,
                                        "min_fill": 64, "train_every": 4,
                                        "replay_capacity": 1024})
ADAPTIVE_STOP = 3

# (slots, priorities) writes; duplicate slots carry equal priorities.
SUMTREE_WRITES = (
    ([0, 1, 2, 3, 4, 5, 6, 7], [0.5, 1.25, 0.1, 3.0, 0.7, 0.3, 2.2, 0.05]),
    ([3, 3, 9, 15, 0], [0.4, 0.4, 1.1, 0.6, 0.2]),
    ([10, 11, 12, 13, 14, 8], [0.01, 7.5, 0.33, 0.125, 2.0, 0.9]),
    ([1, 14, 14, 6, 2, 1], [0.8, 1e-3, 1e-3, 4.25, 0.6, 0.8]),
)
# Prefix queries run after each write.
SUMTREE_QUERIES = (0.0, 0.2, 0.6999, 1.0, 5.5, 9.0, 12.3, 17.0, 20.0, 24.0)

# Every env family, with and without the action penalty; each rolls out a
# full episode of uniform random actions drawn from a fixed seed.
ENV_IDS = ("pendulum_swingup", "cartpole_swingup", "pointmass_nd2_torque",
           "pointmass_nd2_velocity", "pointmass_nd38_velocity")
ENV_CASES = tuple(f"{env_id}@{c_a:g}" for env_id in ENV_IDS for c_a in (0.0, 0.5))

# (min_bins, max_bins) ladders decoded at every level, two dims with
# different bounds. Each probe is an index list whose outcome, values or
# rejection message, is recorded at every level.
DECODE_LADDERS = ((2, 9), (9, 65))
DECODE_BOUNDS = ((-1.0, 1.0), (-0.3, 0.7))
DECODE_PROBES = ([0], [0, 0, 0], [-1, 0], [0, 9], [0, 65], [70, -3], [1, 0], [0, 3], [2, 6],
                 [8, 64], [[0, 0]])

# (env id, c_a, min_bins, max_bins) of the seeded untrained agents whose
# greedy returns are pinned at the coarsest and the finest level.
EVAL_ENVS = (("pendulum_swingup", 0.1, 2, 9), ("cartpole_swingup", 0.1, 2, 9),
             ("pointmass_nd2_velocity", 0.5, 9, 65), ("pointmass_nd38_velocity", 0.5, 9, 65))
EVAL_EPISODES = 2


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


def env_rollout(case: str) -> dict:
    """sha256 of the observation and reward bytes of one full episode."""
    env_id, c_a = case.split("@")
    env = make_env(env_id, float(c_a))
    m = env.spec.action_dim
    actions = np.random.default_rng(11).uniform(-1.0, 1.0, size=(env.spec.horizon, m))
    obs, rewards = [env.reset(5)], []
    for action in actions:
        o, r, r_task, terminal = env.step(action)
        obs.append(o)
        rewards.append((r, r_task))
    assert terminal
    return {"obs": hashlib.sha256(np.asarray(obs).tobytes()).hexdigest(),
            "rewards": hashlib.sha256(np.asarray(rewards).tobytes()).hexdigest()}


def decode_outcome(ladder, idx) -> list[str] | str:
    try:
        return [float(v).hex() for v in decode(ladder, idx)]
    except MaskViolationError as exc:
        return str(exc)


def decode_trace() -> dict:
    """Per level: hex values of every active bin, and the outcome (values or
    rejection message) of each probe."""
    out = {}
    for lo, hi in DECODE_LADDERS:
        ladder = build_ladder(lo, hi, 2, DECODE_BOUNDS)
        levels = []
        while True:
            stride = (ladder.full_bins - 1) // (ladder.active_bins - 1)
            values = [[float(v).hex() for v in decode(ladder, [i, i])]
                      for i in range(0, ladder.full_bins, stride)]
            levels.append({"values": values,
                           "probes": [decode_outcome(ladder, idx) for idx in DECODE_PROBES]})
            ladder, grew = grow(ladder)
            if not grew:
                break
        out[f"{lo}to{hi}"] = levels
    return out


def eval_trace() -> dict:
    """Greedy returns (hex) and the sha256 of the action bytes of seeded
    untrained agents, at the coarsest and the finest ladder level."""
    out = {}
    for i, (env_id, c_a, lo, hi) in enumerate(EVAL_ENVS):
        spec = make_env(env_id, c_a).spec
        ladder = build_ladder(lo, hi, spec.action_dim)
        agent = GqnAgent(spec.obs_dim, ladder,
                         Hyperparams(hidden_dims=(64, 64), batch_size=64, seed=100 + i))
        for level in ("coarse", "fine"):
            while level == "fine" and not agent.ladder.at_max:
                agent.on_growth(grow(agent.ladder)[0])
            result = evaluate(agent, EVAL_EPISODES, env=make_env(env_id, c_a), base_seed=3)
            actions = np.concatenate([t.actions for t in result["traces"]])
            out[f"{env_id}@{level}"] = {
                "returns": [float(r).hex() for r in result["returns"]],
                "actions": hashlib.sha256(actions.tobytes()).hexdigest()}
    return out


def train_golden_run(out_dir: Path, config: dict = TRAIN_CONFIG) -> Path:
    config = RunConfig(**config)
    train(config, config.seeds[0], out_dir, resume=False)
    return out_dir


def skip_unless_fingerprint(want: dict) -> None:
    here = blas_fingerprint()
    if here != want["fingerprint"]:
        pytest.skip(f"numpy/BLAS fingerprint {here} differs from the recorded "
                    f"{want['fingerprint']}; training bytes are only pinned there")


def assert_matches_golden(run: Path, name: str, want: dict) -> None:
    assert (run / "run.csv").read_bytes() == (GOLDEN / f"{name}_run.csv").read_bytes()
    assert {f: sha256(run / f) for f in TRAIN_HASHED} == want["sha256"]


def test_sumtree_matches_golden():
    want = json.loads((GOLDEN / "sumtree.json").read_text())
    assert sumtree_trace() == want


@pytest.mark.parametrize("case", ENV_CASES)
def test_env_rollout_matches_golden(case):
    want = json.loads((GOLDEN / "envs.json").read_text())
    if make_env(case.split("@")[0]).spec.action_dim > 1:
        skip_unless_fingerprint(want)
    assert env_rollout(case) == want["rollouts"][case]


def test_decode_matches_golden():
    assert decode_trace() == json.loads((GOLDEN / "decode.json").read_text())


def test_greedy_eval_matches_golden():
    want = json.loads((GOLDEN / "eval.json").read_text())
    skip_unless_fingerprint(want)
    assert eval_trace() == want["evaluations"]


def test_training_matches_golden(tmp_path):
    want = json.loads((GOLDEN / "train.json").read_text())
    skip_unless_fingerprint(want)
    assert_matches_golden(train_golden_run(tmp_path / "run"), "train", want)


def test_adaptive_training_matches_golden(tmp_path):
    want = json.loads((GOLDEN / "adaptive.json").read_text())
    skip_unless_fingerprint(want)
    run = train_golden_run(tmp_path / "run", ADAPTIVE_CONFIG)
    assert_matches_golden(run, "adaptive", want)
    assert [ln.split(",")[1] for ln in (run / "growth_events.csv").read_text().splitlines()[2:]] \
        == ["2", "5", "9"]


def test_adaptive_resume_matches_golden(tmp_path):
    """Stopping after episode 3 and resuming from state.bin restores the
    evaluation window and cooldown count, so the bytes do not change."""
    want = json.loads((GOLDEN / "adaptive.json").read_text())
    skip_unless_fingerprint(want)
    config = RunConfig(**ADAPTIVE_CONFIG)
    run = tmp_path / "run"
    first = train(config, config.seeds[0], run, resume=False, stop_after_episode=ADAPTIVE_STOP)
    assert first.rows[-1].episode == ADAPTIVE_STOP
    train(config, config.seeds[0], run, resume=True)
    assert_matches_golden(run, "adaptive", want)


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "sumtree.json").write_text(json.dumps(sumtree_trace(), indent=1) + "\n")
    (GOLDEN / "decode.json").write_text(json.dumps(decode_trace(), indent=1) + "\n")
    for name, key, trace in (("envs", "rollouts", lambda: {c: env_rollout(c) for c in ENV_CASES}),
                             ("eval", "evaluations", eval_trace)):
        doc = {"fingerprint": blas_fingerprint(), key: trace()}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, config in (("train", TRAIN_CONFIG), ("adaptive", ADAPTIVE_CONFIG)):
        with tempfile.TemporaryDirectory() as tmp:
            run = train_golden_run(Path(tmp) / "run", config)
            (GOLDEN / f"{name}_run.csv").write_bytes((run / "run.csv").read_bytes())
            doc = {"fingerprint": blas_fingerprint(),
                   "sha256": {f: sha256(run / f) for f in TRAIN_HASHED}}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
