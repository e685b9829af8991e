"""Snapshot commit and resume: at each evaluation the checkpoint goes to
checkpoint.next, state.bin records its sha256 (the commit), and a rename
moves it to checkpoint.bin. A run cut at any point resumes to the bytes of
an uninterrupted run."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from test_harness import TINY_HYPER, tiny_config

import gqn
from gqn.blob import load_blob, save_blob
from gqn.harness import RunConfig, train

COMPARED = ("run.csv", "growth_events.csv", "checkpoint.bin", "config.json")
RUN_FILES = {"run.csv", "growth_events.csv", "checkpoint.bin", "config.json", "state.bin"}


def commit_config():
    return tiny_config(total_episodes=4, eval_every=1, eval_episodes=1)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    train(commit_config(), 0, out, resume=False)
    return out


def assert_same_outputs(run: Path, reference: Path) -> None:
    for name in COMPARED:
        assert (run / name).read_bytes() == (reference / name).read_bytes(), name


class Crash(Exception):
    """Stands in for a kill at one point of the snapshot protocol."""


# Which os.replace call each crash window interrupts, by (source, target) name.
WINDOWS = {
    "checkpoint_next_write": lambda src, dst: dst.name == "checkpoint.next",
    "state_write": lambda src, dst: dst.name == "state.bin",
    "commit_to_rename": lambda src, dst: src.name == "checkpoint.next",
}


@pytest.mark.parametrize("evaluation", [1, 3, 4])
@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_resume_after_crash_reproduces_uninterrupted_run(
        window, evaluation, reference, tmp_path, monkeypatch):
    """The crash lands in `window` at the `evaluation`-th evaluation (of 4;
    the 4th is the last, after which a resume trains no further episode)."""
    real_replace, matches = os.replace, []

    def replace(src, dst):
        if WINDOWS[window](Path(src), Path(dst)):
            matches.append(src)
            if len(matches) == evaluation:
                raise Crash(f"{window} at evaluation {evaluation}")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(Crash):
        train(commit_config(), 0, tmp_path, resume=False)
    monkeypatch.undo()
    train(commit_config(), 0, tmp_path)
    assert_same_outputs(tmp_path, reference)
    assert set(os.listdir(tmp_path)) == RUN_FILES  # no checkpoint.next or temporary file left


@pytest.fixture
def stopped_run(tmp_path):
    """A run stopped after its second evaluation, ready to resume."""
    out = tmp_path / "run"
    train(commit_config(), 0, out, resume=False, stop_after_episode=1)
    return out


def test_swapped_checkpoint_rejected(stopped_run, tmp_path):
    other = tmp_path / "other"
    train(commit_config(), 1, other, resume=False, stop_after_episode=1)
    shutil.copyfile(other / "checkpoint.bin", stopped_run / "checkpoint.bin")
    with pytest.raises(ValueError, match=r"checkpoint\.bin does not match .*state\.bin"):
        train(commit_config(), 0, stopped_run)


def test_altered_checkpoint_rejected(stopped_run):
    data = bytearray((stopped_run / "checkpoint.bin").read_bytes())
    data[-1] ^= 1
    (stopped_run / "checkpoint.bin").write_bytes(bytes(data))
    with pytest.raises(ValueError, match=r"checkpoint\.bin does not match .*state\.bin"):
        train(commit_config(), 0, stopped_run)


def test_stale_checkpoint_next_is_ignored(stopped_run, reference):
    """A checkpoint.next that state.bin does not record is an uncommitted
    write; the resume keeps checkpoint.bin and overwrites it later."""
    (stopped_run / "checkpoint.next").write_bytes(b"not a checkpoint")
    train(commit_config(), 0, stopped_run)
    assert_same_outputs(stopped_run, reference)


@pytest.mark.parametrize("version", [None, 3])
def test_other_snapshot_version_rejected(stopped_run, version):
    meta, arrays = load_blob(stopped_run / "state.bin")
    del meta["snapshot_version"]
    if version is not None:
        meta["snapshot_version"] = version
    save_blob(stopped_run / "state.bin", meta, arrays)
    with pytest.raises(ValueError, match=f"snapshot version {version or 1} is not supported"):
        train(commit_config(), 0, stopped_run)


def test_state_holds_no_agent_arrays(stopped_run):
    meta, arrays = load_blob(stopped_run / "state.bin")
    assert meta["snapshot_version"] == 2
    assert "agent" not in meta
    assert all(name.startswith("replay_") for name in arrays)


CHILD = """
import json, sys
from gqn.harness import RunConfig, train
train(RunConfig.from_dict(json.loads(sys.argv[1])), 0, sys.argv[2])
"""


def run_child(config: RunConfig, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(gqn.__file__).resolve().parent.parent),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(config.to_dict()), str(out)],
                            env=env)


def writing(out: Path, since_ns: int) -> bool:
    """Whether `out` holds a temporary file written after `since_ns`: a write
    that is under way, or that a kill cut short."""
    for tmp in out.glob("*.tmp"):
        try:
            if tmp.stat().st_mtime_ns >= since_ns:
                return True
        except FileNotFoundError:  # renamed away meanwhile
            pass
    return False


def test_sigkill_at_random_instants_then_resume(tmp_path):
    """SIGKILL a training child at seeded random instants, restart it until it
    finishes, and compare with an uninterrupted child run. Every other kill
    waits for a file write to start, so some land inside one."""
    config = tiny_config(total_episodes=24, eval_every=1, eval_episodes=1,
                         hyper_overrides=dict(TINY_HYPER, replay_capacity=2048))
    started = time.perf_counter()
    assert run_child(config, tmp_path / "full").wait() == 0
    full_s = time.perf_counter() - started

    rng = np.random.default_rng(20240406)
    out, kills, torn, finished = tmp_path / "killed", 0, 0, False
    for attempt, delay in enumerate(rng.uniform(0.05, 0.3, size=8) * full_s):
        since_ns = time.time_ns()
        child = run_child(config, out)
        time.sleep(delay)
        while attempt % 2 and child.poll() is None and not writing(out, since_ns):
            time.sleep(1e-4)
        if child.poll() is not None:
            assert child.returncode == 0
            finished = True
            break
        child.send_signal(signal.SIGKILL)
        child.wait()
        kills += 1
        torn += writing(out, since_ns)  # SIGKILL skips the cleanup of a cut write
    assert kills >= 4  # a child resumed near the end may finish first
    assert torn >= 1
    assert (out / "state.bin").exists()  # some child committed an evaluation
    if not finished:
        assert run_child(config, out).wait() == 0
    for name in ("run.csv", "growth_events.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
