import json
import os
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from gqn import harness
from gqn.blob import load_blob
from gqn.envs import make_env
from gqn.harness import (
    EvalRow,
    RunConfig,
    derive_seed,
    evaluate,
    radar_report,
    read_run_csv,
    sweep,
    train,
    write_run_csv,
)
from gqn.nets import DivergenceError

TINY_HYPER = {"hidden_dims": [16, 16], "batch_size": 16, "min_fill": 64,
              "learning_rate": 1e-3, "train_every": 4, "target_period": 100,
              "replay_capacity": 4096}


def tiny_config(**overrides):
    kwargs = dict(env="pendulum_swingup", c_a=0.1, min_bins=2, max_bins=9,
                  growth="adaptive", total_episodes=4, eval_every=2, eval_episodes=2,
                  window=3, cooldown=1, seeds=(0, 1), hyper_overrides=dict(TINY_HYPER))
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestRunConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        doc = tiny_config().to_dict()
        doc["learning_rate"] = 1e-3
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict(doc)

    def test_unknown_ladder_key_rejected(self):
        doc = tiny_config().to_dict()
        doc["ladder"]["bins"] = 3
        with pytest.raises(ValueError, match="unknown ladder keys"):
            RunConfig.from_dict(doc)

    def test_unknown_hyper_key_rejected(self):
        doc = tiny_config().to_dict()
        doc["hyper"]["learning_rte"] = 1e-3
        with pytest.raises(ValueError, match="unknown hyper keys"):
            RunConfig.from_dict(doc)

    def test_bad_env_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(env="humanoid_walk")

    def test_bad_ladder_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(min_bins=2, max_bins=8)

    def test_nan_penalty_rejected(self):
        with pytest.raises(ValueError, match="c_a"):
            tiny_config(c_a=float("nan"))

    @pytest.mark.parametrize("bounds", [(-2.0, 2.0), (-1.0, 1.5), (0.5, float("nan"))])
    def test_bounds_outside_action_range_rejected(self, bounds):
        # an endpoint bin past [-1, 1] would fail at the first env step
        with pytest.raises(ValueError, match="bounds"):
            tiny_config(bounds=bounds)

    def test_seed_not_allowed_in_hyper(self):
        with pytest.raises(ValueError, match="seeds list"):
            tiny_config(hyper_overrides={"seed": 3})

    def test_default_name(self):
        cfg = tiny_config(name="")
        assert cfg.name == "pendulum_swingup_ca0.1_2to9_adaptive"


class TestCsvSchema:
    def test_round_trip(self, tmp_path):
        rows = [EvalRow(env_steps=500, episode=0, eval_mean_return=1.5, eval_std=0.25,
                        active_bins=2, epsilon=0.5, loss=float("nan"), R=2.0, P=0.5,
                        abs_a=1.0, abs_da=0.0, SM=0.125)]
        path = tmp_path / "run.csv"
        write_run_csv(path, rows)
        text = path.read_text()
        assert text.startswith("# schema=run_csv_v1\n")
        assert "env_steps,episode,eval_mean_return" in text.splitlines()[1]
        back = read_run_csv(path)
        assert back[0].eval_mean_return == 1.5
        assert np.isnan(back[0].loss)


class TestTrain:
    def test_outputs_and_rows(self, tmp_path):
        cfg = tiny_config()
        record = train(cfg, 0, tmp_path / "run", resume=False)
        assert len(record.rows) == 2  # episodes 1 and 3
        for name in ("run.csv", "growth_events.csv", "config.json", "checkpoint.bin", "state.bin"):
            assert (tmp_path / "run" / name).exists()
        echoed = json.loads((tmp_path / "run" / "config.json").read_text())
        assert RunConfig.from_dict(echoed) == cfg
        rows = read_run_csv(tmp_path / "run" / "run.csv")
        assert [r.episode for r in rows] == [1, 3]
        steps = [r.env_steps for r in rows]
        assert steps == sorted(steps) and steps[0] > 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        train(cfg, 1, tmp_path / "a", resume=False)
        train(cfg, 1, tmp_path / "b", resume=False)
        assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()
        assert (tmp_path / "a" / "growth_events.csv").read_bytes() == \
            (tmp_path / "b" / "growth_events.csv").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        cfg = tiny_config()
        train(cfg, 0, tmp_path / "a", resume=False)
        train(cfg, 1, tmp_path / "b", resume=False)
        assert (tmp_path / "a" / "run.csv").read_bytes() != (tmp_path / "b" / "run.csv").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config(total_episodes=6, eval_every=2)
        train(cfg, 0, tmp_path / "full", resume=False)
        partial = train(cfg, 0, tmp_path / "resumed", resume=False, stop_after_episode=1)
        assert len(partial.rows) == 1
        resumed = train(cfg, 0, tmp_path / "resumed")  # picks up state.bin
        assert len(resumed.rows) == 3
        assert (tmp_path / "full" / "run.csv").read_bytes() == \
            (tmp_path / "resumed" / "run.csv").read_bytes()

    def test_resume_after_ring_buffer_wraps(self, tmp_path):
        # 6 episodes push 3000 transitions into a 1024-item replay, so the
        # snapshot is taken after the ring has overwritten its oldest rows.
        cfg = tiny_config(total_episodes=6, eval_every=2,
                          hyper_overrides=dict(TINY_HYPER, replay_capacity=1024))
        train(cfg, 0, tmp_path / "full", resume=False)
        train(cfg, 0, tmp_path / "resumed", resume=False, stop_after_episode=3)
        meta, arrays = load_blob(tmp_path / "resumed" / "state.bin")
        replay = meta["replay"]
        assert replay["insert_count"] > replay["capacity"] == 1024
        for name in ("states", "actions", "rewards", "boot_states", "discounts", "tree_leaves"):
            assert arrays[f"replay_{name}"].shape[0] == 1024
        train(cfg, 0, tmp_path / "resumed")
        for name in ("run.csv", "growth_events.csv", "checkpoint.bin"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes()

    def test_snapshot_holds_only_live_replay_rows(self, tmp_path):
        cfg = tiny_config(total_episodes=2, eval_every=1)
        train(cfg, 0, tmp_path / "run", resume=False, stop_after_episode=0)
        meta, arrays = load_blob(tmp_path / "run" / "state.bin")
        live = min(meta["replay"]["insert_count"], meta["replay"]["capacity"])
        assert live < meta["replay"]["capacity"]
        for name in ("states", "actions", "rewards", "boot_states", "discounts", "tree_leaves"):
            assert arrays[f"replay_{name}"].shape[0] == live

    def test_resume_rejects_other_config(self, tmp_path):
        cfg = tiny_config(total_episodes=6)
        train(cfg, 0, tmp_path / "run", resume=False, stop_after_episode=1)
        other = tiny_config(total_episodes=8)
        with pytest.raises(ValueError, match="different"):
            train(other, 0, tmp_path / "run")

    def test_static_config_keeps_bins_constant(self, tmp_path):
        cfg = tiny_config(min_bins=2, max_bins=2, growth="none")
        record = train(cfg, 0, tmp_path / "static", resume=False)
        assert all(r.active_bins == 2 for r in record.rows)
        assert record.events == []

    def test_growth_events_bounded_by_levels(self, tmp_path):
        cfg = tiny_config(growth="linear", total_episodes=8, eval_every=4)
        record = train(cfg, 0, tmp_path / "linear", resume=False)
        assert len(record.events) <= 3  # 2->9 ladder has 4 levels
        assert [e.trigger for e in record.events] == ["linear"] * len(record.events)
        bins = [r.active_bins for r in record.rows]
        assert bins == sorted(bins)

    def test_divergence_aborts_with_diagnostic(self, tmp_path):
        cfg = tiny_config(total_episodes=3, eval_every=1,
                          hyper_overrides=dict(TINY_HYPER, learning_rate=1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train(cfg, 0, tmp_path / "boom", resume=False)
        diag = json.loads((tmp_path / "boom" / "diagnostic.json").read_text())
        assert diag["diverged"] is True


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = tiny_config(total_episodes=2, eval_every=1)
    train(cfg, 0, out, resume=False)
    return out / "checkpoint.bin"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("radar")
    cfg = tiny_config(total_episodes=2, eval_every=1, seeds=(0,))
    train(cfg, 0, root / "baseline", resume=False)
    cfg2 = tiny_config(total_episodes=2, eval_every=1, seeds=(0,), c_a=0.5, name="pen")
    train(cfg2, 0, root / "pen", resume=False)
    return root


class TestEvaluate:
    def test_single_episode_zero_std(self, trained):
        result = evaluate(trained, episodes=1)
        assert result["std"] == 0.0
        assert len(result["traces"]) == 1

    def test_deterministic(self, trained):
        a = evaluate(trained, episodes=3, base_seed=5)
        b = evaluate(trained, episodes=3, base_seed=5)
        assert a["returns"] == b["returns"]

    def test_env_mismatch_rejected(self, trained):
        with pytest.raises(ValueError, match="does not match"):
            evaluate(trained, episodes=1, env=make_env("pointmass_nd2_velocity"))

    def test_penalty_override(self, trained):
        base = evaluate(trained, episodes=1, base_seed=1)
        free = evaluate(trained, episodes=1, c_a=0.0, base_seed=1)
        trace = base["traces"][0]
        assert free["mean"] >= base["mean"]
        # same greedy actions either way: the penalty only relabels rewards
        assert np.array_equal(free["traces"][0].actions, trace.actions)


class TestSweep:
    def test_grid_and_aggregation(self, tmp_path):
        cfgs = [tiny_config(name="a", seeds=(0, 1)),
                tiny_config(name="b", growth="none", min_bins=2, max_bins=2, seeds=(0, 1))]
        aggregate = sweep(cfgs, parallel_workers=1, out_dir=tmp_path / "sweep")
        assert set(aggregate) == {"a", "b"}
        for cfg in cfgs:
            for seed in (0, 1):
                assert (tmp_path / "sweep" / cfg.name / f"seed_{seed}" / "run.csv").exists()
        rows0 = read_run_csv(tmp_path / "sweep" / "a" / "seed_0" / "run.csv")
        rows1 = read_run_csv(tmp_path / "sweep" / "a" / "seed_1" / "run.csv")
        hand_mean = 0.5 * (rows0[-1].eval_mean_return + rows1[-1].eval_mean_return)
        assert aggregate["a"]["final_mean_return"] == pytest.approx(hand_mean, rel=1e-12)
        assert aggregate["a"]["errors"] == {}
        assert (tmp_path / "sweep" / "aggregate.json").exists()

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfgs = [tiny_config(name="w", seeds=(0, 1), total_episodes=2, eval_every=1)]
        sweep(cfgs, parallel_workers=1, out_dir=tmp_path / "s1")
        sweep(cfgs, parallel_workers=2, out_dir=tmp_path / "s2")
        for seed in (0, 1):
            a = (tmp_path / "s1" / "w" / f"seed_{seed}" / "run.csv").read_bytes()
            b = (tmp_path / "s2" / "w" / f"seed_{seed}" / "run.csv").read_bytes()
            assert a == b

    def test_cell_failure_recorded_sweep_continues(self, tmp_path):
        good = tiny_config(name="good", seeds=(0,), total_episodes=2, eval_every=1)
        bad = tiny_config(name="bad", seeds=(0,), total_episodes=2, eval_every=1,
                          hyper_overrides=dict(TINY_HYPER, learning_rate=1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            aggregate = sweep([good, bad], parallel_workers=1, out_dir=tmp_path / "sweep")
        assert aggregate["good"]["errors"] == {}
        assert "0" in aggregate["bad"]["errors"]

    def test_dead_worker_recorded_other_cells_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_sweep_cell", cell_or_dead_worker)
        cfg = tiny_config(name="c", seeds=(0, 1, 2))
        aggregate = sweep([cfg], parallel_workers=2, out_dir=tmp_path / "sweep")
        entry = aggregate["c"]
        assert list(entry["errors"]) == ["1"]
        assert entry["errors"]["1"].startswith("BrokenProcessPool")
        assert entry["final_mean_return"] == 0.5  # the mean of seeds 0 and 2
        assert json.loads((tmp_path / "sweep" / "aggregate.json").read_text()) == aggregate

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep([], parallel_workers=1, out_dir=tmp_path)


def cell_or_dead_worker(config_dict: dict, seed: int, cell_dir: str):
    """_sweep_cell stand-in: seed 1's worker process dies once the other
    cells have returned; the others return one row each."""
    cell = Path(cell_dir)
    if seed == 1:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and \
                not all((cell.parent / f"seed_{s}" / "done").exists() for s in (0, 2)):
            time.sleep(0.01)
        time.sleep(0.5)  # let the other workers hand their results back
        os._exit(1)
    cell.mkdir(parents=True)
    (cell / "done").touch()
    row = EvalRow(env_steps=500, episode=0, eval_mean_return=float(seed) / 2, eval_std=0.0,
                  active_bins=2, epsilon=1.0, loss=0.0, R=0.0, P=0.0, abs_a=0.0, abs_da=0.0,
                  SM=0.0)
    return {"rows": [asdict(row)], "error": None}


class TestRadar:
    def test_self_normalization(self, two_runs, tmp_path):
        report = radar_report([two_runs / "baseline"], two_runs / "baseline",
                              out_file=tmp_path / "radar.json", episodes=2)
        ratios = report["runs"]["baseline"]["ratios"]
        assert set(ratios) == {"R", "P", "abs_a", "abs_da", "SM"}
        for key, value in ratios.items():
            if value is not None:
                assert value == pytest.approx(1.0)
        assert (tmp_path / "radar.json").exists()

    def test_missing_baseline_rejected(self, two_runs):
        with pytest.raises(FileNotFoundError):
            radar_report([two_runs / "pen"], two_runs / "nope")

    def test_common_penalty_evaluation(self, two_runs):
        report = radar_report([two_runs / "pen"], two_runs / "baseline",
                              episodes=2, eval_c_a=0.5)
        raw = report["runs"]["pen"]["raw"]
        base = report["baseline"]["raw"]
        assert set(raw) == {"R", "P", "abs_a", "abs_da", "SM"}
        assert base["P"] > 0  # common c_a makes the baseline's penalty nonzero


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0, 0) != derive_seed(0, 1)
