"""Seeded experiment runner.

A run is fully determined by (config, seed): env resets, exploration,
replay sampling, and evaluation all derive from them, so run.csv is
byte-reproducible. Runs checkpoint at every evaluation, replacing each file
atomically, and resume exactly from the latest snapshot, even after a kill.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .actions import build_ladder, decode, grow
from .agent import GqnAgent, Hyperparams, beta_schedule, epsilon_schedule
from .blob import load_blob, save_blob, write_atomic
from .envs import make_env
from .metrics import EpisodeTrace, episode_metrics, normalize_radar
from .nets import DivergenceError
from .replay import NStepAccumulator, PrioritizedReplay
from .scheduler import GrowthEvent, GrowthScheduler

log = logging.getLogger("gqn.harness")

RUN_CSV_SCHEMA = "run_csv_v1"
EVENTS_CSV_SCHEMA = "growth_events_v1"
SNAPSHOT_VERSION = 2  # state.bin holds no agent; it records the checkpoint's sha256
_LADDER_KEYS = ("min_bins", "max_bins", "bounds")  # grouped under "ladder" in config dicts

_TRAIN_TAG = 1
_EVAL_TAG = 2


def derive_seed(*parts: int) -> int:
    """Stable child seed from integer parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass
class RunConfig:
    env: str
    c_a: float = 0.0
    min_bins: int = 2
    max_bins: int = 9
    bounds: tuple[float, float] = (-1.0, 1.0)
    growth: str = "adaptive"  # linear | adaptive | none
    total_episodes: int = 200
    eval_every: int = 25
    eval_episodes: int = 10
    window: int = 10
    cooldown: int = 5
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    name: str = ""
    hyper_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        self.bounds = (float(self.bounds[0]), float(self.bounds[1]))
        self.min_bins, self.max_bins = int(self.min_bins), int(self.max_bins)
        if self.growth not in ("linear", "adaptive", "none"):
            raise ValueError(f"growth must be linear/adaptive/none, got {self.growth!r}")
        if not self.c_a >= 0:
            raise ValueError(f"c_a must be >= 0, got {self.c_a}")
        if not -1.0 <= self.bounds[0] < self.bounds[1] <= 1.0:  # envs take actions in [-1, 1]
            raise ValueError(f"bounds must satisfy -1 <= lo < hi <= 1, got {self.bounds}")
        for fname in ("total_episodes", "eval_every", "eval_episodes", "window"):
            if getattr(self, fname) < 1:
                raise ValueError(f"{fname} must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if "seed" in self.hyper_overrides:
            raise ValueError("set the run seed via the seeds list, not hyper overrides")
        self.make_hyper(0)  # validates overrides
        env = make_env(self.env, self.c_a)  # validates env id
        build_ladder(self.min_bins, self.max_bins, env.spec.action_dim, self.bounds)
        if not self.name:
            self.name = (f"{self.env}_ca{self.c_a:g}_{self.min_bins}to{self.max_bins}"
                         f"_{self.growth}")

    def make_hyper(self, seed: int) -> Hyperparams:
        valid = {f.name for f in fields(Hyperparams)}
        unknown = set(self.hyper_overrides) - valid
        if unknown:
            raise ValueError(f"unknown hyper keys: {sorted(unknown)}")
        kwargs = dict(self.hyper_overrides)
        if "hidden_dims" in kwargs:
            kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
        return Hyperparams(seed=seed, **kwargs)

    def to_dict(self) -> dict:
        """JSON-ready form: ladder fields nest under "ladder", the hyper
        overrides become "hyper". "name" leads because the key order is part
        of the resume snapshot's bytes."""
        d: dict = {"name": self.name}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            if f.name in _LADDER_KEYS:
                d.setdefault("ladder", {})[f.name] = value
            elif f.name == "hyper_overrides":
                d["hyper"] = dict(value)
            else:
                d[f.name] = value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        names = [f.name for f in fields(cls)]
        known = {"ladder", "hyper"} | set(names) - set(_LADDER_KEYS) - {"hyper_overrides"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "env" not in d:
            raise ValueError("config requires an 'env' id")
        ladder = d.get("ladder", {})
        unknown_ladder = set(ladder) - set(_LADDER_KEYS)
        if unknown_ladder:
            raise ValueError(f"unknown ladder keys: {sorted(unknown_ladder)}")
        kwargs = {k: v for k, v in d.items() if k in names}
        kwargs.update(ladder, hyper_overrides=dict(d.get("hyper", {})))
        return cls(**kwargs)


@dataclass
class EvalRow:
    env_steps: int
    episode: int
    eval_mean_return: float
    eval_std: float
    active_bins: int
    epsilon: float
    loss: float
    R: float
    P: float
    abs_a: float
    abs_da: float
    SM: float


@dataclass
class RunRecord:
    rows: list[EvalRow] = field(default_factory=list)
    events: list[GrowthEvent] = field(default_factory=list)
    checkpoint_path: str = ""
    diverged: bool = False
    wall_time: float = 0.0


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_json(path: Path, doc) -> None:
    write_atomic(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def _write_csv(path: Path, schema: str, row_type, rows) -> None:
    names = [f.name for f in fields(row_type)]
    lines = [f"# schema={schema}", ",".join(names)]
    lines += [",".join(_fmt(getattr(row, n)) for n in names) for row in rows]
    write_atomic(path, [("\n".join(lines) + "\n").encode()])


def write_run_csv(path: Path, rows: list[EvalRow]) -> None:
    _write_csv(path, RUN_CSV_SCHEMA, EvalRow, rows)


def write_events_csv(path: Path, events: list[GrowthEvent]) -> None:
    _write_csv(path, EVENTS_CSV_SCHEMA, GrowthEvent, events)


def read_run_csv(path: Path) -> list[EvalRow]:
    lines = Path(path).read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    types = get_type_hints(EvalRow)  # column name -> int or float, in field order
    if body[0].split(",") != list(types):
        raise ValueError(f"{path}: unexpected run.csv columns {body[0].split(',')}")
    return [EvalRow(*(types[n](v) for n, v in zip(types, ln.split(",")))) for ln in body[1:]]


def _eval_episodes(agent: GqnAgent, env, seed: int, episode: int, count: int):
    """`count` greedy episodes, the i-th reset from derive_seed(seed, _EVAL_TAG,
    episode, i); returns (penalized returns, traces)."""
    returns, traces = [], []
    for i in range(count):
        obs = env.reset(derive_seed(seed, _EVAL_TAG, episode, i))
        actions, r_orig, r_pen = [], [], []
        terminal = False
        while not terminal:
            action = decode(agent.ladder, agent.select_action(obs, 0.0))
            obs, r, r_o, terminal = env.step(action)
            actions.append(action)
            r_orig.append(r_o)
            r_pen.append(r)
        returns.append(float(np.sum(r_pen)))
        traces.append(EpisodeTrace(actions=np.asarray(actions),
                                   rewards_original=np.asarray(r_orig),
                                   rewards=np.asarray(r_pen), dt=env.spec.dt))
    return np.asarray(returns), traces


def _mean_metrics(traces) -> dict[str, float]:
    per = [episode_metrics(t) for t in traces]
    return {k: float(np.mean([p[k] for p in per])) for k in per[0]}


def _apply_growth(agent: GqnAgent, scheduler: GrowthScheduler, episode: int) -> None:
    old_bins = agent.ladder.active_bins
    new_ladder, grew = grow(agent.ladder)
    if not grew:
        return
    agent.on_growth(new_ladder)
    scheduler.record(agent.env_steps, episode, old_bins, new_ladder.active_bins, scheduler.mode)
    log.info("growth (%s): %d -> %d bins at episode %d, env step %d",
             scheduler.mode, old_bins, new_ladder.active_bins, episode, agent.env_steps)


def _save_training_state(path: Path, agent: GqnAgent, scheduler: GrowthScheduler,
                         record: RunRecord, next_episode: int, last_loss: float,
                         config: RunConfig, seed: int, checkpoint_sha256: str) -> None:
    """Everything a resume needs beyond the checkpoint, plus that checkpoint's
    sha256; the agent itself lives only in the checkpoint."""
    replay_meta, replay_arrays = agent.replay.state()
    meta = {
        "snapshot_version": SNAPSHOT_VERSION,
        "checkpoint_sha256": checkpoint_sha256,
        "replay": replay_meta,
        "scheduler": scheduler.state(),
        "rows": [asdict(r) for r in record.rows],
        "next_episode": next_episode,
        "last_loss": last_loss,
        "seed": seed,
        "config": config.to_dict(),
    }
    save_blob(path, meta, {f"replay_{k}": v for k, v in replay_arrays.items()})


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def _load_training_state(out: Path, config: RunConfig, seed: int,
                         scheduler: GrowthScheduler):
    """Restore from state.bin and the checkpoint whose sha256 it records. A
    kill between the state.bin commit and the checkpoint rename left that
    checkpoint as checkpoint.next; the rename is finished here."""
    path, checkpoint, pending = out / "state.bin", out / "checkpoint.bin", out / "checkpoint.next"
    meta, arrays = load_blob(path)
    version = meta.get("snapshot_version", 1)  # version 1 predates the field
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: snapshot version {version} is not supported; this "
                         f"program resumes version {SNAPSHOT_VERSION} only")
    if meta["config"] != config.to_dict() or meta["seed"] != seed:
        raise ValueError(f"{path}: snapshot was produced by a different (config, seed)")
    want = meta["checkpoint_sha256"]
    if _sha256(pending) == want:
        os.replace(pending, checkpoint)
    elif _sha256(checkpoint) != want:
        raise ValueError(f"{checkpoint} does not match the checkpoint sha256 {want} "
                         f"recorded in {path}")
    agent, _ = GqnAgent.load(checkpoint)
    replay_arrays = {k.removeprefix("replay_"): v for k, v in arrays.items()}
    agent.replay = PrioritizedReplay.from_state(meta["replay"], replay_arrays)
    scheduler.load_state(meta["scheduler"])
    record = RunRecord(rows=[EvalRow(**r) for r in meta["rows"]], events=scheduler.events)
    return agent, record, int(meta["next_episode"]), float(meta["last_loss"])


def train(config: RunConfig, seed: int, out_dir, resume: bool = True,
          stop_after_episode: int | None = None) -> RunRecord:
    """Run one seeded training cell, writing run.csv / growth_events.csv /
    config.json / checkpoint.bin (and a resume snapshot) into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", config.to_dict())
    state_path = out / "state.bin"
    checkpoint_path, pending_path = out / "checkpoint.bin", out / "checkpoint.next"
    started = time.perf_counter()

    env = make_env(config.env, config.c_a)
    eval_env = make_env(config.env, config.c_a)
    hyper = config.make_hyper(seed)
    total_env_steps = config.total_episodes * env.spec.horizon
    ladder = build_ladder(config.min_bins, config.max_bins, env.spec.action_dim, config.bounds)
    scheduler = GrowthScheduler(config.growth, config.total_episodes, ladder.num_levels,
                                config.window, config.cooldown)

    if resume and state_path.exists():
        agent, record, start_episode, last_loss = _load_training_state(
            out, config, seed, scheduler)
        hyper = agent.hyper
        log.info("resuming %s seed %d from episode %d", config.name, seed, start_episode)
    else:
        agent = GqnAgent(env.spec.obs_dim, ladder, hyper)
        record = RunRecord(events=scheduler.events)
        start_episode = 0
        last_loss = float("nan")

    record.checkpoint_path = str(checkpoint_path)
    min_ready = max(hyper.batch_size, hyper.min_fill)

    try:
        for episode in range(start_episode, config.total_episodes):
            for _ in range(scheduler.before_episode(episode, agent.ladder.active_level)):
                _apply_growth(agent, scheduler, episode)

            acc = NStepAccumulator(hyper.n_step, hyper.discount)
            obs = env.reset(derive_seed(seed, _TRAIN_TAG, episode))
            terminal = False
            while not terminal:
                eps = epsilon_schedule(agent.env_steps, total_env_steps, hyper)
                bins = agent.select_action(obs, eps)
                action = decode(agent.ladder, bins)
                next_obs, reward, _, terminal = env.step(action)
                for tr in acc.accumulate(obs, bins, reward, terminal):
                    agent.replay.push(tr)
                obs = next_obs
                agent.env_steps += 1
                if agent.replay.size >= min_ready and agent.env_steps % hyper.train_every == 0:
                    diag = agent.train_step(beta_schedule(agent.env_steps, total_env_steps, hyper))
                    last_loss = diag["loss"]

            is_last = episode == config.total_episodes - 1
            if (episode + 1) % config.eval_every == 0 or is_last:
                returns, traces = _eval_episodes(agent, eval_env, seed, episode,
                                                 config.eval_episodes)
                mean_metrics = _mean_metrics(traces)
                eval_mean = float(np.mean(returns))
                row = EvalRow(
                    env_steps=agent.env_steps, episode=episode,
                    eval_mean_return=eval_mean, eval_std=float(np.std(returns)),
                    active_bins=agent.ladder.active_bins,
                    epsilon=epsilon_schedule(agent.env_steps, total_env_steps, hyper),
                    loss=last_loss, **mean_metrics,
                )
                record.rows.append(row)
                log.info("%s seed %d ep %d: return %.2f (bins %d)",
                         config.name, seed, episode, eval_mean, row.active_bins)
                if scheduler.after_eval(eval_mean, agent.ladder.at_max):
                    _apply_growth(agent, scheduler, episode)
                # The tables go first, so that the commit (state.bin) finds its rows written.
                digest = agent.save(pending_path, extra_meta={
                    "env": config.env, "c_a": config.c_a, "seed": seed, "episode": episode})
                write_run_csv(out / "run.csv", record.rows)
                write_events_csv(out / "growth_events.csv", scheduler.events)
                _save_training_state(state_path, agent, scheduler, record,
                                     episode + 1, last_loss, config, seed, digest)
                os.replace(pending_path, checkpoint_path)

            if stop_after_episode is not None and episode >= stop_after_episode:
                break
    except DivergenceError as exc:
        record.diverged = True
        write_run_csv(out / "run.csv", record.rows)
        write_events_csv(out / "growth_events.csv", scheduler.events)
        diagnostic = {"diverged": True, "error": str(exc), "episode_reached": len(record.rows)}
        write_atomic(out / "diagnostic.json", [(json.dumps(diagnostic) + "\n").encode()])
        raise

    record.wall_time = time.perf_counter() - started
    return record


def evaluate(checkpoint, episodes: int, env=None, c_a: float | None = None,
             base_seed: int = 0):
    """Greedy evaluation of a checkpoint (path or loaded agent).

    Returns {"mean", "std", "returns", "traces"}. The env comes from the
    checkpoint metadata unless one is passed explicitly; c_a overrides the
    stored penalty when given.
    """
    if isinstance(checkpoint, GqnAgent):
        agent, extra = checkpoint, {}
    else:
        agent, extra = GqnAgent.load(checkpoint)
    if env is None:
        if "env" not in extra:
            raise ValueError("checkpoint has no env metadata; pass env explicitly")
        env = make_env(extra["env"], extra["c_a"] if c_a is None else c_a)
    elif c_a is not None:
        raise ValueError("pass either a ready env or c_a, not both")
    if env.spec.obs_dim != agent.obs_dim:
        raise ValueError(
            f"env obs dim {env.spec.obs_dim} does not match agent input {agent.obs_dim}")
    if env.spec.action_dim != agent.ladder.action_dim:
        raise ValueError("env action dim does not match agent ladder")
    returns, traces = _eval_episodes(agent, env, base_seed, 0, episodes)
    return {"mean": float(np.mean(returns)), "std": float(np.std(returns)),
            "returns": returns.tolist(), "traces": traces}


def _sweep_cell(config_dict: dict, seed: int, cell_dir: str):
    config = RunConfig.from_dict(config_dict)
    try:
        record = train(config, seed, cell_dir)
        return {"rows": [asdict(r) for r in record.rows], "error": None}
    except Exception as exc:  # cell failures are recorded, the sweep continues
        return {"rows": [], "error": f"{type(exc).__name__}: {exc}"}


def sweep(configs: list[RunConfig], parallel_workers: int, out_dir) -> dict:
    """Run every (config, seed) cell; aggregate learning curves per config.

    Writes aggregate.json plus one directory per cell. Workers only change
    scheduling, never per-cell outputs.
    """
    if not configs:
        raise ValueError("sweep needs at least one config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = {(cfg.name, s): (cfg.to_dict(), s, str(out / cfg.name / f"seed_{s}"))
             for cfg in configs for s in cfg.seeds}
    if parallel_workers > 1:
        with ProcessPoolExecutor(max_workers=parallel_workers) as pool:
            futures = {key: pool.submit(_sweep_cell, *args) for key, args in cells.items()}
            results = {}
            for key, fut in futures.items():
                try:
                    results[key] = fut.result()
                except Exception as exc:  # e.g. BrokenProcessPool after a worker died
                    results[key] = {"rows": [], "error": f"{type(exc).__name__}: {exc}"}
    else:
        results = {key: _sweep_cell(*args) for key, args in cells.items()}

    aggregate: dict[str, dict] = {}
    for cfg in configs:
        per_seed = {s: results[(cfg.name, s)] for s in cfg.seeds}
        errors = {str(s): r["error"] for s, r in per_seed.items() if r["error"]}
        ok = [r["rows"] for r in per_seed.values() if not r["error"] and r["rows"]]
        entry: dict = {"seeds": list(cfg.seeds), "errors": errors}
        if ok:
            n_rows = min(len(rows) for rows in ok)
            returns = np.array([[rows[i]["eval_mean_return"] for i in range(n_rows)] for rows in ok])
            r_orig = np.array([[rows[i]["R"] for i in range(n_rows)] for rows in ok])
            entry.update({
                "env_steps": [ok[0][i]["env_steps"] for i in range(n_rows)],
                "episodes": [ok[0][i]["episode"] for i in range(n_rows)],
                "mean_return": returns.mean(axis=0).tolist(),
                "std_return": returns.std(axis=0).tolist(),
                "mean_R": r_orig.mean(axis=0).tolist(),
                "final_mean_return": float(returns[:, -1].mean()),
                "final_mean_R": float(r_orig[:, -1].mean()),
            })
        aggregate[cfg.name] = entry
    _write_json(out / "aggregate.json", aggregate)
    return aggregate


def radar_report(run_dirs, baseline_dir, out_file=None, episodes: int = 10,
                 base_seed: int = 0, eval_c_a: float | None = None) -> dict:
    """Smoothness/performance ratios of each run against the baseline run.

    Every checkpoint (baseline included) is evaluated greedily on its own
    env; eval_c_a forces a common penalty coefficient instead, which makes
    the incurred-penalty comparison meaningful against a c_a = 0 baseline.
    """
    baseline_ckpt = Path(baseline_dir) / "checkpoint.bin"
    if not baseline_ckpt.exists():
        raise FileNotFoundError(f"baseline checkpoint missing: {baseline_ckpt}")

    def run_metrics(ckpt_path):
        result = evaluate(ckpt_path, episodes, c_a=eval_c_a, base_seed=base_seed)
        return _mean_metrics(result["traces"])

    baseline_metrics = run_metrics(baseline_ckpt)
    report: dict = {"baseline": {"dir": str(baseline_dir), "raw": baseline_metrics}, "runs": {}}
    for run_dir in run_dirs:
        ckpt = Path(run_dir) / "checkpoint.bin"
        if not ckpt.exists():
            raise FileNotFoundError(f"run checkpoint missing: {ckpt}")
        raw = run_metrics(ckpt)
        report["runs"][Path(run_dir).name] = {
            "dir": str(run_dir),
            "raw": raw,
            "ratios": normalize_radar(raw, baseline_metrics),
        }
    if out_file is not None:
        _write_json(Path(out_file), report)
    return report
