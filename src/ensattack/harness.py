"""Experiment harness: config parsing, attack batches, metrics, sweeps.

All outputs are CSV/JSON for external plotting. Runs are deterministic per
(config, seed): no timestamps or machine state enter any artifact, so
repeated runs produce byte-identical files.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn, zoo
from . import pm as pm_mod
from .client import connect
from .errors import ConfigError
from .losses import AttackGoal, LossKind, single_loss
from .oracle import LocalOracle, is_success
from .prng import stream
from .search import SearchConfig, bases_attack, export_query_log_csv

_GOAL_POLICIES = ("provided", "easiest", "hardest", "random")


def l2_budget(num_pixels: int) -> float:
    """l2 radius on the [0,1] pixel scale: sqrt(0.001 * D).

    At D = 150528 (3x224x224) the radius is 12.269, which is 3128.59 on the
    0-255 scale; the paper prints it truncated as 3128.
    """
    if num_pixels < 1:
        raise ValueError("need at least one pixel")
    return math.sqrt(0.001 * num_pixels)


def pick_target(logits_clean: np.ndarray, policy: str, true_label: int,
                rng=None, provided: int | None = None) -> int:
    """Target-label policies. easiest: runner-up confidence; hardest: lowest
    confidence over all classes; random: seeded uniform over labels != y."""
    z = np.asarray(logits_clean)
    c = z.size
    if policy == "provided":
        if provided is None:
            raise ConfigError("goal_policy 'provided' needs a label")
        return int(provided)
    if policy == "easiest":
        masked = z.astype(np.float64).copy()
        masked[true_label] = -np.inf
        return int(np.argmax(masked))
    if policy == "hardest":
        return int(np.argmin(z))
    if policy == "random":
        if rng is None:
            raise ValueError("random policy needs a stream")
        k = rng.integer(c - 1)
        return int(k if k < true_label else k + 1)
    raise ConfigError(f"unknown goal policy {policy!r}")


@dataclass
class ExperimentConfig:
    dataset: str
    zoo_manifest: str
    surrogate_ids: list
    victim: dict  # {"model_id": str} or {"url": str}
    goal_policy: dict  # {"mode": "untargeted"} or {"mode": "targeted", "policy": ..., ["label": int]}
    output_dir: str
    search: dict = field(default_factory=dict)
    pm: dict = field(default_factory=dict)
    seed: int = 0
    max_images: int | None = None
    allow_victim_overlap: bool = False


_REQUIRED_KEYS = ("dataset", "zoo_manifest", "surrogate_ids", "victim",
                  "goal_policy", "output_dir")
_ALL_KEYS = _REQUIRED_KEYS + ("search", "pm", "seed", "max_images", "allow_victim_overlap")


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Validates the JSON experiment dict, its search and pm settings
    included, before any file is read; unknown keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(raw) - set(_ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    cfg = ExperimentConfig(**raw)

    for key in ("dataset", "zoo_manifest", "output_dir"):
        if not isinstance(getattr(cfg, key), str):
            raise ConfigError(f"{key} must be a path string, got {getattr(cfg, key)!r}")
    if not isinstance(cfg.surrogate_ids, list) or not cfg.surrogate_ids or \
            not all(isinstance(sid, str) for sid in cfg.surrogate_ids):
        raise ConfigError("surrogate_ids must be a nonempty list of model id strings")
    if type(cfg.seed) is not int:
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    if cfg.max_images is not None and (type(cfg.max_images) is not int or cfg.max_images < 1):
        raise ConfigError(f"max_images must be a positive integer or null, got {cfg.max_images!r}")
    if not isinstance(cfg.allow_victim_overlap, bool):
        raise ConfigError(f"allow_victim_overlap must be true or false, "
                          f"got {cfg.allow_victim_overlap!r}")
    if not isinstance(cfg.victim, dict) or len(cfg.victim) != 1 or \
            next(iter(cfg.victim)) not in ("model_id", "url") or \
            not isinstance(next(iter(cfg.victim.values())), str):
        raise ConfigError("victim must be {'model_id': ...} or {'url': ...}")
    goal = cfg.goal_policy
    if not isinstance(goal, dict) or goal.get("mode") not in ("targeted", "untargeted"):
        raise ConfigError("goal_policy.mode must be 'targeted' or 'untargeted'")
    if goal["mode"] == "targeted":
        if goal.get("policy") not in _GOAL_POLICIES:
            raise ConfigError(f"goal_policy.policy must be one of {_GOAL_POLICIES}")
        extra = set(goal) - {"mode", "policy", "label"}
    else:
        extra = set(goal) - {"mode"}
    if extra:
        raise ConfigError(f"unknown goal_policy keys: {sorted(extra)}")
    build_search_config(cfg.search, cfg.pm)
    return cfg


def build_search_config(search: dict, pm: dict) -> SearchConfig:
    if not isinstance(search, dict) or not isinstance(pm, dict):
        raise ConfigError("search and pm must be JSON objects")
    if "order_seed" in search:
        raise ConfigError("search.order_seed is not a config key: each image's "
                          "coordinate order derives from the experiment seed")
    pm = dict(pm)
    budget_spec = pm.pop("budget", {"norm": "linf", "eps": 16.0 / 255.0})
    loss_spec = pm.pop("loss", {})
    try:
        budget = pm_mod.Budget(**budget_spec)
        loss = LossKind(**loss_spec)
        pm_cfg = pm_mod.PMConfig(budget=budget, loss=loss, **pm)
        return SearchConfig(pm=pm_cfg, **search)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad search/pm config: {exc}") from None


@dataclass
class MetricsSummary:
    attempted: int
    skipped: int
    fooling_rate: float
    failures: int
    queries_all: dict  # mean/std/median/min/max over all attempted (failures as Q)
    queries_success: dict | None  # same stats over successful images only
    per_image: list


def _stats(values) -> dict:
    vals = sorted(values)
    arr = np.asarray(vals, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),  # population std
        "median": float(vals[(len(vals) - 1) // 2]),  # lower middle on even counts
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def summarize(records, max_queries: int, skipped: int = 0) -> MetricsSummary:
    """records: per-image dicts with at least success (bool) and q_used.
    Failed attacks contribute q = max_queries to the all-images stats."""
    if not records:
        raise ValueError("need at least one attacked image")
    succ = [r for r in records if r["success"]]
    q_all = [r["q_used"] if r["success"] else max_queries for r in records]
    return MetricsSummary(
        attempted=len(records),
        skipped=skipped,
        fooling_rate=len(succ) / len(records),
        failures=len(records) - len(succ),
        queries_all=_stats(q_all),
        queries_success=_stats([r["q_used"] for r in succ]) if succ else None,
        per_image=list(records),
    )


def summary_to_json(summary: MetricsSummary) -> str:
    return json.dumps(asdict(summary), sort_keys=True, indent=2) + "\n"


def success_curve(records, max_queries: int):
    """Cumulative success fraction at budgets q = 1..max_queries."""
    n = len(records)
    rows = []
    for q in range(1, max_queries + 1):
        hits = sum(1 for r in records if r["success"] and r["q_used"] <= q)
        rows.append((q, hits / n))
    return rows


def _derive_seed(seed: int, tag: str) -> int:
    return int(stream(seed, tag).u64(1)[0] & 0x7FFFFFFF)


def run_experiment(cfg: ExperimentConfig) -> MetricsSummary:
    """Attacks every correctly-classified test image and writes artifacts:
    query_logs/image_NNNN.csv, success_curve.csv, summary.json."""
    dataset = zoo.load_dataset(cfg.dataset)
    manifest = zoo.load_manifest(cfg.zoo_manifest)
    zoo_dir = os.path.dirname(os.path.abspath(cfg.zoo_manifest))
    by_id = {e["id"]: e for e in manifest["models"]}

    unknown = [sid for sid in cfg.surrogate_ids if sid not in by_id]
    if unknown:
        raise ConfigError(f"surrogate ids not in manifest: {unknown}")
    surrogates = [zoo.load_model(os.path.join(zoo_dir, by_id[sid]["file"]))
                  for sid in cfg.surrogate_ids]

    victim_model = None
    if "model_id" in cfg.victim:
        vid = cfg.victim["model_id"]
        if vid not in by_id:
            raise ConfigError(f"victim id {vid!r} not in manifest")
        if vid in cfg.surrogate_ids and not cfg.allow_victim_overlap:
            raise ConfigError(f"victim {vid!r} is also a surrogate; "
                              "set allow_victim_overlap to permit this")
        victim_model = zoo.load_model(os.path.join(zoo_dir, by_id[vid]["file"]))

    goal_mode = cfg.goal_policy["mode"]
    policy = cfg.goal_policy.get("policy")
    provided = cfg.goal_policy.get("label")
    search_cfg = build_search_config(cfg.search, cfg.pm)

    # one victim handle per run: it screens the clean images (the skip rule
    # and confidence-based target policies), and each attack gets a fresh()
    # copy over the same connection so q_used counts that image's queries only
    victim = (LocalOracle(victim_model, "soft") if victim_model is not None
              else connect(cfg.victim["url"], require_mode="soft"))

    test = dataset.test_split()
    limit = len(test) if cfg.max_images is None else min(cfg.max_images, len(test))

    os.makedirs(os.path.join(cfg.output_dir, "query_logs"), exist_ok=True)
    records = []
    skipped = 0
    for i in range(limit):
        img = test.images[i]
        y = int(test.labels[i])
        z_clean = victim.query(img).logits
        if int(np.argmax(z_clean)) != y:
            skipped += 1
            continue
        if goal_mode == "untargeted":
            goal = AttackGoal("untargeted", y)
        else:
            target = pick_target(z_clean, policy, y,
                                 rng=stream(cfg.seed, f"image/{i}/target"),
                                 provided=provided)
            if target == y:
                skipped += 1
                continue
            goal = AttackGoal("targeted", target)

        per_image = replace(search_cfg, order_seed=_derive_seed(cfg.seed, f"image/{i}/order"))
        outcome = bases_attack(img, goal, victim.fresh(), surrogates, per_image)
        export_query_log_csv(outcome, os.path.join(cfg.output_dir, "query_logs",
                                                   f"image_{i:04d}.csv"))
        records.append({
            "index": i,
            "label": y,
            "target": goal.label if goal_mode == "targeted" else None,
            "success": outcome.success,
            "q_used": outcome.q_used,
        })
    if not records:
        raise ConfigError("no image passed the clean-classification screen")

    summary = summarize(records, search_cfg.max_queries, skipped)
    with open(os.path.join(cfg.output_dir, "success_curve.csv"), "w", encoding="utf-8") as fh:
        fh.write("q,success_fraction\n")
        for q, frac in success_curve(records, search_cfg.max_queries):
            fh.write(f"{q},{frac!r}\n")
    with open(os.path.join(cfg.output_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(summary_to_json(summary))
    return summary


def records_from_csv_dir(log_dir: str):
    """Rebuilds (success, q_used) per image from the per-image query CSVs;
    used to cross-check summary.json against raw artifacts."""
    import csv as _csv

    records = []
    for name in sorted(os.listdir(log_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(log_dir, name), newline="", encoding="utf-8") as fh:
            rows = list(_csv.DictReader(fh))
        if not rows:
            continue
        records.append({
            "index": name,
            "success": any(r["success_flag"] == "1" for r in rows),
            "q_used": max(int(r["query_index"]) for r in rows),
        })
    return records


def triangle_sweep(x, goal: AttackGoal, surrogates, victim_model, resolution: int,
                   pm_cfg: pm_mod.PMConfig):
    """Victim loss over the barycentric grid of a 3-surrogate simplex.

    Enumerates all (i, j, k) with i+j+k = resolution, runs the PM from
    delta = 0 at w = (i, j, k)/resolution, and records the victim loss and
    the argmax success flag. Returns rows (i, j, k, loss, success)."""
    if len(surrogates) != 3:
        raise ValueError("triangle sweep needs exactly 3 surrogates")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    x = np.asarray(x, dtype=np.float32)
    rows = []
    for i in range(resolution, -1, -1):
        for j in range(resolution - i, -1, -1):
            k = resolution - i - j
            w = np.array([i, j, k], dtype=np.float64) / resolution
            _, x_star = pm_mod.pm_run(x, goal, surrogates, w, np.zeros_like(x), pm_cfg)
            z = nn.forward(victim_model, x_star)
            loss = single_loss(z, goal, pm_cfg.loss)
            rows.append((i, j, k, loss, is_success(int(np.argmax(z)), goal)))
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,k,loss,success\n")
        for i, j, k, loss, ok in rows:
            fh.write(f"{i},{j},{k},{loss!r},{int(ok)}\n")
