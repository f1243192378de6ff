"""Experiment harness: config parsing, attack batches, metrics, sweeps.

All outputs are CSV/JSON for external plotting. Runs are deterministic per
(config, seed): no timestamps or machine state enter any artifact, so
repeated runs produce byte-identical files.
"""

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import pm as pm_mod
from . import zoo
from .errors import ConfigError, FormatError, check_int
from .losses import AttackGoal, LossKind
from .oracle import LocalOracle, require_soft
from .prng import stream
from .search import AttackOutcome, SearchConfig, bases_attack, prober

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


_ALL_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                       if f.default is MISSING and f.default_factory is MISSING)


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
    check_int("seed", cfg.seed, error=ConfigError)
    if cfg.max_images is not None:
        check_int("max_images", cfg.max_images, 1, ConfigError)
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
    if ("label" in goal) != (goal.get("policy") == "provided"):
        raise ConfigError("goal_policy.label is given exactly when policy is 'provided'")
    if "label" in goal:
        check_int("goal_policy.label", goal["label"], 0, ConfigError)
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
    Failed attacks contribute q = max_queries to the all-images stats.
    ValueError unless max_queries is an integer >= 1 and no record used
    more than max_queries queries (the message names its image index)."""
    if not records:
        raise ValueError("need at least one attacked image")
    check_int("max_queries", max_queries, 1)
    for r in records:
        if r["q_used"] > max_queries:
            raise ValueError(f"image {r.get('index')} used {r['q_used']} queries, "
                             f"more than max_queries={max_queries}")
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


def connect(url: str):
    """``client.connect(url)``, imported on the first call, so that a run
    against an in-process victim loads no HTTP or OpenSSL code."""
    from . import client

    return client.connect(url)


def _derive_seed(seed: int, tag: str) -> int:
    return int(stream(seed, tag).u64(1)[0] & 0x7FFFFFFF)


def run_experiment(cfg: ExperimentConfig) -> MetricsSummary:
    """Attacks every correctly-classified test image and writes artifacts:
    query_logs/image_NNNN.csv, success_curve.csv, summary.json. ConfigError,
    counting both skip reasons and writing nothing, when no image is left."""
    dataset = zoo.load_dataset(cfg.dataset)
    manifest = zoo.load_manifest(cfg.zoo_manifest)
    zoo_dir = os.path.dirname(os.path.abspath(cfg.zoo_manifest))
    by_id = {e["id"]: e for e in manifest["models"]}

    unknown = [sid for sid in cfg.surrogate_ids if sid not in by_id]
    if unknown:
        raise ConfigError(f"surrogate ids not in manifest: {unknown}")
    surrogates = [zoo.load_model(os.path.join(zoo_dir, by_id[sid]["file"]))
                  for sid in cfg.surrogate_ids]
    image_shape = dataset.images.shape[1:]
    wrong = [sid for sid, m in zip(cfg.surrogate_ids, surrogates) if m.input_shape != image_shape]
    if wrong:
        raise ConfigError(f"surrogates {wrong} do not take the dataset's {image_shape} images")

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
    # copy over the same connection, so the victim's count and log (and so a
    # TransportError's partial_log) hold that image's queries only; q_used is
    # the attack's own event count; the handle is closed when the run ends,
    # by an error too
    victim = LocalOracle(victim_model) if victim_model is not None else connect(cfg.victim["url"])
    try:
        require_soft(victim)
        wrong = [sid for sid, m in zip(cfg.surrogate_ids, surrogates)
                 if m.num_classes != victim.num_classes]
        if wrong:
            raise ConfigError(f"surrogates {wrong} do not have the victim's "
                              f"{victim.num_classes} classes")
        if provided is not None and provided >= victim.num_classes:
            raise ConfigError(f"goal_policy.label {provided} is out of range for "
                              f"{victim.num_classes} classes")
        if victim.input_shape != image_shape:
            raise ConfigError(f"the victim takes {victim.input_shape} images, not the "
                              f"dataset's {image_shape} images")

        test = dataset.test_split()
        limit = len(test) if cfg.max_images is None else min(cfg.max_images, len(test))

        log_dir = os.path.join(cfg.output_dir, "query_logs")
        records = []
        misclassified = on_target = 0  # the two reasons an image is skipped
        for i in range(limit):
            img = test.images[i]
            y = int(test.labels[i])
            clean = victim.query(img)
            if clean.label != y:
                misclassified += 1
                continue
            if goal_mode == "untargeted":
                goal = AttackGoal("untargeted", y)
            else:
                target = pick_target(clean.logits, policy, y,
                                     rng=stream(cfg.seed, f"image/{i}/target"),
                                     provided=provided)
                if target == y:
                    on_target += 1
                    continue
                goal = AttackGoal("targeted", target)

            per_image = replace(search_cfg, order_seed=_derive_seed(cfg.seed, f"image/{i}/order"))
            outcome = bases_attack(img, goal, victim.fresh(), surrogates, per_image)
            if not records:
                os.makedirs(log_dir, exist_ok=True)
            with _atomically(os.path.join(log_dir, f"image_{i:04d}.csv")) as tmp:
                export_query_log_csv(outcome, tmp)
            records.append({
                "index": i,
                "label": y,
                "target": goal.label if goal_mode == "targeted" else None,
                "success": outcome.success,
                "q_used": outcome.q_used,
            })
    finally:
        victim.close()
    if not records:
        raise ConfigError(f"no image left to attack: {misclassified} misclassified by "
                          f"the victim, {on_target} whose label is the target")

    summary = summarize(records, search_cfg.max_queries, misclassified + on_target)
    curve = os.path.join(cfg.output_dir, "success_curve.csv")
    with _atomically(curve) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("q,success_fraction\n")
        for q, frac in success_curve(records, search_cfg.max_queries):
            fh.write(f"{q},{frac!r}\n")
    with _atomically(os.path.join(cfg.output_dir, "summary.json")) as tmp, \
            open(tmp, "w", encoding="utf-8") as fh:
        fh.write(summary_to_json(summary))
    return summary


@contextmanager
def _atomically(path):
    """A temporary path beside ``path`` for the block to write; renamed onto
    ``path`` when the block ends, removed if it raises. So an artifact that
    exists is whole, and a failed rewrite leaves the old one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_LOG_NAME = re.compile(r"image_([0-9]+)\.csv")
_LOG_COLUMNS = ("query_index", "coordinate", "candidate_tag", "victim_loss", "success_flag")
# the two columns a query log is read for; the others may be absent
_INDEX, _FLAG = _LOG_COLUMNS[0], _LOG_COLUMNS[-1]


def export_query_log_csv(outcome: AttackOutcome, path) -> None:
    """One row per victim query, with the columns of _LOG_COLUMNS (success
    as 1/0)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LOG_COLUMNS)
        for ev in outcome.events:
            writer.writerow([ev.query_index, ev.coordinate, ev.candidate_tag,
                             repr(ev.victim_loss), int(ev.success_flag)])


def records_from_csv_dir(log_dir: str):
    """Rebuilds (index, success, q_used) per image from the per-image query
    CSVs, in image order; used to cross-check summary.json against raw
    artifacts. ``index`` is the integer in the file name, ``q_used`` the
    row count and ``success`` the last row's flag. A file with a header and
    no rows is skipped. FormatError, naming the file, for a ``.csv`` not
    named ``image_<digits>.csv`` (or naming an index twice), a file that is
    not UTF-8 CSV or has no query_index or success_flag column, and, naming
    the line too, a row k whose query_index is not ``k``, a success_flag
    other than 0 or 1, or a row after one whose flag is 1."""
    logs = {}
    for name in os.listdir(log_dir):
        if not name.endswith(".csv"):
            continue
        match = _LOG_NAME.fullmatch(name)
        if match is None:
            raise FormatError(f"{name}: a query log is named image_<digits>.csv")
        index = int(match[1])
        if index in logs:
            raise FormatError(f"{name}: image {index} also has {logs[index]}")
        logs[index] = name
    records = []
    for index in sorted(logs):
        flags = _read_query_log(os.path.join(log_dir, logs[index]), logs[index])
        if flags:
            records.append({"index": index, "success": flags[-1], "q_used": len(flags)})
    return records


def _read_query_log(path, name) -> list:
    """The success flag of each row of one query-log CSV, in row order."""
    flags = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in (_INDEX, _FLAG) if c not in (reader.fieldnames or ())]
            if missing:
                raise FormatError(f"{name}: no {' or '.join(missing)} column")
            for row in reader:
                where = f"{name} line {reader.line_num}"
                if flags and flags[-1]:
                    raise FormatError(f"{where}: a query after the successful one")
                q, flag = row[_INDEX], row[_FLAG]
                if q != str(len(flags) + 1):
                    raise FormatError(f"{where}: query_index {q!r} is not {len(flags) + 1}")
                if flag not in ("0", "1"):
                    raise FormatError(f"{where}: success_flag {flag!r} is not 0 or 1")
                flags.append(flag == "1")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{name}: {exc}") from None
    return flags


def triangle_sweep(x, goal: AttackGoal, surrogates, victim_model, resolution: int,
                   pm_cfg: pm_mod.PMConfig):
    """Victim loss over the barycentric grid of a 3-surrogate simplex.

    Enumerates all (i, j, k) with i+j+k = resolution, runs the PM from
    delta = 0 at w = (i, j, k)/resolution, and records the victim loss and
    success an in-process oracle of ``victim_model`` scores. Returns rows
    (i, j, k, loss, success)."""
    if len(surrogates) != 3:
        raise ValueError("triangle sweep needs exactly 3 surrogates")
    check_int("resolution", resolution, 1)
    x = np.asarray(x, dtype=np.float32)
    probe = prober(x, goal, surrogates, pm_cfg, LocalOracle(victim_model))
    rows = []
    for i in range(resolution, -1, -1):
        for j in range(resolution - i, -1, -1):
            k = resolution - i - j
            w = np.array([i, j, k], dtype=np.float64) / resolution
            rows.append((i, j, k, *probe(w, np.zeros_like(x))[1:]))
    return rows


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,k,loss,success\n")
        for i, j, k, loss, ok in rows:
            fh.write(f"{i},{j},{k},{loss!r},{int(ok)}\n")
