"""The benchmark's workloads: set-up, timed units of work, output checks.

Each workload builds its inputs from the seed (the zoo seed and the
experiment seed), then runs the same unit of work repeatedly, through the
entry points the CLI verbs call (``zoo.build_zoo``/``zoo.train_zoo``,
``harness.run_experiment``, the ``serve`` verb). Repeating one fixed unit
keeps the work identical however fast the program is: a faster program
runs more units, never different ones.

Light hooks time the steps a user waits on, in traced and untraced runs
alike: a proxy around each attack's victim oracle stamps every query, a
per-epoch record list handed to ``zoo.train`` stamps every epoch, and
zoo-train times every ``train_zoo`` pass.
"""

import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from ensattack import harness, zoo

SURROGATES = ["cnn-a", "cnn-b", "cnn-c", "mlp-a", "mlp-b", "mlp-c"]
MODEL_IDS = [mid for mid, _ in zoo.default_zoo_specs(12, 8)]  # build_zoo's defaults
# the README's default experiment: linf 16/255, T = 10, 50 queries, easiest target
SEARCH = {"max_queries": 50}
PM = {"steps": 10, "budget": {"norm": "linf", "eps": 16.0 / 255.0}}
GOAL = {"mode": "targeted", "policy": "easiest"}
# Test images per unit: one of each class, from a copy of the test split
# whose order interleaves the classes. A local unit takes about 1.5 s on a
# 2-core host, so a run holds several; an HTTP query costs about 50 ms,
# most of it transport, so an HTTP unit takes several seconds.
IMAGES = 8
# zoo-train trains every model for this many epochs per train_zoo pass.
# One epoch keeps a pass near 0.2 s on a 2-core host, so a run holds the
# hundred passes its p90 needs, and each pass is one latency sample of the
# same work: per-epoch samples mix models whose epochs differ 5x in cost,
# and their p90 then jumps between models as the host's speed drifts.
TRAIN_EPOCHS = 1
SETUP_REPEATS = 9  # zoo-train: builds timed before the first unit
SERVER_TIMEOUT_S = 30


def read_tree(path) -> dict:
    """{relative path: bytes} for every file under path."""
    path = Path(path)
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def check_models(zoo_dir) -> list:
    """Every trained model reloads through zoo.load_model and reproduces
    the parameter count and clean accuracy its manifest records."""
    failures = []
    manifest = zoo.load_manifest(os.path.join(zoo_dir, "manifest.json"))
    test = zoo.load_dataset(os.path.join(zoo_dir, manifest["dataset"])).test_split()
    for entry in manifest["models"]:
        model = zoo.load_model(os.path.join(zoo_dir, entry["file"]))
        if model.model_id != entry["id"] or model.param_count() != entry["param_count"]:
            failures.append(f"{entry['id']}: reloaded model does not match its manifest entry")
        elif entry["clean_accuracy"] is None or zoo.accuracy(model, test) != entry["clean_accuracy"]:
            failures.append(f"{entry['id']}: reloaded accuracy differs from the manifest")
    return failures


def compare_trees(a, b, what: str) -> list:
    ta, tb = read_tree(a), read_tree(b)
    if ta == tb:
        return []
    differ = sorted(k for k in set(ta) | set(tb) if ta.get(k) != tb.get(k))
    return [f"{what}: {len(differ)} files differ, first {differ[0]}"]


class _TimedOracle:
    """Delegates to the attack's oracle and stamps each answered query."""

    def __init__(self, inner, clock, mark):
        self._inner = inner
        self._clock = clock
        self._mark = mark  # [ns when the current query's work began]

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, image, goal=None):
        resp = self._inner.query(image, goal)
        now = perf_counter_ns()
        self._clock.query_ns.append(now - self._mark[0])
        self._mark[0] = now
        return resp


class AttackClock:
    """Per-query and per-image wall times, taken around harness's attack calls.

    A query's time runs from the previous answer (or the start of the
    image's attack) to its own answer: the PM run that built the candidate
    plus the round trip. An image's time runs from the previous image's
    end (or the start of the experiment) to its own end, so it includes
    screening, skipped images and the oracle handshake.
    """

    def __init__(self):
        self.query_ns = []
        self.image_ns = []
        self.attempted = 0
        self.failed = 0
        self._last_end = 0

    def start(self) -> None:
        self._last_end = perf_counter_ns()

    def install(self, patcher) -> None:
        attack = harness.bases_attack

        def timed_attack(x, goal, oracle, surrogates, cfg):
            mark = [perf_counter_ns()]
            self.attempted += 1
            try:
                out = attack(x, goal, _TimedOracle(oracle, self, mark), surrogates, cfg)
            except Exception:
                self.failed += 1
                raise
            end = perf_counter_ns()
            self.image_ns.append(end - self._last_end)
            self._last_end = end
            return out
        patcher.set(harness, "bases_attack", timed_attack)

    @property
    def latency_ns(self):
        return self.query_ns

    @property
    def work(self) -> int:
        return len(self.query_ns)

    queries = work


class _EpochStamps(list):
    """A zoo.train record list that also stamps each finished epoch."""

    def __init__(self, sink, start):
        super().__init__()
        self._sink = sink
        self._last = start

    def append(self, value):
        now = perf_counter_ns()
        self._sink.append(now - self._last)
        self._last = now
        super().append(value)


class TrainClock:
    """Per-pass and per-epoch wall times and trained samples, taken around
    train_zoo and zoo.train."""

    def __init__(self):
        self.latency_ns = []  # one train_zoo pass each
        self.epoch_ns = []  # one epoch of one model each
        self.work = 0  # forward+backward training samples
        self.queries = 0  # training asks no victim
        self.attempted = 0
        self.failed = 0

    def start(self) -> None:
        pass

    def install(self, patcher) -> None:
        train = zoo.train

        def timed_train(model, dataset, cfg, record=None):
            if record is not None:
                raise ValueError("the benchmark owns zoo.train's record list")
            self.attempted += 1
            try:
                out = train(model, dataset, cfg, _EpochStamps(self.epoch_ns, perf_counter_ns()))
            except Exception:
                self.failed += 1
                raise
            self.work += len(dataset) * cfg.epochs
            return out
        patcher.set(zoo, "train", timed_train)


class AttackWorkload:
    """attack-local and attack-http: set-up builds and trains the default
    zoo (and starts the served victim); a unit runs the default experiment
    on one test image of each class against one victim, the victims taking
    turns."""

    root_name = "harness.run_experiment"

    def __init__(self, seed: int, work: Path, http: bool):
        self.seed = seed
        self.work = work
        self.http = http
        self.zoo_dir = str(work / "zoo")
        self.kinds = ["victim-cnn"] if http else ["victim-cnn", "victim-mlp"]
        self.dataset = str(work / "interleaved.bds")
        self.clock = AttackClock()
        self.failures = []
        self.server = None
        self.url = None
        self.server_stats = None
        self.queries_per_experiment = {}  # artifact dir -> queries the clock saw
        self.setup_times = []  # seconds; set-up is too long to repeat here

    def entry(self):
        return harness.run_experiment

    def config(self, victim_id: str, out_dir: str, remote: bool):
        victim = {"url": self.url} if remote else {"model_id": victim_id}
        return harness.parse_experiment_config({
            "dataset": self.dataset,
            "zoo_manifest": os.path.join(self.zoo_dir, "manifest.json"),
            "surrogate_ids": list(SURROGATES),
            "victim": victim,
            "goal_policy": dict(GOAL),
            "output_dir": out_dir,
            "search": dict(SEARCH),
            "pm": dict(PM),
            "seed": self.seed,
            "max_images": IMAGES,
        })

    def setup(self) -> None:
        t0 = perf_counter_ns()
        zoo.build_zoo(self.zoo_dir, seed=self.seed)
        zoo.train_zoo(self.zoo_dir)
        zoo.save_dataset(interleave_test_classes(zoo.load_dataset(
            os.path.join(self.zoo_dir, "dataset.bds"))), self.dataset)
        if self.http:
            self.start_server(None)
        self.setup_times.append((perf_counter_ns() - t0) / 1e9)
        self.failures += check_models(self.zoo_dir)

    def start_server(self, stats_file) -> None:
        model = os.path.join(self.zoo_dir, "models", "victim-cnn.bem")
        cmd = [sys.executable, str(Path(__file__).with_name("victim_server.py")), model]
        if stats_file:
            cmd += ["--stats", stats_file]
        self.server = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.server_stats = stats_file
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if " on http://" not in line:
            self.stop_server()
            raise RuntimeError(f"victim server did not start (said {line!r})")
        self.url = line.rsplit(" on ", 1)[1].strip()

    def stop_server(self):
        """Stops the served victim; returns its stats when it kept them."""
        proc, self.server = self.server, None
        if proc is None:
            return None
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if proc.returncode != 0:
            self.failures.append(f"victim server exited with {proc.returncode}")
        if self.server_stats is None:
            return None
        with open(self.server_stats, encoding="utf-8") as fh:
            return json.load(fh)

    def begin_traced(self, stats_file) -> None:
        """The traced portion talks to a fresh server that times its handlers."""
        if self.http:
            self.stop_server()
            self.start_server(stats_file)

    def end_traced(self) -> list:
        """Handler durations of the traced portion's server, in order."""
        if not self.http:
            return []
        stats = self.stop_server()
        bad = [s for s in stats["status"] if s != 200]
        if bad:
            self.failures.append(f"server answered {len(bad)} requests with non-200 statuses")
        return stats["handle_ns"]

    def run_unit(self, k: int, out_root: Path, call) -> tuple:
        """Unit k runs the experiment against victim k mod the victim count."""
        victim = self.kinds[k % len(self.kinds)]
        out = str(out_root / str(k) / victim)
        cfg = self.config(victim, out, remote=self.http)
        before = self.clock.work
        self.clock.start()
        t0 = perf_counter_ns()
        call(cfg)
        wall = perf_counter_ns() - t0
        self.queries_per_experiment[out] = self.clock.work - before
        return wall, out

    def check_unit(self, out) -> list:
        """The query accounting rebuilt from query_logs/*.csv matches
        summary.json and the queries the clock saw."""
        failures = []
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        records = harness.records_from_csv_dir(os.path.join(out, "query_logs"))
        rebuilt = harness.summarize(records, SEARCH["max_queries"], summary["skipped"])
        per_image = [(p["success"], p["q_used"]) for p in summary["per_image"]]
        if [(r["success"], r["q_used"]) for r in records] != per_image \
                or rebuilt.queries_all != summary["queries_all"] \
                or rebuilt.fooling_rate != summary["fooling_rate"]:
            failures.append(f"{out}: query logs disagree with summary.json")
        if sum(q for _, q in per_image) != self.queries_per_experiment[out]:
            failures.append(f"{out}: summary counts {sum(q for _, q in per_image)} queries, "
                            f"the oracle answered {self.queries_per_experiment[out]}")
        return failures

    def final_checks(self, first_dirs) -> list:
        """attack-http artifacts equal a local run of the same experiment.
        ``first_dirs`` holds the first unit of each kind."""
        if not self.http:
            return []
        failures = []
        for served in first_dirs:
            victim = os.path.basename(served)
            local = str(self.work / "local-replay" / victim)
            harness.run_experiment(self.config(victim, local, remote=False))
            failures += compare_trees(served, local, f"{victim} served vs local artifacts")
        return failures

    def outcomes(self, dirs) -> dict:
        """Seed-dependent outcomes of the given units; they guard the algorithm."""
        per_image, skipped = [], 0
        for out in dirs:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            per_image += summary["per_image"]
            skipped += summary["skipped"]
        q_max = SEARCH["max_queries"]
        return {
            "images_attacked": len(per_image),
            "images_skipped": skipped,
            "fooling_rate": sum(p["success"] for p in per_image) / len(per_image),
            "mean_queries": sum(p["q_used"] if p["success"] else q_max for p in per_image)
            / len(per_image),
            "clean_accuracy_mean": mean_accuracy(self.zoo_dir),
        }

    def close(self) -> None:
        if self.server is not None:
            self.stop_server()


def interleave_test_classes(dataset):
    """The same images with the test split reordered class by class in
    turn (one image of each class, then the next of each), so the first
    few test images cover every class. The train split is unchanged."""
    train, test = dataset.train_split(), dataset.test_split()
    seen = Counter()
    rank = []  # rank of each test image within its class
    for y in test.labels:
        rank.append(seen[int(y)])
        seen[int(y)] += 1
    order = sorted(range(len(test)), key=lambda i: (rank[i], int(test.labels[i])))
    images = np.empty_like(dataset.images)
    labels = np.empty_like(dataset.labels)
    images[0::2], labels[0::2] = train.images, train.labels
    images[1::2], labels[1::2] = test.images[order], test.labels[order]
    return zoo.LabeledDataset(images, labels, dataset.num_classes, dataset.side)


def mean_accuracy(zoo_dir) -> float:
    manifest = zoo.load_manifest(os.path.join(zoo_dir, "manifest.json"))
    accs = [e["clean_accuracy"] for e in manifest["models"]]
    return sum(accs) / len(accs)


def short_schedule() -> dict:
    """Every default model's training config with TRAIN_EPOCHS epochs."""
    base = {mid: zoo.TRAIN_SCHEDULE.get(mid, zoo.DEFAULT_TRAIN) for mid in MODEL_IDS}
    return {mid: dataclasses.replace(cfg, epochs=TRAIN_EPOCHS) for mid, cfg in base.items()}


class TrainWorkload:
    """zoo-train: set-up builds the default zoo; a unit rebuilds it (timed
    as set-up) and trains every model with train_zoo (timed as work)."""

    root_name = "zoo.train_zoo"
    kinds = ["zoo"]

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.clock = TrainClock()
        self.failures = []
        self.schedule = short_schedule()
        self.setup_times = []  # seconds per zoo build, spread over the run

    def entry(self):
        return zoo.train_zoo

    def build(self, zoo_dir: str) -> None:
        t0 = perf_counter_ns()
        zoo.build_zoo(zoo_dir, seed=self.seed)
        self.setup_times.append((perf_counter_ns() - t0) / 1e9)

    def setup(self) -> None:
        for k in range(SETUP_REPEATS):
            self.build(str(self.work / "setup" / str(k)))

    def begin_traced(self, stats_file) -> None:
        pass

    def end_traced(self) -> list:
        return []

    def run_unit(self, k: int, out_root: Path, call) -> tuple:
        zoo_dir = str(out_root / str(k) / "zoo")
        self.build(zoo_dir)
        self.clock.start()
        t0 = perf_counter_ns()
        call(zoo_dir, schedule=self.schedule)
        wall = perf_counter_ns() - t0
        self.clock.latency_ns.append(wall)
        return wall, zoo_dir

    def check_unit(self, out) -> list:
        return []

    def final_checks(self, first_dirs) -> list:
        return check_models(first_dirs[0])

    def outcomes(self, dirs) -> dict:
        return {"images_attacked": 0, "images_skipped": 0, "fooling_rate": 0.0,
                "mean_queries": 0.0, "clean_accuracy_mean": mean_accuracy(dirs[0])}

    def close(self) -> None:
        pass


def make(name: str, seed: int, work: Path):
    if name == "attack-local":
        return AttackWorkload(seed, work, http=False)
    if name == "attack-http":
        return AttackWorkload(seed, work, http=True)
    if name == "zoo-train":
        return TrainWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("attack-local", "attack-http", "zoo-train")
