"""Run the repository benchmark on a parent revision and on this checkout
in alternating pairs, and compare their end-to-end metrics.

Run from a checkout:

    python3 tools/bench_pairs.py --parent REV --workloads zoo-train,attack-local \\
        --pairs 10 --seed 3001 --out BENCH_name.json

The parent's files are unpacked with ``git archive REV | tar -x`` into
a temporary directory, which is removed on exit; nothing is written under
``.git``. Each run is
``perfbench/run.py --trace 0`` at the ``run_seconds`` of BENCHMARK.json,
in its own process, in that side's tree. Workloads run one after another,
each as ``--pairs`` pairs; both runs of pair i of the k-th workload take
seed ``SEED + k * PAIRS + i``, and the side that runs first alternates,
the parent first in even pairs. Nothing else should run on the host
meanwhile.

``--out`` receives every run's final JSON line, with the revisions, the
host and the summary. Per workload and end-to-end metric, the script
prints both sides' medians, the parent's quartiles, in how many pairs the
change read lower, and a verdict:

- ``unresolved`` when the parent's interquartile range, taken relative to
  its median, is wider than the metric's bound in BENCHMARK.json, unless
  every run of the change reads better than every run of the parent;
- ``worse`` when the change's median is worse than the parent's by more
  than that bound, relative to the parent's median;
- ``ok`` otherwise.

Beside the verdict it prints the claim rule of a gain: ``gain`` when the
change reads better in at least nine tenths of the pairs, ties counting
for neither side, and the two medians differ, the change's way, by more
than the parent's interquartile range; ``no gain`` otherwise. The claim
never changes the exit code.

``perfbench/run.py`` prints its throughput, ``images_per_s``,
``queries_per_s`` and, for zoo-train, ``train_samples_per_s``, only as
readable lines, which its final JSON line leaves out. The script keeps
them per run, and prints both sides' medians and in how many pairs the
change read higher. They have no bound and no verdict.

The exit code is 0 only when every run passed its checks and no verdict
is ``worse``; the throughput lines never change it. BENCHMARK.json is
read, never written.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THROUGHPUT = ("images_per_s", "queries_per_s", "train_samples_per_s")


def pair_order(i: int) -> tuple:
    """The sides of pair ``i`` in the order they run."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_pairs(workloads, pairs: int, seed: int, run) -> list:
    """Every run, in the order made: ``run(side, workload, seed)`` returns
    (exit code, final JSON line parsed, or None if it was not JSON,
    throughput by name)."""
    runs = []
    for k, workload in enumerate(workloads):
        for i in range(pairs):
            s = seed + k * pairs + i
            for side in pair_order(i):
                code, result, rates = run(side, workload, s)
                runs.append({"run": len(runs) + 1, "side": side, "workload": workload,
                             "seed": s, "pair": i, "returncode": code, "result": result,
                             "throughput": rates})
                print(f"{workload} pair {i} {side} seed {s}: exit {code}", file=sys.stderr)
    return runs


def _value(run, metric):
    try:
        return float(run["result"]["metrics"][metric]["value"])
    except (KeyError, TypeError):
        return None


def _stats(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values)}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """``unresolved``, ``worse`` or ``ok``, as the module docstring rules."""
    p, c = _stats(parent), _stats(change)
    sign = 1.0 if better == "lower" else -1.0  # sign * value is lower when better
    scale = abs(p["median"])
    iqr = p["q3"] - p["q1"]
    spread = iqr / scale if scale else (float("inf") if iqr else 0.0)
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if sign * (c["median"] - p["median"]) > bound * scale else "ok"


def claim(both: list, better: str) -> str:
    """``gain`` or ``no gain`` for (parent, change) pairs, as the module
    docstring rules."""
    sign = 1.0 if better == "lower" else -1.0
    parent, change = _stats([a for a, _ in both]), _stats([b for _, b in both])
    wins = sum(sign * b < sign * a for a, b in both)
    gap = sign * (parent["median"] - change["median"])
    return "gain" if 10 * wins >= 9 * len(both) and gap > parent["q3"] - parent["q1"] \
        else "no gain"


def _paired(runs: list, workload: str, value) -> list:
    """(parent, change) of ``value(run)`` for each pair of ``workload``
    whose two runs both have a value."""
    by_pair = {}
    for r in runs:
        if r["workload"] == workload:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
    both = [(value(p["parent"]), value(p["change"])) for p in by_pair.values() if len(p) == 2]
    return [(a, b) for a, b in both if a is not None and b is not None]


def summarize(runs: list, end_to_end: list) -> dict:
    """{workload: {metric: summary}}, the metrics as BENCHMARK.json's
    ``end_to_end`` lists them. A pair counts only when both its runs
    report the metric."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        summary[workload] = {}
        for m in end_to_end:
            both = _paired(runs, workload, lambda r: _value(r, m["name"]))
            if not both:
                continue
            parent, change = [a for a, _ in both], [b for _, b in both]
            summary[workload][m["name"]] = {
                "parent": _stats(parent), "change": _stats(change),
                "pairs_change_lower": sum(b < a for a, b in both),
                "pairs_change_higher": sum(b > a for a, b in both), "pairs": len(both),
                "bound": m["bound"], "better": m["better"],
                "verdict": verdict(parent, change, m["better"], m["bound"]),
                "claim": claim(both, m["better"])}
    return summary


def summarize_throughput(runs: list) -> dict:
    """{workload: {name: summary}} of the THROUGHPUT lines: both sides'
    statistics and in how many pairs the change read higher."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        summary[workload] = {}
        for name in THROUGHPUT:
            both = _paired(runs, workload, lambda r: r.get("throughput", {}).get(name))
            if both:
                summary[workload][name] = {
                    "parent": _stats([a for a, _ in both]), "change": _stats([b for _, b in both]),
                    "pairs_change_higher": sum(b > a for a, b in both), "pairs": len(both)}
    return summary


def report(summary: dict) -> list:
    """One printed line per workload and metric."""
    lines = []
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            p, c = s["parent"], s["change"]
            lines.append(
                f"{workload:13} {name:15} parent {p['median']:.4g} (q1 {p['q1']:.4g}, "
                f"q3 {p['q3']:.4g})  change {c['median']:.4g}  lower in "
                f"{s['pairs_change_lower']} of {s['pairs']}  {s['verdict']}  {s['claim']}")
    return lines


def report_throughput(summary: dict) -> list:
    """One printed line per workload and throughput, with no verdict."""
    return [f"{workload:13} {name:19} parent {s['parent']['median']:.4g}  change "
            f"{s['change']['median']:.4g}  higher in {s['pairs_change_higher']} of {s['pairs']}"
            for workload, rates in summary.items() for name, s in rates.items()]


def readable_throughput(lines) -> dict:
    """{name: value} of the THROUGHPUT lines among ``lines``, such as
    ``queries_per_s 599.2 1/s``."""
    rates = {}
    for words in map(str.split, lines):
        if words[:1] and words[0] in THROUGHPUT:
            try:
                rates[words[0]] = float(words[1])
            except (IndexError, ValueError):
                pass
    return rates


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(rev: str, tree: Path) -> None:
    """The files of commit ``rev``, unpacked into the new directory ``tree``."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def _bench(tree: Path, workload: str, seed: int, seconds) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return proc.returncode, result, env, readable_throughput(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    parent_commit = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # a SIGTERM unwinds through the with below, so the parent's tree goes too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    hosts = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        _unpack(parent_commit, parent_tree)

        def run(side, workload, seed):
            code, result, env, rates = _bench(parent_tree if side == "parent" else ROOT,
                                              workload, seed, seconds)
            hosts.append(env)
            return code, result, rates

        runs = run_pairs(workloads, args.pairs, args.seed, run)
    summary = summarize(runs, spec["end_to_end"])
    throughput = summarize_throughput(runs)
    host = {k: v for k, v in (hosts[0] or {}).items()
            if k in ("python", "numpy", "blas", "kernel_backend", "nproc")}
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "parent": parent_commit,
        "change": _git("rev-parse", "HEAD") + (" with uncommitted changes" if dirty else ""),
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                   f"--seconds {seconds} --trace 0",
        "host": host,
        "summary": summary,
        "throughput": throughput,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(report(summary) + report_throughput(throughput)))
    failed = [r["run"] for r in runs
              if r["returncode"] != 0 or not (r["result"] or {}).get("correct")]
    if failed:
        print(f"runs that failed a check: {failed}", file=sys.stderr)
    worse = any(s["verdict"] == "worse" for m in summary.values() for s in m.values())
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
