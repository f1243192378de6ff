"""tools/bench_pairs.py on fake result lines: the order it runs the sides
in, its summary and verdicts, the throughput it reads from a run's
readable lines, and what it writes. No benchmark runs here."""

import importlib.util
import json
import signal
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01}]


def _result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


def test_pairs_alternate_which_side_runs_first():
    made = []
    runs = bench_pairs.run_pairs(["w1", "w2"], 3, 100,
                                 lambda side, w, seed: made.append((w, seed, side)) or (0, None, {}))
    assert made == [("w1", 100, "parent"), ("w1", 100, "change"),
                    ("w1", 101, "change"), ("w1", 101, "parent"),
                    ("w1", 102, "parent"), ("w1", 102, "change"),
                    ("w2", 103, "parent"), ("w2", 103, "change"),
                    ("w2", 104, "change"), ("w2", 104, "parent"),
                    ("w2", 105, "parent"), ("w2", 105, "change")]
    assert [r["run"] for r in runs] == list(range(1, 13))
    assert [(r["workload"], r["seed"], r["side"]) for r in runs] == made
    assert [r["pair"] for r in runs] == [0, 0, 1, 1, 2, 2] * 2


def _runs(parent, change, metric="setup_s", workload="w"):
    """Fake runs: pair i reads parent[i] and change[i]."""
    runs = []
    for i, (a, b) in enumerate(zip(parent, change)):
        for side, v in zip(bench_pairs.pair_order(i), (a, b) if i % 2 == 0 else (b, a)):
            runs.append({"run": len(runs) + 1, "side": side, "workload": workload, "seed": i,
                         "pair": i, "returncode": 0, "result": _result(**{metric: v})})
    return runs


def test_summary_gives_medians_quartiles_and_lower_in_k_of_n():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [1.5, 1.0, 3.0, 3.0, 6.0]
    s = bench_pairs.summarize(_runs(parent, change), END_TO_END)["w"]["setup_s"]
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "max": 5.0, "n": 5}
    assert s["change"]["median"] == 3.0
    assert (s["pairs_change_lower"], s["pairs_change_higher"], s["pairs"]) == (2, 2, 5)
    assert s["bound"] == 0.25 and s["better"] == "lower"
    # ok_frac is in no run, so it has no line
    assert list(bench_pairs.summarize(_runs(parent, change), END_TO_END)["w"]) == ["setup_s"]
    [line] = bench_pairs.report({"w": {"setup_s": s}})
    assert "parent 3 (q1 2, q3 4)" in line and "change 3" in line
    assert "lower in 2 of 5" in line and line.endswith(f"{s['verdict']}  {s['claim']}")


@pytest.mark.parametrize("parent, change, better, want", [
    ([10.0, 10.1, 10.2, 10.3], [10.0, 10.1, 10.2, 10.3], "lower", "ok"),
    ([10.0, 10.1, 10.2, 10.3], [12.0, 12.4, 12.8, 13.0], "lower", "ok"),  # +22%, inside
    ([10.0, 10.1, 10.2, 10.3], [13.0, 13.1, 13.2, 13.3], "lower", "worse"),  # +30%
    # the parent's IQR is 40% of its median, wider than the bound
    ([6.0, 8.0, 12.0, 14.0], [9.0, 9.5, 10.5, 11.0], "lower", "unresolved"),
    ([6.0, 8.0, 12.0, 14.0], [20.0, 20.0, 20.0, 20.0], "lower", "unresolved"),
    # ... unless every change run is better than every parent run
    ([6.0, 8.0, 12.0, 14.0], [1.0, 2.0, 3.0, 5.0], "lower", "ok"),
    ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], "higher", "ok"),
    ([1.0, 1.0, 1.0, 1.0], [0.98, 0.98, 0.98, 0.98], "higher", "worse"),
    ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], "lower", "ok"),
])
def test_verdicts_read_the_bound_against_the_parents_spread(parent, change, better, want):
    bound = 0.25 if better == "lower" else 0.01
    assert bench_pairs.verdict(parent, change, better, bound) == want


WIDE = [10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5]  # IQR 2.25
NARROW = [10.0, 10.1, 10.0, 10.1, 10.0, 10.1, 10.0, 10.1, 10.0, 10.1]  # IQR 0.1


@pytest.mark.parametrize("parent, change, better, want", [
    # 9 of 10 pairs lower, but the medians differ by 2.0 < the parent's IQR
    (WIDE, [v - 2.0 for v in WIDE[:9]] + [15.0], "lower", "no gain"),
    # 10 of 10 lower, by 1.0 > 0.1
    (NARROW, [v - 1.0 for v in NARROW], "lower", "gain"),
    # 9 lower and 1 tie is still 9 of 10; 8 lower and 2 ties is not
    (NARROW, [v - 1.0 for v in NARROW[:9]] + [NARROW[9]], "lower", "gain"),
    (NARROW, [v - 1.0 for v in NARROW[:8]] + NARROW[8:], "lower", "no gain"),
    # lower is not better for a higher-is-better metric
    (NARROW, [v - 1.0 for v in NARROW], "higher", "no gain"),
    (NARROW, [v + 1.0 for v in NARROW], "higher", "gain"),
    (NARROW, NARROW, "lower", "no gain"),
], ids=["9-of-10-wide", "10-of-10-narrow", "9-and-a-tie", "8-and-2-ties", "higher-worse",
        "higher-better", "equal"])
def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_iqr(
        parent, change, better, want):
    assert bench_pairs.claim(list(zip(parent, change)), better) == want
    metric = {"name": "setup_s", "unit": "s", "better": better, "bound": 0.25}
    s = bench_pairs.summarize(_runs(parent, change), [metric])["w"]["setup_s"]
    assert s["claim"] == want
    [line] = bench_pairs.report({"w": {"setup_s": s}})
    assert line.endswith(f"  {want}")


def _fake_git(monkeypatch, calls):
    """git answers every rev-parse with ``abc`` and all else with nothing,
    the parent's files unpack as an empty directory, recorded in ``calls``
    as ("unpack", rev, tree), and main installs no signal handler."""
    monkeypatch.setattr(signal, "signal", lambda *a: None)
    monkeypatch.setattr(bench_pairs, "_git",
                        lambda *a, **k: calls.append(a) or ("abc" if a[0] == "rev-parse" else ""))
    monkeypatch.setattr(bench_pairs, "_unpack",
                        lambda rev, tree: calls.append(("unpack", rev, tree)) or tree.mkdir())


def test_main_writes_every_run_and_removes_the_parent_tree(tmp_path, monkeypatch, capsys):
    git_calls, trees = [], []
    _fake_git(monkeypatch, git_calls)

    def bench(tree, workload, seed, seconds):
        trees.append(tree)
        assert seconds == 10
        value = 2.0 if tree == bench_pairs.ROOT else 1.0
        return (0, _result(setup_s=value, ok_frac=1.0), {"python": "3", "workload": workload},
                {"train_samples_per_s": 100.0 * value})

    monkeypatch.setattr(bench_pairs, "_bench", bench)
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", "HEAD~1", "--workloads", "zoo-train", "--pairs", "2", "--seed", "7",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 1  # setup_s doubled on the change
    parent_tree = trees[0]
    assert trees == [parent_tree, bench_pairs.ROOT, bench_pairs.ROOT, parent_tree]
    # the parent's files come from one unpack, and no git call writes
    assert [c for c in git_calls if c[0] == "unpack"] == [("unpack", "abc", parent_tree)]
    assert {c[0] for c in git_calls} == {"rev-parse", "unpack", "status"}
    assert not parent_tree.parent.exists()
    record = json.loads(out.read_text())
    assert record["parent"] == "abc" and record["host"] == {"python": "3"}
    assert [r["seed"] for r in record["runs"]] == [7, 7, 8, 8]
    assert record["summary"]["zoo-train"]["setup_s"]["verdict"] == "worse"
    assert record["summary"]["zoo-train"]["ok_frac"]["verdict"] == "ok"
    assert record["summary"]["zoo-train"]["setup_s"]["claim"] == "no gain"
    assert record["throughput"]["zoo-train"]["train_samples_per_s"]["pairs_change_higher"] == 2
    assert [r["throughput"] for r in record["runs"]] == [{"train_samples_per_s": v}
                                                         for v in (100.0, 200.0, 200.0, 100.0)]
    out = capsys.readouterr().out
    assert "lower in 0 of 2  worse" in out
    assert "train_samples_per_s parent 100  change 200  higher in 2 of 2\n" in out


def test_main_removes_the_parent_tree_when_a_run_is_interrupted(tmp_path, monkeypatch):
    git_calls = []
    _fake_git(monkeypatch, git_calls)

    def bench(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_pairs, "_bench", bench)
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main(["--parent", "HEAD", "--workloads", "zoo-train", "--seed", "1",
                          "--out", str(tmp_path / "b.json")])
    [(_, _, parent_tree)] = [c for c in git_calls if c[0] == "unpack"]
    assert not parent_tree.parent.exists()
    assert not (tmp_path / "b.json").exists()


ATTACK_STDOUT = """setup_s 3.61 s
timed 10.02 s over 366 units
queries_per_s 599.2 1/s
query_p50_ms 2.17 ms (n=6004)
query_p90_ms n/a: too few samples (n=3)
images_per_s 36.6 1/s
image_p50_ms 25.3 ms (n=366)
fooling_rate 0.93 frac
peak_rss_mb 40.5 MB
env {"python": "3.11.7", "nproc": 2}
{"correct": true, "attempted": 6004, "failed": 0, "metrics": {}}
"""


def test_bench_keeps_the_readable_throughput_lines(monkeypatch):
    seen = []

    def fake_run(argv, **kw):
        seen.append(argv)
        return subprocess.CompletedProcess(argv, 0, stdout=ATTACK_STDOUT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    code, result, env, rates = bench_pairs._bench(Path("tree"), "attack-local", 5, 10)
    assert seen[0][-8:] == ["--workload", "attack-local", "--seed", "5", "--seconds", "10",
                            "--trace", "0"]
    assert (code, result["correct"], env["nproc"]) == (0, True, 2)
    assert rates == {"queries_per_s": 599.2, "images_per_s": 36.6}


def test_readable_throughput_skips_what_it_cannot_read():
    assert bench_pairs.readable_throughput(
        ["", "train_samples_per_s 812.5 1/s", "images_per_s", "queries_per_s n/a 1/s",
         "queries_per_second 9 1/s"]) == {"train_samples_per_s": 812.5}


def test_throughput_summary_has_medians_and_higher_in_k_of_n_but_no_verdict():
    runs = _runs([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])  # setup_s only: no throughput line
    values = iter([30.0, 40.0, 35.0, 30.0, 20.0, 25.0])
    for r in runs:
        r["throughput"] = {"images_per_s": next(values)}
    runs[-1]["throughput"] = {}  # pair 2 counts only when both its runs read it
    summary = bench_pairs.summarize_throughput(runs)
    s = summary["w"]["images_per_s"]
    # pair 0: parent 30, change 40; pair 1 runs the change first: 35, parent 30
    assert s["parent"]["median"] == 30.0 and s["change"]["median"] == 37.5
    assert (s["pairs_change_higher"], s["pairs"]) == (2, 2)
    assert "verdict" not in s and "bound" not in s
    assert list(summary["w"]) == ["images_per_s"]
    assert bench_pairs.report_throughput(summary) == [
        "w             images_per_s        parent 30  change 37.5  higher in 2 of 2"]


def test_throughput_never_changes_the_exit_code(tmp_path, monkeypatch):
    _fake_git(monkeypatch, [])

    def bench(tree, workload, seed, seconds):
        # the change reads half the parent's throughput, and nothing else moves
        rate = 50.0 if tree == bench_pairs.ROOT else 100.0
        return 0, _result(setup_s=1.0, ok_frac=1.0), {}, {"images_per_s": rate}

    monkeypatch.setattr(bench_pairs, "_bench", bench)
    assert bench_pairs.main(["--parent", "HEAD", "--workloads", "attack-local", "--pairs", "2",
                             "--seed", "1", "--out", str(tmp_path / "b.json")]) == 0
