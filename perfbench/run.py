"""The repository benchmark.

    python3 perfbench/run.py --workload attack-local|attack-http|zoo-train \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up builds the workload's inputs from
the seed; the timed part repeats one unit of work until S seconds of it
have run; then every output check runs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``. A traced run
first repeats the untraced measurement, then replays the same units with
every layer wrapped in spans, so its artifacts and wall time can be
compared with the untraced ones. The exit code is 0 only when every check
passed. README.md beside this file defines each metric.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 100  # latency samples a run needs for its p90


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ensattack benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy

    from ensattack import kernels

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "kernel_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child
    (the served victim), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(wl, out_root: Path, call, seconds=None, units=None):
    """Runs units until there is one of each kind, ``seconds`` of unit time
    and MIN_SAMPLES latency samples; or exactly ``units`` units. Returns
    (walls_ns, one artifact dir per unit)."""
    walls, dirs = [], []
    while units is None or len(walls) < units:
        failed_before = wl.clock.failed
        try:
            wall, out = wl.run_unit(len(walls), out_root, call)
        except Exception as exc:  # the run is reported, with the failure counted
            traceback.print_exc()
            if wl.clock.failed == failed_before:  # raised outside an attack or training
                wl.clock.attempted += 1
                wl.clock.failed += 1
            wl.failures.append(f"unit {len(walls)} raised {type(exc).__name__}: {exc}")
            break
        walls.append(wall)
        dirs.append(out)
        if units is None and len(walls) >= len(wl.kinds) and sum(walls) >= seconds * 1e9 \
                and len(wl.clock.latency_ns) >= MIN_SAMPLES:
            break
    return walls, dirs


def check_units(wl, dirs, reference, what: str) -> list:
    """Unit checks, and every unit's artifacts equal those of the first
    untraced unit of its kind (``reference``)."""
    from workloads import compare_trees

    failures = []
    for k, out in enumerate(dirs):
        failures += wl.check_unit(out)
        want = reference[k % len(reference)]
        if out != want:
            failures += compare_trees(out, want, f"{what} unit {k} vs untraced unit "
                                                 f"{k % len(reference)}")
    return failures


def readable(name: str, values_ns, p: int, scale: float, unit: str) -> str:
    from benchstats import percentile

    try:
        return f"{name} {percentile(values_ns, p) / scale:.6g} {unit} (n={len(values_ns)})"
    except ValueError:
        return f"{name} n/a: too few samples (n={len(values_ns)})"


def print_readable(args, wl, metrics, outcomes, walls, image_ns) -> None:
    """The workload's metrics by their everyday names (queries_per_s,
    query_p50_ms, ...), over the whole timed part, with units and sample
    counts."""
    lat = wl.clock.latency_ns
    wall_s = sum(walls) / 1e9
    rows = [f"setup_s {metrics['setup_s']:.6g} s",
            f"timed {wall_s:.6g} s over {len(walls)} units"]
    if args.workload == "zoo-train":
        rows += [f"train_samples_per_s {wl.clock.work / wall_s:.6g} 1/s",
                 readable("pass_p50_ms", lat, 50, 1e6, "ms"),
                 readable("pass_p90_ms", lat, 90, 1e6, "ms"),
                 readable("epoch_p50_ms", wl.clock.epoch_ns, 50, 1e6, "ms"),
                 readable("epoch_p90_ms", wl.clock.epoch_ns, 90, 1e6, "ms")]
    else:
        rows += [f"queries_per_s {wl.clock.work / wall_s:.6g} 1/s",
                 readable("query_p50_ms", lat, 50, 1e6, "ms"),
                 readable("query_p90_ms", lat, 90, 1e6, "ms"),
                 readable("query_p99_ms", lat, 99, 1e6, "ms"),
                 f"images_per_s {len(image_ns) / wall_s:.6g} 1/s",
                 readable("image_p50_ms", image_ns, 50, 1e6, "ms"),
                 readable("image_p90_ms", image_ns, 90, 1e6, "ms"),
                 f"fooling_rate {outcomes['fooling_rate']:.6g} frac",
                 f"mean_queries {outcomes['mean_queries']:.6g} count"]
    rows += [f"clean_accuracy_mean {outcomes['clean_accuracy_mean']:.6g} frac",
             f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
             f"error_rate {1.0 - metrics['ok_frac']:.6g} frac"]
    for row in rows:
        print(row)


def run(args, wl, work: Path, spec: dict) -> dict:
    import benchstats
    import spans
    import workloads

    wl.setup()
    patcher = spans.Patcher()
    wl.clock.install(patcher)
    try:
        walls, dirs = measure(wl, work / "untraced", wl.entry(), seconds=args.seconds)
    finally:
        patcher.restore()
    untraced_clock = wl.clock
    setup_times = list(wl.setup_times)
    if len(walls) < len(wl.kinds):
        raise RuntimeError("the units did not complete: " + "; ".join(wl.failures))
    first = dirs[:len(wl.kinds)]
    failures = check_units(wl, dirs, first, "untraced")
    failures += wl.final_checks(first)
    outcomes = wl.outcomes(first)
    image_ns = getattr(untraced_clock, "image_ns", [])  # attacks only

    if args.trace:
        tracer = spans.Tracer()
        wl.clock = type(untraced_clock)()
        wl.begin_traced(str(work / "server-stats.json"))
        patcher = spans.Patcher()
        spans.install(tracer, patcher)
        wl.clock.install(patcher)
        try:
            traced_walls, traced_dirs = measure(wl, work / "traced",
                                                tracer.wrap(wl.root_name, wl.entry()),
                                                units=len(walls))
        finally:
            patcher.restore()
        handle_ns = wl.end_traced()
        failures += check_units(wl, traced_dirs, first, "traced")
        traced_wall = sum(traced_walls)
        remainder = traced_wall - tracer.root_ns
        self_ns = sum(tracer.layer_self_ns(layer) for layer in spans.LAYERS)
        stray = [n for n in tracer.stats if n.split(".", 1)[0] not in spans.LAYERS]
        if stray or remainder < 0 or self_ns + remainder != traced_wall:
            failures.append("span self times and the untraced remainder do not sum "
                            f"to the traced wall time (stray spans: {stray})")
        metrics = spans.layer_metrics(tracer, workloads.MODEL_IDS, wl.clock.queries, handle_ns)
        traced_outcomes = wl.outcomes(traced_dirs)
        metrics.update({
            "harness.images_attacked": traced_outcomes["images_attacked"],
            "harness.images_skipped": traced_outcomes["images_skipped"],
            "harness.fooling_rate": outcomes["fooling_rate"],
            "harness.mean_queries": outcomes["mean_queries"],
            "harness.images_per_s": len(image_ns) / (sum(walls) / 1e9),
            "harness.image_mean_ms": statistics.fmean(image_ns) / 1e6 if image_ns else 0.0,
            "zoo.clean_accuracy_mean": outcomes["clean_accuracy_mean"],
            "trace.overhead_frac": traced_wall / sum(walls) - 1.0,
            "trace.wall_s": traced_wall / 1e9,
            "trace.untraced_remainder_s": remainder / 1e9,
        })
        declared = spec["per_layer"]
        attempted = untraced_clock.attempted + wl.clock.attempted
        failed = untraced_clock.failed + wl.clock.failed
    else:
        declared = spec["end_to_end"]
        attempted, failed = untraced_clock.attempted, untraced_clock.failed
    wl.close()
    failures = wl.failures + failures

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # the tail, not the median: the host's speed flips between two
            # states, the median lands in either, and the slow state fills
            # at least the slowest tenth of every run
            "latency_p90_ms": benchstats.percentile(untraced_clock.latency_ns, 90) / 1e6,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": benchstats.ok_frac(attempted, failed),
        }
        print_readable(args, wl, metrics, outcomes, walls, image_ns)

    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ensattack" / "__init__.py").is_file():
        print(f"perfbench: no ensattack sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    wl = workloads.make(args.workload, args.seed, work)
    try:
        result = run(args, wl, work, spec)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
