"""Command-line front end.

Verbs: zoo-build, zoo-train, serve, attack, sweep-triangle, summarize.
Exit codes: 0 success, 2 configuration error, 3 transport error.
"""

import argparse
import json
import sys
import time

from .errors import CapabilityError, ConfigError, FormatError, TransportError


def _cmd_zoo_build(args) -> None:
    from . import zoo

    manifest = zoo.build_zoo(args.dir, num_classes=args.classes,
                             per_class=args.per_class, side=args.side, seed=args.seed)
    print(f"built {len(manifest['models'])} untrained models and "
          f"{manifest['num_classes'] * args.per_class} images under {args.dir}")


def _cmd_zoo_train(args) -> None:
    from . import zoo

    manifest = zoo.train_zoo(args.dir)
    for entry in manifest["models"]:
        print(f"{entry['id']}: test accuracy {entry['clean_accuracy']:.3f}")


def _cmd_serve(args) -> None:
    from . import server, zoo

    if args.budget.lower() == "none":
        budget = None
    elif args.budget.isascii() and args.budget.isdigit():
        budget = int(args.budget)
    else:
        raise ConfigError(f"--budget takes an integer >= 0 or 'none', got {args.budget!r}")
    model = zoo.load_model(args.model)
    try:
        handle = server.serve(model, mode=args.mode, bind=args.bind, budget=budget)
    except OSError as exc:
        raise ConfigError(f"cannot serve on {args.bind}: {exc}") from None
    print(f"serving {args.model} ({args.mode}) on {handle.url}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()


def _cmd_attack(args) -> None:
    from . import harness

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    cfg = harness.parse_experiment_config(raw)
    summary = harness.run_experiment(cfg)
    q = summary.queries_all
    print(f"attempted {summary.attempted} images ({summary.skipped} skipped), "
          f"fooling rate {summary.fooling_rate:.3f}, "
          f"queries mean {q['mean']:.2f} median {q['median']:.0f}")
    print(f"artifacts in {cfg.output_dir}")


def _cmd_sweep_triangle(args) -> None:
    from . import harness, zoo
    from . import pm as pm_mod
    from .losses import AttackGoal
    from .oracle import LocalOracle

    surrogate_ids = [s for s in args.surrogates.split(",") if s]
    if len(surrogate_ids) != 3:
        raise ConfigError("--surrogates needs exactly 3 comma-separated model ids")
    if args.target is not None and args.mode != "targeted":
        raise ConfigError("--target needs --mode targeted")
    manifest, dataset, models = zoo.load_zoo(args.zoo)
    missing = [sid for sid in surrogate_ids + [args.victim] if sid not in models]
    if missing:
        raise ConfigError(f"model ids not in zoo: {missing}")
    test = dataset.test_split()
    if not 0 <= args.image < len(test):
        raise ConfigError(f"--image must be in [0, {len(test)})")
    x = test.images[args.image]
    y = int(test.labels[args.image])
    victim = models[args.victim]
    if args.mode == "untargeted":
        goal = AttackGoal("untargeted", y)
    else:
        target = args.target if args.target is not None else \
            harness.pick_target(LocalOracle(victim).query(x).logits, "easiest", y)
        if target == y:
            raise ConfigError("target label equals the true label")
        goal = AttackGoal("targeted", int(target))
    pm_cfg = pm_mod.PMConfig(budget=pm_mod.Budget("linf", args.eps), steps=args.steps)
    rows = harness.triangle_sweep(x, goal, [models[s] for s in surrogate_ids],
                                  victim, args.resolution, pm_cfg)
    harness.write_sweep_csv(rows, args.out)
    hits = sum(1 for r in rows if r[4])
    print(f"wrote {len(rows)} rows to {args.out} ({hits} grid points fool {args.victim})")


def _cmd_summarize(args) -> None:
    from . import harness

    try:
        records = harness.records_from_csv_dir(args.log_dir)
    except OSError as exc:
        raise ConfigError(f"cannot read query logs: {exc}") from None
    if not records:
        raise ConfigError(f"no query-log CSVs under {args.log_dir}")
    summary = harness.summarize(records, args.max_queries)
    sys.stdout.write(harness.summary_to_json(summary))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensattack",
        description="Blackbox adversarial attacks via surrogate-ensemble weight search.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("zoo-build", help="create dataset, untrained models, and manifest")
    p.add_argument("dir", help="zoo directory to create")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=25)
    p.add_argument("--side", type=int, default=12)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_zoo_build)

    p = sub.add_parser("zoo-train", help="train every model in a zoo directory")
    p.add_argument("dir", help="zoo directory (from zoo-build)")
    p.set_defaults(func=_cmd_zoo_train)

    p = sub.add_parser("serve", help="host one model file over HTTP")
    p.add_argument("--model", required=True, help="model file (.bem)")
    p.add_argument("--mode", choices=("soft", "hard"), default="soft")
    p.add_argument("--bind", default="127.0.0.1:8752", help="addr:port (port 0 picks a free one)")
    p.add_argument("--budget", default="none",
                   help="per-client query budget: an integer >= 0, or 'none'")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("attack", help="run an experiment from a JSON config")
    p.add_argument("config", help="experiment config (JSON)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep-triangle",
                       help="victim loss over the barycentric grid of 3 surrogates")
    p.add_argument("--zoo", required=True, help="zoo directory")
    p.add_argument("--surrogates", required=True, help="3 comma-separated model ids")
    p.add_argument("--victim", required=True, help="victim model id")
    p.add_argument("--image", type=int, default=0, help="test-split image index")
    p.add_argument("--resolution", type=int, default=10)
    p.add_argument("--mode", choices=("targeted", "untargeted"), default="targeted")
    p.add_argument("--target", type=int, default=None,
                   help="target label, with --mode targeted only "
                        "(default: victim's runner-up class)")
    p.add_argument("--eps", type=float, default=16.0 / 255.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep_triangle)

    p = sub.add_parser("summarize", help="recompute aggregate metrics from query-log CSVs")
    p.add_argument("log_dir", help="directory of per-image query CSVs")
    p.add_argument("--max-queries", type=int, default=50,
                   help="budget that failed images count as")
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, CapabilityError, FormatError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
