"""Command line front end: check, confidentiality, attack, prefetch-experiment.

All randomness in a command descends from --seed, so identical invocations
produce identical reports and CSVs byte for byte; the one timestamp line can
be dropped with --no-timestamp for golden-file comparisons.

Exit status: 0 on success, 1 when a property violation or failure was found
(for confidentiality, also when its hypothesis was not satisfied), 2 for
usage or configuration errors.

Each command imports the modules that run it when it starts, so a command
loads only what it runs.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import os
import sys

from .config import MUTATIONS, PROTECTIONS, SUITES, RunConfig, load_config, validate_config
from .core import ConfigError, ModelError


def positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="run configuration file")
    sub.add_argument("--seed", type=int, default=1,
                     help="root of all randomness (default 1)")
    sub.add_argument("--jobs", type=positive_int, default=1,
                     help="worker processes for independent samples, checks or "
                          "trials, at most one per core; output does not depend "
                          "on it (default 1)")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the generation timestamp line")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tpsim",
        description="timing-channel protection model: property checks, "
                    "noninterference trials and covert-channel measurement",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the randomized property suites")
    _add_common(c)
    c.add_argument("--suite", choices=SUITES, default="all")
    c.add_argument("--trials", type=positive_int, default=1000,
                   help="cases per property (default 1000)")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("confidentiality", help="two-run noninterference trials")
    _add_common(c)
    c.add_argument("--variant", choices=("u", "u-mu"), default="u-mu")
    c.add_argument("--observer", type=int, default=None,
                   help="observing domain (default: first domain)")
    c.add_argument("--trials", type=positive_int, default=None,
                   help="trial pairs (default: analysis.trials)")
    c.add_argument("--mutation", default="none",
                   choices=("none",) + MUTATIONS)
    c.set_defaults(func=cmd_confidentiality)

    c = sub.add_parser("attack", help="prime-and-probe capacity measurement")
    _add_common(c)
    c.add_argument("--protection", choices=PROTECTIONS, default="on",
                   help="protection mode; targeted-flush runs the same kernel as on")
    c.add_argument("--samples", type=positive_int, default=None,
                   help="samples per symbol (default: analysis.samples_per_symbol)")
    c.add_argument("--out-csv", default=None,
                   help="write the channel matrix here")
    c.set_defaults(func=cmd_attack)

    c = sub.add_parser("prefetch-experiment",
                       help="targeted flush versus prefetch, same channel")
    _add_common(c)
    c.add_argument("--samples", type=positive_int, default=None,
                   help="samples per symbol (default: analysis.samples_per_symbol)")
    c.set_defaults(func=cmd_prefetch)

    return p


def _header(args: argparse.Namespace) -> None:
    if not args.no_timestamp:
        now = datetime.datetime.now().isoformat(timespec="seconds")
        print(f"# generated {now}")


def cmd_check(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .checks import run_suite
    print(f"property check, suite={args.suite}, trials={args.trials}, seed={args.seed}")
    results = run_suite(cfg, args.suite, args.trials, args.seed, jobs=args.jobs)
    for r in results:
        print(r.format())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_confidentiality(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .confidentiality import check_confidentiality
    observer = args.observer
    if observer is None:
        observer = cfg.policy.domain_ids()[0]
    trials = args.trials if args.trials is not None else cfg.analysis.trials
    mutation = None if args.mutation == "none" else args.mutation
    report = check_confidentiality(
        cfg, observer, trials, args.seed, variant=args.variant, mutation=mutation,
        jobs=args.jobs,
    )
    print(report.format())
    return 1 if report.violations or not report.hypothesis_ok else 0


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, as far as can be told
    without writing it, so that a long measurement does not end in one."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, "no such directory", parent)
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, "cannot write a file here", path)


def cmd_attack(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .channel import measure_channel, write_matrix_csv
    if args.out_csv:
        _check_writable(args.out_csv)
    report = measure_channel(
        cfg, args.protection, args.seed,
        samples_per_symbol=args.samples, jobs=args.jobs,
    )
    if args.out_csv:
        write_matrix_csv(report.matrix, args.out_csv)
        print(f"channel matrix written to {args.out_csv}")
    print(report.format())
    return 0


def cmd_prefetch(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .channel import prefetch_experiment
    report = prefetch_experiment(
        cfg, args.seed, samples_per_symbol=args.samples, jobs=args.jobs,
    )
    print(report.format())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        validate_config(cfg)
        _header(args)
        return args.func(cfg, args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ModelError as e:
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
