"""Experiment-runner command line.

Subcommands: ``simulate`` (one run from a config file), ``sweep`` (seed
range, concurrent runs, deterministic row order), ``merge-query`` (two
ontologies plus mappings, conjunctive query with probabilities),
``monitor`` (the tick loop against a scripted event file), ``validate``
(fragment/theory structure check).  Exit codes: 0 success, 1 parse or
config error, 2 validation failure.  The ``ONTOFLUX_LOG`` environment
variable sets log verbosity (debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

from . import io as textio
from . import monitor as monitor_mod
from .errors import OntofluxError
from .kb import EntityName
from .merging import merge, query
from .mfrag import validate_mtheory
from .simulate import Regime, SimConfig, run_simulation

log = logging.getLogger("ontoflux")


def _configure_logging() -> None:
    level = os.environ.get("ONTOFLUX_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(levelname)s %(message)s")


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_config(args: argparse.Namespace) -> SimConfig:
    config = textio.parse_sim_config(Path(args.config).read_text(encoding="utf-8"))
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "regime", None):
        config = dataclasses.replace(config, regime=Regime(args.regime))
    return config


def _parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.lstrip("-").isdigit() or not hi.lstrip("-").isdigit():
        raise OntofluxError(f"--seeds expects <a>..<b> (inclusive), got {text!r}")
    a, b = int(lo), int(hi)
    if b < a:
        raise OntofluxError(f"--seeds range is empty: {text!r}")
    return list(range(a, b + 1))


def _run_one(config: SimConfig) -> dict:
    started = time.perf_counter()
    stats = run_simulation(config)
    return textio.make_result_record(config, stats, time.perf_counter() - started)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    log.info("simulate regime=%s seed=%d", config.regime.value, config.seed)
    record = _run_one(config)
    if args.format == "json":
        _write_output(textio.format_result_json([record]), args.out)
    else:
        _write_output(textio.format_result_csv([record]), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args)
    seeds = _parse_seed_range(args.seeds)
    jobs = [dataclasses.replace(base, seed=s) for s in seeds]
    log.info("sweep %d runs", len(jobs))
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, jobs))
    else:
        records = [_run_one(job) for job in jobs]
    if args.format == "json":
        _write_output(textio.format_result_json(records), args.out)
    else:
        _write_output(textio.format_result_csv(records), args.out)
    return 0


def _cmd_merge_query(args: argparse.Namespace) -> int:
    local = textio.parse_ontology(Path(args.local).read_text(encoding="utf-8"))
    external = textio.parse_ontology(Path(args.external).read_text(encoding="utf-8"))
    mappings = textio.parse_mappings(Path(args.mappings).read_text(encoding="utf-8"))
    # the monitor's policy rejects NaN and values outside [0, 1]
    threshold = monitor_mod.MergePolicy(args.threshold).acceptance_threshold
    accepted = [m for m in mappings if m.probability >= threshold]  # in input order
    merged = merge(local, external, accepted)
    conjuncts = textio.parse_query(args.query)
    lines = []
    for answer in query(merged, conjuncts, mapped_only=args.mapped_only):
        parts = [f"{var}={value.local}" for var, value in answer.binding]
        parts.append(f"p={answer.probability:.9f}")
        lines.append(" ".join(parts))
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    kb = textio.parse_ontology(Path(args.ontology).read_text(encoding="utf-8"))
    events = textio.parse_events(Path(args.events).read_text(encoding="utf-8"))
    closed = []
    for name in args.close or []:
        ns, sep, local = name.partition(":")
        if not sep:
            raise OntofluxError(f"--close expects a qualified name like O1:Event, got {name!r}")
        closed.append(EntityName(ns, local))
    mappings = ()
    external = None
    if args.mappings:
        mappings = textio.parse_mappings(Path(args.mappings).read_text(encoding="utf-8"))
    if args.external:
        external = textio.parse_ontology(Path(args.external).read_text(encoding="utf-8"))
    policy = monitor_mod.MergePolicy(args.threshold) if mappings else None
    ticks = args.ticks
    if ticks is None:
        latest = max((e.asserted_at if hasattr(e, "asserted_at") else e.at for e in events), default=1.0)
        ticks = max(1, math.ceil(latest))
    state = monitor_mod.init(kb, closed, upper_namespace=args.namespace)
    _, event_log = monitor_mod.run(state, ticks, policy, mappings, external, events)
    _write_output("\n".join(event_log) + ("\n" if event_log else ""), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    theory = textio.parse_fragments(Path(args.fragments).read_text(encoding="utf-8"))
    errors = validate_mtheory(theory)
    for err in errors:
        print(str(err))
    if errors:
        return 2
    print(f"ok: {len(theory.fragments)} fragment(s) structurally valid")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; each ``parse_args`` returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="ontoflux", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one simulation from a config file")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--regime", choices=[r.value for r in Regime], default=None)
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a seed range concurrently")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--seeds", required=True, help="inclusive range, e.g. 0..9")
    sweep.add_argument("--regime", choices=[r.value for r in Regime], default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    mq = sub.add_parser("merge-query", help="query two merged ontologies")
    mq.add_argument("local", help="local ontology file")
    mq.add_argument("external", help="external ontology file")
    mq.add_argument("mappings", help="mapping file")
    mq.add_argument("query", help="conjunctive query text")
    mq.add_argument("--threshold", type=float, default=0.0)
    mq.add_argument("--mapped-only", action="store_true")
    mq.add_argument("--out", default=None)
    mq.set_defaults(func=_cmd_merge_query)

    mon = sub.add_parser("monitor", help="run the tick loop over an event script")
    mon.add_argument("ontology", help="starting ontology file")
    mon.add_argument("events", help="event script file")
    mon.add_argument("--ticks", type=int, default=None)
    mon.add_argument("--close", action="append", help="concept to keep closed, e.g. up:Event")
    mon.add_argument("--mappings", default=None)
    mon.add_argument("--external", default=None)
    mon.add_argument("--threshold", type=float, default=0.0)
    mon.add_argument("--namespace", default="up", help="upper-ontology namespace")
    mon.add_argument("--out", default=None)
    mon.set_defaults(func=_cmd_monitor)

    val = sub.add_parser("validate", help="structurally validate a fragment file")
    val.add_argument("fragments", help="fragment/theory file")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OntofluxError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
