"""Which ontoflux functions the traced run wraps, and the per-layer metrics.

Each function is replaced at the attribute its caller looks up: the
monitor calls ``merge``, ``close_class``, ``is_member`` and ``step_all``
through ``ontoflux.monitor``; the CLI calls ``merge`` and ``query``
through ``ontoflux.cli`` and the parsers through ``ontoflux.io``;
``kb.close_class`` and ``kb.is_member`` reach ``saturate`` through
``ontoflux.kb``; the simulator draws through ``ontoflux.simulate``.
``mfrag`` is not wrapped.
"""

from __future__ import annotations

from ontoflux import cli, io, kb, monitor, simulate
from ontoflux.kb import Individual, Variable, substitute

from metrics import ratio
from tracing import Tracer, aggregate


class _Previous:
    """The inputs of a wrapped function's previous call, for repeat ratios."""

    def __init__(self):
        self.key = None

    def repeats(self, key) -> bool:
        same = self.key is not None and all(a is b or a == b for a, b in zip(key, self.key))
        self.key = key
        return same


def _saturate_after():
    previous = _Previous()

    def after(attrs, args, kwargs, result):
        base = args[0]
        attrs["atoms_out"] = len(result)
        attrs["repeat"] = int(previous.repeats((base.tbox, base.abox, base.rbox)))

    return after


def _merge_after():
    previous = _Previous()

    def after(attrs, args, kwargs, result):
        local, external, mappings = args
        attrs["facts_out"] = len(result.derived)
        attrs["paths"] = sum(len(f.paths) for f in result.derived.values())
        attrs["repeat"] = int(previous.repeats((local.abox, external, tuple(mappings))))

    return after


def _query_after(attrs, args, kwargs, result):
    merged, conjuncts = args[0], args[1]
    shared = 0
    for answer in result:
        binding = {Variable(token): Individual(name) for token, name in answer.binding}
        seen: set[str] = set()
        overlap = False
        for conjunct in conjuncts:
            ids = merged.derived[substitute(conjunct, binding)].mapping_ids()
            overlap = overlap or bool(ids & seen)
            seen |= ids
        shared += overlap
    attrs["answers"] = len(result)
    attrs["shared"] = shared
    attrs["approx"] = sum(1 for a in result if a.approximate)


def _step_all_after(attrs, args, kwargs, result):
    props, log = args[0], args[1]
    attrs["records_scanned"] = len(props) * len(log)


def _parse_after(attrs, args, kwargs, result):
    attrs["bytes"] = len(args[0].encode("utf-8"))


def _tick_after(attrs, args, kwargs, result):
    attrs["log_lines"] = len(result.event_log) - len(args[0].event_log)


def _run_after(attrs, args, kwargs, result):
    sim = args[0]
    attrs["demands"] = sim.served + sim.lost


def replacements(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) triples for ``tracing.patched``."""
    out = [
        (kb, "saturate", tracer.wrap("kb.saturate", kb.saturate, _saturate_after())),
        (monitor, "close_class", tracer.wrap("kb.close_class", monitor.close_class)),
        (monitor, "is_member", tracer.wrap("kb.is_member", monitor.is_member)),
        (monitor, "step_all", tracer.wrap("temporal.step_all", monitor.step_all, _step_all_after)),
        (monitor, "tick", tracer.wrap("monitor.tick", monitor.tick, _tick_after)),
        (cli, "query", tracer.wrap("merging.query", cli.query, _query_after)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (simulate.Simulation, "run", tracer.wrap("simulate.run", simulate.Simulation.run, _run_after)),
    ]
    merge_after = _merge_after()
    out += [(owner, "merge", tracer.wrap("merging.merge", owner.merge, merge_after))
            for owner in (monitor, cli)]
    out += [(io, name, tracer.wrap("io.parse", getattr(io, name), _parse_after))
            for name in sorted(vars(io)) if name.startswith("parse_") and callable(getattr(io, name))]
    out += [(simulate, name, tracer.counting("simulate.rng", getattr(simulate, name)))
            for name in ("sample_gamma", "sample_poisson_interarrival")]
    return out


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, plain_s: float) -> dict[str, float]:
    """Every per-layer metric of a traced phase of ``ops`` ops, per op where counted.

    ``traced_s`` and ``plain_s`` are the op time of the traced phase and
    of the untraced phase over the same units.  ``io.parse`` counts every
    parse of the phase, set-up included; every other layer counts only
    calls made inside an op.  ``simulate.us_per_demand`` divides the
    untraced op time by the demands, since counting every draw slows the
    traced simulator.
    """
    in_ops = aggregate(tracer.spans, lambda s: s.op is not None)
    everything = aggregate(tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "attrs": {}}

    def layer(name, spans=in_ops):
        return spans.get(name, empty)

    sat, merge, query = layer("kb.saturate"), layer("merging.merge"), layer("merging.query")
    parse, run = layer("io.parse", everything), layer("simulate.run")
    demands = run["attrs"].get("demands", 0)
    values = {
        "kb.saturate.calls": sat["calls"] / ops,
        "kb.saturate.self_s": sat["self_s"] / ops,
        "kb.saturate.atoms_out": sat["attrs"].get("atoms_out", 0) / ops,
        "kb.saturate.repeat_ratio": ratio(sat["attrs"].get("repeat", 0), sat["calls"]),
        "kb.close_class.calls": layer("kb.close_class")["calls"] / ops,
        "kb.close_class.self_s": layer("kb.close_class")["self_s"] / ops,
        "kb.is_member.calls": layer("kb.is_member")["calls"] / ops,
        "kb.is_member.self_s": layer("kb.is_member")["self_s"] / ops,
        "merging.merge.calls": merge["calls"] / ops,
        "merging.merge.self_s": merge["self_s"] / ops,
        "merging.merge.facts_out": merge["attrs"].get("facts_out", 0) / ops,
        "merging.merge.paths_per_fact": ratio(merge["attrs"].get("paths", 0),
                                              merge["attrs"].get("facts_out", 0)),
        "merging.merge.repeat_ratio": ratio(merge["attrs"].get("repeat", 0), merge["calls"]),
        "merging.query.self_s": query["self_s"] / ops,
        "merging.query.answers": query["attrs"].get("answers", 0) / ops,
        "merging.query.shared_ratio": ratio(query["attrs"].get("shared", 0),
                                            query["attrs"].get("answers", 0)),
        "merging.query.approx_ratio": ratio(query["attrs"].get("approx", 0),
                                            query["attrs"].get("answers", 0)),
        "io.parse.calls": parse["calls"] / ops,
        "io.parse.self_s": parse["self_s"] / ops,
        "io.parse.bytes": parse["attrs"].get("bytes", 0) / ops,
        "cli.main.self_s": layer("cli.main")["self_s"] / ops,
        "temporal.step_all.self_s": layer("temporal.step_all")["self_s"] / ops,
        "temporal.step_all.records_scanned":
            layer("temporal.step_all")["attrs"].get("records_scanned", 0) / ops,
        "monitor.tick.self_s": layer("monitor.tick")["self_s"] / ops,
        "monitor.tick.log_lines": layer("monitor.tick")["attrs"].get("log_lines", 0) / ops,
        "simulate.run.self_s": run["self_s"] / ops,
        "simulate.demands": demands / ops,
        "simulate.us_per_demand": ratio(plain_s * 1e6, demands),
        "simulate.rng_calls_per_demand": ratio(tracer.counts["simulate.rng"], demands),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    return values
