"""ontoflux benchmark: one closed-loop workload per run, one client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload monitor_loop --seed 1 --seconds 10 --trace 0

Workloads: ``monitor_loop`` (one op = one ``monitor.tick``),
``merge_query`` (one op = one in-process ``ontoflux merge-query``) and
``simulate_regimes`` (one op = one base-stock simulation run).  Inputs
are generated from ``--seed``; the library only sees the generated
documents.  Each run measures ops until ``--seconds`` of op time and at
least 200 ops have passed, checks every op's output untimed, and prints
a summary line and, as its last line, one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the same untraced phase runs first, then the same units
run again with ontoflux's layer functions wrapped (see ``layers.py``);
the metrics are the per-layer ones, the spans are written to
``.perfbench_out/`` and every output of the traced phase must equal the
untraced one.

The library is imported from ``src/`` of the checkout and the
possible-worlds oracle from ``tests/helpers.py``; without them the run
exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER, TooFewSamples, failed_ratio, min_samples, percentile
from tracing import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("monitor_loop", "merge_query", "simulate_regimes")
MIN_OPS = min_samples(95)
WALL_CAP_S = 75.0  # a run stops adding units after this much wall time
TRACEBACKS_SHOWN = 3
IMPORT_SAMPLES = 5  # interpreters that time the import, for the median in setup_s
_IMPORTS = """
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:]
started = perf_counter()
import helpers, ontoflux, layers, {workloads}
print(perf_counter() - started)
""".format(workloads=", ".join(WORKLOADS))


def import_program() -> list[float]:
    """Import ontoflux from ``src/`` and the oracle from ``tests/``.

    Returns the seconds the import took here and in ``IMPORT_SAMPLES``
    fresh interpreters, each of which is waited for.
    """
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "ontoflux" / "__init__.py").is_file() or not (tests / "helpers.py").is_file():
        raise SystemExit(f"perfbench: {src}/ontoflux or {tests}/helpers.py is missing")
    paths = [str(src), str(tests), str(Path(__file__).parent)]
    sys.path[:0] = paths[:2]
    started = perf_counter()
    import helpers  # noqa: F401
    import ontoflux
    for name in (*WORKLOADS, "layers"):
        importlib.import_module(name)
    samples = [perf_counter() - started]
    if Path(ontoflux.__file__).resolve().parent != src / "ontoflux":
        raise SystemExit(f"perfbench: ontoflux was imported from {ontoflux.__file__}, not {src}")
    for _ in range(IMPORT_SAMPLES):
        child = subprocess.run([sys.executable, "-c", _IMPORTS, *paths],
                               capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(child.stdout))
    return samples


class Phase:
    """The ops of one pass over a workload's units: latencies, check flags, outputs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.latencies: list[float] = []  # of ops that returned
        self.ops = 0
        self.timed_s = 0.0
        self.setup_s: list[float] = []
        self.units: list[tuple[list[bool], str]] = []  # per unit: op flags, output digest

    def timer(self, fn):
        """Run one op timed; an op that raises returns None and counts as failed."""
        self.tracer.op, self.tracer.recording = self.ops, True
        completed = False
        started = perf_counter()
        try:
            result = fn()
            completed = True
        except Exception:
            result = None
            if self.ops - len(self.latencies) < TRACEBACKS_SHOWN:
                traceback.print_exc()
        finally:
            elapsed = perf_counter() - started
            self.tracer.op, self.tracer.recording = None, False
        if completed:
            self.latencies.append(elapsed)
        self.timed_s += elapsed
        self.ops += 1
        return result

    @property
    def flags(self) -> list[bool]:
        return [ok for flags, _ in self.units for ok in flags]


def run_phase(module, seed: int, workdir: Path, tracer: Tracer, seconds=None, units=None) -> Phase:
    """Prepare and run units until ``seconds`` of op time and ``MIN_OPS`` ops, or ``units`` units."""
    phase = Phase(tracer)
    started = perf_counter()
    while True:
        if units is None:
            enough = phase.timed_s >= seconds and phase.ops >= MIN_OPS
            if enough or perf_counter() - started > WALL_CAP_S:
                break
        elif len(phase.units) >= units:
            break
        prepared = perf_counter()
        tracer.recording = True
        try:
            unit = tracer.call("bench.setup", module.prepare, (seed, len(phase.units), workdir), {})
        finally:
            tracer.recording = False
        phase.setup_s.append(perf_counter() - prepared)
        phase.units.append(module.run(unit, phase.timer))
    return phase


def end_to_end(phase: Phase, import_s: list[float]) -> dict[str, float]:
    """setup_s is the median import time plus the median time to prepare one unit."""
    lat = phase.latencies
    return {
        "setup_s": statistics.median(import_s) + statistics.median(phase.setup_s),
        "ops_per_s": len(lat) / phase.timed_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p95_ms": percentile(lat, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    module = importlib.import_module(args.workload)
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plain = run_phase(module, args.seed, workdir, Tracer(), seconds=args.seconds)
        flags = plain.flags
        if args.workload == "merge_query":
            import helpers

            flags += module.verify(args.seed, workdir, Phase(Tracer()).timer, helpers.world_scores)
        if args.trace:
            import layers

            tracer = Tracer()
            with patched(layers.replacements(tracer)):
                traced = run_phase(module, args.seed, workdir, tracer, units=len(plain.units))
            # a unit whose output differs from the untraced run fails every op it has
            for (unit_flags, digest), (_, plain_digest) in zip(traced.units, plain.units):
                flags += unit_flags if digest == plain_digest else [False] * len(unit_flags)
            values = layers.layer_metrics(tracer, traced.ops, traced.timed_s, plain.timed_s)
            units_of = dict(PER_LAYER)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            values = end_to_end(plain, import_s)
            units_of = dict(END_TO_END)
    except TooFewSamples as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for ok in flags if not ok)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {plain.ops} timed ops in "
          f"{len(plain.units)} units, {plain.timed_s:.2f} s of op time; latency percentiles over "
          f"{len(plain.latencies)} samples (p95 needs {MIN_OPS}); "
          f"failed {failed}/{len(flags)} (failed_ratio {failed_ratio(flags):.4f})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flags),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
