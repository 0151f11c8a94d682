#!/usr/bin/env python3
"""treetoric benchmark: seeded tree corpora through the public API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep``: the acceptance-sweep mix, n = 2..8, ``verify_tree`` with 25
  trials per tree;
* ``generate``: n = 6..14, ``treetoric analyze`` and ``treetoric generators
  --format json`` through ``cli.main``.

One run is a closed loop in a single process.  Set-up (import, the first
round of the corpus and its tree files, warm-up) is done three times and timed.  Then the corpus runs
one round at a time (see ``corpus.py``), one tree after another, until
``--seconds`` of measured time have passed.  Between rounds, off the clock,
the next round is made and the correctness gate checks the last one,
keeping only tallies.
``--trace 1`` instead runs the first round twice, plain and with spans
around every public function, and reports the per-layer figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  CPU affinity and
clock frequency are not pinned; the run length and the bounds in
``BENCHMARK.json`` absorb that noise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from corpus import fingerprint, n_histogram, rounds
from spans import LAYERS, PACKAGE, Tracer, per_layer_metrics
from workloads import WORKLOADS, check_tree, is_applicable, operation, regime

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WARMUP_N = 4
TAIL_BEYOND = 10


def load_program() -> SimpleNamespace:
    """Import treetoric afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not {SRC}")
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS + ("errors",)}
    return SimpleNamespace(**modules)


class Corpus:
    """The workload's trees, a round at a time; generate's also go to files."""

    def __init__(self, workload, seed: int, work: Path, prefix: str = "t"):
        self.stream = rounds(workload.mix, seed)
        self.to_files = workload.trials is None
        self.work, self.prefix = work, prefix
        self.docs: list[str] = []  # every document handed out, by tree index

    def next_round(self) -> list[str]:
        """The next round's inputs: documents, or paths for the CLI."""
        docs = next(self.stream)
        first = len(self.docs)
        self.docs += docs
        if not self.to_files:
            return docs
        self.work.mkdir(parents=True, exist_ok=True)
        paths = []
        for index, doc in enumerate(docs, start=first):
            path = self.work / f"{self.prefix}{index}.json"
            path.write_text(doc, encoding="utf-8")
            paths.append(str(path))
        return paths


def set_up(workload, seed: int, work: Path):
    """One full set-up: import, first round of the corpus, warm-up."""
    program = load_program()
    op = operation(program, workload)
    trees = Corpus(workload, seed, work)
    first_round = trees.next_round()
    # One small tree per leaf and zeroing mode runs every code path once.
    warm_mix = replace(workload.mix, n_values=(WARMUP_N,))
    warm = Corpus(replace(workload, mix=warm_mix), seed, work, prefix="w")
    for index, item in enumerate(warm.next_round()):
        op(index, item)
    return program, op, trees, first_round


def run_round(op, inputs, first: int, tracer=None):
    """One round, tree ``first`` onwards; per-tree seconds and outcomes.

    An exception from the program becomes the outcome.
    """
    times, outcomes = [], []
    for index, item in enumerate(inputs, start=first):
        if tracer is not None:
            tracer.tree = index
        start = perf_counter()
        try:
            outcome = op(index, item)
        except Exception as exc:  # the gate reports it as a failure
            outcome = exc
        times.append(perf_counter() - start)
        outcomes.append(outcome)
    return times, outcomes


class Gate:
    """Checks outcomes as they come and keeps tallies, not outcomes."""

    def __init__(self, program, workload, docs: list[str]):
        self.program, self.workload, self.docs = program, workload, docs
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []
        self.regimes: Counter[str] = Counter()
        self.contexts = 0

    def check(self, first: int, outcomes) -> None:
        limit = self.workload.context_checks
        for index, outcome in enumerate(outcomes, start=first):
            doc = self.docs[index]
            with_context = limit is None or self.contexts < limit
            try:
                results = check_tree(
                    self.program, self.workload, index, doc, outcome, with_context
                )
            except Exception:
                results = [(f"gate raised {traceback.format_exc(limit=2)!r}", False)]
            if with_context and is_applicable(self.workload, outcome):
                self.contexts += 1
            self.regimes[regime(self.workload, outcome)] += 1
            self.attempted += len(results)
            self.failures += [(index, name, doc) for name, ok in results if not ok]


def tail(sorted_ms: list[float], round_size: int) -> tuple[float, float]:
    """The tail percentile of whole rounds, and its value.

    The percentile is the highest one with ten trees of a single round
    beyond it, so it stays the same however many rounds a run holds and
    a faster program is not judged at a higher percentile.
    """
    whole = len(sorted_ms) // round_size
    k = whole * (round_size - TAIL_BEYOND) - 1
    return 100.0 * (round_size - TAIL_BEYOND) / round_size, sorted_ms[k]


def machine_info() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "pinned": False,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def timed_run(op, trees: Corpus, inputs, seconds: int, gate: Gate) -> dict:
    """Whole rounds until ``seconds`` of measured time; end-to-end metrics.

    Each round after the first is made, and the last one checked, off the
    clock.
    """
    times, certified, wall, first = [], [], 0.0, 0
    while wall < seconds:
        if first:
            inputs = trees.next_round()
        start = perf_counter()
        round_times, outcomes = run_round(op, inputs, first)
        wall += perf_counter() - start
        if not first:
            # Set-up and one round, before the gate builds contexts of its own.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gate.check(first, outcomes)
        times += round_times
        # NONE trees end within a millisecond; with them the median would
        # sit on the gap between rejected and certified trees.
        certified += [
            t for t, o in zip(round_times, outcomes) if is_applicable(gate.workload, o)
        ]
        first += len(inputs)
    ms = sorted(1000 * t for t in times)
    pct, tail_ms = tail(ms, len(inputs))
    print(
        f"measured {len(ms)} trees in {wall:.3f} s; p50 over the {len(certified)} "
        f"certified trees; tail is p{pct:.2f} of all {len(ms)}"
    )
    return {
        "trees_per_s": (len(ms) / wall, "1/s"),
        "tree_p50_ms": (1000 * statistics.median(certified), "ms"),
        "tree_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }


def traced_run(op, inputs, gate: Gate, path: Path) -> dict:
    """The first round plain and then traced; per-layer metrics."""
    plain_s, _ = run_round(op, inputs, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outcomes = run_round(op, inputs, 0, tracer=tracer)
    finally:
        tracer.restore()
    gate.check(0, outcomes)
    applicable = {i for i, o in enumerate(outcomes) if is_applicable(gate.workload, o)}
    path.parent.mkdir(exist_ok=True)
    tracer.write(path)
    print(f"traced {len(inputs)} trees; {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    return per_layer_metrics(tracer, traced_s, plain_s, applicable)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = OUT / f"trees-{os.getpid()}"
    try:
        return _run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, args, work: Path) -> int:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        program, op, trees, first_round = set_up(workload, args.seed, work)
        setup_s.append(perf_counter() - start)
    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"set-up runs (s): {[round(s, 4) for s in setup_s]}")

    gate = Gate(program, workload, trees.docs)
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
        metrics = traced_run(op, first_round, gate, spans_path)
    else:
        metrics = timed_run(op, trees, first_round, args.seconds, gate)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["pass_ratio"] = (1 - len(gate.failures) / gate.attempted, "ratio")

    print(
        f"workload {workload.name} seed {args.seed}: {len(trees.docs)} trees, "
        f"fingerprint {fingerprint(trees.docs)}, n histogram {n_histogram(trees.docs)}"
    )
    print(f"regime mix of the trees run: {dict(sorted(gate.regimes.items()))}")
    print(
        f"gate: {gate.attempted} checks, {len(gate.failures)} failed, "
        f"fail_ratio {len(gate.failures) / gate.attempted:.6f}"
    )
    for index, name, doc in gate.failures[:10]:
        print(f"  FAIL tree {index}: {name}: {doc}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
