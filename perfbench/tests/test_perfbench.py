"""Tests of the benchmark itself: span arithmetic and the correctness gate.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from spans import Tracer, per_layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, injected_binomial  # noqa: E402

sys.path.insert(0, str(run.SRC))


def span(name, parent, start, end, tree=0):
    return [name, parent, tree, start, end]


def test_self_time_arithmetic_on_hand_built_span_tree():
    # verify_tree [0, 10] holds invert_exact [1, 6] and evaluate [7, 9];
    # invert_exact holds invert_fraction [2, 5], which holds bareiss [3, 4].
    spans = [
        span("pipeline.verify_tree", -1, 0.0, 10.0),
        span("matrices.invert_exact", 0, 1.0, 6.0),
        span("linalg.invert_fraction", 1, 2.0, 5.0),
        span("linalg.bareiss_echelon", 2, 3.0, 4.0),
        span("binomials.evaluate", 0, 7.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 2.0, 1.0, 2.0]

    tracer = Tracer()
    tracer.spans.extend(spans)
    m = per_layer_metrics(tracer, traced_s=[20.0], untraced_s=[16.0], applicable={0})
    assert m["pipeline.self_ms"] == (3000.0, "ms")
    assert m["linalg.self_ms"] == (3000.0, "ms")
    assert m["matrices.self_ms"] == (2000.0, "ms")
    assert m["binomials.self_ms"] == (2000.0, "ms")
    assert m["linalg.share"] == (0.15, "ratio")
    assert m["matrices.invert_exact.self_ms"] == (2000.0, "ms")
    assert m["matrices.invert_exact.total_ms"] == (5000.0, "ms")
    assert m["matrices.invert_exact.calls"] == (1, "count")
    assert m["trace.overhead"] == (1.25, "ratio")
    assert m["trace.coverage"] == (0.5, "ratio")
    layers = ("pipeline", "linalg", "matrices", "binomials")
    shares = sum(m[f"{layer}.share"][0] for layer in layers)
    assert shares == pytest.approx(m["trace.coverage"][0])


def test_sample_point_retries_count_nested_determinants_beyond_the_first():
    spans = [
        span("matrices.sample_point", -1, 0.0, 10.0),
        span("matrices.det_exact", 0, 1.0, 2.0),
        span("matrices.det_exact", 0, 3.0, 4.0),
        span("matrices.det_exact", 0, 5.0, 6.0),
        span("matrices.sample_point", -1, 11.0, 12.0),
        span("matrices.det_exact", 4, 11.5, 11.6),
        span("matrices.det_exact", -1, 13.0, 14.0),
    ]
    tracer = Tracer()
    tracer.spans.extend(spans)
    m = per_layer_metrics(tracer, traced_s=[14.0], untraced_s=[14.0], applicable=set())
    assert m["matrices.sample_point.retries"] == (2, "count")
    assert m["matrices.det_exact.calls"] == (5, "count")


@pytest.fixture
def program():
    return run.load_program()


def _gate(workload, tmp_path, patch=None, count=12):
    program, op, trees, first_round = run.set_up(workload, seed=3, work=tmp_path)
    if patch is not None:
        patch(program)
    _, outcomes = run.run_round(op, first_round[:count], 0)
    gate = run.Gate(program, workload, trees.docs)
    gate.check(0, outcomes)
    return gate.attempted, gate.failures


@pytest.mark.parametrize("name, module", [("sweep", "pipeline"), ("generate", "cli")])
def test_wrong_generator_list_makes_fail_ratio_nonzero(name, module, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    attempted, failures = _gate(workload, tmp_path)
    assert attempted > 0 and not failures

    def append_a_wrong_binomial(program):
        target = getattr(program, module)
        original = target.combined_from_classification

        def wrong(report):
            gens, kind = original(report)
            return sorted(gens + [injected_binomial(program, report)]), kind

        monkeypatch.setattr(target, "combined_from_classification", wrong)

    attempted, failures = _gate(workload, tmp_path, patch=append_a_wrong_binomial)
    assert len(failures) / attempted > 0


def test_tracer_restores_every_binding(program):
    before = {
        (name, attr): value
        for name in ("pipeline", "matrices", "cli")
        for attr, value in vars(getattr(program, name)).items()
    }
    evaluate = program.binomials.Binomial.evaluate
    tracer = Tracer()
    tracer.install()
    assert program.pipeline.invert_exact is program.matrices.invert_exact
    assert program.pipeline.invert_exact is not before[("matrices", "invert_exact")]
    tracer.restore()
    after = {
        (name, attr): value
        for name in ("pipeline", "matrices", "cli")
        for attr, value in vars(getattr(program, name)).items()
    }
    assert after == before
    assert program.binomials.Binomial.evaluate is evaluate
