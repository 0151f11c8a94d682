"""The workloads: what each runs per tree, and the correctness gate.

Every call into the program goes through a module attribute looked up at
call time (``program.pipeline.verify_tree``), so the traced run sees the
wrapped bindings and the untraced run the plain ones.

Per tree, ``sweep`` parses the document and runs ``verify_tree``;
``generate`` runs ``treetoric analyze`` and ``treetoric generators --format
json`` through ``cli.main`` on a file written during set-up.  A
``NotApplicableError`` (exit code 2 on the CLI) is a completed ``NONE``
outcome, not a failure.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

from corpus import GENERATE_MIX, SWEEP_MIX, Mix

NONE_OUTCOME = "NONE"
FOUR_CHECKS = {
    "kernel_membership", "forward_vanishing", "roundtrip_parametrization", "dimension"
}
EXIT_OK, EXIT_NOT_APPLICABLE = 0, 2


@dataclass(frozen=True)
class Workload:
    name: str
    mix: Mix
    # verify_tree trials per tree; None runs the CLI instead.
    trials: int | None
    # Applicable trees per run that get the checks needing a second
    # build_context (the negative controls); None means all of them.
    context_checks: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP_MIX, trials=25, context_checks=None),
        # One context costs about four CLI round trips here.
        Workload("generate", GENERATE_MIX, trials=None, context_checks=24),
    )
}


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def operation(program: SimpleNamespace, workload: Workload) -> Callable:
    """The per-tree call ``op(index, item)``; item is a document or a path."""
    if workload.trials is not None:
        trials = workload.trials

        def verify(index: int, doc: str):
            tree = program.trees.parse_tree(doc)
            try:
                return program.pipeline.verify_tree(tree, trials=trials, seed=index)
            except program.errors.NotApplicableError:
                return NONE_OUTCOME

        return verify

    def generate(index: int, path: str) -> list[CliRun]:
        runs = []
        for argv in (
            ["analyze", "--tree", path],
            ["generators", "--format", "json", "--tree", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = program.cli.main(argv)
            runs.append(CliRun(code, out.getvalue(), err.getvalue()))
        return runs

    return generate


def is_applicable(workload: Workload, outcome) -> bool:
    """True when the tree got a certificate (``NONE`` and errors do not)."""
    if isinstance(outcome, Exception):
        return False
    if workload.trials is not None:
        return outcome != NONE_OUTCOME
    return outcome[1].code == EXIT_OK


def regime(workload: Workload, outcome) -> str:
    """The theorem tag the program reported, or what went wrong."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    if workload.trials is not None:
        return outcome if outcome == NONE_OUTCOME else outcome.theorem
    try:
        return json.loads(outcome[0].stdout)["theorem"]
    except (ValueError, KeyError):
        return "unreadable"


# -------------------------------------------------------------------- #
# correctness gate                                                       #
# -------------------------------------------------------------------- #


def injected_binomial(program: SimpleNamespace, report):
    """A binomial that lies outside the ideal of every applicable tree.

    ``x_0a - x_ab`` with leaf a below some node other than the top: the
    path map sends x_0a to a monomial containing the top node's parameter,
    whose token no other node of the working tree carries, and x_ab to one
    without it, so the two images always differ.
    """
    working = report.working_tree
    top = working.top_node()
    leaves = working.leaves()
    a = next((i for i in leaves if working.parent[i] != top), leaves[0])
    b = next(i for i in leaves if i != a)
    var = program.binomials.coord_var
    kind = report.coordinates
    return program.binomials.Binomial.make(
        program.binomials.monomial([var(kind, 0, a)]),
        program.binomials.monomial([var(kind, a, b)]),
    )


def _binomial_from_json(program: SimpleNamespace, doc: dict):
    b = program.binomials

    def mono(terms):
        return b.monomial(b.parse_var_name(name) for name, e in terms for _ in range(e))

    return b.Binomial.make(mono(doc["plus"]), mono(doc["minus"]))


def check_tree(
    program: SimpleNamespace,
    workload: Workload,
    index: int,
    doc: str,
    outcome,
    with_context: bool,
) -> list[tuple[str, bool]]:
    """Named pass/fail checks of one tree's outcome.

    ``outcome`` is what :func:`operation` returned, or the exception it
    raised.  Checks that build a second verification context run only when
    ``with_context`` is set and the tree is applicable.
    """
    if isinstance(outcome, Exception):
        return [(f"raised {type(outcome).__name__}", False)]
    tree = program.trees.parse_tree(doc)
    expected = program.classify.classify(tree)
    applicable = expected.theorem != NONE_OUTCOME
    results: list[tuple[str, bool]] = []
    # The reported generators, as (parser, items); parsed only when the
    # context checks run, since parsing thousands of them is not free.
    emitted = None

    if workload.trials is not None:
        got = outcome if outcome == NONE_OUTCOME else outcome.theorem
        results.append(("theorem matches classify", got == expected.theorem))
        if applicable and outcome != NONE_OUTCOME:
            checks = {c["check"]: c["passed"] for c in outcome.checks}
            results.append((
                "all four checks pass",
                outcome.passed and set(checks) == FOUR_CHECKS and all(checks.values()),
            ))
            emitted = (program.binomials.parse_binomial, outcome.generators)
    else:
        analyze, gens = outcome
        codes_ok = analyze.code == EXIT_OK and gens.code == (
            EXIT_OK if applicable else EXIT_NOT_APPLICABLE
        )
        results.append(("exit codes", codes_ok))
        if analyze.code == EXIT_OK:
            got = json.loads(analyze.stdout)["theorem"]
            results.append(("analyze theorem matches classify", got == expected.theorem))
        if applicable and gens.code == EXIT_OK:
            out = json.loads(gens.stdout)
            emitted = (partial(_binomial_from_json, program), out["generators"])
            results.append((
                "generators document",
                out["coordinates"] == expected.coordinates
                and out["count"] == len(out["generators"]),
            ))

    if with_context and applicable and all(ok for _, ok in results):
        ctx = program.pipeline.build_context(tree)
        if emitted is not None:
            parse, items = emitted
            gens = [parse(item) for item in items]
            results.append((
                "emitted generators are the pipeline's and lie in the kernel",
                sorted(gens) == ctx.generators
                and program.pipeline.kernel_membership(ctx, gens)["passed"],
            ))
        bad = [injected_binomial(program, expected)]
        results.append((
            "injected binomial rejected by kernel_membership",
            not program.pipeline.kernel_membership(ctx, bad)["passed"],
        ))
        forward = program.pipeline.forward_vanishing(ctx, trials=1, seed=index, generators=bad)
        results.append((
            "injected binomial rejected by forward_vanishing",
            not forward["passed"],
        ))
    return results
