"""Command-line front end.

Subcommands
-----------
analyze     classification report for a tree (JSON)
generators  combined binomial generators (text, JSON, or Macaulay2 script)
verify      run the exact verification suite, exit 0 iff everything passes
laplacian   weighted complete graph and reduced Laplacian of the derived graph
kernel      check a generator file for kernel membership under the tree's map

Exit codes: 0 pass, 1 check failure (including a check that could not be
certified: no invertible sample in the pattern, or an exactly singular
matrix), 2 tree outside the toric regimes, 3 input error (including a
generator variable outside the tree's coordinates).  Identical
configurations produce byte-identical artifacts.

JSON artifacts are written by :func:`_json`, which reproduces the layout of
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte without the
standard library's pure-Python indented encoder: containers are joined with
``str.join`` and strings are escaped by the C ``encode_basestring_ascii``.
Dict keys must be strings; any other key raises ``TypeError`` (the standard
library converts int, float, bool and None keys to strings).  Values that
are strings, dicts, lists or tuples are recognised by their exact type, so
a value of a subclass, such as ``OrderedDict``, also raises ``TypeError``;
no artifact holds one.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii

from .binomials import parse_binomial
from .classify import classify
from .errors import NotApplicableError, SamplingError, SingularMatrixError, TreeError
from .graphs import derive_graph
from .ideals import (
    combined_from_classification,
    generators_json,
    generators_m2,
    generators_text,
)
from .laplacians import form_text, gamma_graph, gamma_laplacian
from .pipeline import build_context, verify_tree
from .trees import load_tree

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_APPLICABLE = 2
EXIT_INPUT_ERROR = 3


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write(o, nl: str) -> str:
    """``o`` as the indented encoder lays it out; ``nl`` is the newline and
    indent of the line ``o`` starts on."""
    # Exact-type tests, for speed: on the analyze, generators and verify
    # documents of two rounds of both perfbench mixes this writer took
    # 1.69 s, an isinstance chain that memoized repeated arrays 1.75 s, and
    # an isinstance chain without the memo 2.07 s (Python 3.11, Xeon).
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        body = ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _write(v, inner) for k, v in sorted(o.items())]
        )
        return "{" + inner + body + nl + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_write(v, inner) for v in o]) + nl + "]"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if abs(o) == float("inf"):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _write(obj, "\n") + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    _emit(_json(classify(tree).to_dict()), args.out)
    return EXIT_OK


def _cmd_generators(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    gens, kind = combined_from_classification(classify(tree))
    if args.fmt == "text":
        _emit(generators_text(gens), args.out)
    elif args.fmt == "json":
        _emit(_json(generators_json(gens, kind)), args.out)
    else:
        _emit(generators_m2(gens, kind, tree.n_leaves), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    report = verify_tree(tree, trials=args.trials, seed=args.seed)
    _emit(_json(report.to_dict()), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_laplacian(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    g = derive_graph(tree)
    weights = gamma_graph(g)
    grid = gamma_laplacian(g)
    doc = {
        "n": g.n,
        "gamma_weights": [
            {"edge": list(e), "weight": form_text(w)}
            for e, w in sorted(weights.items())
        ],
        "laplacian": [[form_text(entry) for entry in row] for row in grid],
        "reduced": [
            [form_text(grid[i][j]) for j in range(1, g.n + 1)]
            for i in range(1, g.n + 1)
        ],
    }
    _emit(_json(doc), args.out)
    return EXIT_OK


def _cmd_kernel(args: argparse.Namespace) -> int:
    tree = load_tree(args.tree)
    with open(args.generators, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    gens = [parse_binomial(ln) for ln in lines]
    ctx = build_context(tree)
    try:
        flags = [ctx.mmap.in_kernel(b) for b in gens]
    except KeyError as exc:  # a variable the tree's map has no row for
        raise ValueError(exc.args[0]) from None
    doc = {
        "tree": tree.to_dict(),
        "coordinates": ctx.report.coordinates,
        "results": [
            {"generator": b.text(), "in_kernel": flag} for b, flag in zip(gens, flags)
        ],
        "all_in_kernel": all(flags),
    }
    _emit(_json(doc), args.out)
    return EXIT_OK if all(flags) else EXIT_CHECK_FAILED


_COMMANDS = {
    "analyze": _cmd_analyze,
    "generators": _cmd_generators,
    "verify": _cmd_verify,
    "laplacian": _cmd_laplacian,
    "kernel": _cmd_kernel,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; maps exceptions to documented exit codes."""
    try:
        return _COMMANDS[args.subcommand](args)
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (SamplingError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (TreeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetoric",
        description="Toric descriptions of tree-derived Gaussian models, verified exactly.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--tree", required=True, help="tree JSON document")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "verify":
            p.add_argument("--trials", type=int, default=100)
            p.add_argument("--seed", type=int, default=0)
        if name == "generators":
            p.add_argument(
                "--format",
                dest="fmt",
                choices=("text", "json", "m2-script"),
                default="text",
            )
        if name == "kernel":
            p.add_argument("--generators", required=True, help="one binomial per line")
    return parser


_PARSER = _parser()


def main(argv: list[str] | None = None) -> int:
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
