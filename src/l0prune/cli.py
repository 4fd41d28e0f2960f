"""Command line interface.

Four subcommands: prune (run a solver or baseline on weight/gram files),
eval (relative error of a pruned file), oracle (exact reference solvers),
and gram (accumulate X^T X from an activations file). Exit codes: 0 on
success, 2 for invalid input of any kind, 3 for degenerate instances.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import time
from functools import partial

import numpy as np

from .admm import MAX_ITERS, admm_solve
from .baselines import (
    PruneSolution,
    activation_weighted_prune,
    backsolve_exact,
    brute_force_support,
    build_solution,
    magnitude_prune,
)
from .errors import DegenerateInstanceError, InvalidInputError, PruneError
from .linalg import gram_from_activations, relative_error
from .matrixio import read_matrix, read_row_blocks, write_matrix
from .projections import (
    NM, SparsityBudget, Unstructured, budget_from_sparsity, budget_size, support_of,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


def _parse_nm(text: str) -> NM:
    match = re.fullmatch(r"(\d+):(\d+)", text)
    if not match:
        raise InvalidInputError(f"expected N:M like 2:4, got {text!r}")
    return NM(n=int(match.group(1)), m=int(match.group(2)))


def _load_gram(args) -> np.ndarray:
    """The --gram file, or the Gram streamed from --activations a block at a time."""
    if args.gram:
        return read_matrix(args.gram)
    return gram_from_activations(read_row_blocks(args.activations))


def _budget_for(args, shape) -> SparsityBudget:
    if args.sparsity is not None:
        return budget_from_sparsity(args.sparsity, shape[0], shape[1])
    if args.nm is not None:
        return _parse_nm(args.nm)
    return Unstructured(args.k)


def _budget_block(budget: SparsityBudget, shape) -> dict:
    kind = "unstructured" if isinstance(budget, Unstructured) else "nm"
    sparsity = 1.0 - budget_size(budget, shape) / (shape[0] * shape[1])
    return {"kind": kind, **dataclasses.asdict(budget), "sparsity": sparsity}


def _report_for(solution: PruneSolution, budget: SparsityBudget, runtime_ms: float) -> dict:
    """One run's JSON report; the file lists its keys in this order."""
    checked = solution.theorem1_bound is not None
    return {
        "method": solution.method,
        "budget": _budget_block(budget, solution.w.shape),
        "dims": list(solution.w.shape),
        "iterations": solution.iterations,
        "rho_final": solution.rho_final,
        "stabilized": solution.stabilized,
        "objective": solution.objective,
        "rel_error": solution.rel_error,
        "support_size": int(np.count_nonzero(solution.support)),
        "pcg_iters_used": solution.pcg_iters_used,
        "polish_rounds": solution.polish_rounds,
        "lemma1_violations": len(solution.lemma1_violations) if checked else None,
        "lemma2_violations": len(solution.lemma2_violations) if checked else None,
        "theorem1_ratio": solution.theorem1_bound.worst_ratio if checked else None,
        "runtime_ms": runtime_ms,
    }


def _solve_and_report(args, solve, budget: SparsityBudget) -> int:
    """Time solve() alone, then write --out and the report."""
    start = time.perf_counter()
    solution = solve()
    runtime_ms = (time.perf_counter() - start) * 1000.0
    report = _report_for(solution, budget, runtime_ms)
    if args.out:
        write_matrix(args.out, solution.w)
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_prune(args) -> int:
    w_hat = read_matrix(args.weights)
    h = _load_gram(args)
    budget = _budget_for(args, w_hat.shape)
    if args.method == "alps":
        solve = partial(admm_solve, h, w_hat, budget, max_iters=args.max_iters)
    elif args.method == "mp":
        solve = partial(magnitude_prune, w_hat, budget, gram=h)
    else:
        solve = partial(activation_weighted_prune, w_hat, h, budget)
    return _solve_and_report(args, solve, budget)


def cmd_eval(args) -> int:
    w_hat = read_matrix(args.weights)
    w = read_matrix(args.pruned)
    h = _load_gram(args)
    print(f"{relative_error(h, w_hat, w):.6f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    w_hat = read_matrix(args.weights)
    h = _load_gram(args)
    if args.pruned is None:
        k = max(args.brute_k, 0)  # brute_force_support rejects k < 0 after its checks
        solve = partial(brute_force_support, h, w_hat, args.brute_k)
    else:
        support = support_of(read_matrix(args.pruned))
        k = int(np.count_nonzero(support))
        solve = lambda: build_solution(backsolve_exact(h, w_hat, support), h, w_hat, "backsolve")
    return _solve_and_report(args, solve, Unstructured(k))


def cmd_gram(args) -> int:
    write_matrix(args.out, _load_gram(args))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0prune",
        description="Layer-wise pruning under hard sparsity budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags prune, eval and oracle share, each declared once.
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--weights", required=True, help="dense weights file")
    source = inputs.add_mutually_exclusive_group(required=True)
    source.add_argument("--gram", help="precomputed Gram matrix file")
    source.add_argument("--activations", help="calibration activations file")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", help="where to write the pruned weights")
    outputs.add_argument("--report", help="where to write the JSON report")

    prune = sub.add_parser("prune", parents=[inputs, outputs], help="prune a weight matrix")
    budget = prune.add_mutually_exclusive_group(required=True)
    budget.add_argument("--sparsity", type=float, help="fraction of weights to zero")
    budget.add_argument("--nm", help="structured budget as N:M, e.g. 2:4")
    budget.add_argument("--k", type=int, help="number of weights to keep")
    prune.add_argument(
        "--method", choices=("alps", "mp", "wanda"), default="alps",
        help="solver (alps) or baseline selection rule",
    )
    prune.add_argument(
        "--max-iters", type=int, default=MAX_ITERS,
        help="cap on ADMM iterations and on polish rounds (alps only)",
    )
    prune.set_defaults(func=cmd_prune)

    evaluate = sub.add_parser("eval", parents=[inputs], help="relative error of a pruned file")
    evaluate.add_argument("--pruned", required=True)
    evaluate.set_defaults(func=cmd_eval)

    oracle = sub.add_parser("oracle", parents=[inputs, outputs], help="exact reference solvers")
    mode = oracle.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pruned", help="solve exactly on this file's support")
    mode.add_argument(
        "--brute-k", type=int, help="enumerate every support of this size"
    )
    oracle.set_defaults(func=cmd_oracle)

    gram = sub.add_parser("gram", help="accumulate X^T X from activations")
    gram.add_argument("--activations", required=True)
    gram.add_argument("--out", required=True)
    gram.set_defaults(func=cmd_gram, gram=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except (PruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateInstanceError) else EXIT_INVALID


def entry() -> None:
    sys.exit(main())
