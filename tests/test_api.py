"""The top-level namespace exports the user-facing API and nothing else."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import l0prune
from l0prune.cli import build_parser

PUBLIC_API = [
    "AdmmConfig",
    "DegenerateInstanceError",
    "DegenerateSupportError",
    "InvalidInputError",
    "IterRecord",
    "IterTrace",
    "NM",
    "PruneError",
    "PruneSolution",
    "SparsityBudget",
    "TheoremBound",
    "Unstructured",
    "Violation",
    "activation_weighted_prune",
    "admm_solve",
    "backsolve_exact",
    "brute_force_support",
    "budget_from_sparsity",
    "check_lemma1",
    "check_lemma2",
    "gram_from_activations",
    "layer_objective",
    "magnitude_prune",
    "pcg_refine",
    "read_matrix",
    "relative_error",
    "support_of",
    "theorem1_residual_bound",
    "write_matrix",
]

# The benchmark harness (bench/run.py) reaches these through `import l0prune`.
BENCH_NAMES = [
    "admm_solve",
    "activation_weighted_prune",
    "backsolve_exact",
    "support_of",
    "budget_from_sparsity",
    "NM",
    "Unstructured",
]

INTERNALS = {
    "l0prune.admm": ["AdmmState", "ScaledProblem", "admm_step", "initial_state",
                     "preprocess", "rho_update"],
    "l0prune.linalg": ["check_instance", "eigendecompose", "validate_gram"],
    "l0prune.matrixio": ["read_row_blocks"],
    "l0prune.projections": ["project", "support_change"],
}


def test_all_is_the_public_api():
    assert sorted(l0prune.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(l0prune, name), name


def test_bench_names_stay_top_level():
    for name in BENCH_NAMES:
        assert name in l0prune.__all__ and hasattr(l0prune, name), name


def test_every_solver_setting_is_a_prune_flag():
    args = build_parser().parse_args(["prune", "--weights", "w", "--gram", "h", "--k", "1"])
    not_solver = {"command", "func", "weights", "gram", "activations", "sparsity",
                  "nm", "k", "method", "out", "report"}
    flags = {name: value for name, value in vars(args).items() if name not in not_solver}
    assert flags == dataclasses.asdict(l0prune.AdmmConfig())
    assert [f.name for f in dataclasses.fields(l0prune.AdmmConfig)] == [
        "rho0", "max_iters", "pcg_iters"
    ]


@pytest.mark.parametrize("module", sorted(INTERNALS))
def test_internals_live_in_submodules(module):
    mod = importlib.import_module(module)
    for name in INTERNALS[module]:
        assert hasattr(mod, name), name
        assert name not in l0prune.__all__, name


def test_bench_trace_targets_exist():
    # bench/tracer.py skips a missing target, so a rename would silently
    # zero its metrics. ridge_solve went with the move to the eigenbasis.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {
        f"{module}.{name}"
        for module, names in tracer.TARGETS.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    }
    assert missing <= {"l0prune.linalg.ridge_solve"}
