"""The top-level namespace exports the user-facing API and nothing else."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import l0prune
from l0prune.cli import build_parser

PUBLIC_API = [
    "DegenerateInstanceError",
    "InvalidInputError",
    "NM",
    "PruneError",
    "PruneSolution",
    "Unstructured",
    "activation_weighted_prune",
    "admm_solve",
    "backsolve_exact",
    "brute_force_support",
    "budget_from_sparsity",
    "gram_from_activations",
    "layer_objective",
    "magnitude_prune",
    "pcg_refine",
    "read_matrix",
    "relative_error",
    "support_of",
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

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "l0prune"

# The rescaling is defined in l0prune.linalg; l0prune.admm imports it, and
# bench/tracer.py times the solver's call there as admm.preprocess.
INTERNALS = {
    "l0prune.admm": ["AdmmState", "ScaledProblem", "admm_loop", "admm_step",
                     "initial_state", "preprocess", "rho_update"],
    "l0prune.diagnostics": ["IterTrace", "TheoremBound", "Violation",
                            "check_lemma1", "check_lemma2", "theorem1_residual_bound"],
    "l0prune.linalg": ["DEAD_DIAG_RTOL", "ScaledProblem", "check_instance", "check_range",
                       "eigendecompose", "preprocess", "validate_gram"],
    "l0prune.matrixio": ["read_row_blocks"],
    "l0prune.projections": ["SparsityBudget", "project", "support_change"],
}


def test_all_is_the_public_api():
    assert sorted(l0prune.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(l0prune, name), name


def test_bench_names_stay_top_level():
    for name in BENCH_NAMES:
        assert name in l0prune.__all__ and hasattr(l0prune, name), name


def test_every_solver_setting_is_a_prune_flag():
    # max_iters is admm_solve's one setting and prune's one solver flag,
    # with the same default; rho0 and the CG cap are fixed constants.
    args = build_parser().parse_args(["prune", "--weights", "w", "--gram", "h", "--k", "1"])
    not_solver = {"command", "func", "weights", "gram", "activations", "sparsity",
                  "nm", "k", "method", "out", "report"}
    flags = {name: value for name, value in vars(args).items() if name not in not_solver}
    settings = inspect.signature(l0prune.admm_solve).parameters
    assert list(settings) == ["h", "w_hat", "budget", "max_iters"]
    assert flags == {"max_iters": settings["max_iters"].default}


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


def test_readme_python_blocks_run():
    # Every python block of the README runs, in order and in one namespace,
    # so the quick start and the diagnostics example cannot rot.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_lists_the_public_api():
    # The README's list of the namespace's exports names exactly __all__:
    # the bare identifiers in backticks, from the line after its heading
    # sentence to the blank line that ends the list.
    text = README.read_text()
    start = text.index("The top-level `l0prune` namespace exports")
    listing = text[text.index("\n\n", start) + 2:]
    listing = listing[:listing.index("\n\n")]
    assert listing.startswith("- ")
    assert set(re.findall(r"`([A-Za-z_]\w*)`", listing)) == set(l0prune.__all__)


def _parser_options(parser) -> set[str]:
    # Every long option of the four subcommands, --help excluded.
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        flag
        for command in sub.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def test_readme_cli_flags_match_the_parser():
    # The flags the README's "Command line" section names are exactly the
    # subcommands' options, so a removed flag cannot linger in the docs.
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start + 1)]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == _parser_options(build_parser())


def _nodes_by_function(tree):
    """Every node of tree, with the name of its innermost enclosing def or None."""
    stack = [(None, tree)]
    while stack:
        owner, node = stack.pop()
        yield owner, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        stack.extend((owner, child) for child in ast.iter_child_nodes(node))


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to export; any other module's import is used, so a
    # deletion cannot leave a dead import of what it removed behind.
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in imported - used)
    assert not unused


def test_float64_range_rule_lives_in_check_range():
    # One rule decides whether a squared norm or form is within float64's
    # range, with two message shapes: "<name> overflows float64" and
    # "<name> underflows float64: <value>"; check_finite, which check_range
    # runs, holds the first. TINY, its threshold, is named only where
    # linalg defines it and in check_range.
    tiny, float64_raises = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert "is not a normal float64" not in source, path.name
        for owner, node in _nodes_by_function(ast.parse(source)):
            # A bare name, an attribute or an import of it.
            if "TINY" in (getattr(node, a, None) for a in ("id", "attr", "name")):
                tiny.add((path.stem, owner))
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and "float64" in str(c.value)
                for c in ast.walk(node)
            ):
                float64_raises.add((path.stem, owner))
    assert tiny == {("linalg", None), ("linalg", "check_range")}
    assert float64_raises == {("linalg", "check_range"), ("linalg", "check_finite")}


def test_every_finiteness_check_reads_max_and_min():
    # np.isfinite of a whole array allocates a mask the array's size; of
    # its max and min, which propagate NaN, nothing. So every np.isfinite
    # in the package takes one of the two reductions.
    calls, unreduced = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and "isfinite" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )):
                continue
            calls += 1
            (arg,) = node.args
            if not (isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) in ("max", "min")):
                unreduced.append(f"{path.stem}:{node.lineno}")
    assert calls and not unreduced


# Where the range rule runs. Both sides: the gap and the energy a result
# reports, and nothing of the rescaled problem, whose norms are bounded.
# The overflow side alone, check_finite (which check_range also runs): the
# weights crossing the scaling, the refinement's residual and curvature,
# and the exact oracle's H W_hat.
RANGE_RULE_SITES = {
    "check_range": {"linalg.reconstruction_gap", "linalg.output_energy"},
    "check_finite": {"linalg.check_range", "linalg.rescale", "linalg.unscale",
                     "pcg.support_cg", "baselines.backsolve_exact"},
}


def test_range_rule_runs_where_the_readme_says():
    # The functions that call each side of the rule are exactly these, and
    # README's float64 section names each, so moving or dropping one is
    # deliberate.
    callers = {rule: set() for rule in RANGE_RULE_SITES}
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in callers:
                callers[called].add(f"{path.stem}.{owner}")
    assert callers == RANGE_RULE_SITES
    text = README.read_text()
    start = text.index("## Float64 range")
    section = text[start:text.index("\n## ", start + 1)]
    for site in set().union(*RANGE_RULE_SITES.values()):
        assert f"`{site}`" in section, site


def test_only_linalg_crosses_the_scaling():
    # ScaledProblem.rescale and unscale are the one crossing of
    # W = 2^e E W'. No other module names ldexp or reads a scale or an
    # exponent, so the convention cannot be hand-rolled outside the module
    # that owns it; pcg_refine's own scale-in lost dead rows and overflowed.
    crossings = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, a, None) for a in ("id", "attr", "name")}
            if names & {"ldexp", "scale", "exponent"}:
                crossings.add(path.stem)
    assert crossings == {"linalg"}


def test_only_admm_solve_factors_the_gram():
    # A solve factors its rescaled Gram at one site and hands the pair to
    # admm_loop, so no kernel can factor it again.
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _nodes_by_function(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "eigendecompose" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                callers.add(f"{path.stem}.{owner}")
    assert callers == {"admm.admm_solve"}
