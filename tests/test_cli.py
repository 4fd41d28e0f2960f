import json
import math
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from l0prune import (
    NM,
    Unstructured,
    activation_weighted_prune,
    admm_solve,
    backsolve_exact,
    brute_force_support,
    gram_from_activations,
    layer_objective,
    magnitude_prune,
    read_matrix,
    relative_error,
    write_matrix,
)
from l0prune import linalg, matrixio
from l0prune.cli import _budget_block, main

from conftest import (
    BEYOND_FLOAT64, correlated_activations, count_calls, gap_overflow_instance, scale_instance,
)

# bench/run.py and other readers parse the report; keep its keys stable.
REPORT_KEYS = [
    "method", "budget", "dims", "iterations", "rho_final", "stabilized",
    "objective", "rel_error", "support_size", "pcg_iters_used",
    "polish_rounds", "lemma1_violations", "lemma2_violations",
    "theorem1_ratio", "runtime_ms",
]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workspace(tmp_path):
    """Weights, activations, and gram files for a 10x10 instance."""
    rng = np.random.default_rng(42)
    x = correlated_activations(rng, 64, 10)
    w_hat = rng.standard_normal((10, 10))
    paths = {
        "weights": tmp_path / "w.amtx",
        "activations": tmp_path / "x.amtx",
        "gram": tmp_path / "h.amtx",
        "out": tmp_path / "pruned.amtx",
        "report": tmp_path / "report.json",
    }
    write_matrix(paths["weights"], w_hat)
    write_matrix(paths["activations"], x)
    write_matrix(paths["gram"], gram_from_activations(x))
    return paths, w_hat, x


def run(*argv):
    return main([str(a) for a in argv])


def test_gram_subcommand_builds_gram(workspace, tmp_path):
    paths, _, x = workspace
    out = tmp_path / "g2.amtx"
    assert run("gram", "--activations", paths["activations"], "--out", out) == 0
    np.testing.assert_array_equal(read_matrix(out), gram_from_activations(x))


def test_prune_writes_report_and_budgeted_weights(workspace):
    paths, w_hat, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--sparsity", 0.7, "--out", paths["out"], "--report", paths["report"],
    )
    assert code == 0
    report = json.loads(paths["report"].read_text())
    assert report["method"] == "alps"
    assert report["support_size"] == 30
    assert report["budget"] == {"kind": "unstructured", "k": 30, "sparsity": 0.7}
    assert report["dims"] == [10, 10]
    assert report["stabilized"] is True
    assert report["lemma1_violations"] == 0
    assert report["lemma2_violations"] == 0
    assert report["theorem1_ratio"] <= 1.0 + 1e-6
    assert report["pcg_iters_used"] >= 1
    assert report["runtime_ms"] > 0

    pruned = read_matrix(paths["out"])
    assert np.count_nonzero(pruned) == 30


def test_prune_report_keys_in_order(workspace):
    paths, _, _ = workspace
    assert run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 30, "--report", paths["report"],
    ) == 0
    assert list(json.loads(paths["report"].read_text())) == REPORT_KEYS


@pytest.mark.parametrize("method", ["alps", "mp", "wanda"])
def test_prune_report_names_the_library_calls_method(workspace, method):
    # The report copies the method the wrapped library call returns.
    paths, w_hat, _ = workspace
    h, budget = read_matrix(paths["gram"]), Unstructured(30)
    library = {
        "alps": lambda: admm_solve(h, w_hat, budget),
        "mp": lambda: magnitude_prune(w_hat, budget, gram=h),
        "wanda": lambda: activation_weighted_prune(w_hat, h, budget),
    }
    assert run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 30, "--method", method, "--report", paths["report"],
    ) == 0
    report = json.loads(paths["report"].read_text())
    assert report["method"] == library[method]().method == method


def test_prune_report_counts_polish_rounds(tmp_path):
    rng = np.random.default_rng(300)
    h = np.diag(rng.uniform(0.1, 10.0, 32))
    w_hat = rng.standard_normal((32, 16))
    write_matrix(tmp_path / "w.amtx", w_hat)
    write_matrix(tmp_path / "h.amtx", h)
    report_path = tmp_path / "report.json"
    assert run(
        "prune", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        "--k", 153, "--report", report_path,
    ) == 0
    report = json.loads(report_path.read_text())
    expected = admm_solve(h, w_hat, Unstructured(153))
    assert report["polish_rounds"] == expected.polish_rounds >= 1
    assert report["pcg_iters_used"] == expected.pcg_iters_used


def test_report_rel_error_recomputable_from_files(workspace):
    paths, w_hat, _ = workspace
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 40, "--out", paths["out"], "--report", paths["report"],
    )
    report = json.loads(paths["report"].read_text())
    h = read_matrix(paths["gram"])
    recomputed = relative_error(h, read_matrix(paths["weights"]), read_matrix(paths["out"]))
    assert abs(report["rel_error"] - recomputed) <= 1e-9


def test_prune_report_goes_to_stdout_without_flag(workspace, capsys):
    paths, _, _ = workspace
    assert run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"], "--k", 12
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["support_size"] == 12


def test_prune_accepts_activations_directly(workspace):
    paths, _, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--activations", paths["activations"],
        "--sparsity", 0.5, "--report", paths["report"],
    )
    assert code == 0
    assert json.loads(paths["report"].read_text())["support_size"] == 50


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_activation_in_last_block_exits_2(workspace, monkeypatch, capsys, bad):
    # 64 rows of 10 read 10 at a time, since 8 rows would be fewer than the
    # columns: the bad entry is in the seventh block.
    paths, _, _ = workspace
    blob = bytearray(paths["activations"].read_bytes())
    blob[-8:] = struct.pack("<d", bad)
    paths["activations"].write_bytes(bytes(blob))
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 8 * 10 * 8)
    code = run(
        "prune", "--weights", paths["weights"], "--activations", paths["activations"],
        "--k", 30, "--out", paths["out"],
    )
    assert code == 2
    assert capsys.readouterr().err == "error: payload contains non-finite values\n"
    assert not paths["out"].exists()


def test_prune_nm_budget_groups_feasible(workspace):
    paths, _, _ = workspace
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--nm", "2:5", "--out", paths["out"], "--report", paths["report"],
    )
    groups = read_matrix(paths["out"]).reshape(2, 5, 10)
    assert (np.count_nonzero(groups, axis=1) <= 2).all()
    report = json.loads(paths["report"].read_text())
    assert report["budget"] == {"kind": "nm", "n": 2, "m": 5, "sparsity": 0.6}


def test_mp_at_zero_sparsity_is_identity(workspace):
    paths, _, _ = workspace
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--method", "mp", "--sparsity", 0, "--out", paths["out"],
        "--report", paths["report"],
    )
    assert paths["out"].read_bytes() == paths["weights"].read_bytes()


def test_wanda_method_reports_its_label(workspace):
    paths, _, _ = workspace
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--method", "wanda", "--k", 25, "--report", paths["report"],
    )
    report = json.loads(paths["report"].read_text())
    assert report["method"] == "wanda"
    assert report["support_size"] == 25
    assert report["lemma1_violations"] is None  # baselines carry no trace


def test_seeded_runs_reproduce_report_fields(workspace):
    paths, _, _ = workspace
    args = (
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 33, "--report", paths["report"],
    )
    run(*args)
    first = json.loads(paths["report"].read_text())
    run(*args)
    second = json.loads(paths["report"].read_text())
    assert first["objective"] == second["objective"]
    assert first["support_size"] == second["support_size"]


def test_eval_prints_six_decimals(workspace, capsys):
    paths, w_hat, _ = workspace
    zero = paths["weights"].parent / "zero.amtx"
    write_matrix(zero, np.zeros_like(w_hat))

    assert run("eval", "--weights", paths["weights"], "--pruned", paths["weights"],
               "--gram", paths["gram"]) == 0
    assert capsys.readouterr().out == "0.000000\n"

    assert run("eval", "--weights", paths["weights"], "--pruned", zero,
               "--gram", paths["gram"]) == 0
    assert capsys.readouterr().out == "1.000000\n"


def test_eval_matches_in_process_pipeline(workspace, capsys):
    paths, w_hat, _ = workspace
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--sparsity", 0.7, "--out", paths["out"], "--report", paths["report"],
    )
    run("eval", "--weights", paths["weights"], "--pruned", paths["out"],
        "--gram", paths["gram"])
    printed = float(capsys.readouterr().out)
    h = read_matrix(paths["gram"])
    sol = admm_solve(h, w_hat, Unstructured(30))
    assert printed == pytest.approx(sol.rel_error, abs=5e-7)  # print rounds to 6 places


def test_oracle_backsolve_never_hurts(workspace, capsys):
    paths, _, _ = workspace
    mp_out = paths["weights"].parent / "mp.amtx"
    run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--method", "mp", "--k", 30, "--out", mp_out, "--report", paths["report"],
    )
    mp_rel = json.loads(paths["report"].read_text())["rel_error"]
    refined = paths["weights"].parent / "refined.amtx"
    code = run(
        "oracle", "--weights", paths["weights"], "--gram", paths["gram"],
        "--pruned", mp_out, "--out", refined, "--report", paths["report"],
    )
    assert code == 0
    report = json.loads(paths["report"].read_text())
    assert report["method"] == "backsolve"
    assert report["rel_error"] <= mp_rel + 1e-12
    assert np.count_nonzero(read_matrix(refined)) <= 30


def test_oracle_brute_force_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3))
    w_hat = rng.standard_normal((3, 2))
    h = gram_from_activations(x)
    for name, m in [("w", w_hat), ("h", h)]:
        write_matrix(tmp_path / f"{name}.amtx", m)
    code = run(
        "oracle", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        "--brute-k", 3, "--report", tmp_path / "r.json",
    )
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    expected = brute_force_support(h, w_hat, 3)
    assert report["objective"] == pytest.approx(expected.objective, rel=1e-12)
    assert report["method"] == "brute_force"


@pytest.mark.parametrize(
    "mode,k,method", [("--pruned", 4, "backsolve"), ("--brute-k", 3, "brute_force")]
)
def test_oracle_writes_the_prune_report(tmp_path, mode, k, method):
    # k is the support size of the --pruned file, or the --brute-k value.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3))
    w_hat = rng.standard_normal((3, 2))
    pruned = w_hat.copy()
    pruned[[0, 2], [1, 0]] = 0.0
    for name, m in [("w", w_hat), ("h", gram_from_activations(x)), ("p", pruned)]:
        write_matrix(tmp_path / f"{name}.amtx", m)
    value = tmp_path / "p.amtx" if mode == "--pruned" else k
    report_path = tmp_path / "r.json"
    assert run(
        "oracle", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        mode, value, "--report", report_path,
    ) == 0
    report = json.loads(report_path.read_text())
    assert list(report) == REPORT_KEYS
    assert report["method"] == method
    assert report["budget"] == {"kind": "unstructured", "k": k, "sparsity": 1.0 - k / 6}
    assert report["dims"] == [3, 2]
    assert report["lemma1_violations"] is None
    assert report["lemma2_violations"] is None
    assert report["theorem1_ratio"] is None


def run_module(*argv):
    """python -m l0prune in a child process, imported from src/ as the bench runs it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "l0prune", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_exit_status(workspace, tmp_path):
    paths, _, _ = workspace
    zeros = tmp_path / "zeros.amtx"
    write_matrix(zeros, np.zeros((10, 10)))
    source = ("--weights", paths["weights"], "--gram")
    done = run_module("prune", *source, paths["gram"], "--k", 30, "--report", paths["report"])
    assert done.returncode == 0
    assert json.loads(paths["report"].read_text())["support_size"] == 30
    bad_nm = run_module("prune", *source, paths["gram"], "--nm", "2:x")
    assert bad_nm.returncode == 2
    assert bad_nm.stderr == "error: expected N:M like 2:4, got '2:x'\n"
    assert run_module("prune", *source, zeros, "--k", 5).returncode == 3


# --- failure modes ---


def test_conflicting_budget_flags_exit_2(workspace, capsys):
    paths, _, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--sparsity", 0.5, "--k", 10,
    )
    assert code == 2


def test_missing_budget_exits_2(workspace, capsys):
    paths, _, _ = workspace
    assert run("prune", "--weights", paths["weights"], "--gram", paths["gram"]) == 2


def test_both_gram_and_activations_exit_2(workspace, capsys):
    paths, _, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--activations", paths["activations"], "--k", 5,
    )
    assert code == 2


def test_missing_file_exits_2(tmp_path, capsys):
    code = run(
        "prune", "--weights", tmp_path / "absent.amtx",
        "--gram", tmp_path / "also-absent.amtx", "--k", 1,
    )
    assert code == 2


def test_corrupt_file_exits_2(workspace, tmp_path, capsys):
    paths, _, _ = workspace
    blob = paths["weights"].read_bytes()
    nan = struct.pack("<d", math.nan)
    cases = [
        (b"XXXX" + bytes(28), "bad magic b'XXXX'"),
        (blob[:-3], "payload needs 800 bytes, file has 797"),
        (blob[:24] + nan + blob[32:], "payload contains non-finite values"),
    ]
    bad = tmp_path / "bad.amtx"
    for content, message in cases:
        bad.write_bytes(content)
        assert run("prune", "--weights", bad, "--gram", paths["gram"], "--k", 3) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_bad_nm_string_exits_2(workspace, capsys):
    paths, _, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--nm", "2x4",
    )
    assert code == 2


def test_removed_solver_flags_exit_2(workspace, capsys):
    # The starting penalty and the CG cap are constants, not flags: argparse
    # refuses them, even at their old defaults.
    paths, _, _ = workspace
    for flag, value in (("--rho0", "0.1"), ("--pcg-iters", "10")):
        code = run(
            "prune", "--weights", paths["weights"], "--gram", paths["gram"],
            "--k", 30, flag, value,
        )
        assert code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_shared_flags_read_the_same_in_every_help(capsys):
    # prune, eval and oracle declare the weights and the Gram source once,
    # so every --help shows one help text for each.
    helps = {}
    for command in ("prune", "eval", "oracle"):
        assert main([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:", 1)[1]
        # Each "--flag METAVAR help..." entry, its wrapped help joined.
        entries = re.split(r"\n  (?=--)", options)[1:]
        helps[command] = {e.split()[0]: " ".join(e.split()[2:]) for e in entries}
    for flag in ("--weights", "--gram", "--activations"):
        assert helps["prune"][flag]
        assert helps["eval"][flag] == helps["oracle"][flag] == helps["prune"][flag]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_max_iters_exits_2(workspace, capsys, value):
    paths, _, _ = workspace
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 30, "--max-iters", value,
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: max_iters must be a positive integer: {value}\n"


def test_eval_rejects_asymmetric_gram(workspace, tmp_path, capsys):
    paths, _, x = workspace
    h = gram_from_activations(x)
    h[0, 1] += 1.0
    write_matrix(tmp_path / "skew.amtx", h)
    code = run(
        "eval", "--weights", paths["weights"], "--pruned", paths["weights"],
        "--gram", tmp_path / "skew.amtx",
    )
    assert code == 2
    assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["alps", "mp", "wanda"])
def test_prune_checks_the_gram_once(workspace, monkeypatch, method):
    paths, _, _ = workspace
    counts = Counter()
    count_calls(monkeypatch, linalg, "validate_gram", counts)
    code = run(
        "prune", "--weights", paths["weights"], "--gram", paths["gram"],
        "--k", 30, "--method", method, "--out", paths["out"],
        "--report", paths["report"],
    )
    assert code == 0
    assert counts["validate_gram"] == 1


def test_degenerate_instance_exits_3(workspace, tmp_path, capsys):
    paths, _, _ = workspace
    zeros = tmp_path / "zeros.amtx"
    write_matrix(zeros, np.zeros((10, 10)))
    code = run(
        "prune", "--weights", paths["weights"], "--gram", zeros, "--k", 5,
    )
    assert code == 3
    code = run(
        "eval", "--weights", paths["weights"], "--pruned", paths["weights"],
        "--gram", zeros,
    )
    assert code == 3
    # Every weight on a channel at 1e-13 of the largest Gram diagonal.
    dead_gram, dead_weights = tmp_path / "dead_gram.amtx", tmp_path / "dead_w.amtx"
    write_matrix(dead_gram, np.diag([1.0, 1e-13, 2.0]))
    write_matrix(dead_weights, np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]))
    code = run("prune", "--weights", dead_weights, "--gram", dead_gram, "--k", 2)
    assert code == 3


@pytest.mark.parametrize("method", ["alps", "mp", "wanda"])
@pytest.mark.parametrize("c, g, message", BEYOND_FLOAT64)
def test_instance_beyond_float64_exits_3(tmp_path, capsys, method, c, g, message):
    h, w_hat = scale_instance()
    write_matrix(tmp_path / "h.amtx", g * h)
    write_matrix(tmp_path / "w.amtx", c * w_hat)
    code = run(
        "prune", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        "--k", 614, "--method", method,
    )
    assert code == 3
    assert f"{message} float64" in capsys.readouterr().err


def strict_json(text):
    """json.loads refusing Infinity and NaN, which Python writes but JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("method", ["mp", "wanda"])
def test_gap_beyond_float64_exits_3_with_no_report(tmp_path, capsys, method):
    # The energy is in range but the kept weights' gap is 1e310: the run
    # exited 0 and wrote "objective": Infinity, which is not JSON.
    h, w_hat, g, c = gap_overflow_instance()
    for name, (gram, weights) in {"unit": (h, w_hat), "scaled": (g * h, c * w_hat)}.items():
        write_matrix(tmp_path / f"h_{name}.amtx", gram)
        write_matrix(tmp_path / f"w_{name}.amtx", weights)

    def prune(name):
        return run(
            "prune", "--weights", tmp_path / f"w_{name}.amtx", "--gram",
            tmp_path / f"h_{name}.amtx", "--k", 1, "--method", method,
            "--report", tmp_path / f"{name}.json",
        )

    assert prune("scaled") == 3
    assert capsys.readouterr().err == "error: reconstruction gap overflows float64\n"
    assert not (tmp_path / "scaled.json").exists()
    assert prune("unit") == 0
    report = strict_json((tmp_path / "unit.json").read_text())
    assert report["objective"] == 1.0


@pytest.mark.parametrize(
    "diag", [[-1.0] * 10, [1.0, -1.0] + [1.0] * 8], ids=["all", "one"]
)
@pytest.mark.parametrize(
    "command",
    [
        ("prune", "--k", 5, "--method", "alps"),
        ("prune", "--k", 5, "--method", "mp"),
        ("prune", "--k", 5, "--method", "wanda"),
        ("eval", "--pruned"),
        ("oracle", "--pruned"),
    ],
    ids=["alps", "mp", "wanda", "eval", "oracle"],
)
def test_negative_definite_gram_exits_2(workspace, tmp_path, capsys, command, diag):
    # A Gram that is not PSD is invalid input, not a degenerate instance,
    # on every path that reads one.
    paths, w_hat, _ = workspace
    negative = tmp_path / "negative.amtx"
    write_matrix(negative, np.diag(diag))
    if command[-1] == "--pruned":
        write_matrix(paths["out"], np.where(np.abs(w_hat) > 0.5, w_hat, 0.0))
        command += (paths["out"],)
    code = run(*command, "--weights", paths["weights"], "--gram", negative)
    assert code == 2
    assert "not positive semidefinite" in capsys.readouterr().err


def test_indefinite_gram_with_weights_on_dead_channels_exits_2(tmp_path, capsys):
    # Invalid input outranks a degenerate instance: the live block is
    # indefinite, and the only weight sits on the dead channel.
    gram, weights = tmp_path / "h.amtx", tmp_path / "w.amtx"
    write_matrix(gram, np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    write_matrix(weights, np.array([[0.0], [0.0], [1.0]]))
    assert run("prune", "--weights", weights, "--gram", gram, "--k", 1) == 2
    assert "not positive semidefinite" in capsys.readouterr().err


@pytest.mark.parametrize("n,m,n_in", [(1, 3, 9), (3, 7, 21)])
def test_nm_budget_block_sparsity_is_n_over_m(n, m, n_in):
    # Taken from the kept count, it must still be the float 1 - n / m,
    # also where n / m is not a binary fraction.
    block = _budget_block(NM(n, m), (n_in, 4))
    assert list(block.items()) == [("kind", "nm"), ("n", n), ("m", m), ("sparsity", 1 - n / m)]


def test_oracle_brute_force_checks_the_instance_before_k(tmp_path, capsys):
    # 19 inputs are past the oracle's cap even with one column.
    write_matrix(tmp_path / "w.amtx", np.ones((19, 1)))
    write_matrix(tmp_path / "h.amtx", np.eye(19))
    code = run(
        "oracle", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        "--brute-k", -1,
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the oracle's tables would hold 10485779 numbers; the cap is 8388608\n"
    )


def test_oracle_on_a_singular_support_exits_3_naming_the_column(tmp_path):
    # Input channel 2 is dead, so column 1, which keeps row 2, has a
    # singular restricted system. Its minimum-norm optimum holds 0 there,
    # so the answer is the exact solve on the support without row 2.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 4))
    x[:, 2] = 0.0
    h, w_hat = gram_from_activations(x), rng.standard_normal((4, 3))
    pruned = w_hat.copy()
    pruned[2, [0, 2]] = 0.0
    for name, m in [("w", w_hat), ("h", h), ("p", pruned)]:
        write_matrix(tmp_path / f"{name}.amtx", m)
    code = run(
        "oracle", "--weights", tmp_path / "w.amtx", "--gram", tmp_path / "h.amtx",
        "--pruned", tmp_path / "p.amtx", "--out", tmp_path / "out.amtx",
        "--report", tmp_path / "report.json",
    )
    assert code == 0
    out = read_matrix(tmp_path / "out.amtx")
    assert out[2, 1] == 0.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["support_size"], report["budget"]["k"]) == (9, 10)
    live = pruned != 0.0
    live[2] = False
    expected = backsolve_exact(h, w_hat, live)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)
    energy = layer_objective(h, w_hat, np.zeros_like(w_hat))
    assert report["objective"] == pytest.approx(
        layer_objective(h, w_hat, expected), rel=0.0, abs=1e-12 * energy
    )
