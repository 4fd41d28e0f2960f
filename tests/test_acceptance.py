"""End-to-end acceptance runs.

Eight checks covering solver quality, oracle agreement, structured
budgets, file round trips, runtime theory verification, and speed. Each
test prints a single PASS/FAIL verdict line on the real stdout so the
verdicts survive pytest's capture, then asserts on the same condition.
The quality suites double as the trace source for the theory checks, so
their solver runs are shared through module fixtures.
"""

import json
import time

import numpy as np
import pytest

import l0prune as lp
from l0prune.admm import preprocess
from l0prune.cli import main as cli_main
from l0prune.projections import project

from conftest import correlated_activations, random_problem


@pytest.fixture
def announce(capsys):
    """Verdict printer that punches through pytest's output capture."""

    def emit(index, name, ok, detail):
        line = f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        return line

    return emit


def tracked_solve(h, w_hat, budget, runs, cfg=lp.AdmmConfig()):
    """Solve and remember what the theory checks need later."""
    sol = lp.admm_solve(h, w_hat, budget, cfg)
    runs.append(
        {
            "trace": sol.trace,
            "stabilized": sol.stabilized,
            "rho0": cfg.rho0,
            "rho_final": sol.rho_final,
            "scaled_w_norm": float(np.linalg.norm(preprocess(h, w_hat).w_hat)),
        }
    )
    return sol


@pytest.fixture(scope="module")
def support_quality_runs():
    """50 correlated 64x32 instances at four sparsities, vs magnitude pruning."""
    runs = []
    comparisons = []
    gaps_at_07 = []
    start = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        x = correlated_activations(rng, 256, 64, cond=100.0)
        h = x.T @ x
        h = (h + h.T) / 2.0
        w_hat = rng.standard_normal((64, 32))
        for s in (0.5, 0.6, 0.7, 0.8):
            budget = lp.budget_from_sparsity(s, 64, 32)
            sol = tracked_solve(h, w_hat, budget, runs)
            alps_rel = lp.relative_error(
                h, w_hat, lp.backsolve_exact(h, w_hat, sol.support)
            )
            mp_support = lp.magnitude_prune(w_hat, budget).support
            mp_rel = lp.relative_error(
                h, w_hat, lp.backsolve_exact(h, w_hat, mp_support)
            )
            comparisons.append(alps_rel <= mp_rel)
            if s == 0.7:
                gaps_at_07.append((mp_rel - alps_rel) / mp_rel)
    return {
        "runs": runs,
        "comparisons": comparisons,
        "gaps_at_07": gaps_at_07,
        "elapsed": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def small_instance_runs():
    """50 enumerable 3x4 instances solved against the exhaustive oracle."""
    runs = []
    results = []
    start = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        x = rng.standard_normal((32, 3))
        h = x.T @ x
        h = (h + h.T) / 2.0
        w_hat = rng.standard_normal((3, 4))
        k = 2 + i % 5
        optimum = lp.brute_force_support(h, w_hat, k).objective
        sol = tracked_solve(h, w_hat, lp.Unstructured(k), runs)
        results.append((sol.objective, optimum))
    return {"runs": runs, "results": results, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def identity_gram_runs():
    """20 standard-normal weight matrices against the identity Gram."""
    runs = []
    gaps = []
    h = np.eye(32)
    k = lp.budget_from_sparsity(0.7, 32, 16).k
    for i in range(20):
        rng = np.random.default_rng(700 + i)
        w_hat = rng.standard_normal((32, 16))
        sol = tracked_solve(h, w_hat, lp.Unstructured(k), runs)
        truncation = lp.magnitude_prune(w_hat, lp.Unstructured(k), gram=h).objective
        gaps.append(abs(sol.objective - truncation) / truncation)
    return {"runs": runs, "gaps": gaps}


def test_1_support_quality_ordering(support_quality_runs, announce):
    """The solver's supports must beat magnitude supports after both are backsolved."""
    comparisons = support_quality_runs["comparisons"]
    gaps = support_quality_runs["gaps_at_07"]
    elapsed = support_quality_runs["elapsed"]
    win_rate = sum(comparisons) / len(comparisons)
    mean_gap = float(np.mean(gaps))
    ok = win_rate >= 0.90 and mean_gap >= 0.10 and elapsed <= 300.0
    line = announce(
        1,
        "support-quality",
        ok,
        f"wins {sum(comparisons)}/{len(comparisons)}, "
        f"mean gap at 0.7 sparsity {100 * mean_gap:.1f}%, {elapsed:.1f}s",
    )
    assert ok, line


def test_2_pcg_matches_backsolve(announce):
    """Iterative refinement agrees with the exact restricted solver."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(900 + i)
        n_in = int(rng.integers(8, 65))
        n_out = int(rng.integers(2, 17))
        h, w_hat = random_problem(rng, n_in, n_out)
        budget = lp.budget_from_sparsity(float(rng.uniform(0.5, 0.8)), n_in, n_out)
        support = lp.magnitude_prune(w_hat, budget).support
        exact = lp.backsolve_exact(h, w_hat, support)
        refined = lp.pcg_refine(
            h, w_hat, support, np.zeros_like(w_hat), max_iters=6 * n_in,
        )
        worst = max(
            worst,
            float(np.linalg.norm(refined - exact) / np.linalg.norm(exact)),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    line = announce(
        2, "pcg-vs-backsolve", ok,
        f"worst relative difference {worst:.2e} over 20 instances, {elapsed:.1f}s",
    )
    assert ok, line


def test_3_near_optimality_on_enumerable_instances(small_instance_runs, announce):
    """Within 1.10x of the exhaustive optimum on most tiny instances, never below it."""
    results = small_instance_runs["results"]
    elapsed = small_instance_runs["elapsed"]
    below = [obj for obj, opt in results if obj < opt - 1e-9]
    within = sum(obj <= 1.10 * opt + 1e-12 for obj, opt in results)
    ok = not below and within >= 0.80 * len(results) and elapsed <= 60.0
    line = announce(
        3, "near-optimality", ok,
        f"{within}/{len(results)} within 1.10x, {len(below)} below optimum, {elapsed:.1f}s",
    )
    assert ok, line


def test_4_identity_gram_exactness(identity_gram_runs, announce):
    """For an identity Gram the solver should land on the top-k truncation."""
    gaps = identity_gram_runs["gaps"]
    worst = max(gaps)
    exact = sum(g <= 1e-8 for g in gaps)
    ok = exact == len(gaps)
    line = announce(
        4, "identity-gram-exactness", ok,
        f"{exact}/{len(gaps)} within 1e-8 of truncation, worst relative gap {worst:.2e}",
    )
    assert ok, line


def test_5_theory_suite(
    support_quality_runs, small_instance_runs, identity_gram_runs, announce
):
    """Every recorded solve satisfies the dual-growth, norm-product, and
    residual-decay inequalities; stabilized runs with large penalty growth
    must also close the dense-sparse gap."""
    all_runs = (
        support_quality_runs["runs"]
        + small_instance_runs["runs"]
        + identity_gram_runs["runs"]
    )
    lemma1 = lemma2 = 0
    worst_ratio = 0.0
    gap_checked = 0
    gap_failed = 0
    for run in all_runs:
        trace = run["trace"]
        lemma1 += len(lp.check_lemma1(trace))
        lemma2 += len(lp.check_lemma2(trace))
        bound = lp.theorem1_residual_bound(trace)
        worst_ratio = max(worst_ratio, bound.worst_ratio)
        if run["stabilized"] and run["rho_final"] >= 1000.0 * run["rho0"]:
            gap_checked += 1
            final_gap = trace.records[-1].wd_gap
            if final_gap > 1e-6 * run["scaled_w_norm"]:
                gap_failed += 1
    ok = lemma1 == 0 and lemma2 == 0 and worst_ratio <= 1.0 + 1e-6 and gap_failed == 0
    line = announce(
        5, "theory-suite", ok,
        f"{len(all_runs)} traces, lemma violations {lemma1}+{lemma2}, "
        f"worst residual ratio {worst_ratio:.2e}, "
        f"gap check on {gap_checked} high-penalty runs ({gap_failed} failed)",
    )
    assert ok, line


def test_6_nm_correctness(tmp_path, announce):
    """Group projection matches a per-group oracle; solver output stays 2:4."""
    rng = np.random.default_rng(60)
    bad_groups = 0
    for _ in range(1000):
        m = int(rng.choice([2, 4, 8]))
        n = int(rng.integers(1, m + 1))
        group = rng.standard_normal((m, 1))
        out = project(group, lp.NM(n, m))
        order = np.argsort(-np.abs(group[:, 0]), kind="stable")[:n]
        expected = np.zeros((m, 1))
        expected[order, 0] = group[order, 0]
        if not np.array_equal(out, expected):
            bad_groups += 1

    x = correlated_activations(rng, 64, 16)
    w_hat = rng.standard_normal((16, 8))
    lp.write_matrix(tmp_path / "w.amtx", w_hat)
    lp.write_matrix(tmp_path / "x.amtx", x)
    code = cli_main(
        [
            "prune", "--weights", str(tmp_path / "w.amtx"),
            "--activations", str(tmp_path / "x.amtx"),
            "--nm", "2:4", "--out", str(tmp_path / "pruned.amtx"),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    pruned = lp.read_matrix(tmp_path / "pruned.amtx")
    group_counts = np.count_nonzero(pruned.reshape(4, 4, 8), axis=1)
    feasible = bool((group_counts <= 2).all())
    ok = bad_groups == 0 and code == 0 and feasible
    line = announce(
        6, "nm-correctness", ok,
        f"{1000 - bad_groups}/1000 oracle groups exact, "
        f"emitted 2:4 file feasible={feasible}",
    )
    assert ok, line


def test_7_io_round_trip(tmp_path, announce):
    """Bit-exact persistence, and the file pipeline reproduces in-process numbers."""
    rng = np.random.default_rng(70)
    exact = 0
    for _ in range(1000):
        m = rng.standard_normal((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
        m *= 10.0 ** rng.integers(-250, 250)
        lp.write_matrix(tmp_path / "rt.amtx", m)
        if lp.read_matrix(tmp_path / "rt.amtx").tobytes() == m.tobytes():
            exact += 1

    x = correlated_activations(rng, 128, 12)
    w_hat = rng.standard_normal((12, 6))
    lp.write_matrix(tmp_path / "w.amtx", w_hat)
    lp.write_matrix(tmp_path / "x.amtx", x)
    gram_code = cli_main(
        ["gram", "--activations", str(tmp_path / "x.amtx"),
         "--out", str(tmp_path / "h.amtx")]
    )
    prune_code = cli_main(
        [
            "prune", "--weights", str(tmp_path / "w.amtx"),
            "--gram", str(tmp_path / "h.amtx"), "--sparsity", "0.7",
            "--out", str(tmp_path / "pruned.amtx"),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    report = json.loads((tmp_path / "report.json").read_text())
    h = lp.gram_from_activations(x)
    in_process = lp.admm_solve(h, w_hat, lp.budget_from_sparsity(0.7, 12, 6))
    drift = abs(report["rel_error"] - in_process.rel_error)

    file_rel = lp.relative_error(
        lp.read_matrix(tmp_path / "h.amtx"),
        lp.read_matrix(tmp_path / "w.amtx"),
        lp.read_matrix(tmp_path / "pruned.amtx"),
    )
    eval_drift = abs(file_rel - in_process.rel_error)

    ok = (
        exact == 1000
        and gram_code == 0
        and prune_code == 0
        and drift <= 1e-10
        and eval_drift <= 1e-10
    )
    line = announce(
        7, "io-round-trip", ok,
        f"{exact}/1000 bit-identical round trips, "
        f"pipeline drift {max(drift, eval_drift):.1e}",
    )
    assert ok, line


def test_8_performance_sanity(announce):
    """A 512x512 solve finishes quickly and refinement outruns the backsolve."""
    rng = np.random.default_rng(80)
    x = correlated_activations(rng, 1024, 512, cond=100.0)
    h = x.T @ x
    h = (h + h.T) / 2.0
    w_hat = rng.standard_normal((512, 512))
    budget = lp.budget_from_sparsity(0.7, 512, 512)

    start = time.perf_counter()
    sol = lp.admm_solve(h, w_hat, budget)
    solve_seconds = time.perf_counter() - start

    w0 = np.where(sol.support, w_hat, 0.0)
    backsolve_time = min(
        _timed(lambda: lp.backsolve_exact(h, w_hat, sol.support)) for _ in range(3)
    )
    pcg_time = min(
        _timed(lambda: lp.pcg_refine(h, w_hat, sol.support, w0)) for _ in range(3)
    )
    speedup = backsolve_time / pcg_time
    ok = solve_seconds <= 60.0 and speedup >= 10.0
    line = announce(
        8, "performance", ok,
        f"solve {solve_seconds:.1f}s, backsolve {1000 * backsolve_time:.0f}ms, "
        f"refinement {1000 * pcg_time:.0f}ms, speedup {speedup:.1f}x",
    )
    assert ok, line


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
