from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from l0prune import (
    NM,
    DegenerateInstanceError,
    InvalidInputError,
    Unstructured,
    activation_weighted_prune,
    backsolve_exact,
    brute_force_support,
    gram_from_activations,
    layer_objective,
    magnitude_prune,
    support_of,
)
from l0prune import baselines, linalg
from l0prune.projections import project

from conftest import count_calls, random_problem, scale_instance


# --- backsolve_exact ---


def test_backsolve_identity_gram_masks():
    rng = np.random.default_rng(0)
    w_hat = rng.standard_normal((4, 2))
    support = support_of(magnitude_prune(w_hat, Unstructured(5)).w)
    out = backsolve_exact(np.eye(4), w_hat, support)
    np.testing.assert_allclose(out, np.where(support, w_hat, 0.0), atol=1e-14)


def test_backsolve_diagonal_gram_masks():
    rng = np.random.default_rng(1)
    w_hat = rng.standard_normal((4, 2))
    h = np.diag([3.0, 1.0, 0.5, 2.0])
    support = support_of(magnitude_prune(w_hat, Unstructured(5)).w)
    out = backsolve_exact(h, w_hat, support)
    np.testing.assert_allclose(out, np.where(support, w_hat, 0.0), atol=1e-14)


def test_backsolve_first_order_optimality():
    rng = np.random.default_rng(2)
    h, w_hat = random_problem(rng, 6, 3)
    support = support_of(magnitude_prune(w_hat, Unstructured(9)).w)
    w = backsolve_exact(h, w_hat, support)
    residual = h @ (w - w_hat)
    assert np.abs(residual[support]).max() <= 1e-8 * np.abs(h @ w_hat).max()


def test_backsolve_beats_every_feasible_competitor():
    rng = np.random.default_rng(3)
    h, w_hat = random_problem(rng, 5, 2)
    support = support_of(magnitude_prune(w_hat, Unstructured(6)).w)
    best = layer_objective(h, w_hat, backsolve_exact(h, w_hat, support))
    for _ in range(100):
        candidate = np.where(support, rng.standard_normal(w_hat.shape), 0.0)
        assert best <= layer_objective(h, w_hat, candidate) + 1e-9


def test_backsolve_empty_column_stays_zero():
    w_hat = np.ones((3, 2))
    mask = np.zeros((3, 2), dtype=bool)
    mask[:, 0] = True
    out = backsolve_exact(np.eye(3), w_hat, mask)
    assert not out[:, 1].any()


def test_backsolve_singular_support_names_column():
    # Rank-1 gram, two support rows a column: each restricted system
    # [[1, 1], [1, 1]] w = [2, 2] is singular, and gets its minimum-norm
    # solution [1, 1], an exact optimum.
    h, w_hat = np.ones((2, 2)), np.ones((2, 2))
    out = backsolve_exact(h, w_hat, support_of(w_hat))
    np.testing.assert_allclose(out, np.ones((2, 2)), rtol=1e-15)
    assert layer_objective(h, w_hat, out) == pytest.approx(0.0, abs=1e-15)


def test_backsolve_non_finite_solution_names_column():
    # Column 0's restricted system is 1e-300 w = 1e9: LAPACK solves it
    # without an error, and the true answer, 1e309, overflows to inf.
    h = [[1e-300, 1e-10], [1e-10, 1e280]]
    with pytest.raises(DegenerateInstanceError, match="^an exact weight overflows float64$"):
        backsolve_exact(h, [[0.0], [1e19]], [[True], [False]])


def test_backsolve_shape_mismatch():
    with pytest.raises(InvalidInputError):
        backsolve_exact(np.eye(3), np.ones((4, 1)), support_of(np.ones((4, 1))))


@pytest.mark.parametrize(
    "support",
    [np.ones((3, 2)), np.ones((3, 2), dtype=np.int8), np.ones((2, 3), dtype=bool)],
    ids=["float", "int8", "transposed"],
)
def test_backsolve_support_must_be_boolean_and_shaped_like_weights(support):
    with pytest.raises(InvalidInputError):
        backsolve_exact(np.eye(3), np.ones((3, 2)), support)


@pytest.mark.parametrize("c, g", [(1e307, 1.0), (1e160, 1e300)])
def test_backsolve_rejects_h_w_hat_beyond_float64(c, g):
    # H W_hat overflowed with a warning, and the restricted solve then
    # blamed the support: "singular restricted system in column 0".
    h, w_hat = scale_instance()
    with pytest.raises(DegenerateInstanceError, match="^H W_hat overflows float64$"):
        backsolve_exact(g * h, c * w_hat, np.ones(w_hat.shape, bool))


def test_backsolve_stays_exact_while_h_w_hat_is_finite():
    # It squares nothing: at 1e305 every square overflows, H W_hat does not.
    h, w_hat = scale_instance()
    support = np.ones(w_hat.shape, bool)
    expected = backsolve_exact(h, w_hat, support)
    out = backsolve_exact(h, 1e305 * w_hat, support)
    assert np.linalg.norm(out / 1e305 - expected) <= 1e-13 * np.linalg.norm(expected)


# --- brute_force_support ---


def test_brute_force_two_weights_keeps_larger():
    w_hat = np.array([[1.0], [-2.0]])
    sol = brute_force_support(np.eye(2), w_hat, 1)
    np.testing.assert_array_equal(sol.w, [[0.0], [-2.0]])


def test_brute_force_full_budget_is_exact():
    rng = np.random.default_rng(4)
    h, w_hat = random_problem(rng, 3, 2)
    sol = brute_force_support(h, w_hat, 6)
    assert sol.objective == pytest.approx(0.0, abs=1e-18)
    np.testing.assert_allclose(sol.w, w_hat, atol=1e-8)


def test_brute_force_enumeration_guard():
    # 19 inputs: 2^19 subsets of 19 + 1 numbers each pass the cap alone.
    with pytest.raises(InvalidInputError, match="hold 10485779 numbers; the cap is 8388608$"):
        brute_force_support(np.eye(19), np.ones((19, 1)), 5)


@pytest.mark.parametrize("n_in, n_out", [(18, 13), (16, 109)])
def test_brute_force_cap_bounds_inputs_and_columns(n_in, n_out):
    # The cap is on 2^n_in (n_in + n_out) + n_in n_out^2 table entries: 18
    # inputs take 13 columns and 16 take 109, one more column is refused.
    # k = 1 keeps the run to one stack of n_in one-row systems.
    h = np.eye(n_in)
    assert brute_force_support(h, np.ones((n_in, n_out)), 1).objective >= 0.0
    with pytest.raises(InvalidInputError, match="the cap is 8388608$"):
        brute_force_support(h, np.ones((n_in, n_out + 1)), 1)


def test_brute_force_refuses_a_wide_layer_before_any_table(monkeypatch):
    # A 64x4096 layer would need tables of 2^64 rows. It is refused on its
    # shape, before H W_hat, from which every table is built, is formed.
    def formed(*args):
        raise AssertionError("H W_hat was formed")

    monkeypatch.setattr(baselines, "output_energy", formed)
    with pytest.raises(InvalidInputError, match="the cap is 8388608$"):
        brute_force_support(np.eye(64), np.ones((64, 4096)), 5)


def test_brute_force_answers_a_singular_support_at_minimum_norm():
    # The one two-weight support of one column is singular on a rank-1
    # Gram; its minimum-norm answer splits W_hat's output [3, 3] evenly.
    sol = brute_force_support(np.ones((2, 2)), [[1.0], [2.0]], 2)
    np.testing.assert_allclose(sol.w, [[1.5], [1.5]], rtol=1e-15)
    assert sol.objective == pytest.approx(0.0, abs=1e-15)


def test_brute_force_singular_supports_compete_and_lose():
    # On a rank-1 Gram, a support holding both rows of a column is singular:
    # it is solved at minimum norm and competes, and loses here, since one
    # row a column fits W_hat's output exactly; the tie goes to row 0.
    sol = brute_force_support(np.ones((2, 2)), [[1.0, 0.5], [2.0, -1.0]], 2)
    np.testing.assert_array_equal(sol.support, [[True, True], [False, False]])
    assert sol.objective == 0.0


def test_brute_force_ties_go_to_the_first_support():
    # Under the identity every single kept weight leaves the same objective.
    w_hat = np.array([[1.0, -1.0], [1.0, 1.0]])
    sol = brute_force_support(np.eye(2), w_hat, 1)
    np.testing.assert_array_equal(sol.support, [[True, False], [False, False]])


@pytest.mark.parametrize(
    "n_out, k, support",
    [
        (2, 2, [[True, False], [True, False]]),
        (3, 3, [[True, True, False], [True, False, False]]),
        (3, 4, [[True, True, False], [True, True, False]]),
    ],
)
def test_brute_force_ties_go_to_fewer_weights_in_later_columns(n_out, k, support):
    # Under the identity every kept weight removes 1 from the objective, so
    # every split of k over the columns ties. The last column keeps the
    # fewest it can, then the one before it; in a column the first subset
    # wins.
    sol = brute_force_support(np.eye(2), np.ones((2, n_out)), k)
    np.testing.assert_array_equal(sol.support, support)


def test_brute_force_refuses_when_no_support_of_size_k_is_finite():
    # The subnormal pivot sends the full support's solve to -inf, and that
    # support is the only one of size 2; one kept weight is answered.
    b = -2.3522790860298037e-56
    h = [[1.85635e-319, b], [b, 2.9806924342196126e207]]
    w_hat = [[1.3125326846365033e-07], [2.7221307833061195e48]]
    assert brute_force_support(h, w_hat, 1).support[:, 0].tolist() == [False, True]
    with pytest.raises(DegenerateInstanceError, match="^no candidate support has a finite"):
        brute_force_support(h, w_hat, 2)


def test_brute_force_ranks_non_finite_table_entries_without_a_warning():
    # Subnormal pivots make some stacked solves inf or NaN, and their
    # objectives inf - inf; those entries lose, silently, as the whole-layer
    # search's did. The answer is that search's.
    h = np.diag([28.136768943804903, 2.1274337067673904e-281, 4.257049e-317])
    h[0, 2] = h[2, 0] = 3.3125518780950846e-158
    w_hat = [
        [-1.5422125413373133e65, -1.8806033296442246e133],
        [6.661897937986914e-14, 4.5428271739455415e61],
        [1.9927724682133455e-137, -2.4004783522337655e-36],
    ]
    sol = brute_force_support(h, w_hat, 2)
    np.testing.assert_array_equal(sol.support, [[True, True], [False, False], [False, False]])
    assert sol.objective == pytest.approx(4.390444239112974e-158, rel=1e-12)


def test_brute_force_checks_its_inputs_once(monkeypatch):
    # 15 restricted systems in four stacks, but the instance is checked once:
    # W_hat and the Gram (inside validate_gram); the answer is built, not checked.
    counts = Counter()
    for name in ("validate_gram", "as_matrix"):
        count_calls(monkeypatch, linalg, name, counts)
    h, w_hat = random_problem(np.random.default_rng(9), 4, 3)
    brute_force_support(h, w_hat, 5)
    assert counts == {"validate_gram": 1, "as_matrix": 2}


def enumerable_instance(seed):
    """A (gram, dense weights, k) of at most 15 weights, from one seed.

    Rank-deficient (fewer activation rows than inputs) on an even seed,
    with dead channels (zero activation columns) on an odd one.
    """
    rng = np.random.default_rng(seed)
    n_in, n_out = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    rows = int(rng.integers(1, n_in)) if seed % 2 == 0 else 2 * n_in
    x = rng.standard_normal((rows, n_in))
    if seed % 2 == 1:
        x[:, rng.choice(n_in, int(rng.integers(1, n_in)), replace=False)] = 0.0
    w_hat = rng.standard_normal((n_in, n_out))
    return gram_from_activations(x), w_hat, int(rng.integers(1, n_in * n_out + 1))


def enumerated_optimum(h, w_hat, k, solve):
    """The least objective over the size-k supports whose columns all solve, and its support.

    Enumerates every support of the whole layer and solves each of its
    columns anew, independently of the oracle's per-column tables.
    solve(sub, rhs) is one restricted solve; a support where it raises
    LinAlgError is skipped. Ties go to the first support in lexicographic
    order of the row-major weight index. None when every support is skipped.
    """
    n_in, n_out = w_hat.shape
    g = h @ w_hat
    best = None
    for kept in combinations(range(n_in * n_out), k):
        mask = np.zeros(n_in * n_out, dtype=bool)
        mask[list(kept)] = True
        mask = mask.reshape(n_in, n_out)
        w = np.zeros_like(w_hat)
        try:
            for j in range(n_out):
                rows = np.flatnonzero(mask[:, j])
                if rows.size:
                    w[rows, j] = solve(h[np.ix_(rows, rows)], g[rows, j])
        except np.linalg.LinAlgError:
            continue
        objective = layer_objective(h, w_hat, w)
        if best is None or objective < best[0]:
            best = (objective, mask)
    return best


def minimum_norm(sub, rhs):
    return np.linalg.lstsq(sub, rhs, rcond=None)[0]


def test_brute_force_matches_the_layer_enumeration():
    # Acceptance test 3's 50 instances: full rank, so no support ties.
    for i in range(50):
        rng = np.random.default_rng(500 + i)
        x = rng.standard_normal((32, 3))
        h = x.T @ x
        h, w_hat, k = (h + h.T) / 2.0, rng.standard_normal((3, 4)), 2 + i % 5
        sol = brute_force_support(h, w_hat, k)
        objective, support = enumerated_optimum(h, w_hat, k, np.linalg.solve)
        np.testing.assert_array_equal(sol.support, support)
        tol = 1e-12 * layer_objective(h, w_hat, np.zeros_like(w_hat))
        assert sol.objective == pytest.approx(objective, rel=0.0, abs=tol)


def test_brute_force_matches_the_layer_enumeration_on_degenerate_instances():
    # Rank-deficient and dead-channel layers, where many restricted systems
    # are singular and solved at minimum norm, some in a stack with regular
    # ones; tied supports abound, so only the objectives are compared.
    for seed in range(300):
        h, w_hat, k = enumerable_instance(seed)
        objective = enumerated_optimum(h, w_hat, k, minimum_norm)[0]
        tol = 1e-11 * layer_objective(h, w_hat, np.zeros_like(w_hat))
        assert brute_force_support(h, w_hat, k).objective == pytest.approx(
            objective, rel=0.0, abs=tol
        ), seed


def test_brute_force_solves_only_the_singular_members_by_lstsq(monkeypatch):
    # A dead input makes every restricted Gram that holds it singular, so
    # every stack raises; lstsq then runs once per subset holding it,
    # 2^4 of the 2^5 - 1, and each stack's regular members are solved as one.
    h, w_hat = random_problem(np.random.default_rng(3), 5, 3)
    h[2, :] = h[:, 2] = 0.0
    counts = Counter()
    count_calls(monkeypatch, np.linalg, "lstsq", counts)
    sol = brute_force_support(h, w_hat, 6)
    assert counts == {"lstsq": 2**4}
    objective = enumerated_optimum(h, w_hat, 6, minimum_norm)[0]
    tol = 1e-12 * layer_objective(h, w_hat, np.zeros_like(w_hat))
    assert sol.objective == pytest.approx(objective, rel=0.0, abs=tol)
    assert not sol.w[2].any()


# Seeds of enumerable_instance. On 18 (rank-deficient) and 43 (dead channels)
# every size-k support is singular, and the search once raised; on 0 and 31
# some are not. Out of seeds 0-299, 103 were of the first kind.
@pytest.mark.parametrize("seed", [18, 43, 0, 31])
def test_brute_force_answers_degenerate_instances(seed):
    h, w_hat, k = enumerable_instance(seed)
    sol = brute_force_support(h, w_hat, k)
    assert np.count_nonzero(sol.w) <= k
    tol = 1e-12 * layer_objective(h, w_hat, np.zeros_like(w_hat))
    minimum_norm_optimum = enumerated_optimum(h, w_hat, k, minimum_norm)[0]
    assert sol.objective == pytest.approx(minimum_norm_optimum, rel=0.0, abs=tol)
    # Where some support is nonsingular, skipping the singular ones loses nothing.
    nonsingular = enumerated_optimum(h, w_hat, k, np.linalg.solve)
    if seed in (18, 43):
        assert nonsingular is None
    else:
        assert sol.objective == pytest.approx(nonsingular[0], rel=0.0, abs=tol)


def test_brute_force_lower_bounds_baselines():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        h, w_hat = random_problem(rng, 3, 2)
        optimum = brute_force_support(h, w_hat, 3).objective
        mp = magnitude_prune(w_hat, Unstructured(3), gram=h).objective
        aw = activation_weighted_prune(w_hat, h, Unstructured(3)).objective
        assert optimum <= mp + 1e-9
        assert optimum <= aw + 1e-9


# --- magnitude_prune ---


def test_magnitude_full_budget_returns_input():
    rng = np.random.default_rng(6)
    w_hat = rng.standard_normal((3, 3))
    np.testing.assert_array_equal(magnitude_prune(w_hat, Unstructured(9)).w, w_hat)


def test_magnitude_zero_budget():
    assert not magnitude_prune(np.ones((2, 2)), Unstructured(0)).w.any()


def test_magnitude_objective_is_dropped_mass_under_identity():
    rng = np.random.default_rng(7)
    w_hat = rng.standard_normal((4, 3))
    sol = magnitude_prune(w_hat, Unstructured(7), gram=np.eye(4))
    dropped = w_hat[~sol.support]
    assert sol.objective == pytest.approx(float(np.sum(dropped**2)), rel=1e-12)


def test_magnitude_without_gram_has_no_metrics():
    sol = magnitude_prune(np.ones((2, 2)), Unstructured(2))
    assert sol.objective is None and sol.rel_error is None


def test_magnitude_nm_budget_feasible():
    rng = np.random.default_rng(8)
    sol = magnitude_prune(rng.standard_normal((8, 3)), NM(2, 4))
    groups = sol.w.reshape(2, 4, 3)
    assert (np.count_nonzero(groups, axis=1) <= 2).all()


@given(st.integers(0, 2**31 - 1), st.integers(0, 24), st.integers(1, 4))
def test_magnitude_equals_projection(seed, k, n):
    # Integer-valued entries make magnitude ties common.
    w_hat = np.random.default_rng(seed).integers(-3, 4, size=(8, 3)).astype(float)
    for budget in (Unstructured(k), NM(n, 4)):
        np.testing.assert_array_equal(
            magnitude_prune(w_hat, budget).w, project(w_hat, budget)
        )


@pytest.mark.parametrize(
    "gram",
    [np.eye(3, 4), np.triu(np.ones((3, 3))), np.eye(4)],
    ids=["non_square", "asymmetric", "non_conforming"],
)
def test_magnitude_rejects_malformed_gram(gram):
    with pytest.raises(InvalidInputError):
        magnitude_prune(np.ones((3, 2)), Unstructured(2), gram=gram)


# --- activation_weighted_prune ---


@pytest.mark.parametrize(
    "n_in,budget", [(5, Unstructured(7)), (8, NM(2, 4))], ids=["unstructured", "nm24"]
)
def test_activation_weighted_equals_magnitude_under_identity(n_in, budget):
    rng = np.random.default_rng(9)
    w_hat = rng.standard_normal((n_in, 3))
    aw = activation_weighted_prune(w_hat, np.eye(n_in), budget)
    mp = magnitude_prune(w_hat, budget)
    np.testing.assert_array_equal(aw.support, mp.support)


def test_activation_weighted_prefers_loud_channel():
    h = np.diag([100.0, 1.0])
    w_hat = np.array([[1.0], [5.0]])
    sol = activation_weighted_prune(w_hat, h, Unstructured(1))
    np.testing.assert_array_equal(sol.w, [[1.0], [0.0]])


def test_activation_weighted_matches_score_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((30, 6))
    h = x.T @ x
    h = (h + h.T) / 2.0
    w_hat = rng.standard_normal((6, 4))
    scores = np.abs(w_hat) * np.linalg.norm(x, axis=0)[:, None]
    k = 10
    expected = set(map(tuple, np.argwhere(scores >= np.sort(scores, axis=None)[-k])))
    sol = activation_weighted_prune(w_hat, h, Unstructured(k))
    got = set(map(tuple, np.argwhere(sol.support)))
    assert got == expected


@pytest.mark.parametrize("c, g", [(1e154, 1.0), (1.0, 1e305)])
def test_activation_weighted_rejects_an_energy_beyond_float64(c, g):
    # Its rel_error divided by an energy that overflowed: NaN, silently.
    # The kept weights' gap overflows too, and is checked first.
    h, w_hat = scale_instance()
    with pytest.raises(DegenerateInstanceError, match="reconstruction gap overflows float64"):
        activation_weighted_prune(c * w_hat, g * h, Unstructured(614))


def test_brute_force_rejects_an_energy_beyond_float64():
    # Every candidate's objective overflowed, so none was kept and the
    # search blamed singular supports.
    h, w_hat = random_problem(np.random.default_rng(3), 4, 4)
    with pytest.raises(
        DegenerateInstanceError, match="energy of the dense weights overflows float64"
    ):
        brute_force_support(h, 1e154 * w_hat, 6)
    # At 1e-200 the energy underflows to 0.0; the error blamed the weights.
    with pytest.raises(DegenerateInstanceError, match="energy of the dense weights underflows"):
        brute_force_support(h, 1e-200 * w_hat, 6)


def test_solutions_respect_budget_and_recompute():
    rng = np.random.default_rng(11)
    h, w_hat = random_problem(rng, 6, 3)
    for sol in (
        magnitude_prune(w_hat, Unstructured(8), gram=h),
        activation_weighted_prune(w_hat, h, Unstructured(8)),
        brute_force_support(h[:3, :3], w_hat[:3, :2], 3),
    ):
        assert np.count_nonzero(sol.support) <= 8
        assert np.array_equal(sol.w != 0, sol.support)
        recomputed = layer_objective(h[: sol.w.shape[0], : sol.w.shape[0]],
                                     w_hat[: sol.w.shape[0], : sol.w.shape[1]],
                                     sol.w)
        assert sol.objective == pytest.approx(recomputed, rel=1e-9, abs=1e-12)
        # No trace, so no convergence verdicts.
        assert sol.trace is sol.lemma1_violations is sol.lemma2_violations is None
        assert sol.theorem1_bound is None
