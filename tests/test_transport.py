import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from otsc import transport
from oracles import (
    brute_force_assignment_cost,
    brute_force_transport,
    checked_scale,
    exact_ot_oracle,
    mask_off_diagonal,
    plan_of,
    plan_residuals,
    reference_algorithm1,
    reference_sinkhorn_kernel,
    reference_sinkhorn_log,
    scaling_plan,
    transport_cost,
    unit_rows,
)
from otsc.errors import NumericalError
from otsc.transport import _scale, sinkhorn_algorithm1, sinkhorn_marginal


class TestAlgorithm1:
    def test_uniform_logits_give_uniform_plan(self):
        plan = sinkhorn_algorithm1(np.zeros((4, 3)), eta=0.7, iterations=3).plan
        assert np.abs(plan - 1.0 / 3.0).max() <= 1e-12

    def test_strong_diagonal_recovers_permutation(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        plan = sinkhorn_algorithm1(logits, eta=0.05, iterations=5).plan
        want = exact_ot_oracle(-logits, np.ones(2), np.ones(2))
        assert np.abs(want - np.eye(2)).max() == 0.0
        assert np.abs(plan - want).max() <= 1e-6

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        plan = sinkhorn_algorithm1(rng.normal(size=(7, 5)), eta=0.3, iterations=4).plan
        assert np.abs(plan.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        a = sinkhorn_algorithm1(logits, eta=0.2, iterations=6).plan
        b = sinkhorn_algorithm1(logits + 17.25, eta=0.2, iterations=6).plan
        assert np.abs(a - b).max() <= 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 5))
        a = sinkhorn_algorithm1(logits, eta=0.05, iterations=5)
        b = sinkhorn_algorithm1(logits, eta=0.05, iterations=5)
        for got, want in zip(a.factors, b.factors):
            assert got.tobytes() == want.tobytes()

    def test_underflow_reports_eta_and_index(self):
        logits = np.array([[0.0, 2000.0], [0.0, 2000.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_algorithm1(logits, eta=1.0, iterations=2)
        assert str(exc.value) == "column 0 sum underflowed to 0 during Sinkhorn scaling (eta=1.0)"

    def test_row_underflow_reports_axis_index_and_eta(self):
        logits = np.array([[0.0, 0.0], [-2000.0, -2000.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_algorithm1(logits, eta=1.0, iterations=2)
        assert str(exc.value) == "row 1 sum underflowed to 0 during Sinkhorn scaling (eta=1.0)"

    def test_subnormal_column_sum_is_an_underflow(self):
        # exp(-711) is subnormal and so is the column sum; its reciprocal
        # overflows, which must surface as underflow, not as a bad plan
        logits = np.array([[0.0, -711.0], [0.0, -711.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_algorithm1(logits, eta=1.0, iterations=2)
        assert str(exc.value) == "column 1 sum underflowed to 0 during Sinkhorn scaling (eta=1.0)"

    @pytest.mark.parametrize("eta, entry", [(1e-3, 1e306), (0.05, 1e308)])
    def test_overflowing_quotient_is_refused_naming_its_entry(self, eta, entry):
        logits = np.array([[0.0, entry], [-1.0, 0.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_algorithm1(logits, eta, 5)
        assert str(exc.value) == f"entry [0, 1] overflowed dividing by eta (eta={eta})"

    # sinkhorn_algorithm1 trusts eta and iterations: TrainConfig and otsc
    # ot-debug check them (BAD_INPUTS in tests/test_cli.py)
    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_refuses_non_finite_eta(self, eta):
        with pytest.raises(ValueError, match=f"^eta must be finite, got {eta}$"):
            sinkhorn_marginal(np.zeros((2, 2)), np.ones(2), np.ones(2), eta)

    def test_out_form_bitwise_equal_and_kernel_is_out(self):
        logits = np.random.default_rng(5).normal(size=(6, 5))
        want = sinkhorn_algorithm1(logits, 0.3, 4)
        out = np.full(logits.shape, np.nan)
        got = sinkhorn_algorithm1(logits, 0.3, 4, out=out)
        assert got.factors[0] is out
        for a, b in zip(got.factors, want.factors):
            assert a.tobytes() == b.tobytes()
        assert got.row_marginal_residual == want.row_marginal_residual
        assert got.col_marginal_residual == want.col_marginal_residual


class TestFactoredResiduals:
    """Both solvers measure their residuals on their factors, the fitted
    side from the loop's last product and the other by one more; they must
    be those of the dense plan `oracles.reference_algorithm1` builds, or of
    the plan `SinkhornTarget.plan` forms."""

    @staticmethod
    def assignment_logits(rng, b):
        # embeddings bunched near the first of two prototypes: five sweeps
        # leave the column masses far from b / 2
        z = np.column_stack([np.ones(b), 0.3 * rng.normal(size=b)])
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        return z @ np.array([[1.0, 0.0], [0.6, 0.8]]).T

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    @pytest.mark.parametrize(
        "kind", ["random 7x5", "masked affinity 100x100", "bunched assignment 1024x2"]
    )
    def test_match_the_reference_plan(self, kind, iterations):
        rng = np.random.default_rng(14)
        if kind == "random 7x5":
            logits = rng.normal(size=(7, 5))
        elif kind == "masked affinity 100x100":
            z = unit_rows(rng, 100, 4)
            logits = z @ z.T
            np.fill_diagonal(logits, -np.inf)
        else:
            logits = self.assignment_logits(rng, 1024)
        m, n = logits.shape
        got = sinkhorn_algorithm1(logits, 0.05, iterations)
        row, col = plan_residuals(reference_algorithm1(logits, 0.05, iterations), 1.0, m / n)
        assert got.iterations_used == iterations
        assert got.row_marginal_residual <= 1e-15 and row <= 1e-15
        assert abs(got.col_marginal_residual - col) <= 1e-12 * max(col, 1.0)

    def test_a_large_column_residual_is_reported_as_computed(self):
        logits = self.assignment_logits(np.random.default_rng(14), 1024)
        got = sinkhorn_algorithm1(logits, 0.05, 5)
        _, col = plan_residuals(reference_algorithm1(logits, 0.05, 5), 1.0, 512.0)
        assert got.col_marginal_residual > 50.0
        assert abs(got.col_marginal_residual - col) <= 1e-12 * col

    @pytest.mark.parametrize(
        "kind", ["line 8x8 converged", "cloud 256x256 converged", "random 32x20 after 3 sweeps"]
    )
    def test_marginal_residuals_match_the_formed_plan(self, kind):
        rng = np.random.default_rng(15)
        if kind == "line 8x8 converged":
            x, y = np.sort(rng.random(8)), np.sort(rng.random(8))
            cost, eta, max_iter = 0.1 * (x[:, None] - y[None, :]) ** 2, 1e-3, 10_000
        elif kind == "cloud 256x256 converged":
            x, y = rng.random((256, 2)), rng.random((256, 2))
            cost, eta, max_iter = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2), 0.02, 10_000
        else:
            cost, eta, max_iter = rng.random((32, 20)), 0.05, 3
        r, c = _marginals(rng, *cost.shape)
        got, _ = sinkhorn_marginal(cost, r, c, eta, tol=1e-9, max_iter=max_iter)
        row, col = plan_residuals(got.plan, r, c)
        assert abs(got.row_marginal_residual - row) <= 1e-14
        assert abs(got.col_marginal_residual - col) <= 1e-14
        if max_iter == 3:  # reported as computed, not clipped to tol
            assert got.iterations_used == 3 and got.row_marginal_residual > 1e-3


class TestMarginalVariant:
    def test_constant_cost_gives_product_plan(self):
        r = np.array([1.0, 2.0, 1.0])
        c = np.array([2.0, 2.0])
        plan, _ = sinkhorn_marginal(np.full((3, 2), 3.5), r, c, eta=0.4, tol=1e-12)
        want = np.outer(r, c) / r.sum()
        assert np.abs(plan.plan - want).max() <= 1e-10

    def test_converges_to_requested_tolerance(self):
        rng = np.random.default_rng(3)
        cost = rng.random((32, 32))
        plan, _ = sinkhorn_marginal(cost, np.ones(32), np.ones(32), eta=0.05, tol=1e-8)
        assert plan.row_marginal_residual <= 1e-8
        assert plan.col_marginal_residual <= 1e-8

    def test_matches_exact_oracle_at_small_eta(self):
        rng = np.random.default_rng(4)
        cost = rng.random((3, 3))
        plan, _ = sinkhorn_marginal(
            cost, np.ones(3), np.ones(3), eta=0.002, tol=1e-10, max_iter=5000
        )
        oracle = exact_ot_oracle(cost, np.ones(3), np.ones(3))
        assert transport_cost(plan.plan, cost) <= 1.01 * transport_cost(oracle, cost) + 1e-12

    def test_state_reconstructs_plan(self):
        rng = np.random.default_rng(5)
        cost = rng.random((6, 4))
        r = np.full(6, 2.0)
        c = np.full(4, 3.0)
        for eta in (0.5, 0.05, 0.002):
            plan, (log_alpha, log_beta) = sinkhorn_marginal(
                cost, r, c, eta=eta, tol=1e-12, max_iter=20000
            )
            rebuilt = scaling_plan(log_alpha, log_beta, cost, eta)
            assert np.abs(rebuilt - plan.plan).max() <= 1e-10
            assert (np.exp(log_alpha) > 0).all() and (np.exp(log_beta) > 0).all()

    def test_residuals_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(6)
        cost = rng.random((8, 8))
        prev = np.inf
        for k in range(1, 12):
            plan, _ = sinkhorn_marginal(
                cost, np.ones(8), np.ones(8), eta=0.05, tol=0.0, max_iter=k
            )
            res = max(plan.row_marginal_residual, plan.col_marginal_residual)
            assert res <= prev + 1e-15
            prev = res

    def test_diagonal_free_marginals_are_consistent(self):
        # a 6 x 5 diagonal-free affinity target: rows carry mass 1, so each of
        # the 5 columns carries 6/5 (1 per column would be infeasible)
        r, c = np.ones(6), np.full(5, 6 / 5)
        assert abs(r.sum() - c.sum()) <= 1e-12
        rng = np.random.default_rng(7)
        plan, _ = sinkhorn_marginal(rng.normal(size=(6, 5)), r, c, eta=0.05, tol=1e-9)
        assert plan.row_marginal_residual <= 1e-9
        assert plan.col_marginal_residual <= 1e-9

    def test_inconsistent_totals_raise(self):
        with pytest.raises(ValueError, match="infeasible"):
            sinkhorn_marginal(np.ones((2, 2)), np.ones(2), np.array([1.0, 1.5]), eta=0.1)

    def test_row_underflow_reports_axis_index_and_eta(self):
        cost = np.array([[0.0, 0.0], [2000.0, 2000.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, np.ones(2), np.ones(2), eta=0.05)
        assert str(exc.value) == "row 1 sum underflowed to 0 during Sinkhorn scaling (eta=0.05)"

    def test_subnormal_column_sum_is_an_underflow(self):
        cost = np.array([[0.0, 711.0 * 0.05], [0.0, 711.0 * 0.05]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, np.ones(2), np.ones(2), eta=0.05)
        assert str(exc.value) == "column 1 sum underflowed to 0 during Sinkhorn scaling (eta=0.05)"

    @pytest.mark.parametrize("eta, entry", [(1e-3, 1e306), (0.05, 1e308)])
    def test_overflowing_quotient_is_refused_naming_its_entry(self, eta, entry):
        # entry / eta passes the largest double, 1.8e308, at both eta
        cost = np.array([[0.0, -entry], [1.0, 0.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, np.ones(2), np.ones(2), eta)
        assert str(exc.value) == f"entry [0, 1] overflowed dividing by eta (eta={eta})"

    def test_line_with_no_finite_entry_underflows(self):
        # -cost/eta overflows to -inf in one cell of rows 0 and 1 and in both
        # cells of row 2, which is left with no finite entry
        cost = np.array([[0.0, 5.0], [3.0, 0.0], [2.0, 2.0]])
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, np.ones(3), np.full(2, 1.5), 1e-320)
        assert str(exc.value) == "row 2 sum underflowed to 0 during Sinkhorn scaling (eta=1e-320)"

    @pytest.mark.parametrize("tol, message", [(np.nan, "tol must be finite, got nan"),
                                              (-1.0, "tol must be nonnegative, got -1.0")],
                             ids=["NaN", "negative"])
    def test_refuses_a_nan_or_negative_tol(self, tol, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sinkhorn_marginal(np.zeros((2, 2)), np.ones(2), np.ones(2), 0.05, tol=tol)

    @pytest.mark.parametrize("eta, max_iter, message",
                             [(0.0, 10, "eta must be positive, got 0.0"),
                              (-0.05, 10, "eta must be positive, got -0.05"),
                              (0.05, 0, "max_iter must be >= 1")],
                             ids=["zero eta", "negative eta", "no sweep"])
    def test_refuses_a_nonpositive_eta_or_max_iter(self, eta, max_iter, message):
        with pytest.raises(ValueError) as exc:
            sinkhorn_marginal(np.zeros((2, 2)), np.ones(2), np.ones(2), eta, max_iter=max_iter)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "cost, c, eta, max_iter, line",
        [
            # exp(-1e15 / eta) underflows to 0, a forbidden cell, and it is
            # the only cell of column 1
            ([[0.0, 1e15]], [0.5, 0.5], 1e-3, 10_000, "column 1"),
            ([[0.0, 1e16]], [0.5, 0.5], 1e-3, 10_000, "column 1"),
            # -cost/eta peaks at -5e275, in row 1; every cell of row 0 lies
            # at least 5e275 below that and underflows after the shift by
            # the max, so the first sweep refuses row 0
            ([[1e196, 2e196, 3e196], [4e196, 5e195, 6e196]], [2 / 3] * 3, 1e-80, 1, "row 0"),
            ([[1e196, 2e196, 3e196], [4e196, 5e195, 6e196]], [2 / 3] * 3, 1e-80, 2, "row 0"),
        ],
        ids=["1e15", "1e16", "far below the max, 1 sweep", "far below the max, 2 sweeps"],
    )
    def test_line_of_underflowed_cells_is_refused(self, cost, c, eta, max_iter, line):
        cost = np.array(cost)
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, np.ones(len(cost)), np.array(c), eta, max_iter=max_iter)
        assert str(exc.value) == f"{line} sum underflowed to 0 during Sinkhorn scaling (eta={eta})"

    @pytest.mark.parametrize("shape", [(7, 5), (100, 2), (256, 256)],
                             ids=["7x5", "100x2", "256x256"])
    def test_kernel_domain_plan_starts_on_a_64_byte_boundary(self, shape):
        # the plan's kernel factor is the array the sweeps read, and BLAS's
        # matrix-vector products run fastest on an aligned one
        m, n = shape
        cost = np.random.default_rng(3).random(shape)
        plan, _ = sinkhorn_marginal(cost, np.ones(m), np.full(n, m / n), 0.05)
        assert plan.factors[0].ctypes.data % 64 == 0

    @pytest.mark.parametrize("r, c", [(np.ones(3), np.ones(2)), (np.ones((2, 1)), np.ones(2))],
                             ids=["length", "2-D"])
    def test_refuses_marginals_that_do_not_fit_the_cost(self, r, c):
        message = f"marginals of shapes {r.shape}, {c.shape} do not fit cost (2, 2)"
        with pytest.raises(ValueError) as exc:
            sinkhorn_marginal(np.zeros((2, 2)), r, c, 0.05)
        assert str(exc.value) == message

    @pytest.mark.parametrize("side", ["row", "column"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_marginals(self, side, bad):
        r, c = np.ones(2), np.ones(2)
        (r if side == "row" else c)[0] = bad
        with pytest.raises(ValueError, match="^marginals must be strictly positive and finite$"):
            sinkhorn_marginal(np.zeros((2, 2)), r, c, 0.05)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        cost = rng.random((5, 5))
        a, _ = sinkhorn_marginal(cost, np.ones(5), np.ones(5), eta=0.05, tol=1e-9)
        b, _ = sinkhorn_marginal(cost, np.ones(5), np.ones(5), eta=0.05, tol=1e-9)
        assert (a.plan == b.plan).all()


class TestExactOracle:
    def test_zero_cost_matching(self):
        cost = 1.0 - np.eye(4)
        plan = exact_ot_oracle(cost, np.ones(4), np.ones(4))
        assert np.abs(plan - np.eye(4)).max() == 0.0
        assert transport_cost(plan, cost) == 0.0

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            cost = rng.random((3, 3))
            plan = exact_ot_oracle(cost, np.ones(3), np.ones(3))
            assert abs(transport_cost(plan, cost) - brute_force_assignment_cost(cost)) <= 1e-12

    def test_rectangular_matches_vertex_enumeration(self):
        rng = np.random.default_rng(10)
        cost = rng.random((2, 3))
        r = np.array([2.0, 1.0])
        c = np.array([1.0, 1.0, 1.0])
        plan = exact_ot_oracle(cost, r, c)
        assert abs(transport_cost(plan, cost) - brute_force_transport(cost, r, c)) <= 1e-9
        assert np.abs(plan.sum(axis=1) - r).max() <= 1e-9
        assert np.abs(plan.sum(axis=0) - c).max() <= 1e-9

    def test_size_limit(self):
        with pytest.raises(ValueError, match="m\\*n"):
            exact_ot_oracle(np.ones((20, 20)), np.ones(20), np.ones(20))


class TestEntropicLimit:
    def test_objective_approaches_exact_on_8x8(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            cost = rng.random((8, 8))
            plan, _ = sinkhorn_marginal(
                cost, np.ones(8), np.ones(8), eta=1e-3, tol=1e-10, max_iter=5000
            )
            exact = transport_cost(exact_ot_oracle(cost, np.ones(8), np.ones(8)), cost)
            assert abs(transport_cost(plan.plan, cost) - exact) <= 0.01 * exact


def _marginals(rng, m, n):
    r = rng.random(m) + 0.5
    c = rng.random(n) + 0.5
    return r, c * (r.sum() / c.sum())


class TestAgainstReferenceLoops:
    """The scaling core against the matrix-rescaling and plan-rebuilding
    loops it replaced (`oracles.reference_*`)."""

    @pytest.mark.parametrize(
        "kind", ["random 7x5", "affinity 100x99", "masked affinity 100x100", "assignment 1024x2"]
    )
    def test_fixed_count_plan_matches(self, kind):
        rng = np.random.default_rng(11)
        if kind == "random 7x5":
            logits = rng.normal(size=(7, 5))
        elif kind == "affinity 100x99":
            z = unit_rows(rng, 100, 4)
            logits = mask_off_diagonal(z @ z.T)
        elif kind == "masked affinity 100x100":  # the trainer's layout: a -inf diagonal
            z = unit_rows(rng, 100, 4)
            logits = z @ z.T
            np.fill_diagonal(logits, -np.inf)
        else:
            logits = unit_rows(rng, 1024, 2) @ unit_rows(rng, 2, 2).T
        got = sinkhorn_algorithm1(logits, eta=0.05, iterations=5).plan
        assert np.abs(got - reference_algorithm1(logits, 0.05, 5)).max() <= 1e-14

    @pytest.mark.parametrize(
        "eta, reference", [(0.05, reference_sinkhorn_kernel), (1e-3, reference_sinkhorn_log)]
    )
    def test_tolerance_solve_matches(self, eta, reference):
        rng = np.random.default_rng(12)
        tol = 1e-9
        for m, n in ((8, 8), (12, 7), (5, 9)):
            # sorted points on a line: small-eta solves converge in hundreds of sweeps
            x, y = np.sort(rng.random(m)), np.sort(rng.random(n))
            cost = (x[:, None] - y[None, :]) ** 2
            r, c = _marginals(rng, m, n)
            plan, _ = sinkhorn_marginal(cost, r, c, eta, tol=tol, max_iter=5000)
            want, _, _, used = reference(cost, r, c, eta, tol, 5000)
            assert max(plan.row_marginal_residual, plan.col_marginal_residual) <= tol
            assert np.abs(want.sum(axis=1) - r).max() <= tol
            assert np.abs(want.sum(axis=0) - c).max() <= tol
            assert used < 5000
            assert abs(plan.iterations_used - used) <= 1

    @pytest.mark.parametrize("kind", ["negative 5x6", "negative 2x2", "no zero entry 2x2"])
    def test_kernel_solve_of_a_cost_without_a_zero_matches(self, kind):
        # -cost/eta reaches 800, or at most -40000: its exp overflows, or
        # underflows to 0, unless the kernel is shifted by its max
        if kind == "negative 5x6":
            cost = np.random.default_rng(13).random((5, 6)) - 40.0
        elif kind == "negative 2x2":
            cost = np.array([[0.0, -40.0], [-40.0, 0.0]])
        else:
            cost = np.full((2, 2), 2000.0)
        m, n = cost.shape
        r, c, eta, tol = np.ones(m), np.full(n, m / n), 0.05, 1e-9
        plan, (log_alpha, log_beta) = sinkhorn_marginal(cost, r, c, eta, tol=tol)
        want, _, _, used = reference_sinkhorn_log(cost, r, c, eta, tol, 10_000)
        assert np.abs(plan.plan - want).max() <= 1e-12
        assert abs(plan.iterations_used - used) <= 1
        assert np.abs(scaling_plan(log_alpha, log_beta, cost, eta) - plan.plan).max() <= 1e-10

    def test_line_costs_take_the_reference_sweep_count(self):
        # 8x8 jittered-line costs at eta 1e-3, the small instances of the
        # bench's ot-solve workload: -cost/eta stays above -100, so no kernel
        # entry underflows and the kernel domain takes the log-domain
        # reference's sweep count and plan; they need no log domain
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = (np.arange(8) + 0.05 * rng.standard_normal(8)) / 8
            y = (np.arange(8) + 0.5 + 0.05 * rng.standard_normal(8)) / 8
            cost = 0.1 * (x[:, None] - y[None, :]) ** 2
            r = c = np.ones(8)
            plan, _ = sinkhorn_marginal(cost, r, c, 1e-3, tol=1e-9, max_iter=10_000)
            want, _, _, used = reference_sinkhorn_log(cost, r, c, 1e-3, 1e-9, 10_000)
            assert plan.iterations_used == used
            assert np.abs(plan.plan - want).max() <= 1e-12


def _outcome(scale, values, *args):
    """``scale``'s result, or the text of the `NumericalError` it raised."""
    try:
        return scale(values.copy(), *args)
    except NumericalError as err:
        return str(err)


def _bits(outcome):
    """A result's kernel, scalings, shift and last product as bytes, and its
    sweep count; an error text as it is."""
    if isinstance(outcome, str):
        return outcome
    kernel, u, v, top, sweeps, kv = outcome
    return [np.asarray(a, dtype=np.float64).tobytes() for a in (kernel, u, v, top, kv)], sweeps


class _CountingNumpy:
    """numpy, counting the matrix-vector products made with ``np.dot``."""

    def __init__(self):
        self.dots = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, *args, **kwargs):
        self.dots += 1
        return np.dot(*args, **kwargs)


class TestOneCheckPerSolve:
    """The kernel-domain sweeps check their scalings once, after the loop,
    and replay the loop checked to name the line that failed first: each
    solve must give the bits, or the refusal, of the loop that checked every
    half-sweep (`oracles.checked_scale`)."""

    @settings(max_examples=150, deadline=None)
    @given(
        solver=st.sampled_from(["algorithm1", "marginal"]),
        shape=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        quotients=st.sampled_from([5.0, 50.0, 700.0, 1500.0]),
        eta=st.sampled_from([1.0, 0.05, 1e-3]),
        max_iter=st.integers(1, 40),
        data=st.data(),
    )
    def test_bits_or_refusal_of_the_checked_loop(
        self, solver, shape, quotients, eta, max_iter, data
    ):
        # quotients up to 1500 put exp(values/eta) far below the subnormals,
        # so lines underflow at the first sweep or later
        unit = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        values = np.round(unit * quotients) * eta
        m, n = values.shape
        if solver == "algorithm1":  # fixed count
            args = (1.0, 1.0, eta, max_iter)
        else:  # to a tolerance, rows first
            tol = data.draw(st.sampled_from([0.0, 1e-9]))
            args = (np.ones(m), np.full(n, m / n), eta, max_iter, tol, True)
        assert _bits(_outcome(_scale, values, *args)) == _bits(
            _outcome(checked_scale, values, *args)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        solver=st.sampled_from(["algorithm1", "marginal"]),
        n=st.integers(2, 4),
        quotients=st.sampled_from([5.0, 50.0, 700.0, 1500.0]),
        eta=st.sampled_from([1.0, 0.05, 1e-3]),
        max_iter=st.integers(1, 40),
        masked=st.booleans(),
        data=st.data(),
    )
    def test_a_plan_is_nonnegative_and_within_the_last_fitted_marginals(
        self, solver, n, quotients, eta, max_iter, masked, data
    ):
        # why no plan is checked: whatever solve is not refused
        # ends fitting rows (the fixed count) or columns (the tolerance), and
        # every entry lies between 0 and the marginal of its fitted line; a
        # masked diagonal is -inf, as training's affinity logits are
        unit = data.draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
        values = np.round(unit * quotients) * eta
        if masked:
            np.fill_diagonal(values, -np.inf)
        if solver == "algorithm1":  # rows fitted last, each to 1
            args, fitted = (1.0, 1.0, eta, max_iter), np.ones((n, 1))
        else:  # columns fitted last, each to 1
            args, fitted = (np.ones(n), np.ones(n), eta, max_iter, 0.0, True), np.ones(n)
        outcome = _outcome(_scale, values, *args)
        if not isinstance(outcome, str):
            plan = plan_of(outcome[:3])
            assert plan.min() >= 0.0  # NaN fails too
            assert (plan <= fitted * (1.0 + 1e-12)).all()

    @pytest.mark.parametrize(
        "logits, iterations, message",
        [
            # at the end of the loop the first non-finite entry of v is
            # column 0; only the checked replay names column 1
            ([[-700, -720], [-300, -720], [300, -600]], 5, "column 1"),
            # the first underflow is at sweep 3
            ([[-1120, -860, -1060], [-1120, -410, -1460]], 5, "column 0"),
        ],
        ids=["index moved", "sweep 3"],
    )
    def test_fixed_count_names_the_line_that_failed_first(self, logits, iterations, message):
        with pytest.raises(NumericalError) as exc:
            sinkhorn_algorithm1(np.array(logits, dtype=np.float64), 1.0, iterations)
        assert str(exc.value) == f"{message} sum underflowed to 0 during Sinkhorn scaling (eta=1.0)"

    def test_tolerance_refusal_stops_within_a_sweep(self, monkeypatch):
        cost = np.array([[-5.4, 29.6, 12.1], [45.8, 54.7, 27.9]])
        r, c, eta = np.ones(2), np.full(3, 2 / 3), 0.05
        message = "column 1 sum underflowed to 0 during Sinkhorn scaling (eta=0.05)"
        failed = 1  # the sweep at which the checked loop refuses
        while isinstance(_outcome(checked_scale, -cost, r, c, eta, failed, 0.0, True),
                         tuple):
            failed += 1
        assert _outcome(checked_scale, -cost, r, c, eta, failed, 0.0, True) == message
        # the unchecked pass makes 1 product, then 2 a sweep, and stops on
        # the non-finite residual at most one sweep after the failure; the
        # checked replay makes 1, then 1 a sweep (its other product is `@`).
        # One that ran on to max_iter would make 2 * 10**7
        counting = _CountingNumpy()
        monkeypatch.setattr(transport, "np", counting)
        with pytest.raises(NumericalError) as exc:
            sinkhorn_marginal(cost, r, c, eta, max_iter=10**7)
        assert str(exc.value) == message
        assert counting.dots <= (1 + 2 * (failed + 1)) + (1 + failed)
