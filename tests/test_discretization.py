import re

import numpy as np
import pytest

from auglobatto.discretization import (
    DiffMatrix,
    build_basis,
    build_dual_D,
    build_new_lobatto_D,
    build_standard_lobatto_D,
    condition_number,
    numerical_rank,
    runge_bound,
    verify_definition,
)
from auglobatto.orthopoly import legendre_eval, lobatto_eval, lobatto_nodes


def literal_derivative_matrix(all_nodes, n_rows):
    """Product-form Lagrange derivative, the textbook formula.

    l'_i(x_k) = sum over m != i of prod over j != i, m of (x_k - x_j),
    divided by prod over j != i of (x_i - x_j).  O(M^3) and unstable for
    large grids, so only used as an oracle on small ones.
    """
    m = len(all_nodes)
    out = np.zeros((n_rows, m))
    for i in range(m):
        denom = np.prod([all_nodes[i] - all_nodes[j] for j in range(m) if j != i])
        for k in range(n_rows):
            total = 0.0
            for mm in range(m):
                if mm == i:
                    continue
                term = 1.0
                for j in range(m):
                    if j == i or j == mm:
                        continue
                    term *= all_nodes[k] - all_nodes[j]
                total += term
            out[k, i] = total / denom
    return out


class TestBasis:
    def test_kronecker_three_nodes(self):
        basis = build_basis([-1.0, 0.0, 1.0])
        row = basis.values(0.0)
        np.testing.assert_allclose(row, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(basis.values(-1.0), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(basis.values(1.0), [0, 0, 1], atol=1e-15)

    def test_quadratic_closed_form(self):
        # First basis polynomial of {-1, 0, 1} is t(t-1)/2.
        basis = build_basis([-1.0, 0.0, 1.0])
        assert basis.values(0.5)[0] == pytest.approx(-0.125, abs=1e-15)

    def test_partition_of_unity(self):
        basis = build_basis(np.linspace(-1, 1, 7))
        assert basis.values(0.3).sum() == pytest.approx(1.0, abs=1e-13)

    def test_duplicate_nodes_named(self):
        with pytest.raises(ValueError, match="0.5"):
            build_basis([-1.0, 0.5, 0.5 + 1e-13, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_basis([0.0, bad, 1.0])

    def test_kronecker_on_lobatto_grid(self):
        ns = lobatto_nodes(12)
        basis = build_basis(ns.all_nodes)
        table = basis.values(ns.all_nodes)
        np.testing.assert_allclose(table, np.eye(13), atol=1e-12)

    def test_array_evaluation_shape(self):
        basis = build_basis([-1.0, 0.0, 1.0])
        out = basis.values(np.array([0.1, 0.2]))
        assert out.shape == (2, 3)

    def test_caller_array_stays_writeable_and_unshared(self):
        x = np.array([-1.0, 0.0, 1.0])
        basis = build_basis(x)
        assert x.flags.writeable and not basis.nodes.flags.writeable
        x[1] = 0.5
        np.testing.assert_array_equal(basis.nodes, [-1.0, 0.0, 1.0])


class TestNewLobattoMatrix:
    def test_shape_and_kind(self):
        ns = lobatto_nodes(6)
        D = build_new_lobatto_D(ns)
        assert D.entries.shape == (6, 7)
        assert D.row_nodes is ns.collocation
        np.testing.assert_array_equal(D.col_nodes, ns.all_nodes)

    def test_every_array_of_every_matrix_is_read_only(self):
        ns = lobatto_nodes(6)
        D = build_new_lobatto_D(ns)
        for mat in (D, build_standard_lobatto_D(ns), build_dual_D(ns, D)):
            for array in (mat.entries, mat.row_nodes, mat.col_nodes):
                assert not array.flags.writeable

    @pytest.mark.parametrize("n", [3, 5, 10, 20, 30])
    def test_annihilates_constants(self, n):
        D = build_new_lobatto_D(lobatto_nodes(n))
        assert np.max(np.abs(D.entries.sum(axis=1))) <= 1e-11 * (n + 1)

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_identity_derivative(self, n):
        D = build_new_lobatto_D(lobatto_nodes(n))
        out = D.entries @ D.col_nodes
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_n3_rows_against_vandermonde_oracle(self):
        # Independent oracle: expand each Lagrange cubic in the monomial
        # basis by solving the Vandermonde system, then differentiate.
        ns = lobatto_nodes(3)
        D = build_new_lobatto_D(ns)
        nodes = ns.all_nodes
        V = np.vander(nodes, increasing=True)
        for i in range(4):
            coeffs = np.linalg.solve(V, np.eye(4)[i])
            dcoeffs = coeffs[1:] * np.arange(1, 4)
            deriv = np.polynomial.Polynomial(dcoeffs)
            np.testing.assert_allclose(
                D.entries[:, i], deriv(ns.collocation), atol=1e-13
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_literal_product_form(self, n):
        ns = lobatto_nodes(n)
        D = build_new_lobatto_D(ns)
        oracle = literal_derivative_matrix(ns.all_nodes, n)
        np.testing.assert_allclose(D.entries, oracle, atol=1e-11)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_exact_through_degree_n(self, n):
        D = build_new_lobatto_D(lobatto_nodes(n))
        assert verify_definition(D, n) <= 1e-9

    @pytest.mark.parametrize("n", range(3, 26))
    def test_degree_n_plus_one_not_exact(self, n):
        # One degree past the order of accuracy the residual must be large.
        # Checked by hand because verify_definition caps at cols-1.
        ns = lobatto_nodes(n)
        D = build_new_lobatto_D(ns)
        sampled = ns.all_nodes ** (n + 1)
        truth = (n + 1) * ns.collocation**n
        assert np.max(np.abs(D.entries @ sampled - truth)) > 1e-6

    @pytest.mark.parametrize("n", range(3, 31))
    def test_full_row_rank(self, n):
        D = build_new_lobatto_D(lobatto_nodes(n))
        assert numerical_rank(D.entries) == n

    @pytest.mark.parametrize("n", [4, 5, 8, 12, 20, 30, 50])
    def test_exceptional_column_closed_form(self, n):
        ns = lobatto_nodes(n)
        D = build_new_lobatto_D(ns)
        dvals, _ = lobatto_eval(n, ns.collocation)[1], None
        value_at_xi = lobatto_eval(n, ns.exceptional)[0]
        expected = dvals / value_at_xi
        np.testing.assert_allclose(D.entries[:, -1], expected, atol=1e-10)


class TestStandardMatrix:
    def test_square_and_kind(self):
        ns = lobatto_nodes(5)
        S = build_standard_lobatto_D(ns)
        assert S.entries.shape == (5, 5)
        assert S.row_nodes is S.col_nodes is ns.collocation

    @pytest.mark.parametrize("n", [4, 9, 17, 30])
    def test_row_sums_vanish(self, n):
        S = build_standard_lobatto_D(lobatto_nodes(n))
        assert np.max(np.abs(S.entries.sum(axis=1))) <= 1e-11 * n

    def test_n4_rank_deficient(self):
        S = build_standard_lobatto_D(lobatto_nodes(4))
        sigma = np.linalg.svd(S.entries, compute_uv=False)
        assert sigma[-1] <= 1e-10
        assert numerical_rank(S.entries) == 3

    @pytest.mark.parametrize("n", range(3, 31))
    def test_rank_at_most_n_minus_one(self, n):
        S = build_standard_lobatto_D(lobatto_nodes(n))
        assert numerical_rank(S.entries) <= n - 1

    def test_n4_degree_one_exact(self):
        S = build_standard_lobatto_D(lobatto_nodes(4))
        np.testing.assert_allclose(S.entries @ S.col_nodes, 1.0, atol=1e-13)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_exact_through_degree_n_minus_one(self, n):
        S = build_standard_lobatto_D(lobatto_nodes(n))
        assert verify_definition(S, n - 1) <= 1e-9


class TestDualMatrix:
    @pytest.mark.parametrize("n", [3, 8, 15, 30])
    def test_constants_to_zero(self, n):
        ns = lobatto_nodes(n)
        Dd = build_dual_D(ns, build_new_lobatto_D(ns))
        assert np.max(np.abs(Dd.entries.sum(axis=1))) <= 1e-11 * n

    def test_degree_one_n5(self):
        ns = lobatto_nodes(5)
        Dd = build_dual_D(ns, build_new_lobatto_D(ns))
        np.testing.assert_allclose(Dd.entries @ ns.collocation, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_exact_through_degree_n_minus_two(self, n):
        ns = lobatto_nodes(n)
        Dd = build_dual_D(ns, build_new_lobatto_D(ns))
        assert verify_definition(Dd, n - 2) <= 1e-9

    @pytest.mark.parametrize("n", range(3, 31))
    def test_degree_n_minus_one_fails(self, n):
        ns = lobatto_nodes(n)
        Dd = build_dual_D(ns, build_new_lobatto_D(ns))
        sampled = ns.collocation ** (n - 1)
        truth = (n - 1) * ns.collocation ** (n - 2)
        assert np.max(np.abs(Dd.entries @ sampled - truth)) >= 1e-6

    def test_entry_formula_spot_check(self):
        # Recompute a few entries straight from the defining formula.
        ns = lobatto_nodes(6)
        D = build_new_lobatto_D(ns)
        Dd = build_dual_D(ns, D)
        w = ns.weights
        for k, i in [(0, 0), (0, 3), (5, 5), (2, 4), (5, 0)]:
            expected = -(w[i] / w[k]) * D.entries[i, k]
            if k == i == 0:
                expected -= 1.0 / w[0]
            if k == i == 5:
                expected += 1.0 / w[5]
            assert Dd.entries[k, i] == pytest.approx(expected, abs=1e-14)

    def test_requires_new_lobatto_input(self):
        ns = lobatto_nodes(5)
        S = build_standard_lobatto_D(ns)
        with pytest.raises(ValueError, match="5 x 6 rectangular"):
            build_dual_D(ns, S)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            build_dual_D(lobatto_nodes(6), build_new_lobatto_D(lobatto_nodes(5)))


class TestVerifyDefinition:
    def test_order_above_cols_rejected(self):
        D = build_new_lobatto_D(lobatto_nodes(5))
        with pytest.raises(ValueError, match="order"):
            verify_definition(D, 6)

    def test_negative_order_rejected(self):
        D = build_new_lobatto_D(lobatto_nodes(5))
        with pytest.raises(ValueError):
            verify_definition(D, -1)

    @pytest.mark.parametrize("order", [2.5, 2.0, "2"])
    def test_non_integer_order_rejected(self, order):
        # np.arange(3.5) would check monomials through degree 3.
        D = build_new_lobatto_D(lobatto_nodes(5))
        message = re.escape(f"order must be an integer, got {order!r}")
        with pytest.raises(TypeError, match=message):
            verify_definition(D, order)

    def test_numpy_integer_order_accepted(self):
        D = build_new_lobatto_D(lobatto_nodes(5))
        assert verify_definition(D, np.int64(5)) == verify_definition(D, 5)

    def test_zero_order_is_row_sum_check(self):
        # The same BLAS product verify_definition takes; numpy's pairwise
        # sum(axis=1) rounds differently at most sizes.
        for n in (3, 9, 10, 50):
            D = build_new_lobatto_D(lobatto_nodes(n))
            row_sums = D.entries @ np.ones((n + 1, 1))
            assert verify_definition(D, 0) == np.max(np.abs(row_sums))


class TestRungeBehavior:
    @pytest.mark.parametrize("n", [10, 50])
    def test_bounded_by_one(self, n):
        assert runge_bound(lobatto_nodes(n), 2001) <= 1.0 + 1e-10

    def test_kronecker_at_own_node(self):
        ns = lobatto_nodes(9)
        basis = build_basis(ns.all_nodes)
        assert basis.values(ns.exceptional)[ns.n] == 1.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            runge_bound(lobatto_nodes(5), 1000)

    @pytest.mark.parametrize("n", [6, 11, 24])
    def test_proportional_to_lobatto_polynomial(self, n):
        # The extra sample's basis polynomial is the degree-N Lobatto
        # polynomial normalized to 1 at that sample.
        ns = lobatto_nodes(n)
        basis = build_basis(ns.all_nodes)
        grid = np.linspace(-1, 1, 1501)
        l_xi = basis.values(grid)[:, ns.n]
        lob_grid = lobatto_eval(n, grid)[0]
        lob_xi = lobatto_eval(n, ns.exceptional)[0]
        np.testing.assert_allclose(l_xi * lob_xi, lob_grid, atol=1e-10)


class TestQuadratureIdentities:
    @pytest.mark.parametrize("n", [5, 9, 14, 20])
    def test_basis_integrals_match_weights(self, n):
        # Integral of l_k times tau^d equals w_k tau_k^d for d <= N-3,
        # integral taken with an independent Gauss rule of ample order.
        ns = lobatto_nodes(n)
        basis = build_basis(ns.collocation)
        x_gl, w_gl = np.polynomial.legendre.leggauss(2 * n)
        table = basis.values(x_gl)
        for d in range(n - 2):
            integrals = w_gl @ (table * x_gl[:, None] ** d)
            expected = ns.weights * ns.collocation**d
            np.testing.assert_allclose(integrals, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [5, 9, 14, 20, 30])
    def test_weighted_legendre_orthogonality(self, n):
        # Sum of w_k P_{N-1}(tau_k) q(tau_k) vanishes for deg q <= N-2.
        ns = lobatto_nodes(n)
        p_vals, _ = legendre_eval(n - 1, ns.collocation)
        for d in range(n - 1):
            total = np.dot(ns.weights * p_vals, ns.collocation**d)
            assert abs(total) <= 1e-10, f"degree {d}"


def test_rank_helpers():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert condition_number(np.eye(4)) == 1.0
    assert condition_number(np.zeros((2, 2))) == np.inf
    assert condition_number(np.diag([1.0, 1e-30])) == 1.0  # tiny value dropped


def test_diffmatrix_is_frozen():
    D = build_new_lobatto_D(lobatto_nodes(4))
    assert isinstance(D, DiffMatrix)
    for field in ("entries", "row_nodes", "col_nodes"):
        with pytest.raises((AttributeError, TypeError)):
            setattr(D, field, np.zeros(3))
    with pytest.raises((ValueError, RuntimeError)):
        D.entries[0, 0] = 99.0
