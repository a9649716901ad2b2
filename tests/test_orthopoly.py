import numpy as np
import pytest

from auglobatto.orthopoly import (
    NodeSet,
    envelope_check,
    legendre_eval,
    lobatto_eval,
    lobatto_nodes,
)

# Closed-form Legendre polynomials used as oracles for small degrees.
P3 = np.polynomial.Polynomial([0, -1.5, 0, 2.5])          # (5 t^3 - 3 t)/2
P4 = np.polynomial.Polynomial([0.375, 0, -3.75, 0, 4.375])  # (35 t^4 - 30 t^2 + 3)/8


class TestLegendreEval:
    def test_degree_zero(self):
        assert legendre_eval(0, 0.3) == (1.0, 0.0)

    def test_p3_at_one(self):
        # P_3 = (5 t^3 - 3 t)/2, derivative (15 t^2 - 3)/2 -> 6 at t=1
        value, deriv = legendre_eval(3, 1.0)
        assert value == pytest.approx(1.0, abs=1e-15)
        assert deriv == pytest.approx(6.0, abs=1e-14)

    def test_p4_at_zero(self):
        value, deriv = legendre_eval(4, 0.0)
        assert value == pytest.approx(0.375, abs=1e-16)
        assert deriv == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 33])
    def test_endpoints_exact(self, n):
        assert legendre_eval(n, 1.0)[0] == 1.0
        assert legendre_eval(n, -1.0)[0] == (-1.0) ** n

    @pytest.mark.parametrize("n", [3, 4])
    def test_against_closed_form(self, n):
        poly = {3: P3, 4: P4}[n]
        tau = np.linspace(-1, 1, 41)
        value, deriv = legendre_eval(n, tau)
        np.testing.assert_allclose(value, poly(tau), atol=1e-14)
        np.testing.assert_allclose(deriv, poly.deriv()(tau), atol=1e-13)

    def test_matches_numpy_legval(self):
        # Independent oracle: numpy's Legendre series evaluation.
        tau = np.linspace(-1, 1, 23)
        for n in (7, 12, 25):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            expected = np.polynomial.legendre.legval(tau, coeffs)
            value, _ = legendre_eval(n, tau)
            np.testing.assert_allclose(value, expected, atol=1e-13)

    @pytest.mark.parametrize("evaluate", [legendre_eval, lobatto_eval])
    def test_zero_dimensional_input_gives_floats(self, evaluate):
        expected = evaluate(3, 0.5)
        for tau in (0.5, np.float64(0.5), np.array(0.5)):
            value, deriv = evaluate(3, tau)
            assert type(value) is float and type(deriv) is float
            assert (value, deriv) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(4, 1.1)
        with pytest.raises(ValueError):
            legendre_eval(2, -1.0 - 1e-9)
        with pytest.raises(ValueError, match="nan"):
            legendre_eval(3, np.nan)
        with pytest.raises(ValueError, match="nan"):
            legendre_eval(3, np.array([0.0, np.nan]))


class TestLobattoEval:
    def test_endpoint(self):
        value, deriv = lobatto_eval(5, 1.0)
        assert value == 0.0
        assert deriv == pytest.approx(20.0, abs=1e-13)

    def test_interior_value(self):
        # Oracle: L_4(0) = (0 - 1) P'_3(0) with P'_3(0) = -3/2 from the
        # closed form, so the value is +1.5.
        assert P3.deriv()(0.0) == -1.5
        value, deriv = lobatto_eval(4, 0.0)
        assert value == pytest.approx(1.5, abs=1e-15)
        assert deriv == 0.0

    def test_even_degree_symmetry(self):
        v_minus, _ = lobatto_eval(4, -0.5)
        v_plus, _ = lobatto_eval(4, 0.5)
        assert v_minus == v_plus

    @pytest.mark.parametrize("n", [3, 6, 11, 20])
    def test_parity(self, n):
        tau = np.array([0.123, 0.5, 0.876, 0.99])
        plus, _ = lobatto_eval(n, tau)
        minus, _ = lobatto_eval(n, -tau)
        np.testing.assert_allclose(plus - (-1.0) ** n * minus, 0.0, atol=1e-13)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            lobatto_eval(1, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lobatto_eval(4, 1.1)
        with pytest.raises(ValueError, match="nan"):
            lobatto_eval(4, np.nan)


class TestLobattoNodes:
    def test_n4_closed_forms(self):
        ns = lobatto_nodes(4)
        r = 1.0 / np.sqrt(5.0)
        np.testing.assert_allclose(ns.collocation, [-1.0, -r, r, 1.0], atol=1e-14)
        np.testing.assert_allclose(
            ns.weights, [1 / 6, 5 / 6, 5 / 6, 1 / 6], atol=1e-14
        )
        assert ns.exceptional == 0.0
        assert ns.all_nodes[4] == ns.exceptional

    def test_n5_closed_forms(self):
        ns = lobatto_nodes(5)
        r = np.sqrt(3.0 / 7.0)
        np.testing.assert_allclose(ns.collocation, [-1.0, -r, 0.0, r, 1.0], atol=1e-14)
        np.testing.assert_allclose(
            ns.weights, [0.1, 49 / 90, 32 / 45, 49 / 90, 0.1], atol=1e-14
        )
        # P_4 root nearest zero, positive by the tie-break convention.
        assert ns.exceptional == pytest.approx(0.3399810435848563, abs=1e-14)

    @pytest.mark.parametrize("n", range(3, 51))
    def test_structure(self, n):
        ns = lobatto_nodes(n)
        assert ns.collocation[0] == -1.0
        assert ns.collocation[-1] == 1.0
        assert np.all(np.diff(ns.collocation) > 0)
        # Exact antisymmetry of the grid and symmetry of the weights.
        np.testing.assert_array_equal(ns.collocation, -ns.collocation[::-1])
        np.testing.assert_allclose(ns.weights, ns.weights[::-1], atol=0.0)
        assert np.all(ns.weights > 0)
        assert abs(ns.weights.sum() - 2.0) <= 1e-13
        assert abs(ns.exceptional) < 1.0
        assert np.min(np.abs(ns.collocation - ns.exceptional)) > 1e-3

    @pytest.mark.parametrize("n", range(3, 51))
    def test_interior_nodes_are_stationary_points(self, n):
        ns = lobatto_nodes(n)
        interior = ns.collocation[1:-1]
        _, dp = legendre_eval(n - 1, interior)
        _, _, curv = _legendre_second(n - 1, interior)
        # Root residual is limited by |P''| * eps; small n meets the
        # absolute 1e-14 target directly.
        if n <= 6:
            assert np.max(np.abs(dp)) <= 1e-14
        assert np.all(np.abs(dp) <= 64 * np.finfo(float).eps * np.abs(curv))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12, 25, 50])
    def test_quadrature_exactness(self, n):
        ns = lobatto_nodes(n)
        for d in range(2 * n - 2):
            approx = np.dot(ns.weights, ns.collocation**d)
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            assert abs(approx - exact) <= 1e-12, f"degree {d}"

    @pytest.mark.parametrize("n", [4, 8, 14])
    def test_even_n_exceptional_is_zero(self, n):
        assert lobatto_nodes(n).exceptional == 0.0

    @pytest.mark.parametrize("n", [3, 5, 9, 15, 31])
    def test_exceptional_maximizes_lobatto(self, n):
        ns = lobatto_nodes(n)
        # Brute force over all roots of P_{n-1} (the stationary points).
        roots = np.polynomial.legendre.legroots(
            np.eye(n)[-1]  # coefficient vector selecting P_{n-1}
        )
        values = np.abs(lobatto_eval(n, roots)[0])
        best = np.abs(lobatto_eval(n, ns.exceptional)[0])
        assert best >= np.max(values) - 1e-12
        # Grid scan confirms the global maximum over the whole interval.
        grid = np.linspace(-1, 1, 10_001)
        assert np.max(np.abs(lobatto_eval(n, grid)[0])) <= best * (1 + 1e-12)

    def test_nodes_match_independent_gauss_rule(self):
        # The interior nodes and weights integrate low-degree polynomials the
        # same way as numpy's Gauss-Legendre rule does.
        rng = np.random.default_rng(7)
        ns = lobatto_nodes(9)
        x_gl, w_gl = np.polynomial.legendre.leggauss(9)
        coeffs = rng.standard_normal(2 * 9 - 3)
        poly = np.polynomial.Polynomial(coeffs)
        ours = np.dot(ns.weights, poly(ns.collocation))
        theirs = np.dot(w_gl, poly(x_gl))
        assert ours == pytest.approx(theirs, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lobatto_nodes(2)

    def test_immutable(self):
        ns = lobatto_nodes(5)
        with pytest.raises((ValueError, RuntimeError)):
            ns.collocation[0] = 0.0


class TestEnvelope:
    @pytest.mark.parametrize("n", [5, 12])
    def test_envelope_dominates(self, n):
        assert envelope_check(n, 1001) <= 1e-12

    def test_endpoints_touch(self):
        tau = np.linspace(-1, 1, 101)
        value, deriv = lobatto_eval(7, tau)
        envelope = value**2 + (1 - tau**2) * deriv**2 / (7 * 6)
        assert envelope[0] == 0.0 and envelope[-1] == 0.0
        assert value[0] == 0.0 and value[-1] == 0.0

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            envelope_check(5, 100)


def _legendre_second(n, tau):
    """Closed recurrence for (P_n, P'_n, P''_n); mirrors the module internals
    only in shape, derived independently from the Legendre ODE."""
    tau = np.asarray(tau, dtype=float)
    p, dp = legendre_eval(n, tau)
    # (1 - t^2) P'' = 2 t P' - n (n+1) P away from the endpoints.
    curv = (2 * tau * dp - n * (n + 1) * p) / (1.0 - tau * tau)
    return p, dp, curv


def test_all_nodes_property():
    ns = lobatto_nodes(6)
    assert ns.all_nodes.shape == (7,)
    assert ns.all_nodes[-1] == ns.exceptional
    assert isinstance(ns, NodeSet)
