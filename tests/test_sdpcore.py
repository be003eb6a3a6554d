"""Constraint matrices, embeddings, matrix exponential, spectral tools."""

import math

import numpy as np
import pytest

from hyperspars import driver
from hyperspars.sdpcore import (
    TriangleId,
    center_rows,
    mat_K,
    min_eigenvalue,
    spectral_norm,
    squared_distances,
)

from witnesses import (
    NotPsdError,
    cholesky_embed,
    directed_distance,
    dist2,
    fill_diagonal_squared_distances,
    gram_state,
    mat_A,
    mat_exp,
    mat_T,
    mean_centered,
    variance_form,
)


def random_gram(rng, n, dim=None):
    v = rng.standard_normal((n, dim or n))
    return v @ v.T, v


def dot(a, b):
    return float(np.tensordot(a, b))


class TestMatA:
    def test_integral_cut_distance_is_8_norm0(self, rng):
        # v_i = v_0, v_j = -v_0 gives directed distance 8 |v_0|^2
        for _ in range(5):
            v0 = rng.standard_normal(3)
            vectors = np.stack([v0, v0, -v0])
            x = vectors @ vectors.T
            a = mat_A(3, 1, 2)
            assert dot(a, x) == pytest.approx(8 * float(v0 @ v0), abs=1e-12)

    def test_diagonal_pair_is_zero_matrix(self):
        for n in (2, 4):
            assert np.all(mat_A(n, 1, 1) == 0.0)

    def test_matches_direct_distance(self, rng):
        for _ in range(30):
            n = 4
            x, v = random_gram(rng, n)
            i, j = rng.integers(0, n, size=2)
            a = mat_A(n, int(i), int(j))
            d = directed_distance(v, int(i), int(j))
            assert dot(a, x) == pytest.approx(d, abs=1e-10 * max(1, abs(d)))

    def test_ones_in_kernel(self, rng):
        ones = np.ones(5)
        for _ in range(10):
            i, j = rng.integers(0, 5, size=2)
            assert np.max(np.abs(mat_A(5, int(i), int(j)) @ ones)) <= 1e-12

    def test_zero_out_agrees_on_integral_embeddings(self, rng):
        # on +/- v_0 embeddings the distance of the reversed pair (j, i),
        # which the reversed hypergraph measures, reproduces the
        # paper-style +v_0 distance of (i, j) for the 0-excluded side
        v0 = rng.standard_normal(2)
        inside = {1, 3}  # cut excluding vertex 0
        vectors = np.stack([(-1 if i in inside else 1) * v0 for i in range(4)])
        x = vectors @ vectors.T
        for i in range(4):
            for j in range(4):
                d_lit = float(
                    (vectors[i] - vectors[j]) @ (vectors[i] - vectors[j])
                    - (vectors[i] + vectors[0]) @ (vectors[i] + vectors[0])
                    + (vectors[j] + vectors[0]) @ (vectors[j] + vectors[0])
                )
                got = dot(mat_A(4, j, i), x)
                assert got == pytest.approx(d_lit, abs=1e-10)


class TestMatT:
    def test_right_angle_is_equality_case(self):
        # slack q(a,mid) + q(mid,b) - q(a,b) vanishes iff the legs at the
        # middle vertex are orthogonal
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        x = vectors @ vectors.T
        tri = TriangleId.make(0, 2, 1)
        assert dot(mat_T(3, tri), x) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_midpoint_is_violated(self):
        # equally spaced collinear points violate the l2^2 inequality by
        # 2 d^2; this is the geometry the violated-path search exploits
        vectors = np.array([[0.0], [1.0], [2.0]])
        x = vectors @ vectors.T
        tri = TriangleId.make(0, 2, 1)
        assert dot(mat_T(3, tri), x) == pytest.approx(-2.0, abs=1e-12)

    def test_coincident_vertices_zero(self, rng):
        v = rng.standard_normal((3, 2))
        v[1] = v[0]
        x = v @ v.T
        tri = TriangleId.make(0, 2, 1)
        # |v_a - v_mid|^2 + |v_mid - v_b|^2 - |v_a - v_b|^2 with v_mid = v_a
        assert dot(mat_T(3, tri), x) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_form(self, rng):
        for _ in range(30):
            n = 5
            x, v = random_gram(rng, n)
            a, b, mid = rng.choice(n, size=3, replace=False)
            tri = TriangleId.make(int(a), int(b), int(mid))
            direct = (
                float((v[tri.a] - v[tri.mid]) @ (v[tri.a] - v[tri.mid]))
                + float((v[tri.mid] - v[tri.b]) @ (v[tri.mid] - v[tri.b]))
                - float((v[tri.a] - v[tri.b]) @ (v[tri.a] - v[tri.b]))
            )
            assert dot(mat_T(n, tri), x) == pytest.approx(direct, abs=1e-10)

    def test_ones_in_kernel(self):
        tri = TriangleId.make(0, 3, 1)
        assert np.max(np.abs(mat_T(4, tri) @ np.ones(4))) <= 1e-12

    def test_requires_distinct(self):
        with pytest.raises(ValueError):
            TriangleId.make(0, 0, 1)


class TestMatK:
    def test_uniform_three_is_laplacian(self):
        k = mat_K([1, 1, 1])
        assert np.array_equal(k, 3 * np.eye(3) - np.ones((3, 3)))
        vals = np.linalg.eigvalsh(k)
        assert vals == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)

    def test_uniform_bounds_tight(self):
        # kappa = 1: both corollary bounds equal n
        for n in (2, 5, 9):
            k = mat_K([1] * n)
            vals = np.linalg.eigvalsh(k)[1:]
            assert vals == pytest.approx([n] * (n - 1), abs=1e-9)

    def test_two_vertex_skewed(self):
        k = mat_K([1, 2])
        vals = np.linalg.eigvalsh(k)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(4.0, abs=1e-12)
        # corollary range for kappa = 2, n = 2, total = 3
        assert 9 / 4 - 1e-9 <= vals[1] <= 2 * 9 / 2 + 1e-9

    def test_quadratic_form_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            w = rng.integers(1, min(n, 3) + 1, size=n)
            x, v = random_gram(rng, n)
            direct = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    direct += w[i] * w[j] * float((v[i] - v[j]) @ (v[i] - v[j]))
            assert dot(mat_K(w), x) == pytest.approx(direct, rel=1e-10)

    def test_spectrum_corollary_random_weights(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 51))
            kappa = int(rng.integers(1, n + 1))
            w = rng.integers(1, kappa + 1, size=n)
            total = int(w.sum())
            kap = int(w.max())
            vals = np.linalg.eigvalsh(mat_K(w))
            assert abs(vals[0]) <= 1e-9 * total**2
            lo = total**2 / (kap * n)
            hi = kap * total**2 / n
            assert np.all(vals[1:] >= lo - 1e-9 * total**2)
            assert np.all(vals[1:] <= hi + 1e-9 * total**2)


class TestCholesky:
    def test_identity_orthonormal(self):
        v = cholesky_embed(np.eye(4))
        assert v @ v.T == pytest.approx(np.eye(4), abs=1e-12)

    def test_all_ones_equal_vectors(self):
        v = cholesky_embed(np.ones((3, 3)))
        assert np.max(np.abs(v @ v.T - 1.0)) <= 1e-12

    def test_random_psd_reconstruction(self, rng):
        for _ in range(20):
            x, _ = random_gram(rng, 5)
            v = cholesky_embed(x)
            assert np.max(np.abs(v @ v.T - x)) <= 1e-10 * max(1.0, np.abs(x).max())

    def test_rejects_indefinite(self):
        x = np.diag([1.0, -0.5])
        with pytest.raises(NotPsdError):
            cholesky_embed(x)

    def test_clamps_tiny_negative(self):
        x = np.diag([1.0, -1e-12])
        v = cholesky_embed(x)
        assert np.all(np.isfinite(v))


class TestMatExp:
    def test_exp_zero_is_identity(self):
        assert mat_exp(np.zeros((3, 3))) == pytest.approx(np.eye(3), abs=1e-14)

    def test_exp_diagonal(self):
        out = mat_exp(np.diag([1.0, -2.0]))
        assert out == pytest.approx(np.diag([math.e, math.exp(-2.0)]), abs=1e-12)

    def test_against_taylor_series(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m = (m + m.T) / 2
            term = np.eye(4)
            series = np.eye(4)
            for k in range(1, 30):
                term = term @ m / k
                series = series + term
            assert mat_exp(m) == pytest.approx(series, abs=1e-9)

    def test_commutes_and_psd(self, rng):
        for _ in range(10):
            m = rng.standard_normal((5, 5))
            m = (m + m.T) / 2
            e = mat_exp(m)
            assert np.linalg.norm(e @ m - m @ e, 2) <= 1e-9 * spectral_norm(m) * spectral_norm(e)
            assert min_eigenvalue(e) >= 0.0


class TestSpectral:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_known_laplacian(self):
        k = 3 * np.eye(3) - np.ones((3, 3))
        assert spectral_norm(k) == pytest.approx(3.0, abs=1e-12)
        assert min_eigenvalue(k) == pytest.approx(0.0, abs=1e-12)

    def test_against_power_iteration(self, rng):
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            m = (m + m.T) / 2
            v = rng.standard_normal(6)
            for _ in range(3000):
                v = m @ v
                v /= np.linalg.norm(v)
            power = abs(float(v @ (m @ v)))
            assert spectral_norm(m) >= power - 1e-8
            assert spectral_norm(m) == pytest.approx(power, rel=1e-4)


class TestVarianceForm:
    def test_two_point_uniform_hits_lower_bound(self):
        val = variance_form([1 / math.sqrt(2), -1 / math.sqrt(2)], [0.5, 0.5])
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_uniform_delta_gives_1_over_n(self, rng):
        for n in (2, 4, 6):
            u = rng.standard_normal(n)
            u -= u.mean()
            u /= np.linalg.norm(u)
            val = variance_form(u, [1.0 / n] * n)
            assert val == pytest.approx(1.0 / n, abs=1e-10)

    def test_bounds_random_feasible(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 7))
            u = rng.standard_normal(n)
            u -= u.mean()
            norm = np.linalg.norm(u)
            if norm < 1e-9:
                continue
            u /= norm
            d = rng.uniform(0.1, 1.0, size=n)
            d /= d.sum()
            val = variance_form(u, d)
            assert d.min() - 1e-12 <= val <= d.max() + 1e-12

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            variance_form([1.0, 0.0], [0.5, 0.5])  # sum(u) != 0
        with pytest.raises(ValueError):
            variance_form([2.0, -2.0], [0.5, 0.5])  # |u|^2 != 1
        with pytest.raises(ValueError):
            variance_form([1 / math.sqrt(2), -1 / math.sqrt(2)], [1.0, 0.0])


class TestMwRegret:
    def test_fact_regret_inequality(self, rng):
        # sum_t M_t . P_t <= lambda_min(sum M_t) + eta T + ln(n)/eta
        for _ in range(60):
            n = int(rng.integers(2, 7))
            t_len = int(rng.integers(1, 21))
            eta = float(rng.uniform(0.05, 1.0))
            mats = []
            for _ in range(t_len):
                m = rng.standard_normal((n, n))
                m = (m + m.T) / 2
                m /= max(spectral_norm(m), 1e-12)
                m *= float(rng.uniform(0.1, 1.0))
                mats.append(m)
            running = np.zeros((n, n))
            lhs = 0.0
            for m in mats:
                w = mat_exp(-eta * running)
                p = w / np.trace(w)
                lhs += float(np.tensordot(m, p))
                running = running + m
            rhs = min_eigenvalue(running) + eta * t_len + math.log(n) / eta
            assert lhs <= rhs + 1e-8


class TestGramState:
    def test_from_matrix_consistency(self, rng):
        x, _ = random_gram(rng, 5)
        st = gram_state(x)
        assert st.vectors @ st.vectors.T == pytest.approx(x, abs=1e-9 * np.abs(x).max())
        assert dist2(st, 1, 2) == pytest.approx(x[1, 1] + x[2, 2] - 2 * x[1, 2], rel=1e-8)

    def test_k_dot_matches_tensordot(self, rng):
        x, _ = random_gram(rng, 6)
        st = gram_state(x)
        w = [1, 2, 1, 1, 2, 1]
        assert st.k_dot(w) == pytest.approx(float(np.tensordot(mat_K(w), x)), rel=1e-9)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWrapperFreeNumpy:
    """center_rows, squared_distances and mw_state give the bits of the
    np.mean and np.fill_diagonal formulas they replace."""

    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e12])
    def test_centering_and_distances(self, rng, n, offset):
        for dim in (1, n):
            common = offset * rng.standard_normal(dim)
            v = rng.standard_normal((n, dim)) + common
            assert same_bits(center_rows(v), mean_centered(v))
            assert same_bits(squared_distances(v), fill_diagonal_squared_distances(v))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_mw_state(self, monkeypatch, rng, n):
        weights = [int(w) for w in rng.integers(1, 4, size=n)]
        m = rng.standard_normal((n, n))
        m_sum = 40.0 * (m + m.T)
        got = driver.mw_state(m_sum, 0.3, weights).vectors
        monkeypatch.setattr(driver, "center_rows", mean_centered)
        assert same_bits(got, driver.mw_state(m_sum, 0.3, weights).vectors)
