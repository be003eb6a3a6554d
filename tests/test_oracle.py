"""Oracle dispatch, both flow cases, direction machinery, certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperspars import driver, oracle
from hyperspars.driver import SolverConfig, binary_search
from hyperspars.flownet import FlowAssignment, MaxFlowResult, flow_matrix
from hyperspars.oracle import (
    DualCertificate,
    OracleConfig,
    OracleFailure,
    OracleInvariantError,
    _ball_weights,
    _direction_splits,
    _medium_ball,
    _unit_directions,
    average_certificate,
    certificate_check,
    find_violated_path,
    path_triangles,
    run_oracle,
)
from hyperspars.hypergraph import reverse, sparsity
from hyperspars.reference import GeneratorSpec, brute_force_sparsest, generate
from hyperspars.sdpcore import GramState, TriangleId, mat_K, spectral_norm, squared_distances

import witnesses
from conftest import integral_state, make_h, normalized_state, random_hypergraph, scaled
from witnesses import (
    certificate_data,
    dist2,
    gram,
    mat_T,
    path_violation,
    per_edge_totals,
    triangle_weights,
)


def planted():
    h = generate(
        GeneratorSpec(
            n=8, m=12, model="planted-cut", balance=0.5,
            inside_w=4, crossing_w=Fraction(1, 20), seed=5,
        )
    )
    s_star, theta = brute_force_sparsest(h)
    assert theta > 0
    return h, s_star, theta


def expanderish():
    h = generate(GeneratorSpec(n=6, m=10, model="expander-like", seed=9))
    _, theta = brute_force_sparsest(h)
    assert theta > 0
    return h, theta


class TestConfig:
    def test_beta_consistency(self):
        cfg = OracleConfig()
        assert cfg.beta == pytest.approx(32 * cfg.c_path / (9 * cfg.s_viol * cfg.c_frac))
        assert cfg.eta_stretch == pytest.approx(cfg.s_viol / (4 * cfg.c_path))

    def test_n_dirs_default(self):
        cfg = OracleConfig()
        assert cfg.n_dirs_for(2) == 8
        assert cfg.n_dirs_for(9) == 8 * 4
        assert OracleConfig(n_dirs=3).n_dirs_for(9) == 3

    def test_rho_formula(self):
        h = make_h(4, [({0}, {1}, 1)], weights=[1, 2, 1, 1])
        cfg = OracleConfig()
        expected = 16.0 * 0.5 * 5**2 * math.sqrt(math.log2(2 * 4))
        assert cfg.rho(0.5, h) == pytest.approx(expected)


def ball(st, i, radius):
    """Members of the ball around i that the oracle's dispatch weighs,
    decoded from _ball_weights under power-of-two vertex weights."""
    n = st.vectors.shape[0]
    weight = int(_ball_weights(st.pairwise_dist2(), 2.0 ** np.arange(n), radius * radius)[i])
    return frozenset(j for j in range(n) if weight >> j & 1)


class TestBall:
    def test_radius_zero_collects_coincident(self, rng):
        v = np.array([[0.0], [0.0], [1.0]])
        st = GramState(v)
        assert ball(st, 0, 0.0) == {0, 1}

    def test_radius_beyond_diameter_is_everything(self, rng):
        h = random_hypergraph(rng, n=5)
        st = normalized_state(rng, h)
        assert ball(st, 2, 1e6) == frozenset(range(5))

    def test_matches_exhaustive_definition(self, rng):
        h = random_hypergraph(rng, n=6)
        st = normalized_state(rng, h)
        for i in range(6):
            r = float(rng.uniform(0, 2))
            expected = frozenset(
                j for j in range(6) if dist2(st, i, j) <= r * r
            )
            assert ball(st, i, r) == expected


class TestDispatch:
    def test_integral_state_goes_to_case1(self):
        h, s_star, theta = planted()
        st = integral_state(h, s_star)
        out = run_oracle(2 * float(theta), st, h, OracleConfig(), np.random.default_rng(0))
        assert out.case.startswith("1")

    def test_unnormalized_rejected(self):
        h, s_star, _ = planted()
        st = integral_state(h, s_star)
        bad = GramState(st.vectors * math.sqrt(0.5))
        with pytest.raises(ValueError, match="not normalized"):
            run_oracle(1.0, bad, h, OracleConfig(), np.random.default_rng(0))

    def test_nonpositive_alpha_rejected(self):
        h, s_star, _ = planted()
        st = integral_state(h, s_star)
        with pytest.raises(ValueError):
            run_oracle(0.0, st, h)

    def test_spread_state_goes_to_case2(self, rng):
        h, _ = expanderish()
        st = normalized_state(rng, h, dim=6)
        out = run_oracle(0.5, st, h, OracleConfig(), rng)
        assert out.case.startswith("2")

    def test_exactly_one_case_predicate(self, rng):
        # ball test is a total predicate: concentrated states run Case 1,
        # and on every other state the medium ball exists around its centre
        for _ in range(20):
            h = random_hypergraph(rng, max_n=7)
            st = normalized_state(rng, h)
            omega = np.array(h.vertex_weights, float)
            total = float(h.total_weight)
            d2 = st.pairwise_dist2()
            ballw = (d2 <= 1.0 / (8 * total * total)) @ omega
            concentrated = ballw.max() >= total / 4.0
            if concentrated:
                try:
                    case = run_oracle(0.5, st, h, OracleConfig(), rng).case
                except OracleFailure as exc:  # a certificate wider than rho
                    case = exc.diagnostics["case"]
                assert case.startswith("1")
            else:
                members, i0 = _medium_ball(omega, d2, total)
                assert i0 in members

    def test_case2_call_weighs_each_ball_once(self, rng, monkeypatch):
        # the small ball in the dispatch, the medium ball in Case 2
        h, _ = expanderish()
        st = normalized_state(rng, h, dim=6)
        radii = []
        real = oracle._ball_weights
        monkeypatch.setattr(
            oracle, "_ball_weights", lambda d2, w, r2: radii.append(r2) or real(d2, w, r2)
        )
        out = run_oracle(0.5, st, h, OracleConfig(), rng)
        assert out.case.startswith("2")
        total = float(h.total_weight)
        assert radii == [1.0 / (8.0 * total * total), 9.0 / (total * total)]


class TestCase1:
    def test_planted_optimum_recovered_at_2theta(self):
        h, s_star, theta = planted()
        st = integral_state(h, s_star)
        cfg = OracleConfig()
        alpha = 2 * float(theta)
        out = run_oracle(alpha, st, h, cfg, np.random.default_rng(0))
        assert out.kind == "cut"
        assert out.case == "1A"
        assert float(out.cut.sparsity) <= cfg.c_A * alpha
        assert out.cut.sparsity >= theta
        assert out.cut.subset == s_star

    def test_gamma_bounded_by_three(self, rng):
        for _ in range(25):
            h = random_hypergraph(rng, max_n=8)
            st = normalized_state(rng, h, dim=1)  # rank-1 states concentrate
            try:
                out = run_oracle(0.3, st, h, OracleConfig(), rng)
            except OracleFailure:
                continue
            if "gamma" in out.diagnostics:
                assert out.diagnostics["gamma"] <= 3.0 + 1e-9

    def test_dual_branch_at_small_alpha(self):
        h, theta = expanderish()
        st = integral_state(h, frozenset({0, 1, 2}))
        cfg = OracleConfig()
        alpha = 0.002
        out = run_oracle(alpha, st, h, cfg, np.random.default_rng(0))
        assert out.kind == "dual"
        assert out.case == "1B"
        ok, report = certificate_check(out.dual, alpha, h, cfg.rho(alpha, h))
        assert ok, report

    def test_dual_dot_reduces_to_demand_bound(self):
        # with K . X = 1, the dual dot bullet is exactly D . X >= alpha
        h, theta = expanderish()
        st = integral_state(h, frozenset({0, 1, 2}))
        alpha = 0.002
        out = run_oracle(alpha, st, h, OracleConfig(), np.random.default_rng(0))
        cert = out.dual
        k = mat_K(h.vertex_weights)
        t_sum = sum(
            (f * mat_T(h.n, tri) for tri, f in triangle_weights(cert).items()),
            np.zeros((h.n, h.n)),
        )
        lhs = float(np.tensordot(t_sum + cert.z * k, gram(st)))
        f_dot = float(np.tensordot(flow_matrix(cert.flow, h.n), gram(st)))
        d_dot = f_dot - float(np.tensordot(t_sum, gram(st)))
        assert lhs <= f_dot + 1e-7
        assert d_dot >= alpha - 1e-9


class TestPreprocess:
    def test_bullets_on_simplex_like_state(self, rng):
        for _ in range(30):
            h = random_hypergraph(rng, max_n=8, max_m=5)
            st = normalized_state(rng, h, dim=h.n)
            total = float(h.total_weight)
            omega = np.array(h.vertex_weights, float)
            d2 = st.pairwise_dist2()
            if ((d2 <= 1 / (8 * total * total)) @ omega).max() >= total / 4:
                continue
            members, i0 = _medium_ball(omega, d2, total)
            assert sum(h.vertex_weights[v] for v in members) >= total / 2
            assert all(dist2(st, i0, i) <= 9 / total**2 + 1e-12 for i in members)
            spread = sum(
                h.vertex_weights[i] * h.vertex_weights[j] * dist2(st, i, j)
                for i in members
                for j in members
                if i < j
            )
            assert spread >= 1.0 / 128.0 - 1e-9


def direction_split(st, h, s, i0, cfg, rng):
    """Case 2's directions: the first split of n_dirs sampled directions;
    None when none gives one."""
    omega = np.array(h.vertex_weights, dtype=float)
    total = float(h.total_weight)
    vhat = (total / 3.0) * (st.vectors - st.vectors[i0])
    members = np.array(sorted(s), dtype=int)
    dirs = _unit_directions(rng, vhat.shape[1], cfg.n_dirs_for(h.n))
    dist0 = st.pairwise_dist2()[0]
    splits = _direction_splits(vhat[members], omega, members, dist0, dirs, cfg, total)
    return next((got for got in splits if got is not None), None)


class TestDirectionSplit:
    def test_antipodal_clusters_split(self, rng):
        # two clusters far apart along one axis: any direction near the
        # axis separates them (the member set is supplied directly)
        h = make_h(6, [({0}, {3}, 1)], weights=[1] * 6)
        total = 6.0
        base = np.zeros((6, 3))
        base[:3, 0] = -0.4
        base[3:, 0] = 0.4
        base += rng.normal(0, 0.02, size=base.shape)
        norm = math.sqrt(GramState(base).k_dot(h.vertex_weights))
        vectors = base / norm
        st = GramState(vectors)
        s, i0 = frozenset(range(6)), 0
        got = direction_split(st, h, s, i0, OracleConfig(), rng)
        assert got is not None
        u_eff, left, right = got
        assert left and right
        vhat = (total / 3.0) * (st.vectors - st.vectors[i0])
        sigma = OracleConfig().sigma
        for i in left:
            for j in right:
                assert float((vhat[j] - vhat[i]) @ u_eff) >= sigma / math.sqrt(total) - 1e-12
                # directed-distance guarantee d(i, j) >= |v_i - v_j|^2
                d0 = float((vhat[i] - vhat[0]) @ (vhat[i] - vhat[0]))
                d1 = float((vhat[j] - vhat[0]) @ (vhat[j] - vhat[0]))
                assert d1 >= d0 - 1e-12

    def test_coincident_vectors_fail(self, rng):
        h = make_h(4, [({0}, {1}, 1)])
        vectors = np.ones((4, 2))
        st = GramState(vectors)
        assert direction_split(st, h, frozenset(range(4)), 0, OracleConfig(n_dirs=4), rng) is None


class TestFindViolatedPath:
    def test_collinear_chain_found_and_verified(self, rng):
        # equally spaced points along a line: hop distances shrink
        # quadratically relative to the endpoint distance
        h = make_h(7, [({0}, {1}, 1)], weights=[1] * 7)
        cfg = OracleConfig()
        # hop distance just inside the stretched-pair filter; the best
        # triple violates by only 18 delta^2 < s_viol, so only the chained
        # search can close the gap
        delta2 = 0.009
        delta = math.sqrt(delta2)
        u = np.zeros(3)
        u[0] = 1.0
        vhat = np.array([[k * delta, 0.0, 0.0] for k in range(7)])
        omega = np.ones(7)
        assert 18 * delta2 < cfg.s_viol
        q = squared_distances(vhat)
        path = find_violated_path(q, vhat @ u, omega, {}, cfg, h)
        assert path is not None
        assert len(path) >= 4
        assert path_violation(q, path) <= -cfg.s_viol
        assert len(path) - 1 <= cfg.path_cap(h)

    def test_two_points_no_path(self, rng):
        h = make_h(2, [({0}, {1}, 1)])
        vhat = np.array([[0.0], [1.0]])
        cfg = OracleConfig()
        q = squared_distances(vhat)
        assert find_violated_path(q, vhat[:, 0], np.ones(2), {}, cfg, h) is None

    def test_returned_path_scales_to_triangle_sum(self, rng):
        # the path triangles evaluated on X match the rescaled violation
        h = make_h(7, [({0}, {1}, 1)], weights=[1] * 7)
        cfg = OracleConfig()
        total = float(h.total_weight)
        positions = np.array([[k / 14.0, 0.0] for k in range(7)])
        st = GramState(positions)
        assert st.k_dot(h.vertex_weights) == pytest.approx(1.0, abs=1e-9)
        vhat = (total / 3.0) * (positions - positions[0])
        q = squared_distances(vhat)
        path = find_violated_path(q, vhat[:, 0], np.ones(7), {}, cfg, h)
        assert path is not None
        tri_sum = sum(
            float(np.tensordot(mat_T(7, tri), gram(st))) for tri in path_triangles(path)
        )
        assert tri_sum == pytest.approx((9.0 / total**2) * path_violation(q, path), rel=1e-9)
        assert tri_sum <= -9.0 * cfg.s_viol / total**2


class TestCase2:
    def test_spread_state_cut_or_dual(self, rng):
        h, theta = expanderish()
        cfg = OracleConfig()
        for alpha in (0.6, 0.05, 0.004):
            st = normalized_state(rng, h, dim=6)
            out = run_oracle(alpha, st, h, cfg, rng)
            assert out.case.startswith("2")
            if out.kind == "cut":
                assert float(out.cut.sparsity) <= cfg.ratio_bound(alpha, h, out.case) * (1 + 1e-9)
            else:
                ok, rep = certificate_check(out.dual, alpha, h, cfg.rho(alpha, h))
                assert ok, rep

    def test_case_c_certificate_on_planted_chain(self):
        # collinear equally spaced embedding, normalized: the triangle
        # chain certificate closes the <= 0 display exactly
        h = make_h(7, [({0}, {6}, 2)], weights=[1] * 7)
        cfg = OracleConfig()
        total = float(h.total_weight)
        positions = np.array([[k / 14.0] for k in range(7)])
        st = GramState(positions)
        path = [0, 3, 6]
        tris = path_triangles(path)
        tri_sum = sum(float(np.tensordot(mat_T(7, t), gram(st))) for t in tris)
        assert tri_sum <= -9.0 * cfg.s_viol / total**2
        alpha = 0.31
        f_val = total * total * alpha / (9.0 * cfg.s_viol)
        cert = DualCertificate.of(alpha, {t: f_val for t in tris}, FlowAssignment.of(()))
        k = mat_K(h.vertex_weights)
        ok, report = certificate_check(cert, alpha, h, cfg.rho(alpha, h))
        assert ok, report
        # F = 0 here, so the residual is sum f_p T_p + z K
        residual = sum(f_val * mat_T(7, t) for t in tris) + alpha * k
        assert np.allclose(report["residual"], residual, rtol=0, atol=1e-9 * np.abs(residual).max())
        # the width bounds the norm; under this rho the row-sum bound settles it
        exact = spectral_norm(residual)
        assert exact <= report["width"]
        # a rho the row-sum bound exceeds takes the exact norm
        tight = 1.001 * exact
        assert np.abs(residual).sum(axis=1).max() > tight
        ok, tight_report = certificate_check(cert, alpha, h, tight)
        assert ok and tight_report["width"] == pytest.approx(exact, rel=1e-12)
        lhs = float(np.tensordot(report["residual"] + flow_matrix(cert.flow, 7), gram(st)))
        assert lhs <= 0.0 + 1e-9
        # width components: ||sum T_p|| small (at most 6), ||K|| within the
        # corollary
        t_norm = spectral_norm(sum(mat_T(7, t) for t in tris))
        assert t_norm <= 6.0
        assert spectral_norm(k) <= h.kappa * total**2 / h.n + 1e-9

    def test_violated_path_end_to_end(self):
        # 14 vertices on a line across the first direction u, and a pair
        # 0.3 past its end, 0.02 apart along u and joined by an edge of
        # weight 2 each way: u splits the pair, whose flow of 1 reaches the
        # threshold with D . X = d(14, 15) below alpha, and the line holds
        # the violated path 0 -> 8 -> 15
        u = np.random.default_rng(0).standard_normal((1, 2))[0]
        u /= np.linalg.norm(u)
        e2 = np.array([-u[1], u[0]])
        v = np.array([0.1 * k * e2 for k in range(14)] + [1.6 * e2 - 0.01 * u, 1.6 * e2 + 0.01 * u])
        v[0] -= 1e-4 * u
        h = make_h(16, [({14}, {15}, 2), ({15}, {14}, 2)], weights=[1] * 16)
        state = GramState(v / math.sqrt(GramState(v).k_dot(h.vertex_weights)))
        cfg = OracleConfig()
        total = float(h.total_weight)
        # the largest alpha whose threshold a flow of 1 reaches
        reach = 1.0 / ((cfg.c_frac * cfg.beta / 4.0) * total**2 * math.sqrt(oracle.log2_weight(h)))
        d_14_15 = witnesses.directed_distance(state.vectors, 14, 15)
        alpha = math.sqrt(d_14_15 * reach)
        out = run_oracle(alpha, state, h, cfg, np.random.default_rng(0))
        assert (out.kind, out.case, out.diagnostics["path"]) == ("dual", "2C", [0, 8, 15])
        assert out.diagnostics["flow_value"] == 1.0
        assert out.diagnostics["d_dot_x"] == pytest.approx(d_14_15, rel=1e-9)
        assert out.dual.triangles.tolist() == [[0, 15, 8]] and not len(out.dual.flow.keys)
        ok, report = certificate_check(out.dual, alpha, h, cfg.rho(alpha, h))
        assert ok, report


def spread_instance(seed=3, dim=16, sigma=None):
    """An n=16 expander-like instance and a spread state: Case 2 on every
    call, each of its 32 directions a 2A cut at alpha 0.1 and default
    constants."""
    h = generate(GeneratorSpec(n=16, m=32, model="expander-like", seed=seed))
    state = normalized_state(np.random.default_rng(seed), h, dim=dim)
    cfg = OracleConfig() if sigma is None else OracleConfig(sigma=sigma)
    return h, state, cfg


def outcome_summary(out):
    """Everything an outcome reports: case, cut or certificate, diagnostics."""
    if out.kind == "cut":
        data = (out.cut.subset, out.cut.sparsity, out.cut.phi_plus, out.cut.phi_minus)
    else:
        cert = out.dual
        data = (cert.z, sorted(triangle_weights(cert).items()), list(cert.flow), out.width)
    return out.kind, out.case, data, out.diagnostics


def scan_both_ways(monkeypatch, h, state, alpha, cfg, seed, script=None):
    """run_oracle from one seed with the batched Case 2 and with the
    one-direction-at-a-time reference; per side, the outcome (or error),
    the generator's final state and the terminal capacities of every
    max-flow run.  The states are None where the reference's scan ends on
    a flow after its first 2A cut: the batch has drawn past that flow's
    direction.  ``script`` maps a max-flow's 1-based index to a function
    of the real result that replaces it."""
    script = script or {}
    sides = []
    drawn = []  # the reference's directions
    for case2 in (oracle._case2, witnesses.scan_case2):
        flows = []

        def scripted(inst, real=oracle.max_flow):
            terminal_caps = inst.cap[len(inst.rd.arcs) :]
            flows.append((inst.sources.tolist(), inst.sinks.tolist(), terminal_caps.tolist()))
            return script.get(len(flows), lambda r: r)(real(inst))

        with monkeypatch.context() as m:
            m.setattr(oracle, "max_flow", scripted)
            m.setattr(oracle, "_case2", case2)
            real = witnesses.random_direction
            m.setattr(witnesses, "random_direction", lambda *a: drawn.append(1) or real(*a))
            rng = np.random.default_rng(seed)
            try:
                got = outcome_summary(run_oracle(alpha, state, h, cfg, rng))
            except (OracleFailure, OracleInvariantError) as exc:
                got = (type(exc).__name__, str(exc), exc.diagnostics)
        sides.append((got, rng.bit_generator.state, flows))
    if sides[1][0][1] == "2A" and len(drawn) < cfg.n_dirs_for(h.n):
        sides = [(got, None, flows) for got, _, flows in sides]
    return sides


def saturated(res):
    # a flow at or above any threshold: the scan cannot read it as 2A
    return MaxFlowResult(math.inf, res.arc_flow, res.reachable)


def source_only(res):
    # below the threshold with nothing reachable: an improper cut
    return MaxFlowResult(0.0, res.arc_flow, np.zeros_like(res.reachable))


def assert_same_outcome(got, want):
    """Bit for bit: every float compared with ==, the residuals with
    np.array_equal."""
    assert outcome_summary(got) == outcome_summary(want)
    assert certificate_data(got.dual) == certificate_data(want.dual)
    assert (got.residual is None) == (want.residual is None)
    if got.residual is not None:
        assert np.array_equal(got.residual, want.residual)


class TestCase1FlowReuse:
    """The oracle keeps nothing from one step of a run to the next: each
    Case 1 step builds and solves its own max-flow, and every outcome is
    the one a fresh call on the same inputs gives."""

    def test_certify_run_outcomes_match_fresh_flows(self, monkeypatch):
        # the 3-vertex unit cycle searched as the certify benchmark does,
        # at c_rho = 1: a cut probe, 2 x 1 certifying Case 1B steps, a cut
        # probe; then an expander-like probe whose runs certify after 64
        # Case 1B steps each
        h = make_h(3, [({0}, {1}, 1), ({1}, {2}, 1), ({2}, {0}, 1)])
        cfg = SolverConfig(
            alpha_lo=0.0025, alpha_hi=0.5, search_ratio=2.0, oracle=OracleConfig(c_rho=1.0)
        )
        runs = []  # per run, each step's case and the max-flows it solved
        solved = []
        real_run, real_oracle = driver.run_algorithm1, oracle.run_oracle
        real_max_flow = oracle.max_flow

        def run(*args):
            runs.append([])
            return real_run(*args)

        def checked(alpha, state, h_run, ocfg, rng):
            before = len(solved)
            got = real_oracle(alpha, state, h_run, ocfg, rng)
            runs[-1].append((got.case, len(solved) - before))
            fresh = real_oracle(alpha, state, h_run, ocfg, np.random.default_rng(0))
            assert_same_outcome(got, fresh)
            return got

        monkeypatch.setattr(driver, "run_algorithm1", run)
        monkeypatch.setattr(driver, "run_oracle", checked)
        monkeypatch.setattr(oracle, "max_flow", lambda inst: solved.append(inst) or real_max_flow(inst))
        res = binary_search(h, cfg)
        assert res.lower_bound is not None
        h5 = generate(GeneratorSpec(n=5, m=10, kappa=2, model="expander-like", seed=1))
        alpha = float(brute_force_sparsest(h5)[1]) / 64
        assert driver.run_both_sides(h5, alpha, cfg).certified
        assert [len(steps) for steps in runs] == [1] * 6 + [64, 64]
        assert {case for steps in runs for case, _ in steps} <= {"1A", "1B"}
        assert all(flows == 1 for steps in runs for _, flows in steps)
        # the fresh reference calls solved as many again
        assert len(solved) == 2 * sum(len(steps) for steps in runs)


class TestBatchedScan:
    """Case 2 splits and scores the directions after its first 2A cut as
    one batch; outcome and flows must be the reference's, and so must the
    generator's state unless the scan ends inside the batch.  The
    reference reads the distances to vertex 0 from the vectors, the oracle
    from d2, so every comparison also checks that the split does not
    depend on that route."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 40),
        st.sampled_from([1, 2, 5, None]),
        st.sampled_from([{}, {"sigma": 0.8}, {"c_frac": 0.1}, {"c_frac": 0.25}]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_outcome_and_generator_as_the_reference(self, seed, n, n_dirs, constants):
        # a wide stretch requirement leaves directions without a split; a
        # large c_frac makes L0 and R0 hold more than one vertex
        g = np.random.default_rng(seed)
        h = random_hypergraph(g, n=n, m=int(g.integers(1, 2 * n + 1)), max_side=4)
        state = normalized_state(g, h, dim=int(g.integers(1, n + 1)))
        alpha = float(10.0 ** g.uniform(-5, 0.5))
        cfg = OracleConfig(n_dirs=n_dirs, **constants)
        with pytest.MonkeyPatch.context() as mp:
            batched, reference = scan_both_ways(mp, h, state, alpha, cfg, seed)
        assert batched == reference

    def test_stop_at_direction_one_with_2b(self, monkeypatch):
        h, state, cfg = spread_instance(seed=1, dim=3)
        batched, reference = scan_both_ways(monkeypatch, h, state, 1e-4, cfg, 0)
        assert batched == reference
        assert batched[0][1] == "2B" and len(batched[2]) == 1

    @pytest.mark.parametrize("stop", [2, 5, 31])
    def test_stop_after_the_first_2a(self, monkeypatch, stop):
        # direction 2 ends the scan right after the first 2A cut; 5 and 31
        # end it inside the batch of the 31 directions after it
        h, state, cfg = spread_instance()
        script = {stop: saturated}
        batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0, script)
        assert batched == reference
        assert batched[0][1] == "2A" and len(batched[2]) == stop
        assert batched[1] is None

    def test_no_stop(self, monkeypatch):
        h, state, cfg = spread_instance()
        batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0)
        assert batched == reference
        assert batched[0][1] == "2A" and len(batched[2]) == cfg.n_dirs_for(h.n) == 32

    def test_no_split_before_the_first_2a(self, monkeypatch):
        # a wide stretch requirement: the first direction (and some later
        # ones, inside the batch) give no split
        h, state, cfg = spread_instance(dim=3, sigma=0.8)
        splits = []
        real = witnesses.direction_split_once
        monkeypatch.setattr(
            witnesses, "direction_split_once", lambda *a: splits.append(real(*a)) or splits[-1]
        )
        batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 2)
        assert batched == reference
        assert splits[0] is None and splits[1] is not None
        assert batched[0][1] == "2A" and len(batched[2]) == 32 - splits.count(None) < 32

    @pytest.mark.parametrize("target", [1, 2, 3, 4])
    def test_prefix_weight_equal_to_the_target(self, monkeypatch, target):
        # unit weights and c_frac w a whole number: a prefix of every sweep
        # weighs exactly the target, as the first vertex does on any n=128
        # unit-weight instance, and an even target puts the median on a
        # prefix sum too
        h, state, _ = spread_instance()
        cfg = OracleConfig(c_frac=target / 16.0)
        assert cfg.c_frac * h.total_weight == target and set(h.vertex_weights) == {1}
        for alpha in (0.1, 1e-3):
            batched, reference = scan_both_ways(monkeypatch, h, state, alpha, cfg, 0)
            assert batched == reference
            assert batched[0][1].startswith("2")

    @pytest.mark.parametrize("bad", [1, 2, 9])
    def test_improper_cut_raises_as_the_reference(self, monkeypatch, bad):
        h, state, cfg = spread_instance()
        script = {bad: source_only}
        batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0, script)
        assert batched[0] == reference[0]
        assert batched[0][0] == "OracleInvariantError" and "improper cut" in batched[0][1]

    def test_ratio_breach_by_a_losing_cut_raises(self, monkeypatch):
        h, state, cfg = spread_instance()
        sparsities = []
        real = witnesses.single_cut_outcome
        monkeypatch.setattr(
            witnesses,
            "single_cut_outcome",
            lambda *a: sparsities.append(float(real(*a).cut.sparsity)) or real(*a),
        )
        assert scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0)[1][0][1] == "2A"
        # a bound the sparsest cut meets and some other cut breaks
        bound = (min(sparsities) + max(sparsities)) / 2.0
        first_breach = next(i for i, s in enumerate(sparsities) if s > bound * (1 + 1e-9))
        assert min(sparsities) <= bound
        monkeypatch.setattr(OracleConfig, "ratio_bound", lambda self, alpha, h, case: bound)
        # an improper cut after the breach does not take its place
        for script in ({}, {first_breach + 2: source_only}):
            batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0, script)
            assert batched[0] == reference[0]
            assert batched[0][0] == "OracleInvariantError"
            assert "exceeds ratio bound" in batched[0][1]
            assert batched[0][2]["sparsity"] == sparsities[first_breach]

    def test_ties_keep_the_first_cut(self, monkeypatch):
        # directions 1 and 2 leave the same cut at different flow values,
        # direction 3 ends the scan
        h, state, cfg = spread_instance()
        first = []

        def remember(res):
            first.append(res)
            return res

        def same_cut(res):
            return MaxFlowResult(first[0].value / 2.0, res.arc_flow, first[0].reachable)

        script = {1: remember, 2: same_cut, 3: saturated}
        batched, reference = scan_both_ways(monkeypatch, h, state, 0.1, cfg, 0, script)
        assert batched == reference
        (_, case, _, diagnostics), _, flows = batched
        assert case == "2A" and len(flows) == 3
        assert diagnostics["flow_value"] == first[0].value != first[0].value / 2.0


class TestCertificateCheck:
    def setup_cert(self):
        h, theta = expanderish()
        st = integral_state(h, frozenset({0, 1, 2}))
        alpha = 0.002
        out = run_oracle(alpha, st, h, OracleConfig(), np.random.default_rng(0))
        assert out.kind == "dual"
        return h, st, alpha, out

    def test_valid_certificate_passes(self):
        h, st, alpha, out = self.setup_cert()
        ok, report = certificate_check(out.dual, alpha, h, OracleConfig().rho(alpha, h))
        assert ok
        # the outcome carries the residual and width of the oracle's own check
        assert report["width"] == out.width
        assert np.array_equal(report["residual"], out.residual)

    def test_z_below_alpha_fails(self):
        h, st, alpha, out = self.setup_cert()
        cert = out.dual
        low = DualCertificate(alpha / 2, cert.triangles, cert.weights, cert.flow)
        ok, report = certificate_check(low, alpha, h, OracleConfig().rho(alpha, h))
        assert not ok and report["first_failure"] == "z_below_alpha"

    def test_negative_triangle_weight_fails(self):
        h, st, alpha, out = self.setup_cert()
        cert = out.dual
        tris = triangle_weights(cert)
        if not tris:
            tris[TriangleId.make(0, 2, 1)] = 0.0
        key = next(iter(tris))
        tris[key] = -abs(tris[key]) - 1e-6
        bad = DualCertificate.of(cert.z, tris, cert.flow)
        ok, report = certificate_check(bad, alpha, h, OracleConfig().rho(alpha, h))
        assert not ok and report["first_failure"] == "negative_triangle_weight"

    def test_over_capacity_flow_fails(self):
        h, st, alpha, out = self.setup_cert()
        cert = out.dual
        totals = per_edge_totals(cert.flow)
        factor = 3.0 * max(
            float(h.edges[e].weight) / 2.0 / tot for e, tot in totals.items() if tot > 0
        )
        inflated = FlowAssignment(cert.flow.keys, cert.flow.values * factor)
        bad = DualCertificate(cert.z, cert.triangles, cert.weights, inflated)
        ok, report = certificate_check(bad, alpha, h, OracleConfig().rho(alpha, h))
        assert not ok and report["first_failure"] == "flow_capacity"

    def test_width_budget_fails_when_rho_too_small(self):
        h, st, alpha, out = self.setup_cert()
        ok, report = certificate_check(out.dual, alpha, h, spectral_norm(out.residual) / 2.0)
        assert not ok and report["first_failure"] == "width_bound"

    def test_dual_dot_bound_is_a_per_step_invariant(self):
        # z K alone gives R . X = z K . X = alpha > 1e-7 alpha: a
        # structurally valid certificate that the state contradicts
        h, st, alpha, out = self.setup_cert()
        cert = DualCertificate.of(alpha, {}, FlowAssignment.of(()))
        assert certificate_check(cert, alpha, h, OracleConfig().rho(alpha, h))[0]
        omega = np.array(h.vertex_weights, dtype=float)
        call = oracle._Call(
            alpha, st, h, OracleConfig(), None, omega, float(omega.sum()), st.pairwise_dist2()
        )
        with pytest.raises(OracleInvariantError, match="dual_dot_bound"):
            oracle._dual_outcome(call, cert, "2C", {})

    def test_dual_dot_slack_is_relative_to_alpha(self):
        # the same contradiction at alpha = 1e-9, which an absolute slack
        # of 1e-7 let pass
        h, st, _, out = self.setup_cert()
        alpha = 1e-9
        cert = DualCertificate.of(alpha, {}, FlowAssignment.of(()))
        assert certificate_check(cert, alpha, h, OracleConfig().rho(alpha, h))[0]
        omega = np.array(h.vertex_weights, dtype=float)
        call = oracle._Call(
            alpha, st, h, OracleConfig(), None, omega, float(omega.sum()), st.pairwise_dist2()
        )
        with pytest.raises(OracleInvariantError, match="dual_dot_bound"):
            oracle._dual_outcome(call, cert, "2C", {})


def random_certificate(rng, h, alpha):
    """A certificate that passes every bullet but the width: z >= alpha,
    nonnegative triangle weights, and flow on (tail, head) pairs within
    each edge's capacity, at a scale drawn over six decades."""
    scale = float(10.0 ** rng.uniform(-3, 3))
    triangles = {}
    if h.n >= 3:
        for _ in range(int(rng.integers(0, 6))):
            a, b, mid = rng.choice(h.n, 3, replace=False).tolist()
            triangles[TriangleId.make(a, b, mid)] = scale * float(rng.exponential())
    entries = []
    for e_idx, e in enumerate(h.edges):
        if e.weight == 0 or rng.random() < 0.3:
            continue
        pairs = [(i, j) for i in sorted(e.tail) for j in sorted(e.head)]
        cap = float(e.weight) / 2.0 * float(rng.uniform(0.0, 0.99))
        shares = rng.dirichlet(np.ones(len(pairs))) * cap
        entries += [(e_idx, i, j, float(f)) for (i, j), f in zip(pairs, shares)]
    z = alpha * (1.0 + float(rng.exponential()))
    return DualCertificate.of(z, triangles, FlowAssignment.of(entries))


FAILURES = (
    "z_below_alpha", "negative_triangle_weight", "triangle_vertex_range", "flow_edge_range",
    "flow_pair_not_in_edge", "flow_capacity", "negative_flow", "residual_not_finite",
)


def seeded(rng, h, alpha, cert, failures):
    """``cert`` with each of ``failures`` (names of certificate_check
    bullets) planted in it: in one entry, or for the capacity in every
    flow entry."""
    z, tri, weights = cert.z, cert.triangles.copy(), cert.weights.copy()
    keys, values = cert.flow.keys.copy(), cert.flow.values.copy()

    def pick(arr):
        return int(rng.integers(len(arr)))

    for failure in failures:
        if failure == "z_below_alpha":
            z = alpha / 2
        elif failure == "negative_triangle_weight" and len(weights):
            weights[pick(weights)] = -float(rng.exponential())
        elif failure == "triangle_vertex_range" and len(tri):
            tri[pick(tri), int(rng.integers(3))] = rng.choice([-1, h.n, h.n + 5])
        elif failure == "flow_edge_range" and len(keys):
            keys[pick(keys), 0] = rng.choice([-1, h.m])
        elif failure == "flow_pair_not_in_edge" and len(keys):
            keys[pick(keys), int(rng.integers(1, 3))] = rng.choice([-1, h.n, *range(h.n)])
        elif failure == "flow_capacity" and len(keys):
            values *= 1e3
        elif failure == "negative_flow" and len(keys):
            values[pick(values)] = -float(rng.exponential())
        elif failure == "residual_not_finite":
            z = 1e308
            weights[:] = 1e308
    return DualCertificate(z, tri, weights, FlowAssignment(keys, values))


def splits_by_route(state, h, seed):
    """Case 2's split of ``state``'s medium ball along each of n_dirs
    directions drawn from ``seed``, as (direction, L, R) lists or None, for
    the distances to vertex 0 read three ways: d2[0], the direct
    |v_i - v_0|^2, and d2[0] moved by up to 4 ulps per entry."""
    cfg = OracleConfig()
    omega = np.array(h.vertex_weights, dtype=float)
    total = float(h.total_weight)
    d2 = state.pairwise_dist2()
    members, i0 = _medium_ball(omega, d2, total)
    v = state.vectors
    vm = (total / 3.0) * (v[members] - v[i0])
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(rng, v.shape[1], cfg.n_dirs_for(h.n))
    ulps = rng.integers(-4, 5, size=h.n)
    routes = d2[0], np.einsum("ij,ij->i", v - v[0], v - v[0]), d2[0] + ulps * np.spacing(d2[0])
    return [
        [
            None if got is None else [side.tolist() for side in got]
            for got in _direction_splits(vm, omega, members, dist0, dirs, cfg, total)
        ]
        for dist0 in routes
    ]


class TestStateThroughD2:
    """The oracle reads X only through the state's squared distances d2:
    R . X as -(1/2) R . d2, and D . X as the d(i, j) = d2[i, j] - d2[0, i]
    + d2[0, j] of each demand pair; each agrees with the Gram matrix and the
    pairwise sum of ``witnesses`` within 1e-12, relative to the size of
    its terms (the sum of |R| or of the demand, times max d2)."""

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 8.0), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_dots_agree_with_the_gram_matrix(self, seed, log_scale, oracle_made):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_n=12, max_m=10)
        n = h.n
        m = rng.standard_normal((n, n))
        state = driver.mw_state(10.0**log_scale * (m + m.T), 0.3, h.vertex_weights)
        d2 = state.pairwise_dist2()
        # small enough that about 30% of the oracle calls make a dual
        alpha = float(10.0 ** rng.uniform(-7, -2))
        if oracle_made:
            demands = []
            real = oracle._demand_dot
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_demand_dot", lambda d, q: demands.append(d) or real(d, q))
                try:
                    out = run_oracle(alpha, state, h, OracleConfig(), rng)
                except OracleFailure:
                    return
            if out.kind != "dual":
                return
            residual = out.residual
        else:
            cert = random_certificate(rng, h, alpha)
            residual = certificate_check(cert, alpha, h, math.inf)[1]["residual"]
            demand: dict[tuple[int, int], float] = {}
            for _ in range(int(rng.integers(1, 2 * n))):
                i, j = rng.integers(n, size=2).tolist()
                demand[i, j] = demand.get((i, j), 0.0) + float(rng.exponential())
            demands = [demand]
        got = oracle._residual_dot(residual, d2)
        want = float(np.vdot(residual, gram(state)))
        assert abs(got - want) <= 1e-12 * float(np.abs(residual).sum()) * d2.max()
        for demand in demands:
            got = oracle._demand_dot(demand, d2)
            want = sum(
                f * witnesses.directed_distance(state.vectors, i, j)
                for (i, j), f in demand.items()
            )
            assert abs(got - want) <= 1e-12 * sum(demand.values()) * d2.max()

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 8.0), st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_split_does_not_depend_on_the_route(self, seed, log_scale, first):
        # iterates of random sums, and first iterates (sum M = 0), that
        # the dispatch sends to Case 2
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_n=12, max_m=10)
        m = rng.standard_normal((h.n, h.n))
        scale = 0.0 if first else 10.0**log_scale
        state = driver.mw_state(scale * (m + m.T), 0.3, h.vertex_weights)
        omega, total = np.array(h.vertex_weights, float), float(h.total_weight)
        small = _ball_weights(state.pairwise_dist2(), omega, 1 / (8 * total * total))
        assume(small.max() < OracleConfig().c_ball * total)
        d2_route, direct, perturbed = splits_by_route(state, h, seed)
        assert d2_route == direct == perturbed

    @pytest.mark.parametrize("instance", [21, 22, 23, "unit cycle"])
    def test_first_iterate_ties_at_vertex_0(self, instance):
        # at the first iterate (sum M = 0) the direct |v_i - v_0|^2 takes
        # one value on every vertex but 0, where d2[0] takes several by
        # rounding alone; the split is the same on both.  The instances are
        # those of the benchmark's search workload at seed 7 (Case 2) and
        # the unit 3-cycle (Case 1)
        if instance == "unit cycle":
            h = make_h(3, [({0}, {1}, 1), ({1}, {2}, 1), ({2}, {0}, 1)])
        else:
            h = generate(GeneratorSpec(n=128, m=256, kappa=2, model="expander-like", seed=instance))
        state = driver.mw_state(np.zeros((h.n, h.n)), 0.1, h.vertex_weights)
        out = run_oracle(1e-3, state, h, OracleConfig(), np.random.default_rng(0))
        assert out.case[0] == ("1" if instance == "unit cycle" else "2")
        v = state.vectors
        assert len(set(np.einsum("ij,ij->i", v - v[0], v - v[0])[1:].tolist())) == 1
        if instance != "unit cycle":
            assert len(set(state.pairwise_dist2()[0, 1:].tolist())) > 1
        d2_route, direct, perturbed = splits_by_route(state, h, 0)
        assert d2_route == direct == perturbed
        assert any(got is not None for got in direct)


class TestMatchesTheEntryByEntryCheck:
    """certificate_check, in whole-array passes, decides as the check that
    read a certificate entry by entry (``witnesses``): the same verdict,
    first failure, failing flow entry and edge, and a residual and width
    equal to the bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(FAILURES), max_size=3),
        st.sampled_from([math.inf, 0.5, "row_sum"]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_report(self, seed, failures, rho):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_n=8, max_m=6)
        alpha = float(10.0 ** rng.uniform(-4, 0))
        cert = seeded(rng, h, alpha, random_certificate(rng, h, alpha), failures)
        with np.errstate(over="ignore", invalid="ignore"):
            if rho != math.inf:
                _, valid = witnesses.reference_certificate_check(cert, alpha, h, math.inf)
                bound = np.abs(valid.get("residual", np.ones((1, 1)))).sum(axis=1).max()
                rho = bound if rho == "row_sum" else rho * bound
            got_ok, got = certificate_check(cert, alpha, h, rho)
            want_ok, want = witnesses.reference_certificate_check(cert, alpha, h, rho)
        assert (got_ok, got["first_failure"]) == (want_ok, want["first_failure"])
        for key in ("flow_entry", "edge_over_capacity", "width"):
            assert got.get(key) == want.get(key)
        assert ("residual" in got) == ("residual" in want)
        if "residual" in got:
            assert np.array_equal(got["residual"], want["residual"])

    def test_a_flow_1e8_times_another_into_vertex_0(self):
        # a valid certificate: flow a -> b of 1e-8 and c -> a of 1, with
        # a = vertex 0.  F 1 = 0 holds only up to the rounding of the
        # larger flow, above 1e-9 max|F|, which a ones-kernel bullet took
        # for a failure
        a, b, c = 0, 1, 2
        h = make_h(3, [({a}, {b}, 2), ({c}, {a}, 2)])
        flow = FlowAssignment.of([(0, a, b, 1e-8), (1, c, a, 1.0)])
        cert = DualCertificate.of(0.01, {}, flow)
        got_ok, got = certificate_check(cert, 0.01, h, math.inf)
        want_ok, want = witnesses.reference_certificate_check(cert, 0.01, h, math.inf)
        assert (got_ok, got["first_failure"]) == (want_ok, want["first_failure"]) == (True, None)
        assert got["width"] == want["width"]
        assert np.array_equal(got["residual"], want["residual"])

    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(FAILURES[:-1]), max_size=2))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_verdicts_scale_with_the_weights(self, seed, failures):
        # edge weights, alpha, rho and the certificate times 2^-40: the
        # same verdict, and the residual times 2^-40 exactly (an overflow
        # is a matter of scale, so none is planted)
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_n=8, max_m=6)
        alpha = float(10.0 ** rng.uniform(-4, 0))
        cert = random_certificate(rng, h, alpha)
        if len(cert.flow) and rng.random() < 0.5:
            # just over capacity on one edge
            e_idx = int(cert.flow.keys[0, 0])
            on_edge = cert.flow.keys[:, 0] == e_idx
            total = cert.flow.values[on_edge].sum()
            values = cert.flow.values.copy()
            values[on_edge] *= 1.5 * float(h.edges[e_idx].weight) / 2 / total
            flow = FlowAssignment(cert.flow.keys, values)
            cert = DualCertificate(cert.z, cert.triangles, cert.weights, flow)
        cert = seeded(rng, h, alpha, cert, failures)
        s = 2.0**-40
        flow = FlowAssignment(cert.flow.keys, cert.flow.values * s)
        small = DualCertificate(cert.z * s, cert.triangles, cert.weights * s, flow)
        with np.errstate(over="ignore", invalid="ignore"):
            ok, report = certificate_check(cert, alpha, h, 1.0)
            ok_s, report_s = certificate_check(small, alpha * s, scaled(h, Fraction(s)), s)
        assert (ok_s, report_s["first_failure"]) == (ok, report["first_failure"])
        if "residual" in report:
            assert np.array_equal(report_s["residual"], report["residual"] * s)

    def test_every_failure_is_reached(self):
        # the planted failures above, each alone on an instance where it
        # can occur, are named as planted
        h = make_h(4, [({0, 1}, {2}, 2), ({2}, {3}, 1), ({3}, {0}, 1)], weights=[1] * 4)
        alpha = 0.01
        rng = np.random.default_rng(5)
        for failure in FAILURES:
            cert = random_certificate(rng, h, alpha)
            while not len(cert.flow) or not len(cert.triangles):
                cert = random_certificate(rng, h, alpha)
            cert = seeded(rng, h, alpha, cert, [failure])
            with np.errstate(over="ignore", invalid="ignore"):
                ok, report = certificate_check(cert, alpha, h, 1.0)
            assert not ok and report["first_failure"] == failure


class TestWidthBound:
    """certificate_check settles the width by the residual's largest
    absolute row sum where that is at most rho, and by the exact norm
    otherwise; its decisions are those of a check by the exact norm."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 0.999, 1.001, 2.0, "row_sum"]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_same_decision_as_the_exact_norm(self, seed, factor):
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, max_n=8, max_m=6)
        alpha = float(10.0 ** rng.uniform(-4, 0))
        cert = random_certificate(rng, h, alpha)
        ok, report = certificate_check(cert, alpha, h, math.inf)
        assert ok, report["first_failure"]
        residual = report["residual"]
        exact = spectral_norm(residual)
        bound = float(np.abs(residual).sum(axis=1).max())
        rho = bound if factor == "row_sum" else factor * exact

        ok, report = certificate_check(cert, alpha, h, rho)
        # the reference: the exact norm against rho with the 1e-6 slack
        exact_ok = exact <= rho * (1 + 1e-6)
        assert ok == exact_ok
        assert report["first_failure"] == (None if exact_ok else "width_bound")
        # an upper bound on the norm, up to the rounding of two computations
        assert report["width"] >= exact * (1 - 1e-12)
        if bound > rho:
            assert report["width"] == pytest.approx(exact, rel=1e-12)

    def test_a_non_finite_residual_fails_by_name(self, monkeypatch):
        # finite inputs whose residual overflows: z K is -inf off the
        # diagonal where the two triangles' sum is +inf, so a cell is NaN
        h = make_h(4, [({0}, {1}, 1)], weights=[2] * 4)
        tris = {TriangleId.make(0, 1, 2): 1e308, TriangleId.make(0, 1, 3): 1e308}
        cert = DualCertificate.of(1e308, tris, FlowAssignment.of(()))
        exact = []
        monkeypatch.setattr(oracle, "spectral_norm", exact.append)
        with np.errstate(over="ignore", invalid="ignore"):
            ok, report = certificate_check(cert, 1.0, h, 1.0)
        assert not ok and report["first_failure"] == "residual_not_finite"
        assert exact == []

    def test_an_infinite_bound_over_finite_cells_takes_the_exact_path(self, monkeypatch):
        # every cell of z K is finite, but each row sum overflows
        h = make_h(4, [({0}, {1}, 1)], weights=[2] * 4)
        cert = DualCertificate.of(1e307, {}, FlowAssignment.of(()))
        exact = []

        def norm(residual):
            exact.append(residual)
            return math.inf

        monkeypatch.setattr(oracle, "spectral_norm", norm)
        with np.errstate(over="ignore"):
            ok, report = certificate_check(cert, 1.0, h, 1.0)
            assert np.abs(exact[0]).sum(axis=1).max() == math.inf
        assert np.isfinite(exact[0]).all()
        assert not ok and report["first_failure"] == "width_bound"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_row_sum_bounds_the_norm_of_a_symmetric_matrix(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
        r = a + a.T
        assert spectral_norm(r) <= np.abs(r).sum(axis=1).max() * (1 + 1e-12)


class TestAverageCertificate:
    def test_sums_by_key_and_divides_by_count(self):
        a, b, c = TriangleId.make(0, 2, 1), TriangleId.make(1, 3, 2), TriangleId.make(0, 3, 1)
        first = FlowAssignment.of([(0, 0, 1, 3.0), (1, 2, 3, 1.0)])
        third = FlowAssignment.of([(1, 2, 3, 5.0), (0, 1, 0, 3.0)])
        certs = [
            DualCertificate.of(1.0, {a: 2.0, b: 4.0}, first),
            DualCertificate.of(2.0, {a: 1.0}, FlowAssignment.of(())),
            DualCertificate.of(3.0, {c: 6.0}, third),
        ]
        avg = average_certificate(certs)
        assert avg.z == 2.0
        # triangles in order of first appearance, flow entries sorted by key
        assert list(triangle_weights(avg).items()) == [(a, 1.0), (b, 4.0 / 3.0), (c, 2.0)]
        assert list(avg.flow) == [(0, 0, 1, 1.0), (0, 1, 0, 1.0), (1, 2, 3, 2.0)]

    def test_without_flow_or_certificates(self):
        tri = TriangleId.make(0, 2, 1)
        assert average_certificate([]) is None
        avg = average_certificate([DualCertificate.of(0.5, {tri: 1.0}, FlowAssignment.of(()))] * 3)
        assert (avg.z, triangle_weights(avg), list(avg.flow)) == (0.5, {tri: 1.0}, [])

    def test_mean_of_equal_values_is_exact(self):
        # an exactly rounded sum: 4012 steps at alpha = 0.0094 average to it
        avg = average_certificate([DualCertificate.of(0.0094, {}, FlowAssignment.of(()))] * 4012)
        assert avg.z == 0.0094


class TestZeroOutSide:
    """The side that excludes vertex 0 runs on the reversed hypergraph."""

    def test_cut_is_complemented_and_equal_value(self):
        # at 2 theta this state gives a 1B dual; at 4 theta a 1A cut
        h, s_star, theta = planted()
        st = integral_state(h, s_star)
        alpha = 4 * float(theta)
        cfg = OracleConfig()
        out = run_oracle(alpha, st, reverse(h), cfg, np.random.default_rng(0))
        assert out.kind == "cut"
        flipped = frozenset(range(h.n)) - out.cut.subset
        assert 0 not in flipped
        assert sparsity(h, flipped) == out.cut.sparsity
        assert float(out.cut.sparsity) <= cfg.ratio_bound(alpha, h, out.case) * (1 + 1e-9)

    def test_certificate_refers_to_reversed_hypergraph(self, rng):
        h, theta = expanderish()
        st = integral_state(h, frozenset(range(h.n)) - {3, 4, 5})
        alpha = 0.002
        out = run_oracle(alpha, st, reverse(h), OracleConfig(), rng)
        assert out.kind == "dual"
        ok, report = certificate_check(
            out.dual, alpha, reverse(h), OracleConfig().rho(alpha, h)
        )
        assert ok, report


class TestOracleContractSweep:
    def test_outcomes_always_valid(self, rng):
        cfg = OracleConfig()
        cases = {}
        for _ in range(120):
            h = random_hypergraph(rng, max_n=10, max_m=8)
            # the side that excludes vertex 0 runs on the reversed hypergraph
            excluded = not rng.integers(2)
            h_run = reverse(h) if excluded else h
            st = normalized_state(rng, h)
            alpha = float(rng.uniform(0.001, 2.0))
            try:
                out = run_oracle(alpha, st, h_run, cfg, rng)
            except OracleFailure:
                cases["fail"] = cases.get("fail", 0) + 1
                continue
            cases[out.case] = cases.get(out.case, 0) + 1
            if out.kind == "cut":
                cut = out.cut.subset
                if excluded:
                    cut = frozenset(range(h.n)) - cut
                assert sparsity(h, cut) == out.cut.sparsity
                bound = cfg.ratio_bound(alpha, h, out.case)
                assert float(out.cut.sparsity) <= bound * (1 + 1e-9)
                if out.case == "2A":
                    lo_side = min(out.diagnostics["side_weights"])
                    assert lo_side >= cfg.c_frac * h.total_weight / 4 - 1e-9
            else:
                ok, rep = certificate_check(out.dual, alpha, h_run, cfg.rho(alpha, h))
                assert ok, rep
        assert cases.get("fail", 0) == 0
