"""Multiplicative-weights loop, two-sided runs, and binary search."""

import json
import math
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperspars import driver, oracle, sdpcore
from hyperspars.driver import (
    SolverConfig,
    binary_search,
    mw_state,
    regret_check,
    run_algorithm1,
    run_both_sides,
    theoretical_iterations,
)
from hyperspars.hypergraph import Hyperedge, parse_dhg, reverse, sparsity
from hyperspars.oracle import (
    DualCertificate,
    OracleConfig,
    OracleFailure,
    OracleInvariantError,
    average_certificate,
    certificate_check,
    path_triangles,
)
from hyperspars.report import dumps_report, solve_report, verify_report
from hyperspars.reference import GeneratorSpec, brute_force_sparsest, generate
from hyperspars.sdpcore import mat_K, min_eigenvalue
from hyperspars.flownet import FlowAssignment, flow_matrix, triangle_matrix_sum

from conftest import make_h, random_hypergraph, scaled
from witnesses import certificate_data, dist2, gram

TWO_CYCLE = "dhg 2 2\nv a 1\nv b 1\ne 1 T a H b\ne 1 T b H a\n"
THREE_CYCLE = "dhg 3 3\nv a 1\nv b 1\nv c 1\ne 1 T a H b\ne 1 T b H c\ne 1 T c H a\n"
PLANTED = (
    "dhg 6 8\n"
    "v a 1\nv b 1\nv c 1\nv d 1\nv e 1\nv f 1\n"
    "e 4 T a H b\ne 4 T b H c\ne 4 T c H a\n"
    "e 4 T d H e\ne 4 T e H f\ne 4 T f H d\n"
    "e 1/10 T a H d\ne 4 T d H a\n"
)


def expander_n5():
    """An instance whose runs at opt / 64 (c_rho = 1) certify after 64
    Case 1B steps each, at the seventh checkpoint, and that alpha."""
    h = generate(GeneratorSpec(n=5, m=10, kappa=2, model="expander-like", seed=1))
    return h, float(brute_force_sparsest(h)[1]) / 64


class TestMwState:
    def test_first_iterate_normalized_identity(self):
        # W_1 = I gives X_1 = I / Tr(K) up to centering, with K . X = 1;
        # pairwise distances match the uncentered I / Tr(K) exactly
        h = parse_dhg(TWO_CYCLE)
        k = mat_K(h.vertex_weights)
        state = mw_state(np.zeros((2, 2)), 0.5, h.vertex_weights)
        assert state.k_dot(h.vertex_weights) == pytest.approx(1.0, abs=1e-12)
        assert float(np.tensordot(k, gram(state))) == pytest.approx(1.0, abs=1e-10)
        trace_k = float(np.trace(k))
        assert dist2(state, 0, 1) == pytest.approx(2.0 / trace_k, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 128])
    def test_zero_sum_state_equals_the_eigh_path(self, rng, monkeypatch, n):
        # eigh returns (0, I) for the zero matrix, so skipping it leaves the
        # first iterate as it was, to the bit
        class NonZero(np.ndarray):
            def any(self, *args, **kwargs):
                return True

        weights = rng.integers(1, n + 1, n).tolist()
        zero = np.zeros((n, n))
        eigh = count_calls(monkeypatch, np.linalg, ("eigh",))
        skipped = mw_state(zero, 0.3, weights)
        assert eigh["n"] == 0
        via_eigh = mw_state(zero.view(NonZero), 0.3, weights)
        assert eigh["n"] == 1
        assert np.array_equal(np.asarray(via_eigh.vectors), skipped.vectors)

    def test_iterates_stay_normalized(self, rng):
        h = random_hypergraph(rng, n=6, m=6)
        m_sum = np.zeros((6, 6))
        for _ in range(30):
            m = rng.standard_normal((6, 6))
            m = (m + m.T) / 2
            m -= np.outer(np.ones(6), m.mean(axis=0))  # not ones-kernel; fine
            state = mw_state(m_sum, 0.2, h.vertex_weights)
            assert state.k_dot(h.vertex_weights) == pytest.approx(1.0, abs=1e-8)
            m_sum += m / max(1.0, np.abs(np.linalg.eigvalsh(m)).max())


class TestTheoreticalIterations:
    def test_matches_formula(self):
        h = parse_dhg(TWO_CYCLE)
        cfg = OracleConfig(c_rho=4.0)
        rho = cfg.rho(0.01, h)
        expected = math.ceil(
            16 * 1 * rho**2 * 4 * math.log(2) / (0.01**2 * 2**4)
        )
        assert theoretical_iterations(0.01, h, cfg) == expected

    def test_alpha_invariant(self):
        # rho scales linearly in alpha, so T does not depend on it
        h = parse_dhg(TWO_CYCLE)
        cfg = OracleConfig()
        assert theoretical_iterations(0.01, h, cfg) == theoretical_iterations(1.7, h, cfg)

    def test_alpha_invariant_at_extremes(self):
        # rho^2 / alpha^2 overflowed at 1e200 and divided by zero at 1e-200
        h = parse_dhg(TWO_CYCLE)
        cfg = OracleConfig()
        expected = theoretical_iterations(0.01, h, cfg)
        assert theoretical_iterations(1e-200, h, cfg) == expected
        assert theoretical_iterations(1e200, h, cfg) == expected

    def test_alpha_whose_rho_overflows_is_rejected(self):
        # with rho = inf, regret_check's tolerance -1e-6 rho is -inf, and
        # any run would certify alpha / 2
        h = parse_dhg(THREE_CYCLE)
        assert OracleConfig().rho(1e306, h) == math.inf
        with pytest.raises(ValueError, match="rho is not finite"):
            run_algorithm1(h, 1e306, "in")


class TestRunAlgorithm1:
    def test_planted_cut_found(self):
        h = generate(
            GeneratorSpec(
                n=8, m=12, model="planted-cut", balance=0.5,
                inside_w=4, crossing_w=Fraction(1, 20), seed=5,
            )
        )
        s_star, theta = brute_force_sparsest(h)
        cfg = SolverConfig(t_cap=60)
        run = run_algorithm1(h, 4 * float(theta), "in", cfg, np.random.default_rng(0))
        assert run.outcome == "cut"
        assert run.cut.sparsity <= Fraction(64) * Fraction(4 * float(theta)).limit_denominator()
        assert run.cut.sparsity >= theta

    def test_certified_run_and_recheck(self):
        h = parse_dhg(TWO_CYCLE)
        cfg = SolverConfig(oracle=OracleConfig(c_rho=4.0))
        alpha = 0.01
        run = run_algorithm1(h, alpha, "in", cfg, np.random.default_rng(0))
        assert run.outcome == "certified"
        # the first checkpoint passes, far below the horizon T sets
        assert run.iterations == 1 and run.t_horizon == 710
        # independent recompute of the regret inequality from the run's
        # averaged certificate
        k = mat_K(h.vertex_weights)
        cert = run.certificate
        residual = triangle_matrix_sum(cert.triangles, cert.weights, 2)
        residual += cert.z * k
        residual -= flow_matrix(cert.flow, 2)
        check = min_eigenvalue((alpha / 2) * k - residual)
        assert check >= -1e-6 * run.rho
        assert regret_check(alpha, h, residual, run.rho) == (True, check)
        # soundness: the certified bound never exceeds the true optimum
        _, theta = brute_force_sparsest(h)
        assert alpha / 2 <= float(theta)

    def test_truncated_run_never_certifies(self):
        # t_cap ends the run before any checkpoint passes: every Case 2B
        # step at alpha 1e-9 leaves the regret check short
        h = parse_dhg(PLANTED)
        cfg = SolverConfig(t_cap=10, oracle=OracleConfig(c_rho=4.0))
        run = run_algorithm1(h, 1e-9, "in", cfg, np.random.default_rng(3))
        assert run.outcome == "aborted"
        assert run.reason.startswith("regret check failed after 10 steps: lambda_min -")
        assert run.iterations == len(run.records) == 10
        assert run.certificate is not None
        ok, rep = certificate_check(run.certificate, 1e-9, h, run.rho)
        assert ok and not regret_check(1e-9, h, rep["residual"], run.rho)[0]

    def test_stops_at_the_first_checkpoint_that_passes(self, monkeypatch):
        # the checkpoints are t = 1, 2, 4, ..., 64; only the last passes
        h, alpha = expander_n5()
        checked = []

        def recording(alpha, h, residual, rho, _real=driver.regret_check):
            checked.append(_real(alpha, h, residual, rho)[0])
            return checked[-1], 0.0

        monkeypatch.setattr(driver, "regret_check", recording)
        cfg = SolverConfig(oracle=OracleConfig(c_rho=1.0))
        run = run_algorithm1(h, alpha, "in", cfg, np.random.default_rng(0))
        assert run.outcome == "certified" and run.iterations == 64 < run.t_horizon
        # the running sum's check, then the average's at the passing checkpoint
        assert checked == [False] * 6 + [True, True]

    def test_eta_assignment(self):
        h = parse_dhg(TWO_CYCLE)
        cfg = SolverConfig(t_cap=50, oracle=OracleConfig(c_rho=4.0))
        run = run_algorithm1(h, 0.01, "in", cfg, np.random.default_rng(0))
        assert run.eta == pytest.approx(math.sqrt(math.log(2) / run.t_horizon))

    def test_m_norm_within_one(self):
        # the update norm is width / rho; at alpha 0.003 the run cuts at
        # once, at 0.0003 it certifies after 16 dual steps
        h = generate(GeneratorSpec(n=6, m=10, model="expander-like", seed=9))
        cfg = SolverConfig(t_cap=40)
        duals = 0
        for alpha in (0.003, 0.0003):
            run = run_algorithm1(h, alpha, "in", cfg, np.random.default_rng(1))
            for rec in run.records:
                if rec.case.endswith("B") or rec.case.endswith("C"):
                    assert rec.width <= run.rho * (1 + 1e-6)
                    duals += 1
        assert duals == 16

    def test_invalid_side_rejected(self):
        h = parse_dhg(TWO_CYCLE)
        with pytest.raises(ValueError):
            run_algorithm1(h, 1.0, "sideways")


class TestOneRoute:
    """Side "out" is side "in" on the reversed hypergraph, cut complemented."""

    def test_out_side_is_reversed_in_side(self):
        h = generate(GeneratorSpec(n=10, m=20, kappa=2, model="expander-like", seed=2))
        base = float(binary_search(h, SolverConfig(max_probes=0)).best_cut.sparsity)
        cfg = SolverConfig(t_cap=12)
        outcomes = []
        for alpha in (4 * base, 1e-3 * base):
            out = run_algorithm1(h, alpha, "out", cfg, np.random.default_rng(0))
            rev = run_algorithm1(reverse(h), alpha, "in", cfg, np.random.default_rng(0))
            assert out.records == rev.records
            assert certificate_data(out.certificate) == certificate_data(rev.certificate)
            assert (out.outcome, out.iterations) == (rev.outcome, rev.iterations)
            if out.cut is not None:
                assert out.cut.subset == frozenset(range(h.n)) - rev.cut.subset
                assert out.cut.sparsity == rev.cut.sparsity == sparsity(h, out.cut.subset)
            outcomes.append((out.outcome, out.iterations, out.certificate is not None))
        assert outcomes == [("cut", 1, False), ("aborted", 12, True)]


class TestRunBothSides:
    def test_cut_only_on_zero_out_side(self):
        # the only cheap out-cut is {c, d}, which excludes vertex a = 0
        text = (
            "dhg 4 6\n"
            "v a 1\nv b 1\nv c 1\nv d 1\n"
            "e 9 T a H b\ne 9 T b H a\n"
            "e 9 T c H d\ne 9 T d H c\n"
            "e 9 T b H c\n"
            "e 1/8 T d H a\n"
        )
        h = parse_dhg(text)
        s_star, theta = brute_force_sparsest(h)
        assert theta > 0
        assert 0 not in s_star
        probe = run_both_sides(h, 4 * float(theta), SolverConfig(t_cap=60), np.random.default_rng(3))
        assert probe.found_cut
        assert probe.best_cut.sparsity <= 10 * theta

    def test_symmetric_instance_both_sides_equivalent(self):
        h = parse_dhg(TWO_CYCLE)
        probe = run_both_sides(h, 2.0, SolverConfig(t_cap=30), np.random.default_rng(0))
        vals = {side: run.outcome for side, run in probe.runs.items()}
        assert set(vals) == {"in", "out"}
        cuts = [float(r.cut.sparsity) for r in probe.runs.values() if r.cut]
        assert len(set(cuts)) <= 1

    def test_aborted_side_blocks_certification(self):
        h = parse_dhg(PLANTED)
        cfg = SolverConfig(t_cap=5, oracle=OracleConfig(c_rho=4.0))
        probe = run_both_sides(h, 1e-9, cfg, np.random.default_rng(3))
        assert not probe.found_cut
        assert not probe.certified  # no regret check passes on either side
        assert [run.outcome for run in probe.runs.values()] == ["aborted"] * 2

    def test_certified_needs_all_sides(self):
        h = parse_dhg(TWO_CYCLE)
        cfg = SolverConfig(oracle=OracleConfig(c_rho=4.0))
        probe = run_both_sides(h, 0.01, cfg, np.random.default_rng(0))
        assert probe.certified
        assert all(r.outcome == "certified" for r in probe.runs.values())

    def test_mixed_side_outcomes_conjunction_rule(self):
        # one certified side plus one aborted side never yields a bound,
        # and a cut from either side counts
        from hyperspars.driver import AlgorithmRun, ProbeResult

        def stub(outcome):
            return AlgorithmRun(
                alpha=0.1, side="in", outcome=outcome, t_horizon=5, iterations=5,
                eta=0.1, rho=1.0,
            )

        mixed = ProbeResult(0.1, {"in": stub("certified"), "out": stub("aborted")})
        assert not mixed.certified
        assert not mixed.found_cut
        cut_side = ProbeResult(0.1, {"in": stub("aborted"), "out": stub("cut")})
        assert cut_side.found_cut


class TestBinarySearch:
    def test_disconnected_instance_zero_cut_immediately(self):
        h = make_h(4, [({0}, {1}, 2), ({2}, {3}, 1)])
        res = binary_search(h, SolverConfig(t_cap=30), np.random.default_rng(0))
        assert res.best_cut is not None
        assert res.best_cut.sparsity == 0
        assert res.probes == []  # singleton baseline already optimal

    def test_bracket_starts_where_one_over_rho_is_finite(self):
        # edge weight 5e-311: 1 / rho overflows at the bracket's lower end
        # (2 w / 9) and not at its upper end (4 times the baseline, 2 w)
        h = parse_dhg(THREE_CYCLE.replace("e 1 ", f"e 5/{10**311} "))
        cfg = SolverConfig(t_cap=3)
        least = driver._least_invertible_alpha(math.ulp(0.0), 1.0, h, cfg)
        assert driver._invertible(cfg.oracle.rho(least, h))
        assert not driver._invertible(cfg.oracle.rho(math.nextafter(least, 0.0), h))
        assert 2 * 5e-311 / 9 < least < 2 * 5e-311
        res = binary_search(h, cfg, np.random.default_rng(0))
        assert res.probes and all(probe.alpha >= least for probe in res.probes)
        assert res.best_cut.sparsity == Fraction(5, 2 * 10**311)

    def test_random_instances_within_10x(self, rng):
        worst = 0.0
        for seed in range(12):
            n = int(rng.integers(4, 9))
            h = generate(
                GeneratorSpec(
                    n=n, m=int(rng.integers(4, 11)), kappa=min(3, n),
                    model=["uniform-random", "expander-like"][seed % 2], seed=seed,
                )
            )
            _, theta = brute_force_sparsest(h)
            res = binary_search(h, SolverConfig(t_cap=60), np.random.default_rng(seed))
            found = float(res.best_cut.sparsity)
            if theta == 0:
                assert found == 0.0
            else:
                worst = max(worst, found / float(theta))
        assert worst <= 10.0

    def test_lower_bound_sound_when_certified(self):
        h = parse_dhg(TWO_CYCLE)
        cfg = SolverConfig(
            oracle=OracleConfig(c_rho=4.0), search_ratio=2.0, max_probes=12
        )
        res = binary_search(h, cfg, np.random.default_rng(0))
        _, theta = brute_force_sparsest(h)
        assert res.best_cut.sparsity >= theta
        if res.lower_bound is not None:
            assert res.lower_bound <= float(theta) + 1e-12
            assert res.ratio >= 1.0

    def test_search_brackets_shrink(self):
        h = generate(GeneratorSpec(n=6, m=10, model="expander-like", seed=9))
        cfg = SolverConfig(t_cap=40, search_ratio=1.5)
        res = binary_search(h, cfg, np.random.default_rng(2))
        assert res.alpha_hi <= 4 * float(res.baseline_cut.sparsity) + 1e-12
        assert res.alpha_hi <= res.alpha_lo * cfg.search_ratio + 1e-12 or len(res.probes) == cfg.max_probes
        assert res.probes and all(list(p.runs) == ["in", "out"] for p in res.probes)

    @pytest.mark.parametrize("ratio", [1e160, 1e200])
    def test_huge_search_ratio(self, ratio):
        # the ratio's square overflowed, and the bracket's floor, the edge
        # weight over the ratio squared, underflows to 0 at 1e200
        h = parse_dhg(THREE_CYCLE)
        cfg = SolverConfig(search_ratio=ratio, t_cap=5)
        res = binary_search(h, cfg, np.random.default_rng(0))
        assert res.probes and all(probe.alpha > 0 for probe in res.probes)
        doc = json.loads(dumps_report(solve_report(h, cfg, res, 0)))
        assert verify_report(doc, h) == (True, None)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(search_ratio=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha_lo=2.0, alpha_hi=1.0)
        # integer caps, neither a bool, and a finite ratio above 1
        for bad in (dict(t_cap=2.5), dict(t_cap=0), dict(t_cap=True), dict(max_probes=-1),
                    dict(max_probes=1.0), dict(max_probes=False),
                    dict(search_ratio=float("nan")), dict(search_ratio=float("inf"))):
            with pytest.raises(ValueError):
                SolverConfig(**bad)
        with pytest.raises(TypeError):  # the knob that chose the sides is retired
            SolverConfig(side_policy="in")
        assert SolverConfig(t_cap=1, max_probes=0).max_probes == 0


def run_summary(res):
    """(side, outcome, iterations, run-length-encoded cases) per run."""
    out = []
    for probe in res.probes:
        for side, run in probe.runs.items():
            cases = [(c, len(list(g))) for c, g in groupby(r.case for r in run.records)]
            out.append((side, run.outcome, run.iterations, cases))
    return out


class TestPinnedOutputs:
    """Seeded solves pinned to the outputs of the reference implementation,
    so that an optimisation claimed to be exact cannot change results."""

    def test_expander_like_n32(self):
        h = generate(GeneratorSpec(n=32, m=64, kappa=2, model="expander-like", seed=1))
        res = binary_search(h, SolverConfig(), np.random.default_rng(0))
        assert sorted(res.best_cut.subset) == [*range(17), 21, 22, 23, 28, 29, 30, 31]
        assert res.best_cut.sparsity == Fraction(2, 105)
        assert res.baseline_cut.sparsity == Fraction(2, 45)
        assert res.lower_bound is None
        assert run_summary(res) == [(side, "cut", 1, [("2A", 1)]) for side in ("in", "out")] * 4

    def test_unit_cycle_certifies(self):
        h = parse_dhg(THREE_CYCLE)
        cfg = SolverConfig(
            alpha_lo=0.0025, alpha_hi=0.5, search_ratio=2.0, oracle=OracleConfig(c_rho=1.0)
        )
        res = binary_search(h, cfg, np.random.default_rng(0))
        assert sorted(res.best_cut.subset) == [0]
        assert res.best_cut.sparsity == Fraction(1, 2)
        assert res.lower_bound == pytest.approx(0.004700753866357992, rel=1e-12)
        cut = [(side, "cut", 1, [("1A", 1)]) for side in ("in", "out")]
        certified = [(side, "certified", 1, [("1B", 1)]) for side in ("in", "out")]
        assert run_summary(res) == cut + certified + cut


# the best cut of each n14 solve (GeneratorSpec(n=14, m=28, kappa=2),
# SolverConfig(t_cap=200), the generator's seed as the solve's), per model
# in seed order from 0
N14_BEST_CUTS = {
    "expander-like": "1/30 1/40 4/91 1/24 3/80 1/110 2/27 1/51 1/34 1/28 2/85 1/25 1/33 1/20 "
    "1/108 2/105 1/90 1/26",
    "uniform-random": "1/21 5/68 1/18 1/34 1/22 1/19 0 1/21",
    "planted-cut": "0 1/550 0 1/450 0 0",
}


class TestCutQualityFloor:
    """No change may return a worse best cut on the n14 solves: the report
    records the cut against the baseline, but nothing else gates it."""

    @pytest.mark.parametrize(
        "model, seed, best",
        [
            pytest.param(model, seed, Fraction(best), id=f"{model}-{seed}")
            for model, cuts in N14_BEST_CUTS.items()
            for seed, best in enumerate(cuts.split())
        ],
    )
    def test_best_cut_no_worse(self, model, seed, best):
        h = generate(GeneratorSpec(n=14, m=28, kappa=2, model=model, seed=seed))
        res = binary_search(h, SolverConfig(t_cap=200), np.random.default_rng(seed))
        assert res.best_cut.sparsity <= best


# weights near 1e-9 whose optimum is 1/200000000000; an absolute tolerance
# in the regret check certified alpha / 2 = 1.25 opt here at alpha = 2.5 opt
TINY_WEIGHTS = (
    "dhg 4 5\nv v0 1\nv v1 1\nv v2 3\nv v3 2\n"
    "e 1/250000000 T v0 v1 H v0 v1\ne 1/250000000 T v2 v3 H v2 v3\n"
    "e 1/250000000 T v0 v1 H v1\ne 1/20000000000 T v1 H v2\ne 1/250000000 T v2 H v1\n"
)


def side_optimum(h, side):
    """The least sparsity of a cut that contains vertex 0 ("in") or not
    ("out"): the bound a run on that side certifies."""
    others = range(1, h.n)
    subsets = [set(c) for k in range(h.n) for c in combinations(others, k)]
    if side == "in":
        subsets = [s | {0} for s in subsets if len(s) < h.n - 1]
    return min(sparsity(h, s) for s in subsets if s)


class TestRegretTolerance:
    """The regret check's tolerance scales with rho: with the run stopping
    at its first pass, an absolute one certifies bounds above the optimum
    once the weights are tiny."""

    @pytest.mark.parametrize("c_rho", [1.0, 16.0])
    def test_tiny_weights_above_the_optimum_never_certify(self, c_rho):
        h = parse_dhg(TINY_WEIGHTS)
        _, opt = brute_force_sparsest(h)
        assert opt == Fraction(1, 200000000000)
        cfg = SolverConfig(oracle=OracleConfig(c_rho=c_rho))
        probe = run_both_sides(h, 2.5 * float(opt), cfg, np.random.default_rng(0))
        assert "certified" not in {run.outcome for run in probe.runs.values()}

    @given(
        st.integers(0, 2**16),
        st.integers(4, 8),
        st.sampled_from(["uniform-random", "expander-like", "planted-cut"]),
        st.sampled_from([Fraction(1), Fraction(1, 10**9)]),
        st.sampled_from([1 / 64, 1 / 4, 2.5]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_certified_bound_at_most_the_optimum(self, seed, n, model, factor, ratio):
        spec = GeneratorSpec(n=n, m=2 * n, kappa=2, model=model, seed=seed)
        h = scaled(generate(spec), factor)
        _, opt = brute_force_sparsest(h)
        assume(opt > 0)
        cfg = SolverConfig(t_cap=64, oracle=OracleConfig(c_rho=1.0))
        probe = run_both_sides(h, ratio * float(opt), cfg, np.random.default_rng(seed))
        assert probe.lower_bound is None or probe.lower_bound <= float(opt)
        # a run bounds the cuts on its side of vertex 0
        for side, run in probe.runs.items():
            if run.outcome == "certified":
                assert run.alpha / 2 <= float(side_optimum(h, side))


def run_summary_scaled(probe, scale):
    """Per side: outcome, steps, cut, and the certificate with its values
    multiplied by ``scale``."""
    out = {}
    for side, run in probe.runs.items():
        cert = certificate_data(run.certificate)
        if cert is not None:
            z, triangles, weights, flow = cert
            flow = flow and [(e, i, j, f * scale) for e, i, j, f in flow]
            cert = (z * scale, triangles, [w * scale for w in weights], flow)
        cut = run.cut and (run.cut.subset, run.cut.sparsity * Fraction(scale))
        out[side] = (run.outcome, run.iterations, cut, cert)
    return out


class TestWeightScaling:
    """Every tolerance of a run is relative: scaling every edge weight and
    alpha by 2^-k scales each certificate value by 2^-k exactly and leaves
    the outcomes as they are."""

    @given(
        st.integers(0, 2**16),
        st.integers(3, 8),
        st.sampled_from(["uniform-random", "expander-like", "planted-cut"]),
        st.sampled_from([10, 30]),
        st.sampled_from([1 / 64, 1 / 4, 2.5]),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_same_runs_at_every_scale(self, seed, n, model, k, ratio):
        h = generate(GeneratorSpec(n=n, m=2 * n, kappa=2, model=model, seed=seed))
        _, opt = brute_force_sparsest(h)
        assume(opt > 0)
        cfg = SolverConfig(t_cap=16, oracle=OracleConfig(c_rho=1.0))
        alpha = ratio * float(opt)
        scale = 2.0**-k
        probe = run_both_sides(h, alpha, cfg, np.random.default_rng(seed))
        small = run_both_sides(
            scaled(h, Fraction(scale)), alpha * scale, cfg, np.random.default_rng(seed)
        )
        assert run_summary_scaled(small, 1.0) == run_summary_scaled(probe, scale)

    def test_tiny_weights_certify(self):
        # edge weights times 2^-30 lift the same 5 flow entries, scaled,
        # and both runs certify after one step, as at weight 1
        h = generate(GeneratorSpec(n=6, m=12, kappa=2, model="expander-like", seed=2))
        _, opt = brute_force_sparsest(h)
        cfg = SolverConfig(oracle=OracleConfig(c_rho=1.0))
        scale = 2.0**-30
        tiny = scaled(h, Fraction(scale))
        probe = run_both_sides(tiny, float(opt) / 64 * scale, cfg, np.random.default_rng(0))
        assert [(run.outcome, run.iterations) for run in probe.runs.values()] == [
            ("certified", 1)
        ] * 2
        assert [len(run.certificate.flow) for run in probe.runs.values()] == [5, 5]


def record_outcomes(monkeypatch):
    """Keep every outcome the driver's oracle returns, in order."""
    outcomes = []

    def recording(*args, _real=driver.run_oracle, **kwargs):
        outcomes.append(_real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(driver, "run_oracle", recording)
    return outcomes


@st.composite
def positive_dhgs(draw):
    """Small DHGs with positive edge weights and tails and heads drawn
    independently."""
    n = draw(st.integers(2, 5))
    vertices = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    weight = st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=4)
    edges = draw(st.lists(st.tuples(vertices, vertices, weight), min_size=1, max_size=6))
    omega = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return make_h(n, edges, weights=omega)


class TestAveragedCertificate:
    """A run keeps the average of its certificates, and the regret check
    reads only that average."""

    def residual(self, run, h):
        """The average's residual; the average must pass certificate_check."""
        h_run = reverse(h) if run.side == "out" else h
        ok, rep = certificate_check(run.certificate, run.alpha, h_run, run.rho)
        assert ok, rep["first_failure"]
        return rep["residual"]

    @pytest.mark.parametrize("instance", ["expander_n5_certified", "expander_n12"])
    def test_residual_is_mean_of_step_residuals(self, monkeypatch, instance):
        if instance == "expander_n5_certified":
            h, alpha = expander_n5()
            cfg = SolverConfig(oracle=OracleConfig(c_rho=1.0))
        else:
            h = generate(GeneratorSpec(n=12, m=24, kappa=2, model="expander-like", seed=3))
            base = float(binary_search(h, SolverConfig(max_probes=0)).best_cut.sparsity)
            cfg, alpha = SolverConfig(t_cap=30), 1e-6 * base
        outcomes = record_outcomes(monkeypatch)
        for side in ("in", "out"):
            outcomes.clear()
            run = run_algorithm1(h, alpha, side, cfg, np.random.default_rng(0))
            assert run.iterations == len(outcomes) > 1
            assert all(out.kind == "dual" for out in outcomes)
            mean = np.mean([out.residual for out in outcomes], axis=0)
            got = self.residual(run, h)
            assert np.abs(got - mean).max() <= 1e-12 * np.abs(mean).max()
        if instance == "expander_n5_certified":
            assert run.outcome == "certified" and run.iterations == 64
            # the regret check is lambda_min((alpha/2) K - R-bar)
            check = min_eigenvalue((alpha / 2) * h.k_matrix - got)
            assert regret_check(alpha, h, got, run.rho) == (True, check)

    @given(positive_dhgs(), st.sampled_from([1e-4, 1e-2, 1.0]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_average_passes_certificate_check(self, h, scale):
        cfg = SolverConfig(t_cap=6)
        probe = run_both_sides(h, scale * h.m / float(h.total_weight) ** 2, cfg)
        for run in probe.runs.values():
            duals = [r for r in run.records if r.case in ("1B", "2B", "2C")]
            assert (run.certificate is None) == (not duals)
            if run.certificate is not None:
                self.residual(run, h)


    def test_flowless_average_prints_null_and_verifies(self):
        # a 2C certificate, the planted chain's triangles with F = 0, has an
        # empty flow; so has the average of such certificates, which passes
        # certificate_check and prints its flow as null, and check-cert
        # reads null and [] alike
        h = make_h(7, [({0}, {6}, 2)], weights=[1] * 7)
        cfg, alpha = SolverConfig(), 0.31
        f_val = float(h.total_weight) ** 2 * alpha / (9.0 * cfg.oracle.s_viol)
        tris = dict.fromkeys(path_triangles([0, 3, 6]), f_val)
        step = DualCertificate.of(alpha, tris, FlowAssignment.of(()))
        avg = average_certificate([step, step])
        assert avg.flow.keys.shape == (0, 3) and not len(avg.flow.values)
        rho, t_horizon, eta = driver.run_numbers(alpha, h, cfg)
        assert certificate_check(avg, alpha, h, rho)[0]
        run = driver.AlgorithmRun(alpha, "in", "aborted", t_horizon, 2, eta, rho, certificate=avg)
        result = driver.SolveResult(None, None, [driver.ProbeResult(alpha, {"in": run})], 0, 0)
        doc = json.loads(dumps_report(solve_report(h, cfg, result, 0)))
        assert [entry["flow"] for entry in doc["certificates"]] == [None]
        assert verify_report(doc, h) == (True, None)
        doc["certificates"][0]["flow"] = []
        assert verify_report(doc, h) == (True, None)


class TestOracleErrors:
    def _raising_oracle(self, monkeypatch, exc):
        def oracle(*args, **kwargs):
            raise exc

        monkeypatch.setattr(driver, "run_oracle", oracle)

    def test_invariant_error_reaches_caller(self, monkeypatch):
        h = parse_dhg(THREE_CYCLE)
        self._raising_oracle(monkeypatch, OracleInvariantError("improper cut", {"case": "1A"}))
        with pytest.raises(OracleInvariantError, match="improper cut"):
            run_algorithm1(h, 0.1, "in", SolverConfig(t_cap=5))
        with pytest.raises(OracleInvariantError):
            binary_search(h, SolverConfig(t_cap=5))

    def test_oracle_failure_aborts_the_run(self, monkeypatch):
        h = parse_dhg(THREE_CYCLE)
        self._raising_oracle(monkeypatch, OracleFailure("no stretched direction"))
        run = run_algorithm1(h, 0.1, "in", SolverConfig(t_cap=5))
        assert run.outcome == "aborted" and run.reason == "oracle: no stretched direction"
        assert not issubclass(OracleInvariantError, OracleFailure)


def count_calls(monkeypatch, owner, names):
    """Replace owner.<name> for each name by a wrapper that counts calls."""
    calls = {"n": 0}
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _original=original, **kwargs):
            calls["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestPerIterationWork:
    """Each multiplicative-weights step builds its matrices once, and each
    checkpoint t = 1, 2, 4, 8 of a run that never passes adds one eigvalsh,
    its regret check."""

    def probe(self, cfg):
        h = generate(GeneratorSpec(n=32, m=64, kappa=2, model="expander-like", seed=1))
        base = binary_search(h, SolverConfig(max_probes=0)).best_cut.sparsity
        return h, run_both_sides(h, 1e-6 * float(base), cfg, np.random.default_rng(0))

    def test_one_eigh_per_iteration_and_none_for_the_certificate(self, monkeypatch):
        eigh = count_calls(monkeypatch, np.linalg, ("eigh",))
        eigvalsh = count_calls(monkeypatch, np.linalg, ("eigvalsh",))
        cfg = SolverConfig(t_cap=8)
        h, probe = self.probe(cfg)
        iterations = sum(run.iterations for run in probe.runs.values())
        assert iterations == 16
        assert {r.case for run in probe.runs.values() for r in run.records} == {"2B"}
        assert [run.outcome for run in probe.runs.values()] == ["aborted"] * 2
        # mw_state's eigh after each run's first step, whose sum M is 0,
        # and the checkpoints' eigvalsh; the row-sum bound settles every width
        assert (eigh["n"], eigvalsh["n"]) == (14, 8)

        doc = solve_report(h, cfg, driver.SolveResult(None, None, [probe], 0.0, 0.0), 0)
        # one averaged certificate per run, its width settled by the bound
        assert len(doc["certificates"]) == 2
        eigh["n"] = eigvalsh["n"] = 0
        assert verify_report(doc, h) == (True, None)
        assert (eigh["n"], eigvalsh["n"]) == (0, 0)

    def test_one_distance_matrix_per_step(self, monkeypatch):
        # the state's cached d2, which the oracle reads X through; mw_state
        # forms none
        owners = [m for m in (sdpcore, driver, oracle) if "squared_distances" in vars(m)]
        counts = [count_calls(monkeypatch, m, ("squared_distances",)) for m in owners]
        _, probe = self.probe(SolverConfig(t_cap=8))
        assert sum(run.iterations for run in probe.runs.values()) == 16
        assert sum(c["n"] for c in counts) == 16

    @pytest.mark.parametrize("c_rho", [0.5, 0.85])
    def test_one_eigvalsh_per_check_whose_bound_exceeds_rho(self, monkeypatch, c_rho):
        # a small c_rho puts rho below the row-sum bound: at 0.5 at the one
        # check of each side, whose exact norm then exceeds rho too; at
        # 0.85 at some of the 16 checks, which all pass, and the 8
        # checkpoints add their regret checks
        eigvalsh = count_calls(monkeypatch, np.linalg, ("eigvalsh",))
        checks = {"all": 0, "wide": 0}

        def check(cert, alpha, h, rho, _real=oracle.certificate_check):
            ok, report = _real(cert, alpha, h, rho)
            checks["all"] += 1
            checks["wide"] += float(np.abs(report["residual"]).sum(axis=1).max()) > rho
            return ok, report

        monkeypatch.setattr(oracle, "certificate_check", check)
        _, probe = self.probe(SolverConfig(t_cap=8, oracle=OracleConfig(c_rho=c_rho)))
        iterations = sum(run.iterations for run in probe.runs.values())
        checkpoints = 0 if c_rho == 0.5 else 8
        assert eigvalsh["n"] == checks["wide"] + checkpoints
        if c_rho == 0.5:
            assert iterations == 0 and checks == {"all": 2, "wide": 2}
            assert all("exceeds rho" in run.reason for run in probe.runs.values())
        else:
            assert iterations == checks["all"] == 16
            assert 0 < checks["wide"] < 16

    def test_verify_reverses_the_instance_once(self, monkeypatch):
        h = generate(GeneratorSpec(n=8, m=16, kappa=2, model="expander-like", seed=2))
        cfg = SolverConfig(t_cap=3, max_probes=4, alpha_lo=1e-6, alpha_hi=1e-3)
        res = binary_search(h, cfg, np.random.default_rng(0))
        doc = solve_report(h, cfg, res, 0)
        out_runs = [tr for tr in doc["transcript"] if tr["side"] == "out"]
        assert len(out_runs) >= 2 and doc["certificates"]
        fresh = parse_dhg(doc["instance"]["dhg"])
        built = count_calls(monkeypatch, Hyperedge, ("__post_init__",))
        assert verify_report(doc, fresh) == (True, None)
        assert built["n"] == fresh.m
