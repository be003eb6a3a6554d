"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import functools
import json
import math
import time
from fractions import Fraction

import numpy as np

from hyperspars._core import max_flow_arrays
from hyperspars.cli import main as cli_main
from hyperspars.driver import SolverConfig, binary_search
from hyperspars.flownet import (
    FlowAssignment,
    build_flow_instance,
    decompose,
    lift_flow,
    max_flow,
)
from hyperspars.hypergraph import (
    parse_dhg,
    reduce_to_digraph,
    reverse,
)
from hyperspars.oracle import (
    OracleConfig,
    OracleFailure,
    certificate_check,
    run_oracle,
)
from hyperspars.reference import GeneratorSpec, brute_force_sparsest, generate
from hyperspars.sdpcore import (
    TriangleId,
    mat_K,
    min_eigenvalue,
    spectral_norm,
)

from conftest import integral_state, normalized_state, random_hypergraph
from witnesses import (
    capacity_duality_check,
    decomposition_matrix_identity_gap,
    demand_matrix,
    demand_norm_bound,
    digraph_cut_weight,
    head_node,
    mat_A,
    mat_exp,
    mat_T,
    out_cut,
    restrict_subset,
    tail_node,
    transform_subset,
    variance_form,
    weight_of,
)


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} [{label}]: FAIL ({time.time() - start:.1f}s)")
                raise
            extra = f" — {detail}" if detail else ""
            print(f"ACCEPTANCE {num:02d} [{label}]: PASS ({time.time() - start:.1f}s){extra}")

        return run

    return wrap


def hyper_cut_weight(h, subset):
    return sum((h.edges[k].weight for k in out_cut(h, subset)), Fraction(0))


@criterion(1, "reduction exactness")
def test_criterion_01_reduction_exactness():
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(200):
        h = random_hypergraph(rng, max_n=8, max_m=6)
        rd = reduce_to_digraph(h)
        for mask in range(2**h.n):
            s = frozenset(v for v in range(h.n) if mask >> v & 1)
            lifted = transform_subset(rd, s)
            assert weight_of(h, s) == sum(rd.vertex_weight(v) for v in lifted)
            assert hyper_cut_weight(h, s) == digraph_cut_weight(rd, lifted)
    # digraph-to-hypergraph direction on instances with n + 2m <= 12:
    # below the gadget weight the restricted cut never exceeds the digraph
    # cut, with equality exactly when the subset is gadget-closed (the
    # all-T equality form fails for orphan gadget nodes; see the ledger)
    checked = 0
    for _ in range(40):
        h = random_hypergraph(rng, max_n=4, max_m=2)
        rd = reduce_to_digraph(h)
        if rd.num_vertices > 12:
            continue
        for mask in range(2**rd.num_vertices):
            t = frozenset(v for v in range(rd.num_vertices) if mask >> v & 1)
            dig = digraph_cut_weight(rd, t)
            if dig >= rd.big_weight:
                continue
            restricted, flag = restrict_subset(rd, t)
            hyp = hyper_cut_weight(h, restricted)
            assert hyp <= dig
            assert flag == (hyp == dig)
            closed = all(
                (tail_node(rd, k) not in t or (e.tail & t))
                and (head_node(rd, k) in t or not (e.head <= t))
                for k, e in enumerate(h.edges)
            )
            if closed:
                assert hyp == dig
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion must finish in 30 s, took {elapsed:.1f}"
    return f"{checked} digraph subsets checked, {elapsed:.1f}s"


@criterion(2, "constraint matrix identities")
def test_criterion_02_constraint_matrices():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        w = [int(x) for x in rng.integers(1, min(n, 3) + 1, size=n)]
        v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        x = v @ v.T
        sq = np.einsum("ij,ij->i", v, v)
        i, j = int(rng.integers(n)), int(rng.integers(n))
        d_direct = (
            float(sq[i] + sq[j] - 2 * v[i] @ v[j])
            - float(sq[i] + sq[0] - 2 * v[i] @ v[0])
            + float(sq[j] + sq[0] - 2 * v[j] @ v[0])
        )
        scale = max(1.0, float(np.abs(x).max()))
        assert abs(float(np.tensordot(mat_A(n, i, j), x)) - d_direct) <= 1e-10 * scale
        if n >= 3:
            a, b, mid = (int(q) for q in rng.choice(n, size=3, replace=False))
            tri = TriangleId.make(a, b, mid)
            t_direct = (
                float((v[tri.a] - v[tri.mid]) @ (v[tri.a] - v[tri.mid]))
                + float((v[tri.mid] - v[tri.b]) @ (v[tri.mid] - v[tri.b]))
                - float((v[tri.a] - v[tri.b]) @ (v[tri.a] - v[tri.b]))
            )
            assert abs(float(np.tensordot(mat_T(n, tri), x)) - t_direct) <= 1e-10 * scale
        k_direct = sum(
            w[p] * w[q] * float((v[p] - v[q]) @ (v[p] - v[q]))
            for p in range(n)
            for q in range(p + 1, n)
        )
        k_scale = max(1.0, abs(k_direct))
        assert abs(float(np.tensordot(mat_K(w), x)) - k_direct) <= 1e-10 * k_scale


@criterion(3, "K spectrum corollary")
def test_criterion_03_k_spectrum():
    rng = np.random.default_rng(303)
    for _ in range(500):
        n = int(rng.integers(2, 51))
        kappa = int(rng.integers(1, n + 1))
        w = rng.integers(1, kappa + 1, size=n)
        total = int(w.sum())
        kap = int(w.max())
        vals = np.linalg.eigvalsh(mat_K(w))
        # 1e-9 tolerance relative to the spectrum scale total^2
        tol = 1e-9 * total * total
        lo = total**2 / (kap * n)
        hi = kap * total**2 / n
        assert abs(vals[0]) <= tol
        assert np.all(vals[1:] >= lo - tol)
        assert np.all(vals[1:] <= hi + tol)
    # uniform weights: both ends tight, nonzero eigenvalues equal n exactly
    for n in (2, 7, 50):
        vals = np.linalg.eigvalsh(mat_K([1] * n))[1:]
        assert np.allclose(vals, n, atol=1e-9 * n * n)


@criterion(4, "variance lemma bounds")
def test_criterion_04_variance_lemma():
    rng = np.random.default_rng(404)
    done = 0
    while done < 10_000:
        n = int(rng.integers(2, 9))
        u = rng.standard_normal(n)
        u -= u.mean()
        norm = float(np.linalg.norm(u))
        if norm < 1e-9:
            continue
        u /= norm
        d = rng.uniform(0.05, 1.0, size=n)
        d /= d.sum()
        val = variance_form(u, d)
        assert d.min() - 1e-12 <= val <= d.max() + 1e-12
        done += 1
    # n = 2 uniform equality case: exact up to one float rounding of
    # (1/sqrt(2))^2, whose algebraic value 1/2 is not representable exactly
    exact = variance_form([1 / math.sqrt(2), -1 / math.sqrt(2)], [0.5, 0.5])
    assert abs(exact - 0.5) <= 1e-15


@criterion(5, "multiplicative weights regret")
def test_criterion_05_mw_regret():
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        t_len = int(rng.integers(1, 21))
        eta = float(rng.uniform(1e-3, 1.0))
        running = np.zeros((n, n))
        lhs = 0.0
        for _ in range(t_len):
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2
            m /= max(spectral_norm(m), 1e-12)
            m *= float(rng.uniform(0, 1))
            w = mat_exp(-eta * running)
            p = w / np.trace(w)
            lhs += float(np.tensordot(m, p))
            running += m
        rhs = min_eigenvalue(running) + eta * t_len + math.log(n) / eta
        assert lhs - rhs <= 1e-8


def exhaustive_min_cut(n_nodes, arc_from, arc_to, cap, s, t):
    masks = np.arange(2**n_nodes, dtype=np.int64)
    masks = masks[((masks >> s) & 1 == 1) & ((masks >> t) & 1 == 0)]
    u = np.array(arc_from)
    v = np.array(arc_to)
    c = np.array(cap)
    crossing = ((masks[:, None] >> u) & 1 == 1) & ((masks[:, None] >> v) & 1 == 0)
    return float((crossing @ c).min())


@criterion(6, "flow toolkit")
def test_criterion_06_flow_toolkit():
    rng = np.random.default_rng(606)
    for _ in range(500):
        n_nodes = int(rng.integers(4, 13))
        n_arcs = int(rng.integers(3, 26))
        frm, to, cap = [], [], []
        for _ in range(n_arcs):
            a, b = rng.choice(n_nodes, size=2, replace=False)
            frm.append(int(a))
            to.append(int(b))
            cap.append(float(rng.integers(0, 9)) / 2.0)
        val, _, _ = max_flow_arrays(n_nodes, frm, to, cap, 0, n_nodes - 1, 1e-12)
        expected = exhaustive_min_cut(n_nodes, frm, to, cap, 0, n_nodes - 1)
        assert abs(val - expected) <= 1e-9 * max(1.0, expected)

    # decomposition reconstruction on lifted hypergraph flows
    for _ in range(120):
        h = random_hypergraph(rng, max_n=8, max_m=5)
        rd = reduce_to_digraph(h)
        left = sorted(int(x) for x in rng.choice(h.n, size=max(1, h.n // 2), replace=False))
        right = [v for v in range(h.n) if v not in left]
        if not right:
            continue
        inst = build_flow_instance(
            rd,
            {i: float(rng.uniform(0.1, 2.0)) for i in left},
            {j: float(rng.uniform(0.1, 2.0)) for j in right},
        )
        res = max_flow(inst)
        fa = lift_flow(res, inst)
        dec = decompose(fa, left, right)
        assert decomposition_matrix_identity_gap(fa, dec, h.n) <= 1e-9

    # constrained-flow predicate on capacity-respecting flows
    done = 0
    while done < 10_000:
        h = random_hypergraph(rng, max_n=5, max_m=3)
        st = normalized_state(rng, h)
        values = []
        for e_idx, e in enumerate(h.edges):
            pairs = [(i, j) for i in sorted(e.tail) for j in sorted(e.head)]
            raw = rng.uniform(0, 1, size=len(pairs))
            cap_e = float(e.weight) / 2.0
            if raw.sum() > 0:
                raw *= cap_e * float(rng.uniform(0, 1)) / raw.sum()
            values.extend(
                (e_idx, i, j, float(f)) for (i, j), f in zip(pairs, raw)
            )
        assert capacity_duality_check(FlowAssignment.of(values), st, h)
        done += len(values) or 1

    # demand-matrix norm bound
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        demand = {}
        for _ in range(int(rng.integers(1, 2 * n))):
            i, j = rng.choice(n, size=2, replace=False)
            demand[(int(i), int(j))] = demand.get((int(i), int(j)), 0.0) + float(
                rng.uniform(0, 2)
            )
        assert spectral_norm(demand_matrix(demand, n)) <= demand_norm_bound(demand) + 1e-9


@criterion(7, "oracle contract")
def test_criterion_07_oracle_contract():
    rng = np.random.default_rng(707)
    cfg = OracleConfig()
    cases = {}
    loud_failures = 0
    for trial in range(300):
        h = random_hypergraph(rng, max_n=10, max_m=8)
        # every other trial searches the side that excludes vertex 0: the
        # oracle runs on the reversed hypergraph and its cut is complemented
        excluded = trial % 2 == 0
        h_run = reverse(h) if excluded else h
        if trial % 3 == 0:
            mask = int(rng.integers(1, 2**h.n - 1))
            subset = {v for v in range(h.n) if mask >> v & 1}
            if excluded:
                subset = set(range(h.n)) - subset
            st = integral_state(h, subset)
        else:
            st = normalized_state(rng, h)
        alpha = float(rng.uniform(0.002, 2.0))
        try:
            out = run_oracle(alpha, st, h_run, cfg, rng)
        except OracleFailure:
            loud_failures += 1
            continue
        cases[out.case] = cases.get(out.case, 0) + 1
        if out.kind == "cut":
            cut = out.cut.subset
            if excluded:
                cut = frozenset(range(h.n)) - cut
            bound = cfg.ratio_bound(alpha, h, out.case)
            # recompute sparsity on h from the definition
            recomputed = hyper_cut_weight(h, cut) / (
                weight_of(h, cut) * (h.total_weight - weight_of(h, cut))
            )
            assert recomputed == out.cut.sparsity
            assert float(recomputed) <= bound * (1 + 1e-9)
        else:
            ok, rep = certificate_check(out.dual, alpha, h_run, cfg.rho(alpha, h))
            assert ok, rep
    assert sum(cases.values()) + loud_failures == 300
    return f"cases {cases}, loud failures {loud_failures}"


@criterion(8, "end-to-end soundness")
def test_criterion_08_end_to_end():
    start = time.time()
    rng = np.random.default_rng(808)
    # t_cap = 80 keeps runtime in budget: a run certifies at the first
    # checkpoint whose regret check passes, at any step count, so a capped
    # run can certify too, and every bound is held to the optimum below
    cfg = SolverConfig(t_cap=80)
    ratios = []
    zero_hits = 0
    certified = 0
    for seed in range(100):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(4, 13))
        kappa = min(3, n)
        model = ("uniform-random", "expander-like", "planted-cut")[seed % 3]
        h = generate(GeneratorSpec(n=n, m=m, kappa=kappa, model=model, seed=seed))
        _, theta = brute_force_sparsest(h)
        res = binary_search(h, cfg, np.random.default_rng(seed))
        assert res.best_cut is not None
        found = float(res.best_cut.sparsity)
        if res.lower_bound is not None:
            certified += 1
            assert float(theta) >= res.lower_bound - 1e-12
        if theta == 0:
            assert found == 0.0, f"seed {seed}: missed a zero cut"
            zero_hits += 1
        else:
            ratios.append(found / float(theta))
            assert ratios[-1] <= 10.0, f"seed {seed}: ratio {ratios[-1]:.3f}"

    # a certification-capable configuration must yield sound lower bounds
    # (bracketed into the dual region so the check is not vacuous)
    h = parse_dhg("dhg 2 2\nv a 1\nv b 1\ne 1 T a H b\ne 1 T b H a\n")
    _, theta2 = brute_force_sparsest(h)
    res2 = binary_search(
        h,
        SolverConfig(
            oracle=OracleConfig(c_rho=4.0),
            alpha_lo=0.004,
            alpha_hi=0.02,
            search_ratio=2.0,
            max_probes=6,
        ),
        np.random.default_rng(1),
    )
    assert res2.lower_bound is not None
    assert res2.lower_bound <= float(theta2) + 1e-12
    certified += 1

    elapsed = time.time() - start
    assert elapsed < 600.0
    hist = {
        "1.0": sum(1 for r in ratios if r <= 1.0 + 1e-9),
        "<=2": sum(1 for r in ratios if 1.0 + 1e-9 < r <= 2.0),
        "<=5": sum(1 for r in ratios if 2.0 < r <= 5.0),
        "<=10": sum(1 for r in ratios if 5.0 < r <= 10.0),
    }
    detail = (
        f"ratio max {max(ratios):.3f}, distribution {hist}, zero-cut hits {zero_hits}, "
        f"certified lower bounds {certified}, {elapsed:.0f}s"
    )
    return detail


@criterion(9, "seeded determinism")
def test_criterion_09_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.dhg"
    inst.write_text(
        "dhg 6 8\n"
        "v a 1\nv b 1\nv c 1\nv d 1\nv e 1\nv f 1\n"
        "e 4 T a H b\ne 4 T b H c\ne 4 T c H a\n"
        "e 4 T d H e\ne 4 T e H f\ne 4 T f H d\n"
        "e 1/10 T a H d\ne 4 T d H a\n"
    )
    outs = []
    for k in range(2):
        out = tmp_path / f"rep{k}.json"
        code = cli_main(
            ["solve", str(inst), "--seed", "99", "--t-cap", "60", "--json",
             "-o", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@criterion(10, "certificate re-verification")
def test_criterion_10_certificate_reverification(tmp_path, capsys):
    inst = tmp_path / "inst.dhg"
    inst.write_text("dhg 3 3\nv a 1\nv b 1\nv c 1\ne 1 T a H b\ne 1 T b H c\ne 1 T c H a\n")
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"c_rho": 4.0}))
    report = tmp_path / "report.json"
    code = cli_main(
        ["solve", str(inst), "--seed", "3", "--alpha", "0.01", "--no-search",
         "--t-cap", "25", "--constants", str(constants), "--json", "-o", str(report)]
    )
    assert code in (0, 2)
    assert cli_main(["check-cert", str(report), str(inst)]) == 0

    base = json.loads(report.read_text())
    assert base["certificates"], "expected dual certificates"

    tampered = tmp_path / "tampered.json"

    doc = json.loads(report.read_text())
    doc["certificates"][0]["z"] /= 2.0
    tampered.write_text(json.dumps(doc))
    assert cli_main(["check-cert", str(tampered), str(inst)]) == 3

    doc = json.loads(report.read_text())
    target = next(c for c in doc["certificates"] if c["f_p"])
    target["f_p"][0][3] = -abs(target["f_p"][0][3]) - 1e-9
    tampered.write_text(json.dumps(doc))
    assert cli_main(["check-cert", str(tampered), str(inst)]) == 3

    doc = json.loads(report.read_text())
    target = next(c for c in doc["certificates"] if c["flow"])
    for row in target["flow"]:
        row[3] *= 1e6
    tampered.write_text(json.dumps(doc))
    assert cli_main(["check-cert", str(tampered), str(inst)]) == 3
