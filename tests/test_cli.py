"""CLI commands, exit codes, JSON schema, determinism, re-verification."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hyperspars import oracle, reference
from hyperspars.cli import main
from hyperspars.flownet import MaxFlowResult
from hyperspars.hypergraph import parse_dhg
from hyperspars.report import verify_report

TOY = "dhg 2 2\nv a 1\nv b 1\ne 1 T a H b\ne 1 T b H a\n"

THREE_CYCLE = "dhg 3 3\nv a 1\nv b 1\nv c 1\ne 1 T a H b\ne 1 T b H c\ne 1 T c H a\n"

WIDE = "dhg 3 2\nv a 1\nv b 1\nv c 1\ne 1/10000000 T a H b c\ne 10000000 T b c H a\n"

# a 4-cycle with vertex weights 2: seed 3 certifies both runs at alpha 1e-3
WEIGHTED_CYCLE = (
    "dhg 4 4\nv a 2\nv b 2\nv c 2\nv d 2\n"
    "e 1 T a H b\ne 1 T b H c\ne 1 T c H d\ne 1 T d H a\n"
)

# bytes that no UTF-8 text holds
NOT_UTF8 = b"\xff\xfe\x00bad"

PLANTED = (
    "dhg 6 8\n"
    "v a 1\nv b 1\nv c 1\nv d 1\nv e 1\nv f 1\n"
    "e 4 T a H b\ne 4 T b H c\ne 4 T c H a\n"
    "e 4 T d H e\ne 4 T e H f\ne 4 T f H d\n"
    "e 1/10 T a H d\ne 4 T d H a\n"
)


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.dhg"
    path.write_text(TOY)
    return str(path)


@pytest.fixture
def planted_file(tmp_path):
    path = tmp_path / "planted.dhg"
    path.write_text(PLANTED)
    return str(path)


def run_solve(toy, out, extra=()):
    return main(
        ["solve", toy, "--seed", "7", "--t-cap", "40", "--json", "-o", out, *extra]
    )


class TestSolve:
    def test_solve_json_schema(self, planted_file, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = run_solve(planted_file, out)
        assert code == 0
        doc = json.loads(open(out).read())
        for key in (
            "instance", "config", "outcome", "cut", "sparsity",
            "lower_bound", "transcript", "certificates",
        ):
            assert key in doc
        assert doc["outcome"] == "cut"
        assert set(doc["cut"]["vertices"]) < {"a", "b", "c", "d", "e", "f"}
        assert doc["config"]["seed"] == 7

    def test_solve_missing_seed_fails(self, toy_file, monkeypatch):
        monkeypatch.delenv("HYPERSPARS_SEED", raising=False)
        with pytest.raises(SystemExit):
            main(["solve", toy_file])

    def test_solve_env_seed(self, toy_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYPERSPARS_SEED", "5")
        out = str(tmp_path / "r.json")
        assert main(["solve", toy_file, "--json", "-o", out, "--t-cap", "20"]) == 0
        assert json.loads(open(out).read())["config"]["seed"] == 5

    @pytest.mark.parametrize(
        "seed, env",
        [("-5", None), (None, "abc"), (None, "-5")],
        ids=["negative", "env_not_an_integer", "env_negative"],
    )
    def test_bad_seed_rejected(self, toy_file, monkeypatch, seed, env):
        monkeypatch.delenv("HYPERSPARS_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("HYPERSPARS_SEED", env)
        extra = ["--seed", seed] if seed is not None else []
        with pytest.raises(SystemExit) as exc:
            main(["solve", toy_file, *extra])
        # a string exit code is printed to stderr and exits with status 1
        assert str(exc.value.code).startswith("error: ")

    @pytest.mark.parametrize("search", [True, False], ids=["search", "no_search"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
    def test_bad_alpha_exit_1(self, toy_file, tmp_path, capsys, alpha, search):
        out = tmp_path / "r.json"
        extra = [] if search else ["--no-search"]
        assert run_solve(toy_file, str(out), ("--alpha", alpha, *extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be a finite positive number" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-200", "1e200"])
    def test_extreme_alpha_search_finishes(self, tmp_path, capsys, alpha):
        # the probe sqrt(lo * hi) underflowed to 0 at 1e-200 and overflowed
        # to inf at 1e200
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE)
        out = str(tmp_path / "r.json")
        code = main(["solve", str(inp), "--seed", "1", "--alpha", alpha, "--t-cap", "5",
                     "--json", "-o", out])
        assert code == 0
        assert main(["check-cert", out, str(inp)]) == 0

    @pytest.mark.parametrize("alpha", ["1e-200", "1e200"])
    def test_extreme_alpha_finishes(self, tmp_path, capsys, alpha):
        # the iteration count does not depend on alpha, and must not
        # overflow computing it
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE)
        out = str(tmp_path / "r.json")
        code = main(["solve", str(inp), "--seed", "1", "--alpha", alpha, "--no-search",
                     "--t-cap", "5", "--json", "-o", out])
        assert code in (0, 2)
        assert main(["check-cert", out, str(inp)]) == 0

    @pytest.mark.parametrize("search", [True, False], ids=["search", "no_search"])
    def test_alpha_whose_rho_overflows_exit_1(self, tmp_path, capsys, search):
        # rho = 16 alpha w^2 sqrt(log2(kappa n)) is inf at alpha 1e306 on the
        # unit 3-cycle; its iteration count ended in an OverflowError
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE)
        out = tmp_path / "r.json"
        extra = [] if search else ["--no-search"]
        code = main(["solve", str(inp), "--seed", "1", "--alpha", "1e306", *extra,
                     "--json", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rho is not finite" in err
        assert "Traceback" not in err and not out.exists()

    def test_subnormal_weights_solve_and_verify(self, tmp_path, capsys):
        # every terminal capacity lay below a flow tolerance floored at the
        # smallest normal float, so Case 1A pushed nothing and its cut was
        # empty: "case 1A produced an improper cut (0 of 3)"
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE.replace("e 1 ", f"e 1/{10**309} "))
        out = tmp_path / "r.json"
        assert main(["solve", str(inp), "--seed", "1", "--json", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert Fraction(doc["cut"]["sparsity"]) == Fraction(1, 2 * 10**309)
        assert main(["check-cert", str(out), str(inp)]) == 0

    def test_weights_too_small_to_probe_return_the_baseline(self, tmp_path, capsys):
        # at edge weight 1e-320 no alpha of the search's bracket has a finite
        # 1 / rho: the search exited 1 on "alpha 6.67e-321 is too small";
        # the baseline cut is the optimum, returned without a probe
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE.replace("e 1 ", f"e 1/{10**320} "))
        assert main(["solve", str(inp), "--seed", "1"]) == 0
        assert f"sparsity: 1/{2 * 10**320} " in capsys.readouterr().out
        out = tmp_path / "r.json"
        assert main(["solve", str(inp), "--seed", "1", "--json", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert Fraction(doc["cut"]["sparsity"]) == reference.brute_force_sparsest(
            parse_dhg(inp.read_text())
        )[1]
        assert (doc["lower_bound"], doc["transcript"]) == (None, [])
        assert main(["check-cert", str(out), str(inp)]) == 0

    def test_alpha_whose_inverse_rho_overflows_exit_1(self, tmp_path, capsys):
        # rho is subnormal at alpha 5e-324 on the unit 3-cycle and 1 / rho is
        # inf: the loop's update was NaN and eigh failed to converge
        inp = tmp_path / "cycle.dhg"
        inp.write_text(THREE_CYCLE)
        out = tmp_path / "r.json"
        code = main(["solve", str(inp), "--seed", "1", "--alpha", "5e-324", "--no-search",
                     "--t-cap", "3", "--json", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha 5e-324 is too small: ") and "too large" not in err
        assert "Traceback" not in err and not out.exists()

    def test_no_search_needs_alpha_exit_1(self, toy_file, tmp_path, capsys):
        # without --alpha, --no-search ran the full binary search
        out = tmp_path / "r.json"
        assert main(["solve", toy_file, "--seed", "1", "--no-search", "--json", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: --no-search needs --alpha\n"
        assert not out.exists()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dhg"
        bad.write_text("dhg 2 1\nv a 1\nv b 1\ne 1 T a H\n")
        assert main(["solve", str(bad), "--seed", "1"]) == 1

    @pytest.mark.parametrize("extra", [(), ("--alpha", "0.5", "--no-search")])
    def test_single_vertex_exit_1(self, tmp_path, capsys, extra):
        one = tmp_path / "one.dhg"
        one.write_text("dhg 1 0\nv a 1\n")
        assert main(["solve", str(one), "--seed", "1", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "two vertices" in err
        assert "Traceback" not in err

    def test_oracle_invariant_error_exit_1(self, toy_file, capsys, monkeypatch):
        # a max-flow that loses its whole flow makes Case 1A return an
        # improper cut: an error, not an aborted probe
        real = oracle.max_flow

        def lossy(inst):
            res = real(inst)
            reach = np.arange(len(res.reachable)) == inst.rd.num_vertices
            return MaxFlowResult(0.0, np.zeros_like(res.arc_flow), reach)

        monkeypatch.setattr(oracle, "max_flow", lossy)
        assert main(["solve", toy_file, "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: case 1A produced an improper cut")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["c_roh", "mu"], ids=["typo", "retired"])
    def test_unknown_constant_exit_1(self, toy_file, tmp_path, capsys, key):
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"c_rho": 4.0, key: 4.0}))
        out = str(tmp_path / "r.json")
        assert run_solve(toy_file, out, ("--constants", str(constants))) == 1
        assert f"unknown constant {key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "constants",
        [{"c_rho": "x"}, {"c_rho": 0}, {"c_rho": -1}, {"n_dirs": 0}],
        ids=["string", "zero", "negative", "n_dirs_zero"],
    )
    def test_bad_constant_value_exit_1(self, toy_file, tmp_path, capsys, constants):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(constants))
        assert run_solve(toy_file, str(tmp_path / "r.json"), ("--constants", str(path))) == 1
        err = capsys.readouterr().err
        (key,) = constants
        assert err.startswith(f"error: {key} must be") and "Traceback" not in err

    def test_wide_weight_ratio(self, tmp_path, capsys):
        # an edge-weight ratio of 1e14; the cut is the brute-force optimum
        wide = tmp_path / "wide.dhg"
        wide.write_text(WIDE)
        out = str(tmp_path / "r.json")
        assert main(["solve", str(wide), "--seed", "0", "--t-cap", "20", "--json", "-o", out]) == 0
        doc = json.loads(open(out).read())
        assert doc["cut"]["vertices"] == ["a"]
        assert doc["cut"]["sparsity"] == "1/20000000"
        assert main(["exact", str(wide), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sparsity"] == "1/20000000"
        assert main(["check-cert", out, str(wide)]) == 0

    def test_no_cut_exit_2(self, toy_file, tmp_path, capsys):
        # single tiny-alpha run without search: both sides go dual/abort
        out = str(tmp_path / "r.json")
        code = main(
            ["solve", toy_file, "--seed", "1", "--alpha", "0.001", "--no-search",
             "--t-cap", "10", "--json", "-o", out]
        )
        assert code == 2
        doc = json.loads(open(out).read())
        assert doc["outcome"] == "no-cut"
        assert doc["cut"] is None

    def test_no_search_certified_lower_bound(self, toy_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"c_rho": 4.0}))
        code = main(
            ["solve", toy_file, "--seed", "1", "--alpha", "0.01", "--no-search",
             "--constants", str(constants), "--json", "-o", out]
        )
        assert code == 2
        doc = json.loads(open(out).read())
        assert doc["lower_bound"] == pytest.approx(0.005)

    def test_seed_determinism_byte_identical(self, planted_file, tmp_path, capsys):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert run_solve(planted_file, out1) == 0
        assert run_solve(planted_file, out2) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_different_seed_may_differ_but_valid(self, planted_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", planted_file, "--seed", "8", "--t-cap", "40", "--json", "-o", out]
        ) == 0

    def test_side_flag(self, planted_file, tmp_path, capsys):
        # every probe runs both sides of vertex 0; the flag that chose them
        # is retired, and argparse rejects it
        for side in ("both", "in", "out"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", planted_file, "--seed", "7", "--side", side])
            assert exc.value.code == 2
            assert "unrecognized arguments: --side" in capsys.readouterr().err

    def test_every_probe_runs_both_sides(self, planted_file, tmp_path, capsys):
        # the search ends in cuts; the fixed tiny alpha yields certificates,
        # and check-cert checks the "out" run's against the reversed instance
        for extra in (("--t-cap", "40"), ("--t-cap", "5", "--alpha", "1e-6", "--no-search")):
            out = str(tmp_path / "r.json")
            code = main(["solve", planted_file, "--seed", "7", "--json", "-o", out, *extra])
            assert code in (0, 2)
            doc = json.loads(open(out).read())
            sides: dict[int, list[str]] = {}
            for tr in doc["transcript"]:
                sides.setdefault(tr["probe"], []).append(tr["side"])
            assert sides and all(s == ["in", "out"] for s in sides.values())
            assert main(["check-cert", out, planted_file]) == 0
        # one averaged certificate for each run's five dual steps
        assert [c["side"] for c in doc["certificates"]] == ["in", "out"]
        assert [tr["iterations"] for tr in doc["transcript"]] == [5, 5]

    def test_text_output(self, planted_file, tmp_path, capsys):
        assert main(["solve", planted_file, "--seed", "7", "--t-cap", "40"]) == 0
        out = capsys.readouterr().out
        assert "cut:" in out
        assert "sparsity:" in out

    def test_expansion_mode(self, planted_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(
            ["solve", planted_file, "--mode", "expansion", "--seed", "7",
             "--t-cap", "40", "--json", "-o", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["mode"] == "expansion"
        assert "expansion" in doc
        assert "phi" in doc["expansion"]


def _repeat_triangle_vertex(doc):
    row = next(cert for cert in doc["certificates"] if cert["f_p"])["f_p"][0]
    row[1] = row[0]


def _reverse_triangle_ends(doc):
    # [b, a, mid] names the triangle that the report prints as [a, b, mid]
    row = doc["certificates"][0]["f_p"][0]
    row[0], row[1] = row[1], row[0]


def _set_cell(section, row, column, value):
    """Set one cell of the first certificate's ``section`` (f_p or flow)."""
    return lambda doc: doc["certificates"][0][section][row].__setitem__(column, value)


def _repeat_row(section, weight=None):
    """Append a copy of the first certificate's first ``section`` row,
    with ``weight`` as its value when given."""

    def edit(doc):
        rows = doc["certificates"][0][section]
        rows.append(rows[0][:3] + [rows[0][3] if weight is None else weight])

    return edit


# report edits check-cert cannot read; each must fail as certificate_malformed
MALFORMED = {
    "triangle_repeated_vertex": _repeat_triangle_vertex,
    # JSON values that read as what the report prints only after a
    # conversion, and keys printed twice, of which a dict keeps the last
    "triangle_vertex_float": _set_cell("f_p", 0, 0, 0.7),
    "triangle_vertex_string": _set_cell("f_p", 0, 0, "0"),
    "triangle_vertex_bool": _set_cell("f_p", 0, 0, False),
    "triangle_ends_reversed": _reverse_triangle_ends,
    "triangle_weight_string": _set_cell("f_p", 0, 3, "0.01"),
    "flow_edge_float": _set_cell("flow", 0, 0, 0.5),
    "flow_value_string": _set_cell("flow", 0, 3, "0.01"),
    "certificate_probe_string": lambda doc: doc["certificates"][0].update(probe="0"),
    "row_probe_string": lambda doc: doc["transcript"][0].update(probe="0"),
    "z_a_string": lambda doc: doc["certificates"][0].update(z="0.01"),
    "triangle_key_repeated": _repeat_row("f_p", weight=0.0),
    "flow_entry_repeated": _repeat_row("flow"),
    # integers beyond every float, which check-cert once let escape as an
    # OverflowError
    "z_beyond_every_float": lambda doc: doc["certificates"][0].update(z=10**400),
    "row_alpha_beyond_every_float": lambda doc: doc["transcript"][0].update(alpha=10**400),
    "certificate_without_z": lambda doc: doc["certificates"][0].pop("z"),
    "certificate_without_f_p": lambda doc: doc["certificates"][0].pop("f_p"),
    "row_without_alpha": lambda doc: doc["transcript"][0].pop("alpha"),
    "row_without_rho": lambda doc: doc["transcript"][0].pop("rho"),
    "row_without_eta": lambda doc: doc["transcript"][0].pop("eta"),
    "z_not_a_number": lambda doc: doc["certificates"][0].update(z="half"),
    "z_nan": lambda doc: doc["certificates"][0].update(z=float("nan")),
    "row_alpha_zero": lambda doc: doc["transcript"][0].update(alpha=0.0),
    "iterations_negative": lambda doc: doc["transcript"][0].update(iterations=-1),
    "iterations_not_an_int": lambda doc: doc["transcript"][0].update(iterations=20.0),
    "iterations_bool": lambda doc: doc["transcript"][0].update(iterations=True),
    "row_without_iterations": lambda doc: doc["transcript"][0].pop("iterations"),
}


# report structure check-cert cannot read; each must fail as report_malformed
MALFORMED_REPORT = {
    "report_is_a_list": lambda doc: [doc],
    "certificates_null": lambda doc: dict(doc, certificates=None),
    "transcript_null": lambda doc: dict(doc, transcript=None),
    "config_search_ratio_1": lambda doc: dict(doc, config=dict(doc["config"], search_ratio=1)),
    "config_alpha_lo_nan": lambda doc: dict(doc, config=dict(doc["config"], alpha_lo=float("nan"))),
    "config_alpha_lo_negative": lambda doc: dict(doc, config=dict(doc["config"], alpha_lo=-1.0)),
    "config_alpha_hi_bool": lambda doc: dict(doc, config=dict(doc["config"], alpha_hi=True)),
    "config_t_cap_fraction": lambda doc: dict(doc, config=dict(doc["config"], t_cap=2.5)),
    "config_t_cap_bool": lambda doc: dict(doc, config=dict(doc["config"], t_cap=True)),
    "config_max_probes_negative": lambda doc: dict(doc, config=dict(doc["config"], max_probes=-1)),
    "config_search_ratio_nan": lambda doc: dict(
        doc, config=dict(doc["config"], search_ratio=float("nan"))
    ),
    "config_c_rho_0": lambda doc: dict(
        doc, config=dict(doc["config"], oracle=dict(doc["config"]["oracle"], c_rho=0))
    ),
    "cut_vertices_not_a_list": lambda doc: dict(doc, cut={"vertices": 5}),
    "lower_bound_a_string": lambda doc: dict(doc, lower_bound="1/2"),
}


def _run_cut(doc):
    return next(tr["cut"] for tr in doc["transcript"] if tr["cut"])


# a reported cut number the instance does not give, and the check that
# must name it
CUT_TAMPERS = {
    "run_cut_unknown_vertex": (
        lambda doc: _run_cut(doc).update(vertices=["nope"], sparsity="1/1000000"),
        "cut_unknown_vertex",
    ),
    "run_cut_sparsity": (
        lambda doc: _run_cut(doc).update(sparsity="1/1000000"), "cut_sparsity_mismatch"
    ),
    "run_cut_phi_minus": (
        lambda doc: _run_cut(doc).update(phi_minus=1e-9), "cut_phi_minus_mismatch"
    ),
    "top_sparsity": (lambda doc: doc.update(sparsity=1e-9), "sparsity_mismatch"),
    "cut_sparsity_float": (
        lambda doc: doc["cut"].update(sparsity_float=1e-9), "cut_sparsity_float_mismatch"
    ),
    "cut_phi_plus": (lambda doc: doc["cut"].update(phi_plus=1e-9), "cut_phi_plus_mismatch"),
    "cut_phi_minus": (lambda doc: doc["cut"].update(phi_minus=1e-9), "cut_phi_minus_mismatch"),
    # a key no cut has
    "cut_unread_key": (lambda doc: doc["cut"].update(name="best"), "report_malformed"),
    "run_cut_unread_key": (lambda doc: _run_cut(doc).update(phi="1/2"), "report_malformed"),
}


def _row(doc):
    return doc["transcript"][0]


# transcript claims that the config or the certificate contradicts, on a
# run of 20 Case 2B steps whose regret check never passed, and the check
# that must name each
RUN_TAMPERS = {
    # the fields of version 3 that the regret check at T_theory needed
    "t_theory": (lambda doc: _row(doc).update(t_theory=7), "report_malformed"),
    "mw_check_before_t_theory": (lambda doc: _row(doc).update(mw_check=1e9), "report_malformed"),
    "rho": (lambda doc: _row(doc).update(rho=5.0), "rho_mismatch"),
    # rho(alpha) overflows, so the horizon cannot be derived
    "alpha_of_infinite_rho": (lambda doc: _row(doc).update(alpha=1e306), "rho_mismatch"),
    "t_horizon": (lambda doc: _row(doc).update(t_horizon=1), "t_horizon_mismatch"),
    "eta": (lambda doc: _row(doc).update(eta=5.0), "eta_mismatch"),
    # the run claims ten times its horizon
    "iterations": (lambda doc: _row(doc).update(iterations=200), "iterations_mismatch"),
    # a run without steps has no certificate
    "records_empty": (lambda doc: _row(doc).update(iterations=0), "certificate_count_mismatch"),
    "cases_beyond_t_horizon": (
        lambda doc: _row(doc).update(iterations=21), "iterations_mismatch"
    ),
    "second_certificate": (
        lambda doc: doc["certificates"].append(dict(doc["certificates"][0])),
        "certificate_count_mismatch",
    ),
    "certificate_removed": (
        lambda doc: doc.update(certificates=[]), "certificate_count_mismatch"
    ),
    "certified_without_a_pass": (
        lambda doc: _row(doc).update(outcome="certified"), "regret_inequality"
    ),
}


def _cut_row(doc):
    return next(tr for tr in doc["transcript"] if tr["outcome"] == "cut")


# claims of a search report that its cuts and runs contradict
SEARCH_TAMPERS = {
    "outcome_no_cut": (lambda doc: doc.update(outcome="no-cut"), "outcome_mismatch"),
    "approx_ratio": (lambda doc: doc.update(approx_ratio=3.0), "approx_ratio_mismatch"),
    "cut_run_aborted": (
        lambda doc: _cut_row(doc).update(outcome="aborted"), "run_outcome_mismatch"
    ),
    "cut_run_unknown_outcome": (
        lambda doc: _cut_row(doc).update(outcome="won", cut=None), "run_outcome_mismatch"
    ),
    "cut_run_t_theory": (lambda doc: _cut_row(doc).update(t_theory=7), "report_malformed"),
    "cut_run_t_horizon": (lambda doc: _cut_row(doc).update(t_horizon=7), "t_horizon_mismatch"),
    "cut_run_eta": (lambda doc: _cut_row(doc).update(eta=5.0), "eta_mismatch"),
    # two dual steps before the cut, yet no certificate
    "cut_run_fake_duals": (
        lambda doc: _cut_row(doc).update(iterations=3), "certificate_count_mismatch"
    ),
    # a cut run ends on its cut step
    "cut_run_no_steps": (
        lambda doc: _cut_row(doc).update(iterations=0), "iterations_mismatch"
    ),
    "cut_run_certificate": (
        lambda doc: doc["certificates"].append(
            {"probe": _cut_row(doc)["probe"], "side": _cut_row(doc)["side"],
             "z": 1.0, "f_p": [], "flow": None}
        ),
        "certificate_count_mismatch",
    ),
}


# top-level claims about the mode that the config contradicts, on a
# sparsity-mode or an expansion-mode search report, and the check that
# must name each
MODE_TAMPERS = {
    "mode_unknown": ("sparsity", lambda doc: doc.update(mode="banana"), "mode_mismatch"),
    "mode_a_list": ("sparsity", lambda doc: doc.update(mode=["x"]), "mode_mismatch"),
    "mode_sparsity_of_expansion": (
        "expansion", lambda doc: doc.update(mode="sparsity"), "mode_mismatch"
    ),
    "config_mode_unknown": (
        "sparsity",
        lambda doc: doc.update(mode="banana", config=dict(doc["config"], mode="banana")),
        "report_malformed",
    ),
    "expansion_block_of_sparsity": (
        "sparsity",
        lambda doc: doc.update(expansion={"phi": "1/1000000", "vertices": ["a"]}),
        "expansion_mismatch",
    ),
}


@pytest.fixture(scope="module")
def certified_cycle_report(tmp_path_factory):
    """The unit 3-cycle and a report whose two runs certify after one Case
    1B step each; the averaged certificates carry triangles and flow."""
    root = tmp_path_factory.mktemp("certified")
    inp, out = root / "in.dhg", str(root / "report.json")
    inp.write_text(THREE_CYCLE)
    constants = root / "constants.json"
    constants.write_text(json.dumps({"c_rho": 1.0}))
    assert main(["solve", str(inp), "--seed", "3", "--alpha", "0.0094", "--no-search",
                 "--constants", str(constants), "--json", "-o", out]) == 2
    doc = json.loads(open(out).read())
    assert [tr["outcome"] for tr in doc["transcript"]] == ["certified"] * 2
    assert all(cert["f_p"] and cert["flow"] for cert in doc["certificates"])
    return str(inp), open(out).read()


def _per_step_layout(doc):
    """The report in the layout written before reports carried one averaged
    certificate per run: per-step records and one certificate per step."""
    del doc["report_version"]
    per_step = []
    for tr in doc["transcript"]:
        tr["records"] = [[t, "1B", 0.0, 0.0] for t in range(1, tr["iterations"] + 1)]
        run = (tr["probe"], tr["side"])
        cert = next(c for c in doc["certificates"] if (c["probe"], c["side"]) == run)
        per_step += [dict(cert, t=t) for t in range(1, tr["iterations"] + 1)]
    doc["certificates"] = per_step


def _v3_layout(doc):
    """The report in the layout of version 3, whose rows also printed the
    theoretical step count and, for a run that reached it, the regret check."""
    doc["report_version"] = 3
    for tr in doc["transcript"]:
        tr.update(t_theory=4012, mw_check=None)


def _v2_layout(doc):
    """The report in the layout of version 2, which also printed each run's
    step count per case, the search's final alpha bracket and the side policy."""
    doc["report_version"] = 2
    doc["alpha_range"] = [0.0094, 0.0094]
    doc["config"]["side_policy"] = "both"
    for tr in doc["transcript"]:
        tr["cases"] = {"1B": tr["iterations"]}


@pytest.fixture(scope="module")
def expansion_report(tmp_path_factory):
    """The planted instance and its seeded expansion-mode search report."""
    root = tmp_path_factory.mktemp("expansion")
    inp, out = root / "in.dhg", str(root / "report.json")
    inp.write_text(PLANTED)
    assert main(["solve", str(inp), "--mode", "expansion", "--seed", "7", "--t-cap", "40",
                 "--json", "-o", out]) == 0
    return str(inp), open(out).read()


ROW_KEYS = {
    "probe", "alpha", "side", "outcome", "reason", "iterations", "t_horizon", "eta", "rho", "cut",
}

# fields that earlier report versions printed, each written back at the
# level it had, and a key no report had; check-cert reads none of them, so
# each fails as report_malformed (RUN_TAMPERS writes back version 3's
# t_theory and mw_check, and test_retired_config_keys_rejected the retired
# oracle constants)
RETIRED_FIELDS = {
    "cases": lambda doc: _row(doc).update(cases={"1B": 1}),
    "alpha_range": lambda doc: doc.update(alpha_range=[0.0094, 0.0094]),
    "side_policy": lambda doc: doc["config"].update(side_policy="both"),
    "scaled_weights": lambda doc: doc.update(scaled_weights=[1, 1, 1]),
    "note": lambda doc: doc.update(note="unread"),
}

# every field of the instance block, each set to a value no instance of
# these reports has
INSTANCE_TAMPERS = [
    ("n", 99), ("m", 99), ("r", 99), ("kappa", 99), ("total_weight", 99),
    ("dhg", "dhg 1 0\nv a 1\n"),
]


@pytest.fixture(scope="module")
def expander_report(tmp_path_factory):
    """An expander-like n=12 instance and its seeded search report."""
    root = tmp_path_factory.mktemp("expander")
    inp, out = str(root / "in.dhg"), str(root / "report.json")
    args = ["--model", "expander-like", "--kappa", "2", "--n", "12", "--m", "24"]
    assert main(["gen", *args, "--seed", "3", "-o", inp]) == 0
    assert main(["solve", inp, "--seed", "1", "--json", "-o", out]) == 0
    return inp, open(out).read()


class TestCheckCert:
    def make_report(self, tmp_path, source=TOY, extra=()):
        inp = tmp_path / "in.dhg"
        inp.write_text(source)
        out = str(tmp_path / "report.json")
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"c_rho": 4.0}))
        code = main(
            ["solve", str(inp), "--seed", "3", "--alpha", "0.01", "--no-search",
             "--constants", str(constants), "--json", "-o", out, *extra]
        )
        assert code in (0, 2)
        return str(inp), out

    def test_untampered_accepted(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        assert main(["check-cert", out, inp]) == 0

    def test_z_lowered_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        assert doc["certificates"], "expected dual certificates in the report"
        doc["certificates"][0]["z"] = doc["certificates"][0]["z"] / 2.0
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, inp]) == 3
        assert "z_below_alpha" in capsys.readouterr().err

    def test_overflowing_certificate_rejected_by_name(self, tmp_path, capsys):
        # finite values whose residual overflows to inf and NaN cells
        inp = tmp_path / "in.dhg"
        inp.write_text(THREE_CYCLE)
        out = str(tmp_path / "report.json")
        main(["solve", str(inp), "--seed", "1", "--alpha", "0.01", "--no-search",
              "--t-cap", "5", "--json", "-o", out])
        doc = json.loads(open(out).read())
        doc["certificates"][0]["z"] = 1e308
        doc["certificates"][0]["f_p"] = [[0, 1, 2, 1e308]]
        open(out, "w").write(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check-cert", out, str(inp)]) == 3
        assert "residual_not_finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_z_near_the_largest_float_rejected_by_name(self, tmp_path, capsys):
        # every cell of z K is finite, but symmetrizing the residual before
        # its eigendecomposition turned cells above half the largest float
        # into inf, and eigvalsh raised instead of naming the bullet
        inp = tmp_path / "in.dhg"
        inp.write_text(WEIGHTED_CYCLE)
        out = str(tmp_path / "report.json")
        assert main(["solve", str(inp), "--seed", "3", "--alpha", "0.001", "--no-search",
                     "--t-cap", "3", "--json", "-o", out]) == 2
        doc = json.loads(open(out).read())
        assert [tr["outcome"] for tr in doc["transcript"]] == ["certified"] * 2
        for cert in doc["certificates"]:
            cert["z"] = 1e307
        err = self.rejected(doc, out, str(inp), capsys)
        assert "certificate check failed: width_bound" in err

    def test_flipped_triangle_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = json.loads(open(out).read())
        target = None
        for cert in doc["certificates"]:
            if cert["f_p"]:
                target = cert
                break
        assert target is not None, "expected a certificate with triangle weights"
        target["f_p"][0][3] = -target["f_p"][0][3] - 1e-9
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, inp]) == 3

    def test_inflated_flow_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        target = None
        for cert in doc["certificates"]:
            if cert["flow"]:
                target = cert
                break
        assert target is not None
        for row in target["flow"]:
            row[3] *= 1e6
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, inp]) == 3

    def rejected(self, doc, out, inp, capsys) -> str:
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, inp]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "column, value, bullet",
        [
            (0, -1, "flow_edge_range"),
            (0, "m", "flow_edge_range"),
            (1, -1, "flow_pair_not_in_edge"),
            (1, "n", "flow_pair_not_in_edge"),
        ],
        ids=["edge_minus_1", "edge_m", "tail_minus_1", "tail_n"],
    )
    def test_flow_entry_outside_instance_rejected(self, tmp_path, capsys, column, value, bullet):
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        target = next(cert for cert in doc["certificates"] if cert["flow"])
        target["flow"][0][column] = doc["instance"][value] if isinstance(value, str) else value
        assert f"certificate check failed: {bullet}" in self.rejected(doc, out, inp, capsys)

    def test_triangle_vertex_outside_instance_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = json.loads(open(out).read())
        target = next(cert for cert in doc["certificates"] if cert["f_p"])
        target["f_p"][0][2] = doc["instance"]["n"]
        err = self.rejected(doc, out, inp, capsys)
        assert "certificate check failed: triangle_vertex_range" in err

    def test_out_report_relabelled_in_rejected(self, planted_file, tmp_path, capsys):
        # the flow of an "out" run pairs tail and head of the reversed
        # instance; relabelled "in", its entries are not pairs of h
        out = str(tmp_path / "r.json")
        main(["solve", planted_file, "--seed", "7", "--t-cap", "5",
              "--alpha", "1e-6", "--no-search", "--json", "-o", out])
        doc = json.loads(open(out).read())
        for key in ("transcript", "certificates"):
            doc[key] = [entry for entry in doc[key] if entry["side"] == "out"]
        assert any(cert["flow"] for cert in doc["certificates"])
        for entry in doc["transcript"] + doc["certificates"]:
            entry["side"] = "in"
        err = self.rejected(doc, out, planted_file, capsys)
        assert "certificate check failed: flow_pair_not_in_edge" in err

    @pytest.mark.parametrize("tamper", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_entry_rejected(self, tmp_path, capsys, tamper):
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = json.loads(open(out).read())
        tamper(doc)
        err = self.rejected(doc, out, inp, capsys)
        assert "certificate check failed: certificate_malformed" in err

    @pytest.mark.parametrize("tamper", MALFORMED_REPORT.values(), ids=MALFORMED_REPORT.keys())
    def test_malformed_report_rejected(self, tmp_path, capsys, tamper):
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = tamper(json.loads(open(out).read()))
        err = self.rejected(doc, out, inp, capsys)
        assert "certificate check failed: report_malformed" in err

    @pytest.mark.parametrize("tamper, check", RUN_TAMPERS.values(), ids=RUN_TAMPERS.keys())
    def test_run_claim_tampered_rejected(self, tmp_path, capsys, tamper, check):
        inp, out = self.make_report(
            tmp_path, source=PLANTED, extra=("--t-cap", "20", "--alpha", "1e-9")
        )
        doc = json.loads(open(out).read())
        assert (_row(doc)["outcome"], _row(doc)["iterations"]) == ("aborted", 20)
        assert _row(doc)["reason"].startswith("regret check failed after 20 steps")
        assert main(["check-cert", out, inp]) == 0
        tamper(doc)
        assert f"certificate check failed: {check}" in self.rejected(doc, out, inp, capsys)

    def test_mw_check_of_certified_run_tampered_rejected(self, tmp_path, capsys):
        # the regret check is recomputed, never read: a row that prints one
        # is not a version 4 row
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        assert _row(doc)["outcome"] == "certified" and "mw_check" not in _row(doc)
        _row(doc)["mw_check"] = 0.0
        assert "certificate check failed: report_malformed" in self.rejected(doc, out, inp, capsys)

    def test_certificate_alpha_and_rho_rejected(self, tmp_path, capsys):
        # a certificate entry's alpha and rho, which reports once repeated
        # on every certificate, are not read: the row's are
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = json.loads(open(out).read())
        assert not {"alpha", "rho"} & set(doc["certificates"][0])
        for cert in doc["certificates"]:
            cert.update(alpha=-1.0, rho=0.0)
        assert verify_report(doc, parse_dhg(THREE_CYCLE)) == (False, "report_malformed")

    @pytest.mark.parametrize(
        "edit",
        [_per_step_layout, lambda doc: doc.pop("report_version"),
         lambda doc: doc.update(report_version=1), _v2_layout, _v3_layout,
         lambda doc: doc.update(report_version="4")],
        ids=["per_step_layout", "missing", "1", "2", "3", "string"],
    )
    def test_other_report_version_rejected(self, certified_cycle_report, tmp_path, capsys, edit):
        inp, text = certified_cycle_report
        doc = json.loads(text)
        assert doc["report_version"] == 4
        edit(doc)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: report_version_mismatch" in err

    def test_certified_report_accepted(self, certified_cycle_report, tmp_path, capsys):
        inp, text = certified_cycle_report
        doc = json.loads(text)
        assert [tr["iterations"] for tr in doc["transcript"]] == [1] * 2
        assert len(doc["certificates"]) == 2 and doc["lower_bound"] == 0.0047
        assert verify_report(doc, parse_dhg(THREE_CYCLE)) == (True, None)

    def test_report_certified_at_a_later_checkpoint_accepted(self, tmp_path, capsys):
        # both runs pass their regret check first at t = 64, the seventh
        # checkpoint, far below their horizon
        inp = tmp_path / "in.dhg"
        assert main(["gen", "--model", "expander-like", "--n", "5", "--m", "10", "--kappa",
                     "2", "--seed", "1", "-o", str(inp)]) == 0
        assert main(["exact", str(inp), "--json"]) == 0
        alpha = float(Fraction(json.loads(capsys.readouterr().out)["sparsity"])) / 64
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"c_rho": 1.0}))
        out = str(tmp_path / "r.json")
        assert main(["solve", str(inp), "--seed", "0", "--alpha", repr(alpha), "--no-search",
                     "--constants", str(constants), "--json", "-o", out]) == 2
        doc = json.loads(open(out).read())
        rows = doc["transcript"]
        assert [(tr["outcome"], tr["iterations"]) for tr in rows] == [("certified", 64)] * 2
        assert all(tr["t_horizon"] > 64 for tr in rows)
        assert doc["lower_bound"] == alpha / 2
        assert main(["check-cert", out, str(inp)]) == 0

    @pytest.mark.parametrize("tamper", RETIRED_FIELDS.values(), ids=RETIRED_FIELDS.keys())
    def test_unread_key_rejected(self, certified_cycle_report, tmp_path, capsys, tamper):
        inp, text = certified_cycle_report
        doc = json.loads(text)
        tamper(doc)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: report_malformed" in err

    def test_unknown_instance_key_rejected(self, certified_cycle_report, tmp_path, capsys):
        # the instance block is compared whole
        inp, text = certified_cycle_report
        doc = json.loads(text)
        doc["instance"]["note"] = "unread"
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: instance_mismatch" in err

    def test_report_layout(self, certified_cycle_report, expansion_report):
        # the report prints only what check-cert re-derives
        doc = json.loads(certified_cycle_report[1])
        assert set(doc) == {
            "report_version", "instance", "config", "outcome", "cut", "sparsity",
            "lower_bound", "approx_ratio", "transcript", "certificates", "mode",
        }
        assert set(doc["config"]) == {
            "t_cap", "alpha_lo", "alpha_hi", "search_ratio", "max_probes", "oracle",
            "seed", "mode",
        }
        assert all(set(tr) == ROW_KEYS for tr in doc["transcript"])
        expansion = json.loads(expansion_report[1])
        assert set(expansion) == set(doc) | {"expansion"}

    @pytest.mark.parametrize("key, value", INSTANCE_TAMPERS, ids=[k for k, _ in INSTANCE_TAMPERS])
    @pytest.mark.parametrize("mode", ["sparsity", "expansion"])
    def test_instance_number_tampered_rejected(
        self, certified_cycle_report, expansion_report, tmp_path, capsys, key, value, mode
    ):
        inp, text = certified_cycle_report if mode == "sparsity" else expansion_report
        doc = json.loads(text)
        assert verify_report(doc, parse_dhg(open(inp).read())) == (True, None)
        doc["instance"][key] = value
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: instance_mismatch" in err

    @pytest.mark.parametrize("side", [0, 1])
    def test_scaled_average_triangles_rejected(
        self, certified_cycle_report, tmp_path, capsys, side
    ):
        # still a valid certificate structure, but not the run's average:
        # the regret check recomputed from it differs from the row's
        inp, text = certified_cycle_report
        doc = json.loads(text)
        for row in doc["certificates"][side]["f_p"]:
            row[3] *= 1.5
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert ("certificate check failed: mw_check_mismatch" in err
                or "certificate check failed: regret_inequality" in err)

    def test_average_flow_over_capacity_rejected(self, certified_cycle_report, tmp_path, capsys):
        inp, text = certified_cycle_report
        doc = json.loads(text)
        flow = doc["certificates"][0]["flow"]
        # every edge of the cycle has weight 1, so capacity 1/2
        factor = 0.75 / max(f for *_, f in flow)
        for row in flow:
            row[3] *= factor
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: flow_capacity" in err

    def test_orphan_certificate_rejected(self, tmp_path, capsys):
        # the checks walk the transcript, which has no probe 99
        inp, out = self.make_report(tmp_path, source=THREE_CYCLE, extra=("--t-cap", "20"))
        doc = json.loads(open(out).read())
        doc["certificates"].append(dict(doc["certificates"][0], probe=99, z=-5.0))
        err = self.rejected(doc, out, inp, capsys)
        assert "certificate check failed: certificate_orphan" in err

    def test_wrong_instance_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        other = tmp_path / "other.dhg"
        other.write_text(PLANTED)
        assert main(["check-cert", out, str(other)]) == 3

    def test_inflated_lower_bound_rejected(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        doc["lower_bound"] = 100.0
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, inp]) == 3
        assert "lower_bound" in capsys.readouterr().err

    def test_tampered_cut_rejected(self, planted_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert run_solve(planted_file, out) == 0
        doc = json.loads(open(out).read())
        assert doc["cut"] is not None
        all_names = sorted(parse_dhg(PLANTED).names)
        current = set(doc["cut"]["vertices"])
        swapped = sorted((current - {min(current)}) | {next(x for x in all_names if x not in current)})
        doc["cut"]["vertices"] = swapped
        open(out, "w").write(json.dumps(doc))
        assert main(["check-cert", out, planted_file]) == 3

    def test_verify_report_api(self, tmp_path, capsys):
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        ok, failing = verify_report(doc, parse_dhg(open(inp).read()))
        assert ok and failing is None

    def test_retired_config_keys_rejected(self, tmp_path, capsys):
        # the config keys of older layouts, which check-cert does not read
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        h = parse_dhg(open(inp).read())
        retired = dict(c_D=8.0, c_T=6.0, tol_norm=1e-6, c_A2=None, mu=1.0, rng_seed=3)
        assert not set(retired) & set(doc["config"]["oracle"])
        assert "eta_override" not in doc["config"]
        for key, value in retired.items():
            edited = json.loads(json.dumps(doc))
            edited["config"]["oracle"][key] = value
            assert verify_report(edited, h) == (False, "report_malformed")
        doc["config"]["eta_override"] = None
        assert verify_report(doc, h) == (False, "report_malformed")

    @pytest.mark.parametrize("tamper, check", CUT_TAMPERS.values(), ids=CUT_TAMPERS.keys())
    def test_cut_number_tampered_rejected(self, expander_report, tmp_path, capsys, tamper, check):
        inp, text = expander_report
        doc = json.loads(text)
        assert verify_report(doc, parse_dhg(open(inp).read())) == (True, None)
        tamper(doc)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert f"certificate check failed: {check}" in err

    @pytest.mark.parametrize("tamper, check", SEARCH_TAMPERS.values(), ids=SEARCH_TAMPERS.keys())
    def test_search_claim_tampered_rejected(
        self, expander_report, tmp_path, capsys, tamper, check
    ):
        inp, text = expander_report
        doc = json.loads(text)
        tamper(doc)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert f"certificate check failed: {check}" in err

    @pytest.mark.parametrize("mode, tamper, check", MODE_TAMPERS.values(), ids=MODE_TAMPERS.keys())
    def test_mode_claim_tampered_rejected(
        self, expander_report, expansion_report, tmp_path, capsys, mode, tamper, check
    ):
        inp, text = expander_report if mode == "sparsity" else expansion_report
        doc = json.loads(text)
        assert doc["mode"] == doc["config"]["mode"] == mode
        tamper(doc)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert f"certificate check failed: {check}" in err

    def test_report_without_a_top_level_mode_accepted(self, expander_report, expansion_report):
        # the config's mode is the one check-cert reads
        for inp, text in (expander_report, expansion_report):
            doc = json.loads(text)
            del doc["mode"]
            assert verify_report(doc, parse_dhg(open(inp).read())) == (True, None)

    def test_run_cut_of_every_vertex_rejected(self, expander_report, tmp_path, capsys):
        inp, text = expander_report
        doc = json.loads(text)
        _run_cut(doc)["vertices"] = sorted(parse_dhg(open(inp).read()).names)
        err = self.rejected(doc, str(tmp_path / "r.json"), inp, capsys)
        assert "certificate check failed: cut_improper" in err

    @pytest.mark.parametrize("key", ["phi", "vertices"])
    def test_expansion_block_tampered_rejected(self, planted_file, tmp_path, capsys, key):
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", planted_file, "--mode", "expansion", "--seed", "7",
             "--t-cap", "40", "--json", "-o", out]
        ) == 0
        doc = json.loads(open(out).read())
        doc["expansion"][key] = "0" if key == "phi" else ["a"]
        err = self.rejected(doc, out, planted_file, capsys)
        assert "certificate check failed: expansion_mismatch" in err

    def test_expansion_report_on_degree_zero_instance_rejected(
        self, expansion_report, tmp_path, capsys
    ):
        # no instance whose every degree is 0 can be degree-scaled, so no
        # expansion-mode report can be of it
        zero = tmp_path / "zero.dhg"
        zero.write_text("dhg 2 1\nv a 1\nv b 1\ne 0 T a H b\n")
        doc = json.loads(expansion_report[1])
        err = self.rejected(doc, str(tmp_path / "r.json"), str(zero), capsys)
        assert "certificate check failed: instance_mismatch" in err

    def test_expansion_mode_report_verifiable(self, planted_file, tmp_path, capsys):
        # expansion reports embed the degree-scaled instance; check-cert
        # still accepts them against the original file
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", planted_file, "--mode", "expansion", "--seed", "7",
             "--t-cap", "40", "--json", "-o", out]
        ) == 0
        assert main(["check-cert", out, planted_file]) == 0


@pytest.mark.parametrize(
    "command",
    [
        "solve", "exact", "reduce", "check-cert report", "check-cert instance",
        "solve constants", "exact compare",
    ],
)
def test_input_not_utf8_exit_1(certified_cycle_report, tmp_path, capsys, command):
    # every subcommand that reads a file names one that is not UTF-8 text
    inp, text = certified_cycle_report
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    report = tmp_path / "r.json"
    report.write_text(text)
    args = {
        "solve": ["solve", str(bad), "--seed", "1"],
        "exact": ["exact", str(bad)],
        "reduce": ["reduce", str(bad)],
        "check-cert report": ["check-cert", str(bad), inp],
        "check-cert instance": ["check-cert", str(report), str(bad)],
        "solve constants": ["solve", inp, "--seed", "1", "--constants", str(bad)],
        "exact compare": ["exact", inp, "--compare", str(bad)],
    }[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not utf-8 text (byte 0)\n"


@pytest.mark.parametrize("command", ["check-cert", "solve constants", "exact compare"])
def test_deeply_nested_json_exit_1(certified_cycle_report, tmp_path, capsys, command):
    # json's parser recurses once per level, past the interpreter's limit
    inp, _ = certified_cycle_report
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    args = {
        "check-cert": ["check-cert", str(deep), inp],
        "solve constants": ["solve", inp, "--seed", "1", "--constants", str(deep)],
        "exact compare": ["exact", inp, "--compare", str(deep)],
    }[command]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


def test_solve_and_check_cert_import_numpy_only(tmp_path):
    # the package needs numpy alone, and set-up time pays for every import
    inp, out = tmp_path / "in.dhg", tmp_path / "r.json"
    inp.write_text(PLANTED)
    code = "\n".join([
        "import sys",
        "from hyperspars.cli import main",
        f"assert main(['solve', {str(inp)!r}, '--seed', '7', '--json', '-o', {str(out)!r}]) == 0",
        f"assert main(['check-cert', {str(out)!r}, {str(inp)!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestExact:
    def test_exact_values(self, planted_file, capsys):
        assert main(["exact", planted_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sparsity"] == "1/90"
        assert set(doc["sparsest_subset"]) == {"a", "b", "c"}

    def test_exact_compare_ratio(self, planted_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        run_solve(planted_file, out)
        capsys.readouterr()
        assert main(["exact", planted_file, "--compare", out, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solve_ratio"] >= 1.0

    @pytest.mark.parametrize(
        "content",
        [
            None, "{not json", "[1, 2]", '{"sparsity": "abc"}', '{"sparsity": true}',
            '{"sparsity": 1' + "0" * 400 + "}",
        ],
        ids=[
            "missing", "invalid_json", "list", "sparsity_not_a_number", "sparsity_bool",
            "sparsity_past_the_floats",
        ],
    )
    def test_bad_compare_report_exit_1(self, planted_file, tmp_path, capsys, content):
        report = tmp_path / "r.json"
        if content is not None:
            report.write_text(content)
        assert main(["exact", planted_file, "--compare", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_size_guard_exit_1(self, tmp_path, capsys):
        lines = ["dhg 25 1"] + [f"v v{k} 1" for k in range(25)] + ["e 1 T v0 H v1"]
        big = tmp_path / "big.dhg"
        big.write_text("\n".join(lines) + "\n")
        assert main(["exact", str(big)]) == 1


class TestGen:
    def test_gen_deterministic(self, tmp_path, capsys):
        args = ["gen", "--n", "6", "--m", "8", "--kappa", "2", "--seed", "4"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        h = parse_dhg(first)
        assert h.n == 6 and h.m == 8

    def test_gen_to_solve_pipeline(self, tmp_path, capsys):
        inst = str(tmp_path / "gen.dhg")
        assert main(
            ["gen", "--n", "5", "--m", "6", "--model", "expander-like",
             "--seed", "2", "-o", inst]
        ) == 0
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", inst, "--seed", "2", "--t-cap", "40", "--json", "-o", out]
        ) == 0

    def test_gen_requires_seed(self, monkeypatch, capsys):
        monkeypatch.delenv("HYPERSPARS_SEED", raising=False)
        with pytest.raises(SystemExit):
            main(["gen", "--n", "4", "--m", "3"])

    def test_gen_invalid_spec(self, capsys):
        assert main(["gen", "--n", "4", "--m", "3", "--kappa", "9", "--seed", "1"]) == 1

    @pytest.mark.parametrize(
        "weight", [("--inside-w", "1/0"), ("--crossing-w", "5/0", "--model", "planted-cut")]
    )
    def test_gen_zero_denominator_exit_1(self, capsys, weight):
        assert main(["gen", "--n", "4", "--m", "3", "--seed", "1", *weight]) == 1
        err = capsys.readouterr().err
        assert err == f"error: Fraction({weight[1].split('/')[0]}, 0)\n"


class TestReduce:
    def test_reduce_output(self, planted_file, capsys):
        assert main(["reduce", planted_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        h = parse_dhg(PLANTED)
        assert len(doc["vertices"]) == h.n + 2 * h.m
        assert len(doc["arcs"]) == h.m + sum(len(e.tail) + len(e.head) for e in h.edges)
        big = h.n * sum(e.weight for e in h.edges)
        assert doc["big_weight"] == f"{big.numerator}/{big.denominator}"
