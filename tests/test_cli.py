"""CLI commands, exit codes, JSON schema, determinism, re-verification."""

import json

import pytest

from hyperspars.cli import main
from hyperspars.hypergraph import parse_dhg
from hyperspars.report import verify_report

TOY = "dhg 2 2\nv a 1\nv b 1\ne 1 T a H b\ne 1 T b H a\n"

THREE_CYCLE = "dhg 3 3\nv a 1\nv b 1\nv c 1\ne 1 T a H b\ne 1 T b H c\ne 1 T c H a\n"

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

    def test_oracle_invariant_error_exit_1(self, tmp_path, capsys):
        # an edge-weight ratio of 1e14 trips the max-flow tolerance and Case
        # 1A returns an improper cut: an error, not an aborted probe
        wide = tmp_path / "wide.dhg"
        wide.write_text(
            "dhg 3 2\nv a 1\nv b 1\nv c 1\n"
            "e 1/10000000 T a H b c\ne 10000000 T b c H a\n"
        )
        assert main(["solve", str(wide), "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: case 1A produced an improper cut")
        assert "Traceback" not in err

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
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", planted_file, "--seed", "7", "--t-cap", "40", "--side", "in",
             "--json", "-o", out]
        ) == 0
        doc = json.loads(open(out).read())
        assert all(t["side"] == "in" for t in doc["transcript"])
        assert doc["lower_bound"] is None  # single-side runs never certify globally

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

    def test_retired_config_keys_ignored(self, tmp_path, capsys):
        # reports written before c_D and c_T were retired still verify
        inp, out = self.make_report(tmp_path)
        doc = json.loads(open(out).read())
        assert "c_D" not in doc["config"]["oracle"] and "c_T" not in doc["config"]["oracle"]
        doc["config"]["oracle"].update(c_D=8.0, c_T=6.0)
        assert verify_report(doc, parse_dhg(open(inp).read())) == (True, None)

    def test_expansion_mode_report_verifiable(self, planted_file, tmp_path, capsys):
        # expansion reports embed the degree-scaled instance; check-cert
        # still accepts them against the original file
        out = str(tmp_path / "r.json")
        assert main(
            ["solve", planted_file, "--mode", "expansion", "--seed", "7",
             "--t-cap", "40", "--json", "-o", out]
        ) == 0
        assert main(["check-cert", out, planted_file]) == 0


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


class TestReduce:
    def test_reduce_output(self, planted_file, capsys):
        assert main(["reduce", planted_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        h = parse_dhg(PLANTED)
        assert len(doc["vertices"]) == h.n + 2 * h.m
        assert len(doc["arcs"]) == h.m + sum(len(e.tail) + len(e.head) for e in h.edges)
        big = h.n * sum(e.weight for e in h.edges)
        assert doc["big_weight"] == f"{big.numerator}/{big.denominator}"
