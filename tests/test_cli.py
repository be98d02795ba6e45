import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cozero import graphs, solvers
from cozero.cli import main
from cozero.graphs import CozeroGraph
from cozero.rings import associate_classes, parse_spec
from cozero.verify import default_ring_set
from conftest import CLASS_RINGS, unit_by_search


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, stopped after 30 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("COZERO_MAX_CARDINALITY", None)
    return subprocess.run([sys.executable, "-m", "cozero.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


class TestAnalyze:
    def test_z2_cubed(self, capsys):
        code, out, _ = run_cli(["analyze", "Z2xZ2xZ2"], capsys)
        assert code == 0
        assert "omega=3 chi=3 perfect=true" in out
        assert "formula C(3,1)=3: match" in out

    def test_z4_null(self, capsys):
        code, out, _ = run_cli(["analyze", "Z4"], capsys)
        assert code == 0
        assert "null graph" in out
        assert "omega=1 chi=1" in out

    def test_crt_isomorphic_presentations(self, capsys):
        code, out, _ = run_cli(["analyze", "--format", "json",
                                "Z2xZ3", "Z6"], capsys)
        assert code == 0
        a, b = json.loads(out)
        for key in ["cardinality", "units", "vertices", "edges",
                    "omega", "chi", "perfect"]:
            assert a[key] == b[key]

    def test_units_match_search(self, capsys):
        specs = ["Z2xZ4", "Z12", "Z9", "Z2xZ3xZ5", "Z4xZ9", "Z5"]
        code, out, _ = run_cli(["analyze", "--format", "json", *specs], capsys)
        assert code == 0
        for text, info in zip(specs, json.loads(out)):
            spec = parse_spec(text)
            assert info["units"] == sum(
                unit_by_search(spec, a) for a in spec.elements()), text

    @pytest.mark.parametrize("specs", [
        [str(spec) for spec in default_ring_set()],
        CLASS_RINGS,
        ["Z8", "Z4xZ6", "Z12xZ18", "Z2xZ4xZ8", "Z100", "Z36xZ10"],
    ], ids=["default-rings", "analyze-classes", "non-squarefree"])
    def test_class_count_is_the_signature_count(self, capsys, specs):
        # analyze counts the gcd signatures; the oracle lists every class
        code, out, _ = run_cli(["analyze", "--format", "json",
                                "--max-vertices", "2048", *specs], capsys)
        assert code == 0
        for text, info in zip(specs, json.loads(out), strict=True):
            assert info["associate_classes"] == len(
                associate_classes(parse_spec(text)).classes), text

    @pytest.mark.parametrize("fmt,sha256", [
        ("text", "7fe66a6d78aa026afb9860af522be27875f5c1229bcf5522b806a6c2cd3a5245"),
        ("json", "dd9d45ac6843100567304ceb4819ca68635527a5d5f802b622efce97ffe830c8"),
    ])
    def test_class_rings_bytes(self, capsys, fmt, sha256):
        # the analyze-classes output, pinned by its bytes in both formats
        code, out, _ = run_cli(["analyze", "--max-vertices", "2048", "--format", fmt,
                                *CLASS_RINGS], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_rings_flag(self, capsys):
        code, out, _ = run_cli(["analyze", "--rings", "Z2xZ2,Z3xZ3"], capsys)
        assert code == 0
        assert "Z2xZ2:" in out and "Z3xZ3:" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["analyze", "Zbogus"], capsys)
        assert code == 2

    def test_no_specs_exit_2(self, capsys):
        code, _, _ = run_cli(["analyze"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--max-cardinality", "--max-vertices"])
    @pytest.mark.parametrize("value", ["0", "-1", "ten"])
    def test_bad_cap_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(["analyze", "Z2xZ2", flag, value], capsys)
        assert code == 2 and out == ""
        assert "not a positive integer" in err

    def test_boolean_power_seven_returns(self):
        # the 126-vertex core of Z2^7 is certified perfect without a search
        done = run_cli_process(["analyze", "--format", "json",
                                "Z2xZ2xZ2xZ2xZ2xZ2xZ2"])
        assert done.returncode == 0
        [info] = json.loads(done.stdout)
        assert info["perfect"] is True and info["omega"] == 35

    def test_cap_violation_exit_1(self, capsys):
        code, out, _ = run_cli(["analyze", "Z2xZ2", "--max-cardinality", "3"],
                               capsys)
        assert code == 1
        assert "error" in out

    def test_vertex_cap_exit_1(self, capsys):
        # a size guard on the graph, with no search behind it
        argv = ["analyze", "--max-vertices", "5", "Z2xZ2xZ2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert out == "Z2xZ2xZ2: error: graph has 6 vertices, cap is 5\n"
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 1
        assert json.loads(out) == [
            {"spec": "Z2xZ2xZ2", "error": "graph has 6 vertices, cap is 5"}]
        code, out, _ = run_cli(["analyze", "--max-vertices", "6", "Z2xZ2xZ2"], capsys)
        assert code == 0 and "omega=3 chi=3" in out

    def test_ring_over_the_cap_is_an_error_entry_in_place(self, capsys):
        # the middle ring is over the vertex cap: an error line or entry
        # where its summary would be, full summaries around it, exit 1;
        # both outputs are pinned by their bytes
        argv = ["analyze", "Z2xZ3", "Z2xZ3xZ5", "Z2xZ2xZ2", "--max-vertices", "6"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert out == ("Z2xZ3:\n"
                       "  |R|=6 units=2 vertices=3 edges=2\n"
                       "  vnr=true field-factors=2\n"
                       "  omega=2 chi=2 perfect=true\n"
                       "  formula C(2,1)=2: match\n"
                       "Z2xZ3xZ5: error: graph has 21 vertices, cap is 6\n"
                       "Z2xZ2xZ2:\n"
                       "  |R|=8 units=1 vertices=6 edges=9\n"
                       "  vnr=true field-factors=3\n"
                       "  omega=3 chi=3 perfect=true\n"
                       "  formula C(3,1)=3: match\n")
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 1
        first, middle, last = json.loads(out)
        assert middle == {"spec": "Z2xZ3xZ5", "error": "graph has 21 vertices, cap is 6"}
        assert (first["spec"], first["chi"], last["spec"], last["chi"]) == (
            "Z2xZ3", 2, "Z2xZ2xZ2", 3)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f3b4222e35210e97a58d64b8d9be960b62951c6733cd6ed4715a834ab37a3954")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_certificate_is_an_error_entry_in_place(self, capsys, monkeypatch, fmt):
        # bit n - 1 of row 0 of Z2xZ3xZ5 flipped by a patched build, in one
        # row only: the order rejects the rows, the middle ring's summary is
        # its error, the rings around it keep theirs, and analyze exits 1
        argv = ["analyze", "--format", fmt, "Z2xZ2", "Z2xZ3xZ5", "Z2xZ3"]
        code, clean, _ = run_cli(argv, capsys)
        assert code == 0
        build = graphs.build_cozero_graph

        def flipped(spec, **caps):
            g = build(spec, **caps)
            if str(spec) != "Z2xZ3xZ5":
                return g
            return CozeroGraph(g.spec, g.labels, (g.adj[0] ^ 1 << g.n - 1,) + g.adj[1:])

        monkeypatch.setattr(graphs, "build_cozero_graph", flipped)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and err == ""
        error = ("AssertionError: the rows of Z2xZ3xZ5 are not a symmetric, "
                 "loopless graph")
        if fmt == "json":
            first, middle, last = json.loads(out)
            assert middle == {"spec": "Z2xZ3xZ5", "error": error}
            assert [first, last] == [info for info in json.loads(clean)
                                     if info["spec"] != "Z2xZ3xZ5"]
        else:
            first, last = clean.split("Z2xZ3xZ5:")[0], "Z2xZ3:" + clean.split("Z2xZ3:")[-1]
            assert out == first + f"Z2xZ3xZ5: error: {error}\n" + last


class TestVerify:
    def test_named_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "clique-formula",
                                "--rings", "Z2xZ2,Z2xZ2xZ2"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        assert all(r["pass"] for r in reports)

    def test_unknown_claim_exit_2(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "bogus"], capsys)
        assert code == 2

    @pytest.mark.parametrize("suite", [",", ",,", ""])
    def test_empty_claim_list_exit_2(self, capsys, suite):
        code, out, err = run_cli(["verify", "--suite", suite,
                                  "--rings", "Z2xZ2"], capsys)
        assert code == 2 and out == ""
        assert "names no claim" in err

    @pytest.mark.parametrize("rings", [",", ",,", ""])
    def test_empty_ring_list_exit_2(self, capsys, rings):
        # not a run of the whole default suite
        code, out, err = run_cli(["verify", "--rings", rings], capsys)
        assert code == 2 and out == ""
        assert "names no ring" in err

    def test_multiple_claims(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "null-graph,quotient-reduction",
             "--rings", "Z8,Z3xZ3"], capsys)
        assert code == 0
        assert len(json.loads(out)) == 4

    @pytest.mark.parametrize("argv", [
        ["--suite", "clique-formula,clique-formula", "Z2xZ3"],
        ["--suite", "quotient-reduction", "Z2xZ3", "Z2xZ3"]])
    def test_duplicates_report_once(self, capsys, argv):
        code, out, _ = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert len(json.loads(out)) == 1

    def test_vertex_guard_defaults_to_the_cardinality_cap(self, capsys):
        # no search sits behind --max-vertices, so by default it skips
        # nothing under the cardinality cap: only the six-field rule skips
        ring = "x".join(["Z2"] * 10)
        code, out, _ = run_cli(["verify", "--max-cardinality", "1024",
                                "--rings", ring], capsys)
        assert code == 0
        reports = {r["claim_id"]: r for r in json.loads(out)}
        for claim in ["clique-formula", "graph-invariants", "null-graph"]:
            assert reports[claim]["pass"] and not reports[claim]["skipped"]
        assert reports["clique-formula"]["observed"] == "omega=252 chi=252"
        for claim in ["perfection", "quotient-reduction"]:
            assert reports[claim]["reason"] == "cap-exceeded"
        code, out, _ = run_cli(["analyze", "--max-cardinality", "1024", ring], capsys)
        assert code == 0 and "vertices=1022" in out and "omega=252 chi=252" in out
        # an explicit guard still skips
        code, out, _ = run_cli(["verify", "--max-cardinality", "1024",
                                "--max-vertices", "1021", "--rings", ring], capsys)
        assert code == 0
        assert all(r["reason"] == "cap-exceeded" for r in json.loads(out))

    def test_negative_max_vertices_exit_2(self, capsys):
        # not a run that skips every report as cap-exceeded
        code, out, _ = run_cli(["verify", "--max-vertices", "-1",
                                "--rings", "Z2xZ2"], capsys)
        assert code == 2 and out == ""

    def test_huge_prime_modulus_skips_fast(self):
        # 2^61 - 1 is prime; no claim may factor it before testing the cap
        done = run_cli_process(["verify", "--rings", "Z2305843009213693951"])
        assert done.returncode == 0
        reports = json.loads(done.stdout)
        assert len(reports) == 5
        assert all(r["skipped"] and r["reason"] == "cap-exceeded" for r in reports)

    def test_internal_error_fails_its_ring_only(self, capsys, monkeypatch):
        # an edge of Z2xZ3xZ5 planted by a patched build: (0,0,2) lies
        # between (0,0,1) and (0,1,1), so the orientation up the rank is no
        # longer transitive; each claim that reads the order reports the
        # error, and the other rings' reports are those of an unpatched run
        argv = ["verify", "Z2xZ3", "Z2xZ3xZ5", "Z2xZ2xZ2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        clean = [r for r in json.loads(out) if r["spec"] != "Z2xZ3xZ5"]
        build = graphs.build_cozero_graph

        def flipped(spec, **caps):
            g = build(spec, **caps)
            if str(spec) != "Z2xZ3xZ5":
                return g
            u, v = g.labels.index((0, 0, 1)), g.labels.index((0, 1, 1))
            assert not g.has_edge(u, v)
            adj = list(g.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            return CozeroGraph(g.spec, g.labels, tuple(adj))

        monkeypatch.setattr(graphs, "build_cozero_graph", flipped)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and err == ""
        reports = json.loads(out)
        assert [r for r in reports if r["spec"] != "Z2xZ3xZ5"] == clean
        errors = [r for r in reports if r["reason"] == "error"]
        assert [r["claim_id"] for r in errors] == [
            "clique-formula", "perfection", "quotient-reduction"]
        for r in errors:
            assert r == {
                "claim_id": r["claim_id"], "spec": "Z2xZ3xZ5", "expected": "",
                "observed": "error: AssertionError: ideal orientation of Z2xZ3xZ5 "
                            "does not orient the complement transitively",
                "pass": False, "witness": None, "skipped": False, "reason": "error"}

    def test_failed_certificate_runs_once(self, capsys, monkeypatch):
        # the edge of test_internal_error_fails_its_ring_only, planted again:
        # the order is validated once per ring, also where it fails, and
        # its three claims report the kept exception, byte for byte as when
        # each claim computed it anew
        build, validate = graphs.build_cozero_graph, solvers.validated_order
        calls = collections.Counter()

        def flipped(spec, **caps):
            g = build(spec, **caps)
            if str(spec) != "Z2xZ3xZ5":
                return g
            u, v = g.labels.index((0, 0, 1)), g.labels.index((0, 1, 1))
            adj = list(g.adj)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            return CozeroGraph(g.spec, g.labels, tuple(adj))

        def counted(g, row_classes):
            calls[str(g.spec)] += 1
            return validate(g, row_classes)

        monkeypatch.setattr(graphs, "build_cozero_graph", flipped)
        monkeypatch.setattr(solvers, "validated_order", counted)
        code, out, err = run_cli(["verify", "Z2xZ3", "Z2xZ3xZ5", "Z2xZ2xZ2"], capsys)
        assert code == 1 and err == ""
        assert calls == {"Z2xZ3": 1, "Z2xZ3xZ5": 1, "Z2xZ2xZ2": 1}
        errors = [r for r in json.loads(out) if r["reason"] == "error"]
        assert [r["claim_id"] for r in errors] == [
            "clique-formula", "perfection", "quotient-reduction"]
        assert {r["observed"] for r in errors} == {
            "error: AssertionError: ideal orientation of Z2xZ3xZ5 "
            "does not orient the complement transitively"}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cd0ddf094df4a6274e332369e6a64e863cf5eab84357891676689c7d25ae91b2")

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "graph-invariants",
                "--rings", "Z6,Z2xZ4,Z3xZ3"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestExport:
    def test_dot_z2_cubed(self, capsys):
        code, out, _ = run_cli(["export", "Z2xZ2xZ2", "--format", "dot"],
                               capsys)
        assert code == 0
        assert out.count(" -- ") == 9
        assert out.count("label=") == 6

    def test_json_single_vertex(self, capsys):
        code, out, _ = run_cli(["export", "Z4", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["labels"] == [[2]] and data["edges"] == []

    def test_quotient_dot(self, capsys):
        code, out, _ = run_cli(["export", "Z3xZ3", "--quotient",
                                "--format", "dot"], capsys)
        assert code == 0
        assert out.count("label=") == 2
        assert out.count(" -- ") == 1

    # pinned bytes: the quotient's vertex order and labels are those of the
    # representatives of rings.associate_classes, in its order
    @pytest.mark.parametrize("spec,fmt,sha256", [
        ("Z3xZ3", "dot", "138590df4685849245a950665cc01b38a4fc3f5ccd39073364686cc7cb751375"),
        ("Z3xZ3", "json", "682fd75a0ddca56e6606c5e1fe0b741795b478b1fb81152e1fd3e970f99cf3cc"),
        ("Z4xZ9", "dot", "0d241b428047e2e3dbb16924302a641f8964ba499a987c5066090f793349fe50"),
        ("Z4xZ9", "json", "2f253593ad40aa54894b05912debcb2eebc3b09feaeb6e59f081acf89777e4c4"),
    ])
    def test_quotient_export_bytes(self, capsys, spec, fmt, sha256):
        code, out, _ = run_cli(["export", spec, "--quotient", "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_complement(self, capsys):
        code, out, _ = run_cli(["export", "Z2xZ2xZ2", "--complement",
                                "--format", "json"], capsys)
        assert code == 0
        assert len(json.loads(out)["edges"]) == 15 - 9

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "g.dot"
        code, out, _ = run_cli(["export", "Z2xZ2", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text().count(" -- ") == 1

    @pytest.mark.parametrize("variant", [[], ["--quotient"], ["--complement"]])
    def test_vertex_cap_exit_1(self, capsys, variant):
        # the guard of analyze, on the ring's graph whichever variant is exported
        code, out, err = run_cli(["export", "Z2xZ2xZ2", "--max-vertices", "1",
                                  *variant], capsys)
        assert (code, out) == (1, "")
        assert err == "cozero: error: graph has 6 vertices, cap is 1\n"
        code, out, _ = run_cli(["export", "Z2xZ2xZ2", "--max-vertices", "6",
                                *variant], capsys)
        assert code == 0 and out.startswith("graph cozero {")

    def test_two_specs_exit_2(self, capsys):
        code, _, _ = run_cli(["export", "Z4", "Z8"], capsys)
        assert code == 2

    def test_both_variant_flags_exit_2(self, capsys):
        code, _, _ = run_cli(["export", "Z4", "--quotient", "--complement"],
                             capsys)
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "Z4"], ["verify", "--suite", "null-graph", "Z4"], ["export", "Z4"],
], ids=["analyze", "verify", "export"])
@pytest.mark.parametrize("target,reason", [
    (".", "Is a directory"), ("missing/out.txt", "No such file or directory"),
], ids=["directory", "missing-parent"])
def test_unwritable_out_exit_2(capsys, tmp_path, argv, target, reason):
    path = tmp_path / target
    code, out, err = run_cli([*argv, "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"cozero: error: cannot write {path}: {reason}\n"


class TestEnvCap:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("COZERO_MAX_CARDINALITY", "3")
        code, out, _ = run_cli(["analyze", "Z2xZ2"], capsys)
        assert code == 1

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COZERO_MAX_CARDINALITY", "3")
        code, _, _ = run_cli(["analyze", "Z2xZ2",
                              "--max-cardinality", "100"], capsys)
        assert code == 0

    def test_env_not_integer_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COZERO_MAX_CARDINALITY", "abc")
        code, out, err = run_cli(["analyze", "Z2xZ2"], capsys)
        assert code == 2 and out == ""
        assert "'abc' is not a positive integer" in err
