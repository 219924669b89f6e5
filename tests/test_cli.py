import hashlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

from srgddg import assembly as asm, cli, coclique as cq, designs, galois, graphcore as gc, iso, recognize
from srgddg.errors import BudgetExceeded, SrgddgError


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_raw(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def piece(tmp_path, sp42):
    """A directory holding the construct inputs of the first Sp(4,2)
    complement witness: ddg.g6, part.json and design.json."""
    dec = asm.decompose(sp42, cq.CocliqueQuery(mode="first"))[0]
    (tmp_path / "ddg.g6").write_bytes(gc.encode_graph6(dec.ddg) + b"\n")
    classes = [gc.set_of(cl) for cl in dec.ddg_partition.classes]
    (tmp_path / "part.json").write_text(json.dumps({"classes": classes}))
    blocks = [dec.design.block_points(i) for i in range(len(dec.design.blocks))]
    (tmp_path / "design.json").write_text(json.dumps({"v": 3, "blocks": blocks}))
    return tmp_path


def counting(monkeypatch, module, name, calls=None):
    """Record each call of module.name in calls (a new list if None)."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestGen:
    def test_gen_petersen_graph6(self, capsys, petersen):
        code, out = run_raw(capsys, ["gen", "petersen"])
        assert code == 0
        assert out.strip().encode() == gc.encode_graph6(petersen)

    def test_gen_field_above_cap(self, capsys):
        # a prime far above the field size cap is refused before factoring
        code, rep = run_json(capsys, ["gen", "sp-complement", "--q", "100000000000031"])
        assert code == 1
        assert "exceeds cap" in rep["results"]["error"]

    def test_gen_field_just_above_cap(self, capsys):
        # 71, the least prime above the cap, is refused before GF(71) is built
        start = time.perf_counter()
        code, rep = run_json(capsys, ["gen", "sp-complement", "--q", "71"])
        assert time.perf_counter() - start < 0.1
        assert code == 1
        assert rep["results"]["error"] == "field size 71 exceeds cap 70"

    def test_gen_graph_over_cap_builds_no_field_table(self, capsys, monkeypatch):
        # GF(64) is under the field cap, but Sp(4, 64) is over the graph
        # cap: refused before a table entry of the field is computed
        def no_tables(*args):
            raise AssertionError("field table built")

        monkeypatch.setattr(galois, "_poly_mul", no_tables)
        code, rep = run_json(capsys, ["gen", "sp-complement", "--q", "64"])
        assert code == 1
        assert rep["results"]["error"] == "graph on 266305 vertices exceeds cap 5000"

    @pytest.mark.parametrize("argv,want", [
        (["triangular", "--m", "6"], gc.triangular(6)),
        (["grid", "--rows", "2", "--cols", "3"], gc.grid(2, 3)),
        (["complete", "--n", "4"], gc.complete(4)),
        (["edgeless", "--n", "4"], gc.edgeless(4)),
        (["cycle", "--n", "7"], gc.cycle(7)),
        (["path", "--n", "3"], gc.path(3)),
    ])
    def test_gen_by_name(self, capsys, argv, want):
        code, out = run_raw(capsys, ["gen", *argv])
        assert code == 0 and gc.decode_graph6(out.strip().encode()) == want

    def test_gen_sp_complement(self, capsys):
        code, out = run_raw(capsys, ["gen", "sp-complement", "--d", "2", "--q", "3"])
        assert code == 0
        g = gc.decode_graph6(out.strip().encode())
        assert g.order == 40

    @pytest.mark.parametrize("argv,order", [
        (["complete", "--n", "5001"], 5001),
        (["edgeless", "--n", "5001"], 5001),
        (["cycle", "--n", "5001"], 5001),
        (["path", "--n", "5001"], 5001),
        (["grid", "--rows", "3", "--cols", "1667"], 5001),
        (["triangular", "--m", "101"], 5050),  # the least T(m) order above the cap
        # an order of 4,400 digits, too many to print
        (["grid", "--rows", "9" * 2200, "--cols", "9" * 2200], "over 2^14616"),
    ])
    def test_gen_above_graph_cap(self, capsys, monkeypatch, argv, order):
        # refused with an error report before a graph is built
        def refuse(*args):
            raise AssertionError("graph built above the cap")

        monkeypatch.setattr(gc, "Graph", refuse)
        code, rep = run_json(capsys, ["gen", *argv])
        assert code == 1
        assert rep["results"]["error"] == f"graph on {order} vertices exceeds cap 5000"


class TestRecognize:
    def test_pipeline_recognize(self, tmp_path, capsys, sp42):
        f = tmp_path / "g.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 0
        assert rep["schema"] == "srgddg-report/1"
        srg = rep["results"]["graphs"][0]["srg"]
        assert (srg["v"], srg["k"], srg["lambda"], srg["mu"]) == (15, 8, 4, 4)

    def test_subprocess_pipe(self):
        # gen | recognize - end to end through real pipes
        gen = subprocess.run(
            [sys.executable, "-m", "srgddg.cli", "gen", "sp-complement", "--d", "2", "--q", "2"],
            capture_output=True, check=True,
        )
        rec = subprocess.run(
            [sys.executable, "-m", "srgddg.cli", "recognize", "-"],
            input=gen.stdout, capture_output=True, check=True,
        )
        rep = json.loads(rec.stdout)
        assert rep["results"]["graphs"][0]["srg"]["v"] == 15

    def test_determinism_modulo_timing(self, tmp_path, capsys, petersen):
        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        _, rep1 = run_json(capsys, ["recognize", str(f)])
        _, rep2 = run_json(capsys, ["recognize", str(f)])
        rep1.pop("timing_ms")
        rep2.pop("timing_ms")
        assert rep1 == rep2


class TestSpectrum:
    def test_integral(self, tmp_path, capsys, petersen):
        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        code, rep = run_json(capsys, ["spectrum", str(f)])
        assert code == 0
        row = rep["results"]["graphs"][0]
        assert row["integral"] and row["spectrum"] == [[3, 1], [1, 5], [-2, 4]]

    def test_non_integral(self, tmp_path, capsys):
        f = tmp_path / "c5.g6"
        f.write_bytes(gc.encode_graph6(gc.cycle(5)) + b"\n")
        _, rep = run_json(capsys, ["spectrum", str(f)])
        row = rep["results"]["graphs"][0]
        assert not row["integral"] and row["residual_degree"] == 4

    def test_over_cap_refused_before_the_matrix(self, tmp_path, capsys, monkeypatch):
        from srgddg import exact

        f = tmp_path / "path.g6"
        f.write_bytes(gc.encode_graph6(gc.path(exact.SIZE_CAP + 1)) + b"\n")
        calls = counting(monkeypatch, exact, "adjacency_matrix")
        counting(monkeypatch, exact, "_moments", calls)
        code, rep = run_json(capsys, ["spectrum", str(f)])
        assert code == 0 and calls == []
        assert rep["results"] == {
            "graphs": [{"error": "integral_spectrum: dimension 513 exceeds cap 512"}],
        }

    def test_over_cap_graph_keeps_the_other_rows(self, tmp_path, capsys, petersen):
        f = tmp_path / "two.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n" + gc.encode_graph6(gc.path(600)) + b"\n")
        for extra in ([], ["--keep-going"]):
            code, rep = run_json(capsys, ["spectrum", str(f), *extra])
            assert code == 0
            assert rep["results"]["graphs"] == [
                {"integral": True, "spectrum": [[3, 1], [1, 5], [-2, 4]]},
                {"error": "integral_spectrum: dimension 600 exceeds cap 512"},
            ]


class TestCocliqueCmd:
    def test_hoffman_default(self, tmp_path, capsys, petersen):
        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        _, rep = run_json(capsys, ["coclique", str(f), "--mode", "all"])
        assert rep["results"]["graphs"][0]["count"] == 5

    def test_explicit_target(self, tmp_path, capsys):
        f = tmp_path / "c.g6"
        f.write_bytes(gc.encode_graph6(gc.cycle(6)) + b"\n")
        _, rep = run_json(capsys, ["coclique", str(f), "--target", "3"])
        assert rep["results"]["graphs"][0]["count"] == 2

    def test_fractional_bound_gives_an_error_row(self, tmp_path, capsys, petersen):
        # T(5) is SRG(10,6,3,4) with coclique bound 5/2; the graph after
        # it keeps its row
        f = tmp_path / "two.g6"
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in (gc.triangular(5), petersen)))
        code, rep = run_json(capsys, ["coclique", str(f)])
        assert code == 0
        first, second = rep["results"]["graphs"]
        assert first == {"error": "coclique bound 5/2 is not an integer; pass --target"}
        assert second["count"] == 5 and all(len(c) == 4 for c in second["cocliques"])

    def test_bad_target_ends_the_run(self, tmp_path, capsys, petersen):
        # a bad flag is no fault of one graph: a usage error, before any row
        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        assert cli.run(["coclique", str(f), "--target", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--target must be >= 0, got -1" in out.err

    def test_maximum_mode_is_usage_error(self, tmp_path, petersen):
        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        assert cli.run(["coclique", str(f), "--mode", "maximum"]) == 2

    def test_budget_hit_gives_rows(self, tmp_path, capsys, sp42, sp62):
        # each graph keeps a row with the cocliques found before the cut
        f = tmp_path / "two.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(sp62) + b"\n")
        code, rep = run_json(capsys, ["coclique", str(f), "--budget-nodes", "30"])
        assert code == 0
        rows = rep["results"]["graphs"]
        for g, row in zip((sp42, sp62), rows):
            with pytest.raises(BudgetExceeded) as info:
                cq.cocliques_of_size(g, 3 if g is sp42 else 7, cq.CocliqueQuery(node_budget=30))
            want = [gc.set_of(c) for c in info.value.partial]
            assert list(row) == ["mode", "count", "budget_exhausted", "cocliques"]
            assert row == {
                "mode": "all", "count": len(want), "budget_exhausted": True, "cocliques": want,
            }
        assert len(rows) == 2 and rows[0]["count"] > 0

    def test_edgeless_1200_target(self, tmp_path, capsys):
        # the search takes 1200 vertices, one level each, without recursion
        f = tmp_path / "e.g6"
        f.write_bytes(gc.encode_graph6(gc.edgeless(1200)) + b"\n")
        code, rep = run_json(capsys, ["coclique", str(f), "--target", "1200"])
        assert code == 0
        row = rep["results"]["graphs"][0]
        assert row["count"] == 1 and row["cocliques"] == [list(range(1200))]


class TestDecomposeConstruct:
    def test_decompose_report(self, tmp_path, capsys, sp42):
        f = tmp_path / "g.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        code, rep = run_json(capsys, ["decompose", str(f)])
        assert code == 0
        row = rep["results"]["graphs"][0]
        assert row["count"] == 15
        first = row["decompositions"][0]
        assert first["ddg"]["V"] == 12 and first["design"]["v"] == 3

    def test_first_and_removed_flags(self, tmp_path, capsys, sp42, sp43):
        f = tmp_path / "two.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(sp43) + b"\n")
        code, rep = run_json(capsys, ["decompose", "--first", str(f)])
        assert code == 0
        assert [row["count"] for row in rep["results"]["graphs"]] == [1, 1]
        # --all was the default and --json the only output; both are gone
        assert cli.run(["decompose", "--all", str(f)]) == 2
        assert cli.run(["feasible", "--s", "-6", "--json"]) == 2
        capsys.readouterr()

    def test_construct_roundtrip(self, tmp_path, capsys, sp42):
        f = tmp_path / "g.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        _, rep = run_json(capsys, ["decompose", str(f)])
        dec = rep["results"]["graphs"][0]["decompositions"][0]
        ddg_file = tmp_path / "ddg.g6"
        ddg_file.write_text(dec["ddg"]["graph6"] + "\n")
        # translate classes into the DDG numbering
        cocl = set(dec["coclique"])
        old = [v for v in range(15) if v not in cocl]
        newid = {o: i for i, o in enumerate(old)}
        classes = [[newid[x] for x in cl] for cl in dec["classes"]]
        (tmp_path / "part.json").write_text(json.dumps({"classes": classes}))
        (tmp_path / "design.json").write_text(
            json.dumps({"v": dec["design"]["v"], "blocks": dec["design"]["blocks"]})
        )
        code, out = run_raw(capsys, [
            "construct", "--ddg", str(ddg_file),
            "--partition", str(tmp_path / "part.json"),
            "--design", str(tmp_path / "design.json"),
            "--phi", "0,1,2",
        ])
        assert code == 0
        g = gc.decode_graph6(out.strip().encode())
        assert g.order == 15
        from srgddg import recognize

        assert recognize.srg_params(g).tuple4 == (15, 8, 4, 4)


class TestVerifyOnce:
    def test_recognize_counts_deza_once(self, tmp_path, capsys, monkeypatch, sp42, t6, petersen):
        # the three SRGs take their Deza counts from srg_params and the DDG
        # T(6)[K2-bar] from its witness; only C7, a Deza graph that is
        # neither, runs deza_params, to name why it is no DDG
        graphs = (sp42, t6, petersen, gc.composition(t6, gc.edgeless(2)), gc.cycle(7))
        f = tmp_path / "five.g6"
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in graphs))
        calls = counting(monkeypatch, recognize, "deza_params")
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 0 and calls == [(graphs[-1],)]
        rows = rep["results"]["graphs"]
        assert [row["deza"] is not None for row in rows] == [True] * 5
        assert [row["ddg"] is not None for row in rows] == [False] * 3 + [True, False]
        assert rows[-1]["deza"] == {"v": 7, "k": 2, "b": 1, "a": 0}
        assert rows[-1]["ddg_reason"] == "same-count relation is not an equivalence with equal classes"

    def test_recognize_reads_deza_off_srg_params(self, tmp_path, capsys, monkeypatch, sp62, t6):
        f = tmp_path / "two.g6"
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in (sp62, t6)))
        want = run_json(capsys, ["recognize", str(f)])[1]["results"]

        def no_pass(g):
            raise AssertionError("deza_params ran on a strongly regular graph")

        monkeypatch.setattr(recognize, "deza_params", no_pass)
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 0 and rep["results"] == want
        assert [row["deza"] for row in want["graphs"]] == [
            {"v": 63, "k": 32, "b": 16, "a": 16},
            {"v": 15, "k": 8, "b": 4, "a": 4},
        ]

    def test_deza_field_equals_deza_params(self, petersen, t6, grid66, sp42, sp43, sp62):
        corpus = [petersen, t6, grid66, sp42, sp43, sp62, gc.cycle(5), gc.cycle(6),
                  gc.complete(5), gc.grid(3, 3), gc.path(4), gc.composition(t6, gc.edgeless(2))]
        for g in corpus:
            dz = recognize.deza_params(g)
            want = {"v": dz.v, "k": dz.k, "b": dz.b, "a": dz.a} if dz else None
            assert cli._classification(g)["deza"] == want, g

    def test_construct_json_checks_srg_once(self, capsys, monkeypatch, piece):
        calls = counting(monkeypatch, asm, "srg_params")
        counting(monkeypatch, recognize, "srg_params", calls)
        code, rep = run_json(capsys, [
            "construct", "--ddg", str(piece / "ddg.g6"), "--phi", "1,2,0", "--json",
            "--partition", str(piece / "part.json"),
            "--design", str(piece / "design.json"),
        ])
        # the one check is attach_coclique's proof from its inputs;
        # nothing recognizes the built graph
        assert code == 0 and len(calls) == 0
        assert rep["results"]["srg"] == [15, 8, 4, 4]
        built = gc.decode_graph6(rep["results"]["graph6"].encode())
        assert recognize.srg_params(built).tuple4 == (15, 8, 4, 4)


class TestNoHoffmanCoclique:
    """The Petersen complement SRG(10,6,3,4) has coclique bound 5/2, so no
    Hoffman coclique and 0 decompositions; the Paley graph SRG(9,4,1,2),
    the 3 x 3 rook's graph, after it still gets its row."""

    def catalog(self, tmp_path, petersen):
        f = tmp_path / "two.g6"
        graphs = [gc.complement_of(petersen), gc.grid(3, 3)]
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in graphs))
        return str(f)

    def test_decompose(self, tmp_path, capsys, petersen):
        code, rep = run_json(capsys, ["decompose", self.catalog(tmp_path, petersen)])
        assert code == 0
        assert rep["results"]["graphs"] == [{"count": 0, "decompositions": []}] * 2

    def test_census(self, tmp_path, capsys, petersen):
        code, rep = run_json(capsys, ["census", self.catalog(tmp_path, petersen)])
        assert code == 0
        res = rep["results"]
        assert (res["graphs"], res["decomposable"]) == (2, 0)
        assert res["per_graph"] == [{"decompositions": 0}] * 2


class TestOutsideTheFamily:
    def test_complete_answer_without_a_search(self, tmp_path, capsys):
        # grid(4, 4) = SRG(16,6,2,2) has lambda = mu and 24 Hoffman
        # cocliques but no (n, s) family, so a budget of one node is no
        # limit: the row is complete
        f = tmp_path / "grid44.g6"
        f.write_bytes(gc.encode_graph6(gc.grid(4, 4)) + b"\n")
        code, rep = run_json(capsys, ["decompose", str(f), "--budget-nodes", "1"])
        assert code == 0
        assert rep["results"]["graphs"] == [{"count": 0, "decompositions": []}]


HUGE_VERTEX = {"classes": [[0, 1, 2, 3], [4, 5, 8, 9], [6, 7, 10, 10**35]]}
DEEP_CLASSES = '{"classes": ' + "[" * 100_000 + "]" * 100_000 + "}"


class TestConstructJson:
    @pytest.fixture
    def files(self, tmp_path, sp42):
        dec = asm.decompose(sp42, cq.CocliqueQuery(mode="first"))[0]
        ddg = tmp_path / "ddg.g6"
        ddg.write_bytes(gc.encode_graph6(dec.ddg) + b"\n")
        return tmp_path, str(ddg)

    def run_construct(self, capsys, files, partition, design):
        # a str is written as it is, for JSON that json.dumps cannot make
        tmp_path, ddg = files
        for name, obj in (("part.json", partition), ("design.json", design)):
            (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return run_json(capsys, [
            "construct", "--ddg", ddg, "--phi", "0,1,2",
            "--partition", str(tmp_path / "part.json"),
            "--design", str(tmp_path / "design.json"),
        ])

    @pytest.mark.parametrize("partition, design, bad", [
        ({"parts": [[0]]}, {"blocks": [[0, 1]]}, "part.json"),
        ({"classes": 5}, {"blocks": [[0, 1]]}, "part.json"),
        ({"classes": [[0, "x"]]}, {"blocks": [[0, 1]]}, "part.json"),
        ([[0, 1]], {"blocks": [[0, 1]]}, "part.json"),
        ({"classes": [[0, 1]]}, {"v": 3}, "design.json"),
        ({"classes": [[0, 1]]}, {"blocks": "012"}, "design.json"),
        ({"classes": [[0, 1]]}, {"blocks": [[0, 1]], "v": "3"}, "design.json"),
        # numbers out of range would build huge bitsets; deep nesting
        # overflows the JSON parser's recursion
        (HUGE_VERTEX, {"blocks": [[0, 1]]}, "part.json"),
        pytest.param(DEEP_CLASSES, {"blocks": [[0, 1]]}, "part.json", id="deep-classes"),
        pytest.param('{"classes": [[0, 1]', {"blocks": [[0, 1]]}, "part.json", id="truncated"),
        ({"classes": [[0, 1]]}, {"blocks": [[0, 10**35]]}, "design.json"),
        ({"classes": [[0, 1]]}, {"blocks": [[0, 1], [1, 2]]}, "design.json"),
        ({"classes": [[0, 1]]}, {"blocks": [[0, 3]], "v": 3}, "design.json"),
    ])
    def test_malformed_gives_error_report(self, capsys, files, partition, design, bad):
        code, rep = self.run_construct(capsys, files, partition, design)
        assert code == 1
        assert bad in rep["results"]["error"]

    def test_no_classes_gives_error_report(self, files, sp42):
        # run as the installed command would be, so that a traceback
        # would show on stderr
        tmp_path, ddg = files
        design = asm.decompose(sp42, cq.CocliqueQuery(mode="first"))[0].design
        blocks = [design.block_points(i) for i in range(len(design.blocks))]
        (tmp_path / "part.json").write_text(json.dumps({"classes": []}))
        (tmp_path / "design.json").write_text(json.dumps({"v": 3, "blocks": blocks}))
        proc = subprocess.run([
            sys.executable, "-m", "srgddg.cli", "construct", "--ddg", ddg, "--phi", "0,1,2",
            "--partition", str(tmp_path / "part.json"),
            "--design", str(tmp_path / "design.json"),
        ], capture_output=True)
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["results"] == {"error": "classes do not partition the vertex set"}

    def test_empty_blocks_without_v_name_the_fault(self, capsys, files):
        code, rep = self.run_construct(capsys, files, {"classes": [[0, 1]]}, {"blocks": [[], []]})
        assert code == 1 and rep["results"] == {"error": "no block holds a point"}

    @pytest.mark.parametrize("phi", ["0,x,2", "", "0,,1", "1.0,2,0"])
    def test_phi_not_integers_is_usage_error(self, capsys, phi):
        # refused while the arguments are parsed, before any file is read
        code = cli.run(["construct", "--ddg", "d.g6", "--partition", "p.json",
                        "--design", "d.json", "--phi", phi])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert f"expected comma-separated integers, got {phi!r}" in err

    @pytest.mark.parametrize("phi", ["-1,0,1", "0,1,2,2", "0,0,1"])
    def test_phi_of_integers_not_bijective_gives_error_report(self, capsys, files, sp42, phi):
        dec = asm.decompose(sp42, cq.CocliqueQuery(mode="first"))[0]
        classes = [gc.set_of(cl) for cl in dec.ddg_partition.classes]
        design = {"blocks": [dec.design.block_points(i) for i in range(len(dec.design.blocks))]}
        tmp_path, ddg = files
        (tmp_path / "part.json").write_text(json.dumps({"classes": classes}))
        (tmp_path / "design.json").write_text(json.dumps(design))
        code, rep = run_json(capsys, [
            "construct", "--ddg", ddg, f"--phi={phi}",
            "--partition", str(tmp_path / "part.json"),
            "--design", str(tmp_path / "design.json"),
        ])
        want = f"phi = {tuple(int(x) for x in phi.split(','))} is not a bijection on 0..2"
        assert code == 1 and rep["results"] == {"error": want}

    def test_phi_starting_with_minus_as_a_separate_word_is_usage_error(self, capsys):
        # argparse takes "-1,0,1" for an option; joined by "=" it reaches
        # the bijection check (test_phi_of_integers_not_bijective_gives_error_report)
        code = cli.run(["construct", "--ddg", "d.g6", "--partition", "p.json",
                        "--design", "d.json", "--phi", "-1,0,1"])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert "argument --phi: expected one argument" in err

    @pytest.mark.parametrize("partition", [HUGE_VERTEX, DEEP_CLASSES], ids=["huge-vertex", "deep"])
    def test_out_of_range_or_deep_partition_gives_error_report(self, files, partition):
        tmp_path, ddg = files
        text = partition if isinstance(partition, str) else json.dumps(partition)
        (tmp_path / "part.json").write_text(text)
        (tmp_path / "design.json").write_text(json.dumps({"blocks": [[0, 1]]}))
        proc = subprocess.run([
            sys.executable, "-m", "srgddg.cli", "construct", "--ddg", ddg, "--phi", "0,1,2",
            "--partition", str(tmp_path / "part.json"),
            "--design", str(tmp_path / "design.json"),
        ], capture_output=True)
        assert proc.returncode == 1 and b"Traceback" not in proc.stderr
        assert "part.json" in json.loads(proc.stdout)["results"]["error"]


class TestFeasible:
    def test_s_minus_6(self, capsys):
        code, rep = run_json(capsys, ["feasible", "--s", "-6", "--n-max", "40"])
        assert code == 0
        fams = rep["results"]["families"]
        assert [f["n"] for f in fams] == [9, 12, 36]
        assert [f["n"] for f in fams if f["handshake_ok"]] == [12, 36]

    def test_s_range(self, capsys):
        # note the = form: a bare "-4..-2" would parse as an option
        code, rep = run_json(capsys, ["feasible", "--s-range=-4..-2", "--n-max", "20"])
        assert code == 0
        fams = rep["results"]["families"]
        assert {(f["s"], f["n"]) for f in fams} == {(-4, 8), (-4, 16), (-3, 9), (-2, 4)}

    def test_no_n_bound_by_default(self, capsys):
        # Sp(4,11): n = 121 lies above any fixed default bound
        code, rep = run_json(capsys, ["feasible", "--s", "-11"])
        assert code == 0
        fams = rep["results"]["families"]
        assert 121 in [f["n"] for f in fams]
        assert {"q": 11, "d": 2} in [f["prime_power"] for f in fams]
        _, rep = run_json(capsys, ["feasible", "--s", "-6"])
        assert [f["n"] for f in rep["results"]["families"]] == [9, 12, 36]

    def test_large_s_factors_s_and_s_plus_1_apart(self):
        # s(s+1) = 2 * 500000003 * 1000000007: trial division of the
        # product runs up to 500000003, of s and s + 1 apart up to their
        # square roots, 31623 and 22361
        s = -1000000007
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "srgddg.cli", "feasible", "--s", str(s)],
            capture_output=True, timeout=20,
        )
        assert proc.returncode == 0 and time.monotonic() - t0 < 5
        (fam,) = json.loads(proc.stdout)["results"]["families"]
        assert (fam["n"], fam["s"]) == (s * s, s)
        assert fam["prime_power"] == {"q": -s, "d": 2}

    def test_s_at_the_factoring_cap_gets_one_error_entry(self, capsys):
        # -FACTOR_CAP cannot be factored with a proof; the two s above it
        # keep the families they get on their own, and the run exits 0
        cap = designs.FACTOR_CAP
        code, rep = run_json(capsys, ["feasible", f"--s-range={-cap}..{-cap + 2}"])
        assert code == 0
        assert rep["inputs"] == {"s_min": -cap, "s_max": -cap + 2, "n_max": None}
        first, *rest = rep["results"]["families"]
        assert first == {"s": -cap, "error": f"_factor: {cap} is not below the cap {cap}"}
        alone = []
        for s in (-cap + 1, -cap + 2):
            _, one = run_json(capsys, ["feasible", "--s", str(s)])
            alone += one["results"]["families"]
        assert rest == alone and len(alone) == 9

    def test_needs_s(self, capsys):
        assert cli.run(["feasible", "--n-max", "5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--s-range=-5..x"],
        ["--s-range=-5"],
        ["--s-range=-5..-1"],
        ["--s-range=0..-3"],
        ["--s-range=-2..-5"],
        ["--s", "-1"],
        ["--s", "-3", "--s-range=-4..-2"],
    ])
    def test_usage_errors(self, capsys, argv):
        # a malformed range, an s above -2 from either flag, or both
        # flags: exit 2 with the reason on stderr and no report
        assert cli.run(["feasible", "--n-max", "5", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: argument --s" in err


class TestIsoCanon:
    def test_iso_command(self, tmp_path, capsys, t6, sp42):
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_bytes(gc.encode_graph6(t6) + b"\n")
        b.write_bytes(gc.encode_graph6(sp42) + b"\n")
        code, rep = run_json(capsys, ["iso", str(a), str(b)])
        assert code == 0 and rep["results"]["isomorphic"] is True

    def test_canon_command(self, tmp_path, capsys, petersen):
        from srgddg import iso as iso_mod

        f = tmp_path / "p.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n")
        code, out = run_raw(capsys, ["canon", str(f)])
        assert code == 0
        assert out.strip().encode() == iso_mod.canonical_form(petersen).certificate

    def test_canon_over_cap_names_the_line(self, tmp_path, capsys, petersen):
        # all or nothing: the over-cap graph leaves no certificate line
        f = tmp_path / "two.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n" + gc.encode_graph6(gc.path(600)) + b"\n")
        code, out = run_raw(capsys, ["canon", str(f)])
        assert code == 1
        rep = json.loads(out)  # exactly one JSON document
        assert rep["results"] == {"error": "line 2: canonical_form: order 600 exceeds cap 512"}


class TestCensus:
    def test_tiny_census(self, tmp_path, capsys, sp42, grid66):
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(grid66) + b"\n")
        code, rep = run_json(capsys, ["census", str(f)])
        assert code == 0
        res = rep["results"]
        assert res["graphs"] == 2
        assert res["decomposable"] == 1
        assert res["distinct_ddg_certificates"] == 1

    def test_census_one_matches_per_witness_certificates(self, monkeypatch, sp42, sp43, sp62):
        # oracle: a fresh canonical form for every witness's DDG
        dec = asm.decompose(sp62, cq.CocliqueQuery(mode="first"))[0]
        twisted = [asm.attach_coclique(dec.ddg, dec.ddg_partition, dec.design, phi)
                   for phi in ((1, 2, 0, 3, 4, 5, 6), (1, 2, 3, 0, 4, 5, 6))]
        sp44 = galois.symplectic_complement(2, galois.fieldspec(2, 2))
        sp45 = galois.symplectic_complement(2, galois.fieldspec(5, 1))
        # (graph, witnesses, canonical_form calls expected or None, oracle certificates)
        cases = [(g, witnesses, labeled, {iso.canonical_form(d.ddg).certificate.decode()
                                          for d in asm.decompose(g)})
                 for g, witnesses, labeled in zip([sp42, sp43, sp62, *twisted],
                                                  (15, 40, 135, 9, 1), (1, 1, 1, None, 1))]
        # on the larger graphs the oracle labels every witness with one
        # shared dict; a fresh search per DDG takes about 37 s on Sp(4,5)
        for g, witnesses in ((sp44, 85), (sp45, 156)):
            seen = {}
            cases.append((g, witnesses, 1, {iso.canonical_form(d.ddg, seen).certificate.decode()
                                            for d in asm.decompose(g)}))
        calls = counting(monkeypatch, iso, "canonical_form")
        for g, witnesses, labeled, want in cases:
            calls.clear()
            row, certs = cli._census_one(g, cq.DEFAULT_NODE_BUDGET)
            assert row == {"decompositions": witnesses}
            assert certs == sorted(want)
            # only DDGs are labeled; each Sp(2d,q) complement has one
            # orbit of witnesses, so one DDG
            assert all(args[0].order < g.order for args in calls)
            if labeled is not None:
                assert len(calls) == labeled

    def test_one_ddg_built_per_orbit(self, monkeypatch, sp43, sp62):
        # the walk keeps decompose's witness cocliques and builds none;
        # census then builds the DDG of the first witness of each orbit
        dec = asm.decompose(sp62, cq.CocliqueQuery(mode="first"))[0]
        twisted = [asm.attach_coclique(dec.ddg, dec.ddg_partition, dec.design, phi)
                   for phi in ((1, 2, 0, 3, 4, 5, 6), (1, 2, 3, 0, 4, 5, 6))]
        built = counting(monkeypatch, asm, "induced_subgraph")
        for g, witnesses, orbits in ((sp43, 40, 1), (twisted[0], 9, 5), (twisted[1], 1, 1)):
            built.clear()
            found = asm._witness_cocliques(g, asm._family_gate(g), cq.CocliqueQuery())
            assert not built and len(found) == witnesses
            assert found == [d.coclique for d in asm.decompose(g)]
            roots = iso._set_orbits(found, iso._automorphisms(g, len(found)))
            firsts = [C for i, C in enumerate(found) if roots[i] == i]
            assert len(firsts) == orbits
            built.clear()
            assert cli._census_one(g, cq.DEFAULT_NODE_BUDGET)[0] == {"decompositions": witnesses}
            rest = (1 << g.order) - 1
            assert [keep for _, keep in built] == [rest ^ C for C in firsts]

    def test_census_threads_same_counts(self, tmp_path, sp42, grid66):
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(grid66) + b"\n")
        out = subprocess.run(
            [sys.executable, "-m", "srgddg.cli", "census", str(f), "--threads", "2"],
            capture_output=True, check=True,
        )
        res = json.loads(out.stdout)["results"]
        assert (res["graphs"], res["decomposable"], res["distinct_ddg_certificates"]) == (2, 1, 1)

    def test_threads_same_report_as_serial(self, tmp_path, sp42, sp43, grid66, petersen, t6):
        # more graphs than the submit window of 2 x threads
        f = tmp_path / "cat.g6"
        graphs = [sp42, grid66, sp43, petersen, t6, sp42, grid66]
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in graphs))
        reports = []
        for extra in ([], ["--threads", "2"]):
            out = subprocess.run(
                [sys.executable, "-m", "srgddg.cli", "census", str(f), *extra],
                capture_output=True, check=True,
            )
            rep = json.loads(out.stdout)
            del rep["timing_ms"]
            reports.append(rep)
        assert reports[0] == reports[1]
        assert reports[0]["results"]["graphs"] == 7

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, sp42, threads):
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        assert cli.run(["census", str(f), "--threads", threads]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"--threads must be >= 1, got {threads}" in out.err

    def test_threads_submit_window_is_bounded(self):
        drawn = []

        def items():
            for i in range(40):
                drawn.append(i)
                yield i

        consumed = 0
        for result in cli._census_outcomes(abs, items(), threads=2):
            assert result == consumed
            consumed += 1
            assert len(drawn) - consumed <= 4
        assert consumed == 40


    def test_budget_hit_gives_rows(self, tmp_path, capsys, sp42, grid66):
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(grid66) + b"\n")
        code, rep = run_json(capsys, ["census", str(f), "--budget-nodes", "5"])
        assert code == 0
        res = rep["results"]
        assert res["graphs"] == 2
        assert res["per_graph"][0]["budget_exhausted"]
        assert res["per_graph"][0]["decompositions"] < 15
        # lambda != mu answers the grid exactly, with no search to cut short
        assert res["per_graph"][1] == {"decompositions": 0}
        out = subprocess.run(
            [sys.executable, "-m", "srgddg.cli", "census", str(f), "--threads", "2",
             "--budget-nodes", "5"],
            capture_output=True, check=True,
        )
        assert json.loads(out.stdout)["results"] == res

    def test_budget_from_environment(self, tmp_path, capsys, monkeypatch, sp42):
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        monkeypatch.setenv("SRGDDG_BUDGET_NODES", "5")
        _, rep = run_json(capsys, ["census", str(f)])
        row = rep["results"]["per_graph"][0]
        assert row["budget_exhausted"] and row["decompositions"] < 15
        # --budget-nodes 0 is the default, which defers to the variable
        _, rep0 = run_json(capsys, ["census", str(f), "--budget-nodes", "0"])
        assert rep0["results"] == rep["results"]
        # and 0 there is the built-in default
        monkeypatch.setenv("SRGDDG_BUDGET_NODES", "0")
        _, rep = run_json(capsys, ["census", str(f)])
        assert rep["results"]["per_graph"] == [{"decompositions": 15}]


    def test_over_cap_ddg_gives_an_error_row(self, tmp_path, capsys, monkeypatch, sp42, sp62):
        # Sp(6,2)'s DDGs (v = 56) are over the cap, Sp(4,2)'s (v = 12) are not
        from srgddg import iso as iso_mod

        monkeypatch.setattr(iso_mod, "SIZE_CAP", 20)
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n" + gc.encode_graph6(sp62) + b"\n")
        code, rep = run_json(capsys, ["census", str(f), "--threads", "1"])
        assert code == 0
        res = rep["results"]
        assert res["per_graph"] == [
            {"decompositions": 15},
            {"error": "canonical_form: order 56 exceeds cap 20"},
        ]
        assert (res["graphs"], res["decomposable"], res["distinct_ddg_certificates"]) == (2, 1, 1)

    def test_over_cap_graph_gives_its_ddg_cap_error(self, tmp_path, capsys):
        # every family graph above the cap has a DDG above it too: the
        # Sp(10,2) complement skips its own search, and labeling the DDG
        # of v = 992 of a witness found within the budget is refused
        f = tmp_path / "sp102.g6"
        f.write_bytes(gc.encode_graph6(galois.symplectic_complement(5, galois.fieldspec(2, 1))) + b"\n")
        code, rep = run_json(capsys, ["census", str(f), "--budget-nodes", "3000"])
        assert code == 0
        res = rep["results"]
        assert res["per_graph"] == [{"error": "canonical_form: order 992 exceeds cap 512"}]
        assert (res["graphs"], res["decomposable"], res["distinct_ddg_certificates"]) == (1, 0, 0)

    def test_over_cap_graph_row_does_not_depend_on_the_budget(self, monkeypatch):
        # any witness gives the DDG's cap error, so the walk stops at the
        # first one: one witness built, whatever the budget
        sp102 = galois.symplectic_complement(5, galois.fieldspec(2, 1))
        real = asm._witness_cocliques
        found = []

        def recorded(g, fam, query):
            cocliques = real(g, fam, query)
            found.append((query.mode, len(cocliques)))
            return cocliques

        monkeypatch.setattr(asm, "_witness_cocliques", recorded)
        rows = [cli._census_one(sp102, budget) for budget in (3000, 100_000)]
        assert rows[0] == rows[1] == ({"error": "canonical_form: order 992 exceeds cap 512"}, [])
        assert found == [("first", 1)] * 2

    def test_budget_hit_labels_orbits_of_the_witnesses_found(self, tmp_path, capsys, sp62):
        # the per-witness path over the same partial witness list is the
        # oracle; some automorphism found maps a witness outside that list
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp62) + b"\n")
        _, rep = run_json(capsys, ["census", str(f), "--budget-nodes", "200"])
        row = rep["results"]["per_graph"][0]
        query = cq.CocliqueQuery(node_budget=200)
        decs, flag = cli._budgeted(lambda: asm.decompose(sp62, query))
        assert flag and 1 < len(decs) < 135
        assert row == {"decompositions": len(decs), **flag}
        seen = {}
        want = sorted({iso.canonical_form(d.ddg, seen).certificate.decode() for d in decs})
        assert cli._census_one(sp62, 200) == (row, want)
        assert rep["results"]["distinct_ddg_certificates"] == len(want)
        found = {d.coclique for d in decs}
        images = {sum(1 << a[v] for v in gc.bits(m))
                  for a in iso._automorphisms(sp62, len(decs)) for m in found}
        assert images - found

    def test_partial_witnesses_kept(self, tmp_path, capsys, sp62):
        # the budget runs out after some Hoffman cocliques were found
        f = tmp_path / "cat.g6"
        f.write_bytes(gc.encode_graph6(sp62) + b"\n")
        _, rep = run_json(capsys, ["census", str(f), "--budget-nodes", "200"])
        row = rep["results"]["per_graph"][0]
        assert row["budget_exhausted"] and 0 < row["decompositions"] < 135
        assert rep["results"]["decomposable"] == 1
        _, rep = run_json(capsys, ["decompose", str(f), "--budget-nodes", "200"])
        row = rep["results"]["graphs"][0]
        assert row["budget_exhausted"] and row["count"] == len(row["decompositions"]) > 0


class TestBudgetChecks:
    @pytest.fixture
    def sp42_file(self, tmp_path, sp42):
        f = tmp_path / "g.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\n")
        return str(f)

    @pytest.mark.parametrize("cmd", ["coclique", "decompose", "census"])
    def test_negative_flag_is_usage_error(self, capsys, sp42_file, cmd):
        assert cli.run([cmd, sp42_file, "--budget-nodes", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--budget-nodes must be >= 0" in out.err

    @pytest.mark.parametrize("cmd", ["coclique", "decompose", "census"])
    @pytest.mark.parametrize("value", ["-5", "many", "1.5"])
    def test_bad_variable_is_named(self, capsys, monkeypatch, sp42_file, cmd, value):
        monkeypatch.setenv("SRGDDG_BUDGET_NODES", value)
        code, rep = run_json(capsys, [cmd, sp42_file])
        assert code == 1
        assert rep["results"] == {
            "error": f"SRGDDG_BUDGET_NODES must be a non-negative integer, got {value!r}",
        }

    def test_flag_overrides_the_variable(self, capsys, monkeypatch, sp42_file):
        monkeypatch.setenv("SRGDDG_BUDGET_NODES", "5")
        code, rep = run_json(capsys, ["decompose", sp42_file, "--budget-nodes", "100000"])
        assert code == 0 and rep["results"]["graphs"][0]["count"] == 15


def random_value(rng, depth=0):
    """A seeded JSON-ready value: nested lists, tuples and dicts of ints,
    bools, None, floats and strings with non-ASCII and control characters."""
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([0, -1, 7, 2**70, -(2**64), True, False, None])
    if kind == 1:
        return rng.choice([-0.0, 0.0, 1e-7, 1e16, 0.1, -2.5e300, 1.5, float("inf"), float("nan")])
    if kind == 2:
        alphabet = 'aZ09 "\\/\x00\x1f\x7f\n\té €\U0001f600'
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind == 3:
        return [rng.randrange(-5, 10**6) for _ in range(rng.randrange(5))]
    if kind == 4:
        return rng.choice([[], {}, [[]], [{}], {"": []}, [True, 0], [0, False, 1], (3, 4), (1,)])
    items = [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return tuple(items)
    if kind == 6:
        return [rng.randrange(9), *items, rng.random() < 0.5]
    keys = ["a", "b\n", " ", "é", ""]
    return {rng.choice(keys) + str(i): v for i, v in enumerate(items)}


class TestWriter:
    """``_emit`` writes the bytes of ``json.dumps(report, indent=2)`` and a
    newline; json stays the oracle."""

    def emitted(self, capsys, obj):
        cli._emit(obj)
        return capsys.readouterr().out

    def test_seeded_values(self, capsys):
        rng = random.Random(30)
        for _ in range(400):
            obj = random_value(rng)
            assert self.emitted(capsys, obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], [{}], {"a": {}}, {"a": [[], {}]}, [True, 0], [0, True], [False],
        (1, 2), ((), (5,)), -0.0, 1e-7, 1e16, [1e16, 2], "é\x00 ", None,
        {"x": [1, [2, [3, []]]], "y": None}, [2**100, -(2**100)],
    ])
    def test_edge_values(self, capsys, obj):
        assert self.emitted(capsys, obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [{"a": {1, 2}}, [0, {3}], {1: 2}, {"a": {(0, 1): 2}}])
    def test_set_value_and_non_str_key_raise(self, capsys, obj):
        with pytest.raises(TypeError):
            cli._emit(obj)
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["recognize", "{graphs}"],
        ["spectrum", "{graphs}"],
        ["coclique", "{graphs}"],
        ["decompose", "{graphs}"],
        ["decompose", "--first", "{graphs}"],
        ["census", "{graphs}"],
        ["feasible", "--s-range=-4..-2", "--brc"],
        ["iso", "{dir}/a.g6", "{dir}/b.g6"],
        ["gen", "sp-complement", "--json"],
        ["construct", "--ddg", "{dir}/ddg.g6", "--partition", "{dir}/part.json",
         "--design", "{dir}/design.json", "--phi", "1,2,0", "--json"],
        ["decompose", "{dir}/missing.g6"],
    ])
    def test_reports(self, capsys, monkeypatch, piece, sp42, sp43, petersen, t6, argv):
        graphs = piece / "graphs.g6"
        graphs.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in (sp42, sp43, petersen, t6)))
        (piece / "a.g6").write_bytes(gc.encode_graph6(sp42) + b"\n")
        (piece / "b.g6").write_bytes(gc.encode_graph6(t6) + b"\n")
        reports = []
        real = cli._report
        monkeypatch.setattr(cli, "_report", lambda *args: reports.append(real(*args)) or reports[-1])
        code, out = run_raw(capsys, [a.format(dir=piece, graphs=graphs) for a in argv])
        assert code == (1 if "missing" in argv[-1] else 0)
        assert len(reports) == 1
        assert out == json.dumps(reports[0], indent=2) + "\n"


class TestClosedStdout:
    def test_reader_gone_exits_quietly(self, petersen):
        # the read end of stdout is closed before the report is written
        proc = subprocess.Popen(
            [sys.executable, "-m", "srgddg.cli", "spectrum", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate((gc.encode_graph6(petersen) + b"\n") * 200)
        assert err == b""
        assert proc.returncode == 1

    def test_reader_gone_in_the_middle_of_a_report(self, tmp_path, sp62):
        # one Sp(6,2) complement gives a decompose report of about 430 KB,
        # far more than a pipe buffer holds, so the reader goes away while
        # the report is being written
        f = tmp_path / "sp62.g6"
        f.write_bytes((gc.encode_graph6(sp62) + b"\n") * 2)
        proc = subprocess.Popen(
            [sys.executable, "-m", "srgddg.cli", "decompose", str(f)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate()
        assert err == b""
        assert proc.returncode == 1


class TestGraphFileHandling:
    def test_empty_file(self, tmp_path, capsys):
        f = tmp_path / "empty.g6"
        f.write_bytes(b"")
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 0
        assert rep["results"]["graphs"] == []

    def test_corrupt_line_fails_fast(self, tmp_path, capsys, petersen):
        f = tmp_path / "bad.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\nnot-graph6!!\x01\n")
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 1
        assert "line 2" in rep["results"]["error"]

    def test_keep_going_collects_diagnostics(self, tmp_path, capsys, petersen, t6):
        f = tmp_path / "mixed.g6"
        f.write_bytes(
            gc.encode_graph6(petersen) + b"\n\x01bad\n" + gc.encode_graph6(t6) + b"\n"
        )
        code, rep = run_json(capsys, ["recognize", str(f), "--keep-going"])
        assert code == 0
        assert len(rep["results"]["graphs"]) == 2
        assert len(rep["diagnostics"]) == 1

    def test_header_and_blank_lines(self, tmp_path, capsys, petersen):
        f = tmp_path / "hdr.g6"
        f.write_bytes(b">>graph6<<" + gc.encode_graph6(petersen) + b"\n\n")
        code, rep = run_json(capsys, ["recognize", str(f)])
        assert code == 0 and len(rep["results"]["graphs"]) == 1

    def test_cr_only_line_ends(self, tmp_path, capsys, sp42, t6):
        # the streaming census reader splits lines as the whole-file reader
        f = tmp_path / "cr.g6"
        f.write_bytes(gc.encode_graph6(sp42) + b"\r" + gc.encode_graph6(t6) + b"\r")
        code, rep = run_json(capsys, ["decompose", str(f)])
        assert code == 0 and len(rep["results"]["graphs"]) == 2
        code, rep = run_json(capsys, ["census", str(f)])
        assert code == 0 and rep["results"]["graphs"] == 2
        assert rep["results"]["per_graph"][0]["decompositions"] == 15

    def test_stream_splits_like_splitlines(self, monkeypatch, petersen, sp42, t6):
        # stdin that hands out `size` bytes per read, so a line end, a CRLF
        # among them, can fall across any read boundary
        class Trickle(io.RawIOBase):
            def __init__(self, data, size):
                self.data, self.size, self.pos = data, size, 0

            def readable(self):
                return True

            def readinto(self, buf):
                chunk = self.data[self.pos : self.pos + min(self.size, len(buf))]
                buf[: len(chunk)] = chunk
                self.pos += len(chunk)
                return len(chunk)

        p, s, t = (gc.encode_graph6(g) for g in (petersen, sp42, t6))
        data = b">>graph6<<" + p + b"\r\n" + s + b"\r\r\n\n" + t + b" \r" + p + b"\n\r\n\r" + s
        # the oracle: bytes.splitlines of the whole stream
        want = [(n, line.strip().removeprefix(b">>graph6<<"))
                for n, line in enumerate(data.splitlines(), start=1)]
        want = [(n, line) for n, line in want if line]
        assert [line for _, line in want] == [p, s, t, p, s]
        for size in range(1, len(data) + 2):
            monkeypatch.setattr(sys, "stdin", type("Stdin", (), {"buffer": Trickle(data, size)}))
            graphs = cli.GraphFile("-")
            got = [(graphs.lineno, g) for g in graphs]
            assert got == [(n, gc.decode_graph6(line)) for n, line in want], size
            assert graphs.sha256.hexdigest() == hashlib.sha256(data).hexdigest()
            lines = b"".join(line + b"\n" for _, line in want)
            assert graphs.sha256_lines.hexdigest() == hashlib.sha256(lines).hexdigest()

    @pytest.mark.parametrize("byte", [b"\x1c", b"\x1f", b"\x85", b"\xa0"])
    def test_strips_ascii_whitespace_only(self, tmp_path, petersen, byte):
        # str.strip would take these bytes for whitespace and skip the line
        f = tmp_path / "odd.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\n" + byte + b"\n")
        with pytest.raises(SrgddgError, match="^line 2: "):
            list(cli.GraphFile(str(f)))

    def test_decodes_one_line_at_a_time(self, tmp_path, petersen):
        # the graph before a bad line comes out before that line is decoded
        f = tmp_path / "bad.g6"
        f.write_bytes(gc.encode_graph6(petersen) + b"\nnot-graph6!!\x01\n")
        graphs = iter(cli.GraphFile(str(f)))
        assert next(graphs) == petersen
        with pytest.raises(SrgddgError, match="^line 2: "):
            next(graphs)

    def test_roundtrip_write_read(self, tmp_path, petersen, t6):
        f = tmp_path / "two.g6"
        f.write_bytes(b"".join(gc.encode_graph6(g) + b"\n" for g in (petersen, t6)))
        graphs = cli.GraphFile(str(f))
        assert list(graphs) == [petersen, t6] and not graphs.diagnostics

    def test_usage_error_exit_2(self):
        assert cli.run(["nonsense"]) == 2


class TestOneReader:
    """Every file command reads through the same streaming reader: a
    header, a blank line and LF, CRLF and CR-only line ends give the same
    graphs, from a path or from stdin, and the digests in the report are
    those of the bytes read."""

    @pytest.fixture
    def data(self, petersen, sp42, t6):
        p, s, t = (gc.encode_graph6(g) for g in (petersen, sp42, t6))
        lines = [p, s, t, p]
        return b">>graph6<<" + p + b"\n\n" + s + b"\r\n" + t + b"\r" + p + b"\n", lines

    @pytest.mark.parametrize("cmd", ["recognize", "spectrum", "coclique", "decompose", "census", "canon"])
    def test_path_and_stdin_agree(self, tmp_path, capsys, monkeypatch, data, cmd):
        raw, lines = data
        f = tmp_path / "mixed.g6"
        f.write_bytes(raw)
        code, from_path = run_raw(capsys, [cmd, str(f)])
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
        code, from_stdin = run_raw(capsys, [cmd, "-"])
        assert code == 0
        if cmd == "canon":
            assert from_path == from_stdin and len(from_path.splitlines()) == 4
            return
        reports = [json.loads(out) for out in (from_path, from_stdin)]
        for rep, name in zip(reports, (str(f), "-")):
            del rep["timing_ms"]
            assert rep["inputs"].pop("file") == name
        assert reports[0] == reports[1]
        inputs, results = reports[0]["inputs"], reports[0]["results"]
        if cmd == "census":
            want = hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest()
            assert inputs == {"sha256_lines": want} and results["graphs"] == 4
        else:
            assert inputs == {"sha256": hashlib.sha256(raw).hexdigest()}
            assert len(results["graphs"]) == 4
