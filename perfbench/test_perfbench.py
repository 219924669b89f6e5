"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from perfbench import inputs, pace, verify, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_self_time_on_synthetic_call_tree():
    tr = Tracer()
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    tr.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 8.0, 2, 0],
    ]
    assert tr.self_times() == [3.0, 3.0, 2.0, 2.0]


def test_wrapped_calls_record_parent_and_root():
    tr = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = tr.wrap("leaf", leaf)

    def mid():
        leaf_w()
        leaf_w()

    top = tr.wrap("top", tr.wrap("mid", mid))
    top()
    top()
    names = [rec[0] for rec in tr.spans]
    assert names == ["top", "mid", "leaf", "leaf"] * 2
    assert [rec[3] for rec in tr.spans[:4]] == [-1, 0, 1, 1]
    assert [rec[4] for rec in tr.spans] == [0] * 4 + [4] * 4
    own = tr.self_times()
    for i, rec in enumerate(tr.spans):
        assert 0 <= own[i] <= rec[2] - rec[1]
    # a parent's self time excludes exactly its children's durations
    mid_rec = tr.spans[1]
    children = sum(r[2] - r[1] for r in tr.spans[2:4])
    assert abs(own[1] - (mid_rec[2] - mid_rec[1] - children)) < 1e-12


def test_install_covers_import_sites_and_restores():
    from srgddg import assembly, graphcore, recognize

    orig = recognize.srg_params
    tr = Tracer()
    tr.install()
    try:
        assert assembly.srg_params is recognize.srg_params is not orig
        recognize.srg_params(graphcore.petersen())
    finally:
        tr.uninstall()
    assert assembly.srg_params is orig and recognize.srg_params is orig
    assert "__wrapped__" not in vars(graphcore.Graph.__init__)
    names = [rec[0] for rec in tr.spans]
    assert "recognize.srg_params" in names
    assert tr.layer_metrics()["recognize.srg_params.calls"] == 1


def test_pace_factor_uses_probes_inside_the_window_only():
    p = pace.Pace()
    p.samples = [(0.5, 1e-3), (1.5, 2 * pace.REF_S), (2.5, 4 * pace.REF_S), (3.5, 1e-3)]
    assert p.factor(1.0, 3.0) == 1 / 3
    # a window with no sample is probed once, so the factor is positive
    assert p.factor(10.0, 11.0) > 0


def test_pace_samples_while_active_and_stops_after():
    with pace.Pace() as p:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(p.samples)
    assert count >= 3
    time.sleep(0.1)
    assert len(p.samples) == count


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = set(Tracer().layer_metrics()) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}


def _witness(n, s):
    fam = verify.family(n, s)
    V, K, l1, l2, m, nn = fam["ddg"]
    return {
        "coclique": list(range(m)),
        "classes": [list(range(i * nn, (i + 1) * nn)) for i in range(m)],
        "ddg": {"V": V, "K": K, "lambda1": l1, "lambda2": l2, "m": m, "n": nn},
        "design": {"v": fam["design"][0], "k": fam["design"][1], "lambda": fam["design"][2]},
        "phi": list(range(m)),
    }


def _decompose_report(counts):
    graphs = [{"count": c, "decompositions": [_witness(8, -4)] * c} for c in counts]
    return json.dumps({"results": {"graphs": graphs}, "timing_ms": 1.0})


def test_verifier_flags_one_witness_count_off_by_one():
    names = ["sp6_2_phi1230", "grid6"]
    good = verify.check_decompose(_decompose_report([1, 0]), names)
    assert all(ok for _, ok, _ in good)
    bad = verify.check_decompose(_decompose_report([2, 0]), names)
    assert [ok for _, ok, _ in bad] == [False, True]
    bad = verify.check_decompose(_decompose_report([1, 1]), names)
    assert [ok for _, ok, _ in bad] == [True, False]


def test_verifier_flags_wrong_design_parameters():
    rep = json.loads(_decompose_report([1, 0]))
    rep["results"]["graphs"][0]["decompositions"][0]["design"]["lambda"] = 3
    rows = verify.check_decompose(json.dumps(rep), ["sp6_2_phi1230", "grid6"])
    assert [ok for _, ok, _ in rows] == [False, True]


def test_pair_count_recognizes_an_srg_and_rejects_a_cycle():
    from srgddg import graphcore

    pet = graphcore.encode_graph6(graphcore.petersen())
    assert verify.srg_by_pair_count(verify.decode_rows(pet)) == (10, 3, 0, 1)
    c6 = graphcore.encode_graph6(graphcore.cycle(6))
    assert verify.srg_by_pair_count(verify.decode_rows(c6)) is None


def test_seeds_change_input_bytes_but_not_expectations(tmp_path):
    cache = str(tmp_path)
    reports = {}
    data = {}
    for seed in (1, 2, 1):
        paths = inputs.workload_files(cache, seed, "decompose")
        data.setdefault(seed, []).append(Path(paths["decompose"]).read_bytes())
        reports[seed] = workloads.cli_call(["decompose", paths["decompose"]])
    assert data[1][0] == data[1][1]
    assert data[1][0] != data[2][0]
    assert reports[1][1] != reports[2][1]
    for rc, text in reports.values():
        assert rc == 0
        rows = verify.check_decompose(text, inputs.DECOMPOSE_FILE)
        assert all(ok for _, ok, _ in rows), rows
