import argparse
import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import robustnet
import robustnet.cli
from robustnet import (MAX_EXACT_N, MAX_VERTICES, ThreatModel, erdos_renyi, format_edge_list,
                       graph_to_json_dict, load_graph, new_graph, sparsest_even, sparsest_odd,
                       tree_graph, write_edge_list)
from robustnet.cli import _build_parser, main

from oracles import DEFAULT_SWEEP_SHA256


def write_threat(path, scope="F-local", f=3, malicious=(0, 6, 12), value=150.0):
    spec = {
        "scope": scope,
        "F": f,
        "malicious": list(malicious),
        "behavior": {"kind": "constant", "value": value},
    }
    path.write_text(json.dumps(spec))
    return path


def test_bounds_table(capsys):
    assert main(["bounds", "--r-min", "1", "--r-max", "7"]) == 0
    out = capsys.readouterr().out
    assert "odd-case" in out and "even-case" in out
    assert " 63" in out and " 67" in out


def test_bounds_csv_golden(capsys):
    assert main(["bounds", "--r-min", "7", "--r-max", "7", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["r,n,bound,kind", "7,13,63,odd-case", "7,14,67,even-case"]


def test_bounds_json_and_output_file(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--r-min", "5", "--r-max", "5", "--format", "json",
                 "--output", str(out), "--quiet"]) == 0
    rows = json.loads(out.read_text())
    assert {"r": 5, "n": 10, "bound": 33, "kind": "even-case"} in rows
    assert capsys.readouterr().out == ""


def test_bounds_rejects_bad_range(capsys):
    assert main(["bounds", "--r-min", "3", "--r-max", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_caps_r_max_at_the_largest_buildable_r(tmp_path, capsys):
    # r = MAX_VERTICES // 2 is the largest r whose 2r-vertex graph can be built
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--r-max", str(MAX_VERTICES // 2), "--format", "csv",
                 "--output", str(out), "--quiet"]) == 0
    assert out.read_text().splitlines()[-1].startswith(f"{MAX_VERTICES // 2},{MAX_VERTICES},")
    assert main(["bounds", "--r-max", str(MAX_VERTICES // 2 + 1)]) == 2
    assert "--r-max" in capsys.readouterr().err
    assert main(["bounds", "--r-min", str(MAX_VERTICES // 2 + 1)]) == 2
    assert "--r-min" in capsys.readouterr().err


def test_construct_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["construct", "--kind", "sparsest-even", "--r", "5",
                 "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=10 edges=33" in text
    assert "33 (even-case)" in text
    g = load_graph(out)
    assert g.n == 10 and g.edge_count == 33


def test_construct_default_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--kind", "sparsest-odd", "--r", "7", "--quiet"]) == 0
    g = load_graph(tmp_path / "sparsest-odd-r7.edges")
    assert g.n == 13 and g.edge_count == 63


def test_construct_erdos_renyi(tmp_path, capsys):
    out = tmp_path / "er.edges"
    assert main(["construct", "--kind", "erdos-renyi", "--n", "9", "--p", "1.0",
                 "--seed", "1", "--output", str(out)]) == 0
    assert load_graph(out).edge_count == 36
    # same parameters, same bytes
    out2 = tmp_path / "er2.edges"
    main(["construct", "--kind", "erdos-renyi", "--n", "9", "--p", "1.0",
          "--seed", "1", "--output", str(out2), "--quiet"])
    assert out.read_text() == out2.read_text()


def test_construct_invalid_recipe(tmp_path, capsys):
    assert main(["construct", "--kind", "erdos-renyi", "--n", "5", "--p", "0.5"]) == 2
    assert "seed" in capsys.readouterr().err


def test_construct_refuses_removed_kind(tmp_path, capsys):
    # an F-elemental graph with a tree tail is sparsest-odd with r = 2F + 1
    out = tmp_path / "h.edges"
    with pytest.raises(SystemExit) as err:
        main(["construct", "--kind", "f-elemental", "--r", "5", "--output", str(out)])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("options, name, graph", [
    ("--kind sparsest-odd --r 4", "sparsest-odd-r4", sparsest_odd(4)),
    ("--kind sparsest-odd --r 5 --tree-shape random --seed 3", "sparsest-odd-r5-seed3-random",
     sparsest_odd(5, "random", 3)),
    ("--kind sparsest-even --r 3", "sparsest-even-r3", sparsest_even(3)),
    ("--kind erdos-renyi --n 8 --p 0.6 --seed 9", "erdos-renyi-n8-p0.6-seed9", erdos_renyi(8, 0.6, 9)),
    ("--kind tree --n 6 --tree-shape star", "tree-n6-star", tree_graph(6, "star")),
])
def test_construct_writes_the_builders_graph_under_its_default_name(tmp_path, monkeypatch,
                                                                     options, name, graph):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", *options.split(), "--quiet"]) == 0
    assert [path.name for path in tmp_path.iterdir()] == [f"{name}.edges"]
    assert (tmp_path / f"{name}.edges").read_text() == format_edge_list(graph)


# each is refused by the kind's builder: by its signature, or by its own checks
@pytest.mark.parametrize("options", [
    "--kind sparsest-odd --n 5",  # takes r, not n
    "--kind sparsest-odd --r 3 --n 5",
    "--kind sparsest-odd --r 0",
    "--kind sparsest-odd --r 3 --seed 5",  # the path shape would ignore the seed
    "--kind sparsest-even --r 2 --seed 1",
    "--kind sparsest-even --r 2 --tree-shape path",
    "--kind erdos-renyi --n 5 --seed 1",  # no p
    "--kind erdos-renyi --n 5 --p 0.5",  # no seed
    "--kind erdos-renyi --n 5 --p 2.0 --seed 1",
    "--kind erdos-renyi --n 5 --p 0.5 --seed 1 --tree-shape star",
    "--kind tree --n 5 --tree-shape random",  # no seed
    "--kind tree --n 5 --tree-shape zigzag",  # refused by argparse
    "--kind tree --n 5 --p 0.5",
    # one past the vertex count the build accepts
    f"--kind sparsest-odd --r {MAX_VERTICES // 2 + 1}",
    f"--kind sparsest-even --r {MAX_VERTICES // 2 + 1}",
    f"--kind erdos-renyi --n {MAX_VERTICES + 1} --p 0.5 --seed 1",
    f"--kind tree --n {MAX_VERTICES + 1}",
])
def test_construct_refuses_options_its_builder_does_not_take(tmp_path, capsys, options):
    out = tmp_path / "x.edges"
    try:
        code = main(["construct", *options.split(), "--output", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_certify_construction(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(graph_file), "--quiet"])
    report = tmp_path / "cert.json"
    assert main(["certify", str(graph_file), "--output", str(report)]) == 0
    out = capsys.readouterr().out
    assert "r_max=3" in out and "ceiling 3" in out
    assert "structure clique" in out and "pass" in out
    cert = json.loads(report.read_text())
    assert set(cert) == {"r_max", "witness", "pairs_examined"}
    assert cert["r_max"] == 3


def test_certify_cycle_witness(tmp_path, capsys):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["certify", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "r_max=1" in out
    assert "s1=[0, 1] s2=[2, 3]" in out
    cert = json.loads((tmp_path / "c4.edges.cert.json").read_text())
    assert cert["witness"] == {"s1": [0, 1], "s2": [2, 3]}


def test_certify_single_vertex_convention(tmp_path, capsys):
    graph_file = tmp_path / "one.edges"
    graph_file.write_text("1\n")
    assert main(["certify", str(graph_file)]) == 0
    out = capsys.readouterr().out
    assert "r_max=1" in out
    assert "convention" in out
    # an (r+1)-clique on 2r-1 vertices needs r >= 2: no structure check applies
    assert "structure" not in out and "FAIL" not in out


# sha256 of the certificate bytes, recorded when certificates were still written by json.dumps
CERTIFICATE_SHA256 = {
    "new_graph(1)": (new_graph(1), "8e0677f4980a0bcdaffb3e3bca30842a68acbe503f4a590eef69e1bddbd8bc96"),
    "new_graph(2)": (new_graph(2), "62a5e230a4bda26c8e73e4cb9c682e19c14e0234033cbac48ebafbca8af17b09"),
    "sparsest_odd(4)": (sparsest_odd(4),
                        "0afd635681ef64792057f22182ef6165456505bcc8d4d730dc62b39397d34435"),
    "sparsest_even(8)": (sparsest_even(8),
                         "2c4aa2ab74c841d2dd8b0ac9f0dac730525f3e58a863a567dc815e73986bf9d7"),
    "erdos_renyi(9, 0.5, 1)": (erdos_renyi(9, 0.5, 1),
                               "5436a434cd8747e94e616556df69323737ad75a67050ae8d4faa66c6612e7fd7"),
    "erdos_renyi(14, 0.7, 3)": (erdos_renyi(14, 0.7, 3),
                                "27a7179ae4fa2a5b78dce774e244d9c202d79eb09e8d275c1dd8ca9a3b59f512"),
}


@pytest.mark.parametrize("name", CERTIFICATE_SHA256)
def test_certify_writes_the_recorded_certificate_bytes(tmp_path, name):
    g, digest = CERTIFICATE_SHA256[name]
    write_edge_list(g, tmp_path / "g.edges")
    assert main(["certify", str(tmp_path / "g.edges"), "--output", str(tmp_path / "c.json"),
                 "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / "c.json").read_bytes()).hexdigest() == digest


def _run_in_ascii_locale(cwd, *args):
    """robustnet's command line in a child whose locale encoding is ASCII."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(robustnet.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "robustnet.cli", *args, "--quiet"], cwd=cwd,
                          env=env, capture_output=True, text=True, errors="replace")


def _non_ascii_inputs(tmp_path):
    (tmp_path / "g.edges").write_bytes("# r\u00e9seau \u00e1\r\n3\r\n0 1\r\n1 2\r\n".encode("utf-8"))
    # a threat spec has no free-text field: the non-ASCII value is replaced by a later duplicate key
    (tmp_path / "t.json").write_bytes(
        '{"scope": "F-l\u00f3cal", "scope": "F-local", "F": 0, "malicious": []}'.encode("utf-8"))
    config = {"r_values": [1], "samples_per_p": 1, "p_values": [0.9], "output_dir": "r\u00e9sultats"}
    (tmp_path / "c.json").write_bytes(json.dumps(config, ensure_ascii=False).encode("utf-8"))


# (arguments, a file the run writes)
_NON_ASCII_READS = {
    "certify": (["certify", "g.edges", "--output", "cert.json"], "cert.json"),
    "simulate": (["simulate", "g.edges", "--threat", "t.json", "--out-prefix", "run"],
                 "run.verdict.json"),
    # the flag replaces the non-ASCII output_dir, which an ASCII file system encoding cannot name
    "experiment": (["experiment", "--config", "c.json", "--output-dir", "exp"], "exp/summary.csv"),
}


@pytest.mark.parametrize("command", _NON_ASCII_READS)
def test_inputs_are_read_as_utf8_under_an_ascii_locale(tmp_path, command):
    _non_ascii_inputs(tmp_path)
    args, written = _NON_ASCII_READS[command]
    done = _run_in_ascii_locale(tmp_path, *args)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / written).is_file()


def test_certify_json_graph(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(graph_to_json_dict(new_graph(2, [(0, 1)]))))
    assert main(["certify", str(graph_file), "--quiet"]) == 0
    cert = json.loads((tmp_path / "g.json.cert.json").read_text())
    assert cert["r_max"] == 1


def test_certify_respects_capability_limit(tmp_path, capsys):
    for n in (17, MAX_EXACT_N):
        graph_file = tmp_path / f"g{n}.edges"
        graph_file.write_text(f"{n}\n0 1\n")
        assert main(["certify", str(graph_file), "--quiet"]) == 0
    too_big = tmp_path / "g21.edges"
    too_big.write_text(f"{MAX_EXACT_N + 1}\n0 1\n")
    assert main(["certify", str(too_big)]) == 2
    assert f"limit of {MAX_EXACT_N}" in capsys.readouterr().err


def _huge_header_files(tmp_path):
    for name, text in (("huge.edges", "10000000000\n"),
                       ("huge.json", '{"n": 10000000000, "edges": []}')):
        path = tmp_path / name
        path.write_text(text)
        yield path


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built for an over-limit header")

    monkeypatch.setattr("robustnet.graph.new_graph", refuse)


def test_certify_rejects_huge_header_before_building(tmp_path, capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    for path in _huge_header_files(tmp_path):
        assert main(["certify", str(path)]) == 2
        assert f"limit of {MAX_VERTICES}" in capsys.readouterr().err


def test_simulate_rejects_huge_header_before_building(tmp_path, capsys, monkeypatch):
    threat_file = write_threat(tmp_path / "threat.json")
    _refuse_to_build(monkeypatch)
    for path in _huge_header_files(tmp_path):
        assert main(["simulate", str(path), "--threat", str(threat_file)]) == 2
        assert f"limit of {MAX_VERTICES}" in capsys.readouterr().err


def test_certify_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a graph\n")
    assert main(["certify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["certify", str(tmp_path / "missing.edges")]) == 2


def test_simulate_robust_graph_succeeds(tmp_path, capsys):
    graph_file = tmp_path / "g13.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "7",
          "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json")
    prefix = tmp_path / "run"
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--seed", "11", "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    assert "agreement=True validity=True" in out
    sidecar = json.loads((tmp_path / "run.json").read_text())
    assert sidecar["malicious"] == [0, 6, 12]
    assert sidecar["converged_at"] is not None
    verdict = json.loads((tmp_path / "run.verdict.json").read_text())
    assert verdict["agreement"] and verdict["validity"]
    header = (tmp_path / "run.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"agent_{i}" for i in range(13))


def test_simulate_under_robust_graph_exits_1_but_writes(tmp_path, capsys):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    threat_file = write_threat(tmp_path / "threat.json", f=1, malicious=(3,), value=400.0)
    prefix = tmp_path / "weak"
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--seed", "0", "--steps", "100", "--out-prefix", str(prefix)]) == 1
    assert (tmp_path / "weak.csv").exists()
    assert (tmp_path / "weak.json").exists()
    verdict = json.loads((tmp_path / "weak.verdict.json").read_text())
    assert not (verdict["agreement"] and verdict["validity"])


def test_simulate_refuses_steps_above_the_trace_bound(tmp_path, capsys):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
    threat_file = write_threat(tmp_path / "threat.json", f=0, malicious=())
    prefix = tmp_path / "long"
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--steps", str(501 * MAX_VERTICES), "--out-prefix", str(prefix)]) == 2
    assert "max_steps" in capsys.readouterr().err
    assert not (tmp_path / "long.csv").exists()


def test_simulate_threat_violation_names_condition(tmp_path, capsys):
    graph_file = tmp_path / "g13.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "7",
          "--output", str(graph_file), "--quiet"])
    # four hub vertices are malicious: every normal agent sees all four
    threat_file = write_threat(tmp_path / "threat.json", malicious=(0, 1, 2, 3))
    assert main(["simulate", str(graph_file), "--threat", str(threat_file)]) == 2
    assert "F-local violated" in capsys.readouterr().err


def test_simulate_rejects_non_finite_threat(tmp_path, capsys):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json", f=1, malicious=(0,), value=float("nan"))
    assert "NaN" in threat_file.read_text()
    prefix = tmp_path / "nan"
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--out-prefix", str(prefix)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "nan.verdict.json").exists()


def test_simulate_validates_the_threat_once(tmp_path, monkeypatch, capsys):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json", f=1, malicious=(0,))
    calls = []
    validate = ThreatModel.validate

    def counted(threat, g):
        calls.append(g.n)
        return validate(threat, g)

    monkeypatch.setattr(ThreatModel, "validate", counted)
    main(["simulate", str(graph_file), "--threat", str(threat_file),
          "--out-prefix", str(tmp_path / "run"), "--quiet"])
    assert calls == [5]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("malicious, message", [
    # numpy would read initial[True] as every agent, so all would start at 150
    ((True,), "malicious vertex"),
    # only simulate checks the threat against the graph, before anything is written
    ((12,), "malicious vertex 12 out of range"),
], ids=["bool", "out-of-range"])
def test_simulate_rejects_bad_malicious_vertex(tmp_path, capsys, malicious, message):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json", scope="F-total", f=1, malicious=malicious)
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--out-prefix", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run.verdict.json").exists()


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_simulate_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json", f=1, malicious=(0,))
    assert main(["simulate", str(graph_file), "--threat", str(threat_file),
                 "--tol", tol, "--out-prefix", str(tmp_path / "run")]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "run.verdict.json").exists()


def test_experiment_cli(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--r-values", "1,2", "--samples-per-p", "2",
                 "--p-values", "0.8,0.9", "--master-seed", "3",
                 "--output-dir", str(out_dir)]) == 0
    records = (out_dir / "records.csv").read_text()
    summary = (out_dir / "summary.csv").read_text()
    assert records.splitlines()[0] == "r,n,p,seed,edge_count,r_max,accepted"
    assert summary.splitlines()[0] == "r,n,min_edges_found,bound,gap,accepted,requested,shortfall"
    assert "accepted 4/4" in capsys.readouterr().out
    # replay into a second directory is byte-identical
    out_dir2 = tmp_path / "exp2"
    main(["experiment", "--r-values", "1,2", "--samples-per-p", "2",
          "--p-values", "0.8,0.9", "--master-seed", "3",
          "--output-dir", str(out_dir2), "--quiet"])
    assert (out_dir2 / "records.csv").read_text() == records
    assert capsys.readouterr().out == ""


def test_experiment_node_offsets_flag(tmp_path, capsys):
    assert main(["experiment", "--r-values", "1,2", "--samples-per-p", "2",
                 "--p-values", "0.8,0.9", "--node-offsets", "2r",
                 "--output-dir", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [tuple(row.split(",")[:2]) for row in summary] == [("1", "2"), ("2", "4")]
    # digests recorded before the config's array rule moved into its constructor
    for name, digest in (
        ("summary.csv", "1c8f4e3d43896696e3bd2fe979302340dfde721e3d0399fe210ad91ea4d16b38"),
        ("records.csv", "e1d390b34225aaf080147a406d127098fe67e61c6d9adfd71ac57ca227012ea8"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_experiment_flags_override_config_fields(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"r_values": [1], "samples_per_p": 1, "p_values": [0.9],
                                       "output_dir": str(tmp_path / "from-config")}))
    assert main(["experiment", "--config", str(config_file), "--r-values", "2",
                 "--samples-per-p", "3", "--quiet"]) == 0
    summary = (tmp_path / "from-config" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in summary] == ["2", "2"]
    assert [row.split(",")[6] for row in summary] == ["3", "3"]
    # --output-dir is one more field: it replaces the config's directory
    assert main(["experiment", "--config", str(config_file), "--output-dir",
                 str(tmp_path / "flag"), "--quiet"]) == 0
    assert (tmp_path / "flag" / "records.csv").read_text().splitlines()[1].startswith("1,")


def test_p_values_flag_reads_numbers_as_the_config_file_does(tmp_path, capsys):
    # a number is not converted: --p-values 1 is the int 1 of "p_values": [1], so the same
    # p column and the same seeds
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"r_values": [2], "samples_per_p": 2, "p_values": [0.5, 1],
                                       "node_offsets": ["2r"]}))
    assert main(["experiment", "--config", str(config_file), "--output-dir",
                 str(tmp_path / "file"), "--quiet"]) == 0
    assert main(["experiment", "--r-values", "2", "--samples-per-p", "2", "--p-values", "0.5,1",
                 "--node-offsets", "2r", "--output-dir", str(tmp_path / "flags"), "--quiet"]) == 0
    records = (tmp_path / "flags" / "records.csv").read_bytes()
    assert records == (tmp_path / "file" / "records.csv").read_bytes()
    assert b"\n2,4,1," in records
    with pytest.raises(SystemExit):
        main(["experiment", "--p-values", "0.5,one"])
    assert "invalid number list value: '0.5,one'" in capsys.readouterr().err


def test_experiment_defaults_reproduce_default_sweep(tmp_path):
    assert main(["experiment", "--output-dir", str(tmp_path), "--quiet"]) == 0
    for name, digest in DEFAULT_SWEEP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_experiment_config_file(tmp_path):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({
        "r_values": [1],
        "samples_per_p": 2,
        "p_values": [0.9],
        "node_offsets": ["2r"],
        "master_seed": 8,
        "max_attempts": 50,
        "output_dir": str(tmp_path / "from-config"),
    }))
    assert main(["experiment", "--config", str(config_file), "--quiet"]) == 0
    assert (tmp_path / "from-config" / "summary.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("p_values", ["0.9"]),
    ("p_values", [True]),
    ("p_values", [float("nan")]),
    ("p_values", 0.9),
    ("r_values", 3),
    ("samples_per_p", True),
    ("max_attempts", True),
    ("master_seed", "x"),
    ("master_seed", True),
])
def test_experiment_config_types_exit_2(tmp_path, capsys, field, value):
    config = {"r_values": [1], "samples_per_p": 1, "p_values": [0.9],
              "output_dir": str(tmp_path / "out"), field: value}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(config_file), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.csv"))


def test_experiment_config_file_is_checked_before_flags_replace_fields(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"r_values": [11], "output_dir": str(tmp_path / "out")}))
    before = sorted(tmp_path.iterdir())
    assert main(["experiment", "--config", str(config_file), "--r-values", "2", "--quiet"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "capability" in errors[0]
    assert sorted(tmp_path.iterdir()) == before


def test_experiment_invalid_config(tmp_path, capsys):
    assert main(["experiment", "--r-values", "12", "--quiet"]) == 2
    assert "capability" in capsys.readouterr().err


def test_quiet_suppresses_info(tmp_path, monkeypatch, capsys):
    out = tmp_path / "q.edges"
    assert main(["construct", "--kind", "sparsest-odd", "--r", "2",
                 "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    graph = tmp_path / "g.edges"
    assert main(["construct", "--kind", "sparsest-even", "--r", "4", "--output", str(graph)]) == 0
    assert main(["certify", str(graph), "--output", str(tmp_path / "loud.json")]) == 0
    assert "structure clique" in capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a report was computed under --quiet")

    # the bound and the structure checks are only ever printed
    monkeypatch.setattr("robustnet.cli.edge_lower_bound", refuse)
    monkeypatch.setattr("robustnet.cli.check_structural_lemmas", refuse)
    quiet_graph = tmp_path / "q4.edges"
    assert main(["construct", "--kind", "sparsest-even", "--r", "4", "--output", str(quiet_graph),
                 "--quiet"]) == 0
    assert quiet_graph.read_bytes() == graph.read_bytes()
    assert main(["certify", str(quiet_graph), "--output", str(tmp_path / "quiet.json"),
                 "--quiet"]) == 0
    assert (tmp_path / "quiet.json").read_bytes() == (tmp_path / "loud.json").read_bytes()
    assert capsys.readouterr().out == ""


def test_successive_calls_share_no_state(tmp_path, capsys):
    out = tmp_path / "first.csv"
    assert main(["bounds", "--r-min", "1", "--r-max", "1", "--format", "csv",
                 "--output", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "r,n,bound,kind\n1,1,0,odd-case\n1,2,1,even-case\n"
    # neither --output nor --quiet carries over: the table goes to stdout
    assert main(["bounds", "--r-min", "2", "--r-max", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "r,n,bound,kind\n2,3,3,odd-case\n2,4,5,even-case\n"
    graph = tmp_path / "g.edges"
    assert main(["construct", "--kind", "sparsest-odd", "--r", "2", "--output", str(graph),
                 "--quiet"]) == 0
    assert main(["certify", str(graph), "--output", str(tmp_path / "c.json"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["certify", str(graph)]) == 0
    assert "r_max=2" in capsys.readouterr().out
    assert (tmp_path / "g.edges.cert.json").exists()


# every option and positional each subcommand declares: all of them are read
_OPTION_SETS = {
    "construct": {"--kind", "--r", "--n", "--p", "--seed", "--tree-shape", "--output", "--quiet"},
    "certify": {"graph", "--output", "--quiet"},
    "simulate": {"graph", "--threat", "--seed", "--steps", "--tol", "--out-prefix", "--quiet"},
    "experiment": {"--config", "--r-values", "--samples-per-p", "--p-values", "--node-offsets",
                   "--master-seed", "--max-attempts", "--output-dir", "--quiet"},
    "bounds": {"--r-min", "--r-max", "--format", "--output", "--quiet"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    [commands] = [action for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    declared = {
        name: {action.option_strings[0] if action.option_strings else action.dest
               for action in command._actions if not isinstance(action, argparse._HelpAction)}
        for name, command in commands.choices.items()
    }
    assert declared == _OPTION_SETS
    assert sum(map(len, declared.values())) == 32


@pytest.mark.parametrize("command, flag, value", [
    ("construct", "--format", "csv"),
    ("certify", "--seed", "3"),
    ("certify", "--format", "json"),
    ("simulate", "--output", "mine.csv"),
    ("simulate", "--format", "csv"),
    ("experiment", "--seed", "7"),
    ("experiment", "--output", "out"),
    ("experiment", "--format", "csv"),
    ("bounds", "--seed", "3"),
])
def test_undeclared_options_are_usage_errors(tmp_path, monkeypatch, capsys, command, flag, value):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3", "--output", str(graph_file), "--quiet"])
    threat_file = write_threat(tmp_path / "threat.json", f=1, malicious=(0,))
    args = {
        "construct": ["--kind", "sparsest-odd", "--r", "3"],
        "certify": [str(graph_file)],
        "simulate": [str(graph_file), "--threat", str(threat_file)],
        "experiment": ["--r-values", "1", "--samples-per-p", "1"],
        "bounds": [],
    }[command]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as err:
        main([command, *args, flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_subcommands_are_found_by_name_when_called(tmp_path, monkeypatch):
    _build_parser()  # cached, so the parser was built before the replacement
    calls = []
    monkeypatch.setattr(robustnet.cli, "cmd_certify", lambda args: calls.append(args.graph) or 7)
    assert main(["certify", str(tmp_path / "g.edges")]) == 7
    assert calls == [str(tmp_path / "g.edges")]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def _walk(**params):
    return {"kind": "random-walk", **params}


# (input file, its JSON or its raw bytes, a substring its one error line must contain)
_HOSTILE_INPUTS = [
    ("threat", {"behaviors": [1]}, "'behaviors'"),
    ("threat", {"behavior": _walk(seed=[1])}, "seed"),
    ("threat", {"behavior": _walk(seed=True)}, "seed"),
    ("threat", {"behavior": {"kind": "sinusoid", "amplitude": 150.0, "peroid": 5}}, "'peroid'"),
    ("threat", {"behaviors": {"3": {"kind": "constant", "value": 1.0}}}, "'3'"),
    ("config", {"output_dir": 5}, "output_dir"),
    ("graph", {"n": 2, "edges": 5}, "'edges'"),
    ("graph", {"n": 2, "edges": [5]}, "'edges'"),
    ("graph", {"n": 3, "edges": [[0, 1, 2]]}, "'edges'"),
    ("graph", {"n": 2, "edges": [[0, 1]], "extra": 1}, "'extra'"),
    ("threat", {"behavior": {"kind": "chaos"}, "behaviors": {"0": {"kind": "constant", "value": 1.0}}},
     "'chaos'"),
    # not UTF-8, truncated JSON, a bad edge-list line
    ("graph", b"3\n0 1 # \xff\n", "can't decode byte 0xff"),
    ("graph", b'{"n": 3, "edges": [[0, 1]', "Expecting"),
    ("graph", b"3\n0 1 2\n", "line 2: expected 'u v'"),
    ("threat", b'{"scope": "F-local", "F": 1\xff}', "can't decode byte 0xff"),
    ("threat", b'{"scope": "F-local", ', "Expecting property name"),
    ("config", b'{"r_values": [1], "output_dir": "\xff"}', "can't decode byte 0xff"),
    ("config", b'{"r_values": [1', "Expecting"),
]


@pytest.mark.parametrize("kind, data, named", _HOSTILE_INPUTS)
def test_malformed_json_inputs_exit_2_without_artifacts(tmp_path, capsys, kind, data, named):
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3", "--output", str(graph_file), "--quiet"])
    threat = {"scope": "F-local", "F": 1, "malicious": [0],
              "behavior": {"kind": "constant", "value": 150.0}}
    config = {"r_values": [1], "samples_per_p": 1, "p_values": [0.9]}
    source = tmp_path / f"{kind}.json"
    if isinstance(data, bytes):
        source.write_bytes(data)
    else:
        source.write_text(json.dumps({**{"graph": {}, "threat": threat, "config": config}[kind], **data}))
    args = {
        "graph": ["certify", str(source)],
        "threat": ["simulate", str(graph_file), "--threat", str(source),
                   "--out-prefix", str(tmp_path / "run")],
        "config": ["experiment", "--config", str(source)],
    }[kind]
    before = sorted(tmp_path.iterdir())
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {source}: ") and named in errors[0]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("kind", ["graph", "threat", "config"])
def test_deeply_nested_json_inputs_exit_2_without_artifacts(tmp_path, capsys, kind):
    depth = 100_000
    nested = '{"n": ' * depth + "1" + "}" * depth
    graph_file = tmp_path / "g5.edges"
    main(["construct", "--kind", "sparsest-odd", "--r", "3", "--output", str(graph_file), "--quiet"])
    source = tmp_path / f"{kind}.json"
    source.write_text(nested)
    args = {
        "graph": ["certify", str(source)],
        "threat": ["simulate", str(graph_file), "--threat", str(source),
                   "--out-prefix", str(tmp_path / "run")],
        "config": ["experiment", "--config", str(source)],
    }[kind]
    before = sorted(tmp_path.iterdir())
    assert main(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(source) in errors[0] and "nested" in errors[0]
    assert sorted(tmp_path.iterdir()) == before
    if kind == "graph":
        with pytest.raises(ValueError, match="nested"):
            load_graph(source)


def _write_inputs(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    main(["construct", "--kind", "sparsest-odd", "--r", "3",
          "--output", str(inputs / "g.edges"), "--quiet"])
    write_threat(inputs / "threat.json", f=1, malicious=(0,), value=5.0)
    return inputs


# each writer: its arguments given the output directory, and the files it writes there
WRITERS = {
    "construct": (lambda inputs, d: ["construct", "--kind", "sparsest-even", "--r", "3",
                                     "--output", str(d / "g.edges")], ["g.edges"]),
    "certify": (lambda inputs, d: ["certify", str(inputs / "g.edges"),
                                   "--output", str(d / "cert.json")], ["cert.json"]),
    "simulate": (lambda inputs, d: ["simulate", str(inputs / "g.edges"),
                                    "--threat", str(inputs / "threat.json"),
                                    "--out-prefix", str(d / "run")],
                 ["run.csv", "run.json", "run.verdict.json"]),
    "experiment": (lambda inputs, d: ["experiment", "--r-values", "1,2", "--samples-per-p", "1",
                                      "--output-dir", str(d)], ["records.csv", "summary.csv"]),
    "bounds": (lambda inputs, d: ["bounds", "--r-max", "3", "--format", "json",
                                  "--output", str(d / "bounds.json")], ["bounds.json"]),
}


@pytest.mark.parametrize("command", WRITERS)
def test_each_writer_rewrites_a_longer_file_to_exactly_the_new_bytes(tmp_path, command):
    inputs = _write_inputs(tmp_path)
    arguments, names = WRITERS[command]
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    code = main([*arguments(inputs, fresh), "--quiet"])
    for name in names:
        (stale / name).write_bytes(b"#" * (len((fresh / name).read_bytes()) + 5000))
    assert main([*arguments(inputs, stale), "--quiet"]) == code
    for name in names:
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()


def test_certify_writes_to_dev_null(tmp_path):
    inputs = _write_inputs(tmp_path)
    assert main(["certify", str(inputs / "g.edges"), "--output", os.devnull, "--quiet"]) == 0


def test_a_new_file_gets_the_default_mode_less_the_umask(tmp_path):
    inputs = _write_inputs(tmp_path)
    report = tmp_path / "cert.json"
    old_umask = os.umask(0o002)
    try:
        assert main(["certify", str(inputs / "g.edges"), "--output", str(report), "--quiet"]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(report.stat().st_mode) == 0o664


def test_a_failed_write_leaves_the_file_cut_at_the_bytes_written(tmp_path, monkeypatch, capsys):
    inputs = _write_inputs(tmp_path)
    main(["certify", str(inputs / "g.edges"), "--output", str(tmp_path / "fresh.json"), "--quiet"])
    report = tmp_path / "cert.json"
    report.write_text("#" * 5000)
    real_write = os.write
    calls = []

    def short_writes_then_a_full_disk(fd, data):
        calls.append(fd)
        if len(calls) > 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_writes_then_a_full_disk)
    assert main(["certify", str(inputs / "g.edges"), "--output", str(report), "--quiet"]) == 2
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert report.read_bytes() == (tmp_path / "fresh.json").read_bytes()[:21]
