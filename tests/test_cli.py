"""Command-line surface: exit codes, formats, round trips, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from yamada.cli import main
from yamada.diagram import build_twist, code_from_dict, code_to_json, yamada_r
from yamada.laurent import parse_poly, sigma, variable
from yamada.multigraph import cycle_graph, graph_from_dict, graph_to_json, theta_graph
from yamada.replace import family_polynomial

A = variable()
S = sigma()


def run_cli(*argv):
    """Drive main() in process, catching argparse's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code if stop.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def c3_json():
    return graph_to_json(cycle_graph(3))


def test_graph_h_text_output():
    code, out, err = run_cli("graph-h", "--in", c3_json())
    assert code == 0 and err == ""
    assert out == "A + 1 + A^-1\n"


def test_graph_h_json_round_trip():
    code, out, _ = run_cli("graph-h", "--in", c3_json(), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["var"] == "A"
    assert parse_poly(payload["poly"]) == S


def test_graph_h_oracle_agrees():
    blob = graph_to_json(theta_graph(3))
    _, direct, _ = run_cli("graph-h", "--in", blob)
    _, oracle, _ = run_cli("graph-h-oracle", "--in", blob)
    assert direct == oracle


def test_flow_polynomial_variable():
    code, out, _ = run_cli("flow", "--in", c3_json())
    assert code == 0
    assert out == "t - 1\n"


def test_chain_text_and_json():
    blob = json.dumps(
        {
            "vertices": [0, 1, 2],
            "edges": [[0, 0, 1], [1, 1, 2], [2, 2, 0]],
            "labels": {"0": "a1", "1": "a2", "2": "a3"},
        }
    )
    code, out, _ = run_cli("chain", "--in", blob)
    assert code == 0
    assert out == "a1*a2*a3 - w\n"
    code, out, _ = run_cli("chain", "--in", blob, "--format", "json")
    payload = json.loads(out)
    assert payload["vars"] == ["w", "a1", "a2", "a3"]


def test_diagram_r_on_twist():
    blob = code_to_json(build_twist(2, "+"))
    code, out, _ = run_cli("diagram-r", "--in", blob)
    assert code == 0
    assert parse_poly(out.strip()) == S * A ** -4


def test_mirror_emits_readable_code():
    blob = code_to_json(build_twist(2, "+"))
    code, out, _ = run_cli("mirror", "--in", blob)
    assert code == 0
    mirrored = code_from_dict(json.loads(out))
    assert yamada_r(mirrored) == S * A ** 4
    # mirroring twice restores the original bytes
    _, back, _ = run_cli("mirror", "--in", out)
    assert back.strip() == blob


def test_close_then_state_sum():
    blob = code_to_json(build_twist(1, "+"))
    code, out, _ = run_cli("close", "--in", blob)
    assert code == 0
    closed = code_from_dict(json.loads(out))
    assert yamada_r(closed) == S


def test_compose_dict_and_shape_flag_agree():
    pieces = [{"twist": 1, "sign": "+"}, {"twist": 1, "sign": "+"}]
    _, with_dict, _ = run_cli(
        "compose", "--in", json.dumps({"shape": "cycle", "pieces": pieces})
    )
    _, with_flag, _ = run_cli(
        "compose", "--shape", "cycle", "--in", json.dumps(pieces)
    )
    assert with_dict == with_flag
    assert parse_poly(with_dict.strip()) == family_polynomial(2, 1, 1, "+")


def test_compose_accepts_explicit_invariants():
    blob = json.dumps(
        {"shape": "bouquet", "pieces": [{"r": "A+1+A^-1", "r_closed": "A+1+A^-1"}]}
    )
    code, out, _ = run_cli("compose", "--in", blob)
    assert code == 0
    assert parse_poly(out.strip()) == S


def test_family_matches_library():
    code, out, _ = run_cli("family", "--n", "2", "--s", "1", "--k", "1", "--sign", "+")
    assert code == 0
    assert parse_poly(out.strip()) == family_polynomial(2, 1, 1, "+")
    expect = (-(S * A ** -2)) ** 2 + S * (A ** -2 + 1) ** 2
    assert parse_poly(out.strip()) == expect


def test_roots_scan_formats_and_determinism():
    argv = ("roots-scan", "--ns", "1-3", "--ss", "1", "--ks", "1")
    code, first, _ = run_cli(*argv)
    code2, second, _ = run_cli(*argv)
    assert code == code2 == 0
    assert first == second
    assert first.splitlines()[0] == "n,s,k,sign,re,im,residual,degree"
    _, svg, _ = run_cli(*argv, "--format", "svg")
    assert svg.startswith("<svg")
    _, blob, _ = run_cli(*argv, "--format", "json")
    rows = json.loads(blob)
    assert len(rows) == len(first.splitlines()) - 1


def test_roots_scan_span_forms():
    _, plain, _ = run_cli("roots-scan", "--ns", "1,2,3", "--ss", "1", "--ks", "1")
    _, ranged, _ = run_cli("roots-scan", "--ns", "1-3", "--ss", "1", "--ks", "1")
    assert plain == ranged


def test_roots_scan_reports_cells_above_tol():
    # the (24, 5, 6) solve runs out of budget and leaves 4 roots per sign
    # above the default tol; all records are still written, and stderr
    # names each such cell once
    code, out, err = run_cli(
        "roots-scan", "--ns", "24", "--ss", "5", "--ks", "6", "--signs", "+,-"
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 * 1057
    above = sorted(row[3] for row in rows if float(row[6]) > 1e-9)
    assert above == ["+"] * 4 + ["-"] * 4
    assert err == (
        "warning: cell n=24 s=5 k=6 sign=+: 4 records with residual above tol 1e-09\n"
        "warning: cell n=24 s=5 k=6 sign=-: 4 records with residual above tol 1e-09\n"
    )
    _, _, quiet = run_cli("roots-scan", "--ns", "1-3", "--ss", "1", "--ks", "1")
    assert quiet == ""


def test_density_witness_json():
    code, out, _ = run_cli(
        "density", "--z0=-0.5+0.87i", "--eps", "0.2",
        "--kmax", "2", "--smax", "2", "--nmax", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["distance"] < 0.2
    assert payload["root"]["sign"] == "-"


def test_curve_csv_header():
    code, out, _ = run_cli(
        "curve", "--s", "1", "--k", "1", "--angles", "24", "--radial", "16"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im"
    assert len(lines) > 10


def test_omega_formats():
    code, out, _ = run_cli("omega", "--z", "2.0")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli("omega", "--z", "0.5i", "--format", "json")
    assert json.loads(out)["member"] is True


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "poly.txt"
    code, out, _ = run_cli("graph-h", "--in", c3_json(), "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "A + 1 + A^-1\n"


def test_stdin_input(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(c3_json()))
    code, out, _ = run_cli("graph-h", "--in", "-")
    assert code == 0
    assert out == "A + 1 + A^-1\n"


def test_usage_errors_exit_two():
    for argv in (
        ("bogus",),
        ("roots-scan", "--ns", "1-x", "--ss", "1", "--ks", "1"),
        ("family", "--n", "2", "--s", "1"),
        ("density", "--z0", "pear", "--eps", "0.1"),
        ("graph-h", "--in", "{}", "--format", "svg"),
    ):
        code, _, _ = run_cli(*argv)
        assert code == 2, argv


def test_domain_errors_exit_one():
    code, _, err = run_cli(
        "family", "--n", "40", "--s", "4", "--k", "6", "--degree-cap", "100"
    )
    assert code == 1
    assert "DegreeCap" in err
    code, _, err = run_cli("graph-h", "--in", "/no/such/file.json")
    assert code == 1
    code, _, err = run_cli("diagram-r", "--in", '{"vertices": [], "crossings": []}')
    assert code == 1
    code, _, err = run_cli("omega", "--z", "0")
    assert code == 1
    assert "PoleAtZero" in err
    # malformed diagram codes are rejected where they are read
    for blob, error in (
        # an arc end on no site
        ('{"vertices": [{"id": 1, "ends": [1, 2]}], "arcs": [[1, 3]]}',
         "DanglingHalfEdge"),
        # a vertex end on no arc
        ('{"vertices": [{"id": 1, "ends": [1, 2, 3]}], "crossings": [],'
         ' "arcs": [[1, 2]]}', "DanglingHalfEdge"),
        # one half-edge in two arcs
        ('{"vertices": [{"id": 1, "ends": [1, 2, 3]}], "arcs": [[1, 2], [2, 3]]}',
         "DuplicateHalfEdge"),
    ):
        for command in ("diagram-r", "mirror", "close"):
            code, out, err = run_cli(command, "--in", blob)
            assert (code, out) == (1, ""), (command, blob)
            assert err.startswith(f"error: {error}: "), (command, blob, err)
    # ids of mixed types cannot be sorted; they are named, not a traceback
    for command, blob, named in (
        ("graph-h", '{"vertices":[0,"x"],"edges":[[0,0,"x"]]}', "0 (int) and 'x' (str)"),
        ("diagram-r", '{"vertices":[{"id":1,"ends":["a",1]}],"arcs":[["a",1]]}',
         "'a' (str) and 1 (int)"),
    ):
        code, out, err = run_cli(command, "--in", blob)
        assert (code, out) == (1, ""), (command, blob)
        assert err.startswith("error: ValueError: ") and named in err, err


def test_selftest_green_and_deterministic():
    code, first, _ = run_cli("selftest")
    code2, second, _ = run_cli("selftest")
    assert code == code2 == 0
    assert first == second
    lines = first.splitlines()
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert lines[-1].endswith("items passed")


def test_selftest_subprocess_bytes_identical():
    cmd = [sys.executable, "-m", "yamada.cli", "selftest"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
