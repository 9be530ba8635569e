import json
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from orchard import (PointSet, ProjPoint, gen_triangle_ratios, mk_point,
                     spanned_lines, triple_line_count, tripartite_count)
from orchard.cli import pointset_from_doc, pointset_to_doc, run


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_points_file_round_trip():
    ps = gen_triangle_ratios(2)
    doc = pointset_to_doc(ps)
    back = pointset_from_doc(json.loads(json.dumps(doc)))
    assert back.points == ps.points
    assert back.labels == ps.labels
    assert tripartite_count(back, (1, 2, 3)) == tripartite_count(ps, (1, 2, 3))


def test_points_file_formats():
    doc = {"points": [{"x": "1/2", "y": "3"}, {"h": ["1", "0", "0"]}]}
    ps = pointset_from_doc(doc)
    assert ps.points[0] == mk_point(F(1, 2), 3)
    assert ps.points[1] == ProjPoint((1, 0, 0))
    with pytest.raises(ValueError):
        pointset_from_doc({"points": [{"h": ["0", "0", "0"]}]})
    with pytest.raises(ValueError):
        pointset_from_doc({"nope": []})


def test_bound_subcommand(capsys):
    code, out = run_capture(capsys, ["bound", "--n", "12"])
    assert code == 0 and out.strip() == "19"


def test_generate_then_count(tmp_path, capsys):
    f = tmp_path / "pts.json"
    code, _ = run_capture(capsys, ["generate", "--example", "cubic-power",
                                   "--n", "2", "--out", str(f)])
    assert code == 0
    code, out = run_capture(capsys, ["count", "--in", str(f), "--k", "3"])
    assert code == 0 and out.strip() == "2"


def test_generate_deterministic(capsys):
    _, out1 = run_capture(capsys, ["generate", "--example", "grid", "--n", "3"])
    _, out2 = run_capture(capsys, ["generate", "--example", "grid", "--n", "3"])
    assert out1 == out2


def test_tripartite_and_directions(tmp_path, capsys):
    f = tmp_path / "aps.json"
    run_capture(capsys, ["generate", "--example", "parallel-aps", "--n", "3",
                         "--out", str(f)])
    code, out = run_capture(capsys, ["count", "--in", str(f),
                                     "--tripartite", "1,2,3"])
    assert code == 0 and out.strip() == "5"
    f2 = tmp_path / "pap.json"
    run_capture(capsys, ["generate", "--example", "parabola-ap", "--n", "5",
                         "--out", str(f2)])
    code, out = run_capture(capsys, ["directions", "--in", str(f2)])
    assert code == 0 and out.strip() == "7"


def test_ngon_summary(capsys):
    code, out = run_capture(capsys, ["generate", "--example", "ngon",
                                     "--n", "1000"])
    doc = json.loads(out)
    assert code == 0
    assert doc["direction_classes"] == 1000 and doc["chords"] == 499500


def test_fit_cubic_subcommand(tmp_path, capsys):
    f = tmp_path / "cp.json"
    run_capture(capsys, ["generate", "--example", "cubic-power", "--n", "5",
                         "--out", str(f)])
    code, out = run_capture(capsys, ["fit-cubic", "--in", str(f),
                                     "--indices", ",".join(map(str, range(10)))])
    assert code == 0
    assert out.splitlines()[1] == "1,0,0,0,0,0,0,0,-1,0"


def test_group_check_subcommand(capsys):
    code, out = run_capture(capsys, ["group-check", "--config", "example4",
                                     "--n", "4"])
    assert code == 0 and "PASS" in out
    code, out = run_capture(capsys, ["group-check", "--config", "triangle",
                                     "--trials", "300"])
    assert code == 0 and "PASS" in out


def test_tenpoint_subcommand(capsys):
    code, out = run_capture(capsys, ["tenpoint", "--curve", "cuspidal",
                                     "--base=-1,0,1", "--delta", "1/10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,X,Y,Z"
    assert len(lines) == 11
    assert "B3,300,27,1000" in lines


def test_cantilever_subcommand(capsys):
    code, out = run_capture(capsys, ["cantilever", "--curve", "cuspidal",
                                     "--base=-1,0,1", "--delta", "1/10",
                                     "--extend", "20"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 23 + 24 + 23
    code, _ = run_capture(capsys, ["cantilever", "--curve", "cuspidal",
                                   "--base=-1,0,1", "--delta", "1/10"])
    assert code == 2       # --extend required


def test_conic_subcommands(capsys):
    code, out = run_capture(capsys, ["conic", "--mode", "involution",
                                     "--external", "0,-1", "--x", "2"])
    assert code == 0 and out.strip() == "1/2"
    code, out = run_capture(capsys, ["conic", "--mode", "image-count",
                                     "--external", "0,-1",
                                     "--xs", "2,1/2,3,1/3"])
    assert code == 0 and out.strip() == "4"
    code, out = run_capture(capsys, ["conic", "--mode", "reps",
                                     "--externals", "0,1;1,2;2,3"])
    assert code == 0 and out.strip() == "true"
    # points on the parabola are rejected (the involution degenerates)
    code, _ = run_capture(capsys, ["conic", "--mode", "reps",
                                   "--externals", "0,0;1,1;2,2"])
    assert code == 2
    code, out = run_capture(capsys, ["conic", "--mode", "collinear",
                                     "--external", "0,-1", "--x", "2",
                                     "--y", "1/2"])
    assert code == 0 and out.strip() == "true"


def test_experiment_subcommand(capsys):
    code, out = run_capture(capsys, ["experiment", "--kind", "quadruple",
                                     "--degree", "4", "--n", "50"])
    assert code == 0 and out.splitlines()[1] == "4,50,0"
    code, out = run_capture(capsys, ["experiment", "--kind", "directions",
                                     "--degree", "2", "--n", "10"])
    assert code == 0 and out.splitlines()[1] == "2,10,17"
    code, out = run_capture(capsys, ["experiment", "--kind", "dichotomy",
                                     "--degree", "3", "--n", "30"])
    assert code == 0 and out.splitlines()[1] == "3,30,450,1/2"


def test_plot_svg(tmp_path, capsys):
    src = tmp_path / "tri.json"
    run_capture(capsys, ["generate", "--example", "triangle-ratios",
                         "--n", "2", "--out", str(src)])
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    for out in (svg1, svg2):
        code, _ = run_capture(capsys, ["plot", "--in", str(src),
                                       "--out", str(out),
                                       "--mark-triple-lines"])
        assert code == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    root = ET.fromstring(svg1.read_text())
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    paths = [e for e in root.iter(f"{ns}path")
             if e.get("class") == "triple-line"]
    ps = pointset_from_doc(json.loads(src.read_text()))
    drawable = [key for key, m in spanned_lines(ps).sorted_entries()
                if m >= 3 and not (key[0] == 0 and key[1] == 0)]
    assert len(paths) == len(drawable)
    arrows = [e for e in root.iter(f"{ns}path")
              if e.get("class") == "direction-arrow"]
    assert len(arrows) == 3        # one infinity point per side


def test_exit_codes(tmp_path, capsys):
    assert run(["count", "--in", str(tmp_path / "nope.json")]) == 2
    assert run(["bound", "--n", "1"]) == 2
    assert run(["bogus-subcommand"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["count", "--in", str(bad)]) == 2


TWO_POINTS = [{"x": "1", "y": "2"}, {"x": "3", "y": "4"}]


@pytest.mark.parametrize("doc", [
    {"points": [5, 6]},
    {"points": [{"x": "1/0", "y": "1"}] + TWO_POINTS},
    {"points": TWO_POINTS, "labels": "12"},
    {"points": [{"x": 0.5, "y": "1"}] + TWO_POINTS},
])
def test_points_file_schema_rejected(tmp_path, capsys, doc):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps(doc))
    assert run(["count", "--in", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
