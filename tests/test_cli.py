import argparse
import contextlib
import io
import json
import multiprocessing
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import orchard.cli as cli
import orchard.descriptions as descriptions
from orchard import (Cantilever, GroupDescription, PointSet, ProjPoint,
                     collinear, gen_grid, gen_parallel_aps,
                     gen_triangle_ratios, mk_point, richlines, spanned_lines,
                     triple_line_count, tripartite_count)
from orchard.cli import pointset_from_doc, pointset_to_doc, run
from orchard.projective import _fraction
from oracles import InlineContext, brute_multiplicities, replaced
from oracles import build_parser as argparse_parser


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


@pytest.mark.parametrize("kind, least", [("dichotomy", 3), ("quadruple", 4)])
def test_experiment_degree_one_is_a_line(capsys, kind, least):
    # y = x^1 is a line: its 11 sample points all lie on one line, which
    # the degree bound must accept, as it does for any degree-1 curve
    n = 5
    brute = brute_multiplicities([mk_point(x, x) for x in range(-n, n + 1)])
    count = sum(1 for m in brute.values() if m >= least)
    code, out = run_capture(capsys, ["experiment", "--kind", kind,
                                     "--degree", "1", "--n", str(n)])
    row = f"1,{n},{count}"
    if kind == "dichotomy":
        row += f",{F(count, n * n)}"
    assert code == 0 and out.splitlines()[1] == row


def test_out_dash_writes_stdout(tmp_path, capsys, monkeypatch):
    # generate and plot write "--out -" to stdout, as generate writes
    # without --out and plot writes to a file; no file "-" is made
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--example", "grid", "--n", "3"]
    code, expected = run_capture(capsys, argv)
    assert code == 0 and expected.startswith("{")
    assert run_capture(capsys, argv + ["--out", "-"]) == (0, expected)
    assert run_capture(capsys, argv + ["--out=-"]) == (0, expected)
    (tmp_path / "grid.json").write_text(expected)
    plot = ["plot", "--in", "grid.json", "--mark-triple-lines", "--out"]
    assert run_capture(capsys, plot + ["grid.svg"]) == (0, "")
    assert run_capture(capsys, plot + ["-"]) == (
        0, (tmp_path / "grid.svg").read_text())
    assert not (tmp_path / "-").exists()


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
    drawable = [key for key, m in spanned_lines(ps).entries.items()
                if m >= 3 and not (key[0] == 0 and key[1] == 0)]
    assert len(paths) == len(drawable)
    arrows = [e for e in root.iter(f"{ns}path")
              if e.get("class") == "direction-arrow"]
    assert len(arrows) == 3        # one infinity point per side


BIG = 10 ** 400


@pytest.mark.parametrize("entry", [{"x": str(BIG), "y": "0"},
                                   {"x": "1", "y": f"-{BIG}/3"},
                                   {"h": [str(BIG), "1", "0"]}])
@pytest.mark.parametrize("flags", [[], ["--mark-triple-lines"]])
def test_plot_refuses_a_point_beyond_float_range(tmp_path, capsys, entry,
                                                 flags):
    src, svg = tmp_path / "pts.json", tmp_path / "out.svg"
    src.write_text(json.dumps({"points": [{"x": "0", "y": "1"}, entry]}))
    assert run(["plot", "--in", str(src), "--out", str(svg)] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: point 1 ")
    assert not svg.exists()


@pytest.mark.parametrize("flags", [[], ["--mark-triple-lines"]])
def test_plot_refuses_a_bounding_box_beyond_float_range(tmp_path, capsys,
                                                        flags):
    # each point fits in floats, but the box's width 2 * 10**308 does not
    src, svg = tmp_path / "pts.json", tmp_path / "out.svg"
    big = str(10 ** 308)
    src.write_text(json.dumps({"points": [{"x": big, "y": "0"},
                                          {"x": "-" + big, "y": "0"},
                                          {"x": "0", "y": "1"}]}))
    assert run(["plot", "--in", str(src), "--out", str(svg)] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and "bounding box is beyond float range" in err
    assert not svg.exists()


def _triple_line_paths(svg):
    ns = "{http://www.w3.org/2000/svg}"
    return [e.get("d") for e in ET.fromstring(svg.read_text()).iter(f"{ns}path")
            if e.get("class") == "triple-line"]


def test_plot_marks_triple_lines_with_huge_coefficients(tmp_path, capsys):
    d = 10 ** 309
    e = d + 2
    # x d + y e = 1 meets the unit box only at its corner: no segment
    corner = [{"x": f"1/{d}", "y": "0"}, {"x": "0", "y": f"1/{e}"},
              {"x": f"1/{2 * d}", "y": f"1/{2 * e}"}, {"x": "1", "y": "1"}]
    # y = (1 + 1/d) x through three points: one segment across the box
    steep = [{"x": str(k), "y": f"{k * (d + 1)}/{d}"} for k in range(3)]
    # ... which runs corner to corner of the points' box
    diagonal = ["M 60.000 580.000 L 580.000 60.000"]
    for points, paths in ((corner, []),
                          (steep + [{"x": "0", "y": "1"}], diagonal)):
        src, svg = tmp_path / "pts.json", tmp_path / "out.svg"
        src.write_text(json.dumps({"points": points}))
        ps = pointset_from_doc(json.loads(src.read_text()))
        assert max(map(abs, next(iter(spanned_lines(ps).entries)))) > 2 ** 1024
        code, out = run_capture(capsys, ["plot", "--in", str(src), "--out",
                                         str(svg), "--mark-triple-lines"])
        assert code == 0 and out == ""
        assert _triple_line_paths(svg) == paths


def test_exit_codes(tmp_path, capsys):
    assert run(["count", "--in", str(tmp_path / "nope.json")]) == 2
    assert run(["bound", "--n", "1"]) == 2
    assert run(["bogus-subcommand"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["count", "--in", str(bad)]) == 2


@pytest.mark.parametrize("command", [["count"], ["directions"],
                                     ["fit-cubic"]])
def test_deeply_nested_points_file_is_bad_input(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert run(command + ["--in", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


TWO_POINTS = [{"x": "1", "y": "2"}, {"x": "3", "y": "4"}]


@pytest.mark.parametrize("extra", [["--k", "3"], ["--tripartite", "1,1,1"]])
def test_empty_labels_do_not_cover_the_points(tmp_path, capsys, extra):
    # "labels": [] is a label list, not "no labels": it misses both points
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": TWO_POINTS, "labels": []}))
    assert run(["count", "--in", str(f)] + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: PointSet: labels must cover all indices\n"


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


@pytest.mark.parametrize("argv", [
    ["tenpoint", "--curve", "cuspidal", "--base", "1,2", "--delta", "1"],
    ["tenpoint", "--curve", "cuspidal", "--base=1,-1,0", "--delta", "1/0"],
    ["cantilever", "--curve", "weierstrass:0,17", "--base=-2:3,-1:4",
     "--delta", "8:23", "--extend", "2"],
    # collinear points of the cusp y^2 = x^3, whose chord law is no group
    ["cantilever", "--curve", "weierstrass:0,0",
     "--base=1:1,1/4:1/8,1/9:-1/27", "--delta", "16:64", "--extend", "2"],
    ["conic", "--mode", "involution", "--external", "0,-1", "--x", "1/0"],
    ["conic", "--mode", "collinear", "--x", "1", "--y", "2"],
    ["conic", "--mode", "collinear", "--external", "0,-1"],
    ["conic", "--mode", "image-count", "--external", "0,-1"],
    ["conic", "--mode", "involution", "--external", "0,-1,2", "--x", "1"],
    ["conic", "--mode", "reps", "--externals", "0,1;1,2"],
    ["experiment", "--kind", "dichotomy", "--degree", "3", "--n", "0"],
    ["experiment", "--kind", "dichotomy", "--degree", "3", "--n", "-2"],
    ["group-check", "--config", "triangle", "--trials", "-1"],
    ["group-check", "--config", "parabola-inf", "--trials", "0"],
    ["group-check", "--config", "hyperbola-inf", "--trials", "0"],
])
def test_cli_arguments_rejected(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["count", "--in", "{grid}", "--workers", "0"],
    ["count", "--in", "{grid}", "--workers", "-3"],
    ["count", "--in", "{grid}", "--tripartite", ""],
    ["experiment", "--kind", "quadruple", "--degree", "3", "--n", "-1"],
    ["experiment", "--kind", "quadruple", "--degree", "3", "--n", "0"],
    ["experiment", "--kind", "directions", "--degree", "3", "--n", "0"],
])
def test_usage_error_leaves_stdout_empty(tmp_path, capsys, argv):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(pointset_to_doc(gen_grid(3))))
    assert run([str(grid) if a == "{grid}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("extra", [["--workers", "0"], ["--workers", "-3"],
                                   ["--k", "3"], ["--k", "4"], ["--exactly"]])
def test_tripartite_honours_or_rejects_count_flags(tmp_path, capsys, extra):
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(3))))
    argv = ["count", "--in", str(aps), "--tripartite", "1,2,3"]
    assert run_capture(capsys, argv) == (0, "5\n")
    assert run(argv + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("example", ["ngon", "grid", "triangle-ratios",
                                     "cubic-power", "parabola-ap"])
def test_dense_middle_is_refused_where_it_has_no_effect(capsys, example):
    # only the parallel-aps rows have a middle row to double; elsewhere
    # the switch was ignored, with exit 0
    argv = ["generate", "--example", example, "--n", "3"]
    assert run_capture(capsys, argv)[0] == 0
    assert run(argv + ["--dense-middle"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --dense-middle needs --example parallel-aps\n"
    aps = ["generate", "--example", "parallel-aps", "--n", "3"]
    assert run_capture(capsys, aps + ["--dense-middle"]) != \
        run_capture(capsys, aps)


def test_tripartite_runs_on_the_given_workers(tmp_path, capsys, monkeypatch):
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(12))))
    seen = []
    each_row = richlines._each_row
    monkeypatch.setattr(richlines, "_each_row", lambda row, rows, workers:
                        seen.append((row.func, rows, workers))
                        or each_row(row, rows, workers))
    argv = ["count", "--in", str(aps), "--tripartite", "1,2,3", "--workers"]
    # rows x1 + x3 = 2 * x2 of 0..11: 6 * 6 pairs (x1, x3) of each parity
    assert run_capture(capsys, argv + ["1"]) == (0, "72\n")
    assert run_capture(capsys, argv + ["2"]) == (0, "72\n")
    # the 12 rows of group 1 counted, by one process and then by two
    assert seen == [(richlines._tripartite_row, 12, 1),
                    (richlines._tripartite_row, 12, 2)]


class _NoPool(InlineContext):
    """A context whose pool cannot start, as fork fails at a process
    limit; no limit is touched."""

    def Pool(self, processes):
        raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("extra", [["--k", "3"], ["--tripartite", "1,2,3"]])
def test_a_pool_that_cannot_start_is_an_internal_error(tmp_path, capsys,
                                                       monkeypatch, extra):
    # the OSError from fork is not bad input: exit 3, naming the pool
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(3))))
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: _NoPool())
    monkeypatch.setattr(richlines, "_cores", lambda: 2)
    argv = ["count", "--in", str(aps), "--workers", "2"] + extra
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: RuntimeError: a pool of 2 worker "
                          "processes could not start: ")


@pytest.mark.parametrize("pattern", [
    " 1,2,3", "1;2;3", "a", "\u0661\u0662\u0663", "1,2", "1,2,3,1", "1,,2,3",
    ",123", "123,", "1,2,4", "1,2,3\n"])
def test_tripartite_pattern_is_parsed_strictly(tmp_path, capsys, pattern):
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(3))))
    assert run(["count", "--in", str(aps), "--tripartite", pattern]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --tripartite {pattern!r}: ")


def test_tripartite_pattern_commas_are_optional(tmp_path, capsys):
    ps = gen_parallel_aps(3)
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(ps)))
    for text, pattern in [("1,2,3", (1, 2, 3)), ("123", (1, 2, 3)),
                          ("3,21", (1, 2, 3)), ("1,12", (1, 1, 2))]:
        argv = ["count", "--in", str(aps), "--tripartite", text]
        assert run_capture(capsys, argv) == \
            (0, f"{tripartite_count(ps, pattern)}\n")


def test_count_k_defaults_to_3(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(pointset_to_doc(gen_grid(3))))
    argv = ["count", "--in", str(grid)]
    assert run_capture(capsys, argv) == run_capture(capsys, argv + ["--k", "3"])
    assert run_capture(capsys, argv + ["--exactly"]) == (0, "8\n")


# "", "0,0,1,2" and "١,2" were read as all points, a repeated point and
# points 1 and 2
@pytest.mark.parametrize("indices", ["-1,-2,-3", "0,1,5", "3", "",
                                     "0,0,1,2", "١,2"])
def test_fit_cubic_indices_out_of_range(tmp_path, capsys, indices):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": TWO_POINTS + [{"x": "5", "y": "7"}]}))
    assert run(["fit-cubic", "--in", str(f), f"--indices={indices}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("error", [KeyError, IndexError])
def test_lookup_errors_are_internal(monkeypatch, capsys, error):
    def broken(n):
        raise error("lost")

    monkeypatch.setattr(cli, "green_tao_bound", broken)
    assert run(["bound", "--n", "12"]) == 3
    assert capsys.readouterr().err.startswith(
        f"internal error: {error.__name__}: ")


@pytest.mark.parametrize("error", [TypeError, AttributeError,
                                   ZeroDivisionError, ArithmeticError])
def test_any_other_error_is_internal(monkeypatch, capsys, error):
    def broken(n):
        raise error("lost")

    monkeypatch.setattr(cli, "green_tao_bound", broken)
    assert run(["bound", "--n", "12"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"internal error: {error.__name__}: lost\n"


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("error, code", [(ValueError, 2), (KeyError, 3),
                                         (cli.InvariantViolation, 3)])
def test_a_message_that_cannot_be_written_keeps_the_code(monkeypatch, capsys,
                                                         error, code):
    # the handlers printed unguarded: the OSError of a full stderr left run
    def broken(n):
        raise error("lost")

    monkeypatch.setattr(cli, "green_tao_bound", broken)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    assert run(["bound", "--n", "12"]) == code
    assert capsys.readouterr().out == ""


def test_lazy_names_resolve_to_the_exports():
    import orchard
    for name in orchard.__all__:
        assert getattr(cli, name) is getattr(orchard, name)
    with pytest.raises(AttributeError):
        cli.no_such_name


CANTILEVER = ["cantilever", "--curve", "weierstrass:0,17",
              "--base=-2:3,-1:4,4:9", "--delta", "8:23", "--extend", "2"]


@pytest.mark.parametrize("name, argv", [
    ("_load_pointset", ["count", "--in", "{aps}"]),
    ("spanned_lines", ["count", "--in", "{aps}"]),
    ("k_rich_count", ["count", "--in", "{aps}"]),
    ("tripartite_count", ["count", "--in", "{aps}", "--tripartite", "123"]),
    ("build_tenpoint_weierstrass", CANTILEVER),
    ("extend_cantilever", CANTILEVER),
    ("verify_lattice", CANTILEVER),
])
def test_cli_calls_the_name_set_on_the_module(tmp_path, capsys, monkeypatch,
                                              name, argv):
    """A tracer wraps these names on orchard.cli; the wrapper must be the
    function that a call runs."""
    aps = tmp_path / "aps.json"
    aps.write_text(json.dumps(pointset_to_doc(gen_parallel_aps(3))))
    argv = [str(aps) if a == "{aps}" else a for a in argv]
    code, out = run_capture(capsys, argv)
    seen = []
    fn = getattr(cli, name)
    monkeypatch.setattr(cli, name,
                        lambda *a, **k: seen.append(1) or fn(*a, **k))
    assert run_capture(capsys, argv) == (code, out) and code == 0
    assert seen == [1]


TENPOINT = ["tenpoint", "--curve", "cuspidal", "--base=-1,0,1",
            "--delta", "1/10"]


def test_lattice_failure_names_witness(monkeypatch, capsys):
    build = cli.build_tenpoint_cuspidal

    def b3_replaced_by_b4(*args):
        cfg = build(*args)
        b1, b2, _, b4 = cfg.b_seq
        return replaced(cfg, b_seq=(b1, b2, b4, b4))

    monkeypatch.setattr(cli, "build_tenpoint_cuspidal", b3_replaced_by_b4)
    assert run(TENPOINT) == 3
    out, err = capsys.readouterr()
    assert err == ("invariant violation: ten-point lattice: "
                   "A2, B3, C2 collinear but 2 + 2 != 3\n")
    assert out == ""


CANTILEVER = ["cantilever", "--curve", "weierstrass:0,17",
              "--base=-2:3,-1:4,4:9", "--delta", "8:23", "--extend", "6"]


def test_weierstrass_lattice_failure_names_witness(monkeypatch, capsys):
    extend = cli.extend_cantilever
    big = []

    def b6_b7_swapped(cfg, m):
        can = extend(cfg, m)
        big.append(max(abs(c) for p in can.points() for c in p.h))
        b = list(can.b_seq)
        b[5], b[6] = b[6], b[5]
        return replaced(can, b_seq=tuple(b))

    monkeypatch.setattr(cli, "extend_cantilever", b6_b7_swapped)
    assert run(CANTILEVER) == 3
    assert big[0].bit_length() > richlines._BIG_BITS      # mod-p keys
    out, err = capsys.readouterr()
    assert err == ("invariant violation: ten-point lattice: "
                   "A0, B6, C7 collinear but 0 + 7 != 6\n")
    assert out == ""


def test_cantilever_checks_before_it_prints(monkeypatch, capsys):
    # the benchmark's cantilever, M = 30, with the law broken by a
    # swap: the check fails before a line of the lattice is printed
    extend = cli.extend_cantilever

    def c9_c10_swapped(cfg, m):
        can = extend(cfg, m)
        c = list(can.c_seq)
        c[9], c[10] = c[10], c[9]
        return replaced(can, c_seq=tuple(c))

    argv = CANTILEVER[:-1] + ["30"]
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 33 + 34 + 33
    monkeypatch.setattr(cli, "extend_cantilever", c9_c10_swapped)
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: ten-point lattice: A")
    assert "collinear but" in err


def test_tenpoint_membership_checked_before_printing(monkeypatch, capsys):
    # a projective map keeps every collinearity, so the index law holds,
    # but the mapped points leave y = x^3
    build = cli.build_tenpoint_cuspidal

    def move(seq):
        return tuple(ProjPoint((x, y, x + z))
                     for x, y, z in (p.h for p in seq))

    def moved(*args):
        cfg = build(*args)
        return replaced(cfg, a_seq=move(cfg.a_seq), b_seq=move(cfg.b_seq),
                        c_seq=move(cfg.c_seq))

    monkeypatch.setattr(cli, "build_tenpoint_cuspidal", moved)
    assert run(TENPOINT) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: curve membership: ")


def test_tenpoint_membership_refuses_the_cusp_at_infinity(monkeypatch,
                                                          capsys):
    # (0:1:0) lies on the cubic form of y = x^3 but has no parameter in
    # its additive law, so the curve refuses it; the lattice check is
    # set aside so that the membership pass is the one to see it
    build = cli.build_tenpoint_cuspidal

    def c0_at_the_cusp(*args):
        cfg = build(*args)
        return replaced(cfg, c_seq=(ProjPoint((0, 1, 0)), *cfg.c_seq[1:]))

    monkeypatch.setattr(cli, "build_tenpoint_cuspidal", c0_at_the_cusp)
    monkeypatch.setattr(cli, "verify_lattice", lambda obj: True)
    assert run(TENPOINT) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("invariant violation: curve membership: "
                   "ProjPoint(0, 1, 0) left the curve\n")


def test_cantilever_past_the_int_string_digit_limit(capsys):
    # its largest coordinate has 4,351 digits and a sign, past CPython's
    # default limit of 4,300 on int <-> str conversions; the call lifts
    # the limit for itself and restores it after
    limit = sys.get_int_max_str_digits()
    assert run(CANTILEVER[:-1] + ["56"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and sys.get_int_max_str_digits() == limit
    lines = out.splitlines()
    assert len(lines) == 1 + 59 + 60 + 59 and lines[-1].startswith("C58,")
    assert max(len(c.lstrip("-")) for line in lines[1:]
               for c in line.split(",")[1:]) == 4351


def test_points_file_with_a_4400_digit_coordinate(tmp_path, capsys):
    # three points on the vertical line x = 10**4399 and the origin;
    # the string is built without an int -> str conversion
    big = "1" + "0" * 4399
    doc = {"points": [{"x": big, "y": str(y)} for y in range(3)]
           + [{"x": "0", "y": "0"}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["count", "--in", str(path), "--k", "3"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_an_error_while_the_table_is_formatted_leaves_stdout_empty(
        monkeypatch, capsys):
    # the last point of the table cannot be formatted: the rows before
    # it are not written either
    class Unformatted:
        @property
        def h(self):
            raise ValueError("a point that cannot be formatted")

    lattice_points = Cantilever.lattice_points

    def one_more_c(cfg):
        amap, bmap, cmap = lattice_points(cfg)
        return amap, bmap, {**cmap, max(cmap) + 1: Unformatted()}

    monkeypatch.setattr(Cantilever, "lattice_points", one_more_c)
    monkeypatch.setattr(cli, "verify_lattice", lambda obj: True)
    assert run(TENPOINT) == 2
    assert capsys.readouterr() == (
        "", "error: a point that cannot be formatted\n")


def test_group_check_failure_names_witness(monkeypatch, capsys):
    desc = descriptions.cuspidal_description()

    def shifted_at_one(i, p):
        return desc.value(i, p) + (1 if p == mk_point(1, 1) else 0)

    # group-check takes its description from group_check_cases
    shifted = GroupDescription(desc.kind, desc.operation, desc.assign,
                               shifted_at_one)
    monkeypatch.setattr(descriptions, "cuspidal_description", lambda: shifted)
    assert run(["group-check", "--config", "example4", "--n", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "example4 n=4 exhaustive: FAIL\n"
    assert err.startswith("invariant violation: group description example4 "
                          "failed: point ")
    assert " collinear but " in err


def _scaled_on_piece(desc, piece, factor):
    """desc with its piece values multiplied by factor (additive:
    shifted by it) on one piece."""
    def value(i, p):
        v = desc.value(i, p)
        if i != piece:
            return v
        return v + factor if desc.operation == "additive" else v * factor

    return GroupDescription(desc.kind, desc.operation, desc.assign, value)


@pytest.mark.parametrize("config, factory", [
    ("triangle", "triangle_description"),
    ("parabola-inf", "parabola_infinity_description"),
    ("hyperbola-inf", "hyperbola_infinity_description"),
])
def test_sampled_group_check_failure_names_witness(monkeypatch, capsys,
                                                   config, factory):
    build = getattr(descriptions, factory)
    monkeypatch.setattr(descriptions, factory,
                        lambda *a: _scaled_on_piece(build(*a), 3, 2))
    found = []
    judge = cli.description_witness

    def recording(ps, desc):
        w = judge(ps, desc)
        if w is not None:
            found.append(w)
        return w

    monkeypatch.setattr(cli, "description_witness", recording)
    assert run(["group-check", "--config", config, "--trials", "40"]) == 3
    out, err = capsys.readouterr()
    assert out == f"{config} 40 trials: FAIL ({len(found)} failures)\n"
    assert err == (f"invariant violation: group description {config} "
                   f"failed: {found[0]}\n")
    for w in found:
        v1, v2, v3 = w.values
        law = (v1 + v2 + v3 == 0 if w.operation == "additive"
               else v1 * v2 * v3 == 1)
        assert w.collinear == collinear(*w.points) != law


TOKENS = ["0", "1", "-1", "3", "1/2", "-1/2", "1/10", "1/0", "-2:3",
          "-1:4", "4:9", "8:23", "1/0:2", "x"]
# curve -> (valid bases, valid steps), so that some draws succeed
VALID = {"cuspidal": (["-1,0,1", "1,2,-3"], ["1/10", "3", "1/7"]),
         "weierstrass:0,17": (["-2:3,-1:4,4:9", "4:9,-1:4,-2:3"],
                              ["8:23", "2:5"])}


@st.composite
def tenpoint_argv(draw):
    curve = draw(st.sampled_from(list(VALID)) | st.sampled_from(
        ["weierstrass:1/0,1", "weierstrass:0", "bogus"]))
    bases, steps = VALID.get(curve, VALID["cuspidal"])
    base = draw(st.sampled_from(bases)
                | st.lists(st.sampled_from(TOKENS), max_size=4).map(",".join))
    delta = draw(st.sampled_from(steps) | st.sampled_from(TOKENS))
    argv = [draw(st.sampled_from(["tenpoint", "cantilever"])),
            "--curve", curve, f"--base={base}", f"--delta={delta}"]
    extend = draw(st.sampled_from([None, 0, 1, 2, 3]))
    return argv if extend is None else argv + ["--extend", str(extend)]


@settings(max_examples=100, deadline=None)
@given(tenpoint_argv())
def test_tenpoint_exit_code_contract(argv):
    assert run(argv) in (0, 2, 3)


SCALARS = (st.integers(-3, 3) | st.booleans() | st.none()
           | st.floats(-2, 2, width=16)
           | st.sampled_from(["1/2", "-3", "0", "1/0", "x", "", "4/6"]))
COORDS = SCALARS | st.lists(SCALARS, max_size=3)
RATIONALS = st.integers(-9, 9) | st.sampled_from(["1/2", "-3", "4/6", "7"])
GOOD_ENTRIES = (st.fixed_dictionaries({"x": RATIONALS, "y": RATIONALS})
                | st.fixed_dictionaries({"h": st.lists(st.integers(-2, 2),
                                                       min_size=3,
                                                       max_size=3)}))
BAD_ENTRIES = (st.fixed_dictionaries({"x": COORDS, "y": COORDS})
               | st.fixed_dictionaries({"h": COORDS}) | COORDS)
BAD_LABELS = (st.lists(st.integers(0, 4) | st.booleans() | st.just("1"),
                       max_size=6) | st.just("12") | st.just(3))


@st.composite
def points_docs(draw):
    """Mostly well-formed points documents; some have one bad entry or
    bad labels, and a few are not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(COORDS)
    points = draw(st.lists(GOOD_ENTRIES, min_size=2, max_size=6))
    flaw = draw(st.sampled_from(["none", "entry", "labels"]))
    if flaw == "entry":
        points.insert(draw(st.integers(0, len(points))), draw(BAD_ENTRIES))
    doc = {"points": points}
    if flaw == "labels":
        doc["labels"] = draw(BAD_LABELS)
    elif draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.integers(1, 3), min_size=len(points),
                                      max_size=len(points)))
    return doc


@settings(max_examples=100, deadline=None)
@given(points_docs(), st.sampled_from([["count"], ["directions"],
                                     ["count", "--tripartite", "1,2,3"]]))
def test_points_file_exit_code_contract(tmp_path_factory, doc, command):
    f = tmp_path_factory.getbasetemp() / "fuzz_points.json"
    f.write_text(json.dumps(doc))
    assert run(command + ["--in", str(f)]) in (0, 2, 3)


def _fraction_or_error(token):
    try:
        return F(token)
    except (ValueError, ZeroDivisionError):
        return ValueError


def _rational_or_error(token):
    try:
        return _fraction(token)
    except ValueError:
        return ValueError


INT_RATIO_TOKENS = st.builds(
    lambda sign, p, q: sign + p + q,
    st.sampled_from(["", "-"]), st.from_regex(r"[0-9]{1,30}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"/[0-9]{1,30}", fullmatch=True)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(INT_RATIO_TOKENS, st.text(max_size=8),
                 st.sampled_from(["+3", " 3/4", "3/ 4", "1_0", "٣",
                                  "-0/5", "1.5", "1e3", "1/0", "",
                                  "3/4\n", "-", "/4", "3/", "1" * 5000])))
def test_rational_agrees_with_fraction(token):
    expected = _fraction_or_error(token)
    assert _rational_or_error(token) == expected
    if expected is not ValueError:
        assert type(_fraction(token)) is F


def _point_or_error(x, y):
    """mk_point(Fraction(x), Fraction(y)), or (ValueError, the message
    that the points-file reader gives for the first bad coordinate)."""
    for v in (x, y):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            return ValueError, (f"coordinate {v!r} must be an integer or a "
                                f"string such as \"-3/4\"")
        try:
            F(v)
        except ZeroDivisionError:
            return ValueError, f"{v!r} has a zero denominator"
        except ValueError as e:
            return ValueError, str(e)
    return mk_point(F(x), F(y))


def _read_point_or_error(x, y):
    try:
        return pointset_from_doc({"points": [{"x": x, "y": y}]}).points[0]
    except ValueError as e:
        return ValueError, str(e)


SIGNED_RATIOS = st.builds(
    lambda sign, p, q: sign + p + q,
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"0{0,3}[0-9]{1,20}", fullmatch=True),
    st.one_of(st.just(""), st.sampled_from(["/0", "/000"]),
              st.from_regex(r"/0{0,3}[0-9]{1,20}", fullmatch=True)))
COORD_TOKENS = st.one_of(SIGNED_RATIOS, st.sampled_from(
    ["+3", " 3/4", "1_0", "\u0663", "-5/-3", "-0", "1" * 5000,
     "1" * 5000 + "/0"]))
JSON_NUMBERS = st.one_of(st.integers(), st.booleans(), st.floats())


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(COORD_TOKENS, COORD_TOKENS),
                 st.tuples(JSON_NUMBERS, COORD_TOKENS),
                 st.tuples(COORD_TOKENS, JSON_NUMBERS)))
def test_affine_entry_agrees_with_fraction(xy):
    # the reader builds a point from two p/q tokens with no Fraction
    assert _read_point_or_error(*xy) == _point_or_error(*xy)


# --- every subcommand, argv built from the argparse parser's actions -----------

def _options():
    """subcommand -> its options other than -h, read from the argparse
    parser that the command table replaced (oracles.build_parser)."""
    sub = next(a for a in argparse_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


OPTIONS = _options()
SMALL_INTS = st.integers(-2, 6).map(str)
RATIOS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(0, 4))
JUNK = st.sampled_from([
    "", "-", "x", "1/0", "0/0", "1e3", "nan", "1,,2", ",", ":", ";", "١",
    "1:2", "1,2", "-1,0,1", "1,2,-3", "3,1,2", "0,1;1,2;2,3", "1,2;3,4",
    "-2:3,-1:4,4:9", "8:23", "cuspidal", "weierstrass:0,17",
    "weierstrass:1/0,1", "weierstrass:0"])
VALUES = (SMALL_INTS | RATIOS | JUNK
          | st.lists(SMALL_INTS | RATIOS, min_size=1, max_size=4)
          .map(",".join))
# well-formed values of the string options, so that some draws get past
# parsing
GOOD = {"curve": ["cuspidal", "weierstrass:0,17"],
        "base": ["-1,0,1", "1,2,-3", "-2:3,-1:4,4:9"],
        "delta": ["1/10", "3", "8:23", "2:5"],
        "external": ["0,-1", "1,0", "1,1"], "externals": ["0,1;1,2;2,3"],
        "x": ["2", "1/2"], "y": ["1/2", "3"], "xs": ["2,1/2,3,1/3"],
        "tripartite": ["1,2,3", "112"], "indices": ["0,1,2", "8,0"]}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Points files (labelled, unlabelled, broken, missing, a folder) for
    --in, and an output file and a folder for --out."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {"aps.json": json.dumps(pointset_to_doc(gen_parallel_aps(3))),
             "grid.json": json.dumps(pointset_to_doc(gen_grid(3))),
             "two.json": json.dumps({"points": TWO_POINTS}),
             "list.json": "[1, 2]", "broken.json": "{not json"}
    for name, text in files.items():
        (d / name).write_text(text)
    return {"infile": [str(d / n) for n in [*files, "missing.json"]]
            + [str(d), ""], "out": [str(d / "out.txt"), str(d)]}


@st.composite
def cli_argv(draw, files):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for action in draw(st.permutations(OPTIONS[command])):
        # a required option is left out about one time in four; the one
        # size without a cap of its own is always given
        keep = draw(st.booleans()) or (action.required
                                       and draw(st.booleans()))
        if not keep and action.dest != "trials":
            continue
        option = draw(st.sampled_from(action.option_strings))
        if action.nargs == 0:
            argv.append(option)
            continue
        if action.dest in files:
            value = draw(st.sampled_from(files[action.dest]))
        elif draw(st.booleans()):
            value = draw(VALUES)
        elif action.choices:
            value = draw(st.sampled_from(action.choices))
        elif action.type is int:
            value = draw(SMALL_INTS)
        else:
            value = draw(st.sampled_from(GOOD.get(action.dest, ["0"])))
        if draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    return argv


GROUP_CHECK_FAIL = re.compile(r"[^\n]*: FAIL[^\n]*\n")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_code_contract(fuzz_files, data):
    """Exit 0, 2 or 3 and no traceback on any argv; stdout empty unless
    the call succeeds, but for group-check's documented FAIL line.  A
    multi-worker count starts no process (InlineContext)."""
    argv = data.draw(cli_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiprocessing, "get_context",
                   lambda method: InlineContext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code != 0 and out.getvalue():
        assert argv[0] == "group-check" and code == 3, argv
        assert GROUP_CHECK_FAIL.fullmatch(out.getvalue()), argv


# --- the command table's parser against argparse -------------------------------

def _parsed(parser, argv):
    """The attributes that parser reads from argv, but cli, or the code
    of the SystemExit that it raises (--help, a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code
    assert args.pop("cli") is cli
    return args


# tokens that argparse reads by its own rules: the "--" separator, help
# and its short form repeated or with an inline value, values that start
# with "-", unknown options and a stray word
ODD_TOKENS = st.sampled_from([
    "--", "-", "", "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=",
    "--help=", "--h=1", "--=x", "-1", "-1.5", "-.5", "-١", "-2:3", "- x",
    "-x y", "-x", "--bogus", "--bogus=1", "stray"])


@st.composite
def prefixed_argv(draw, files):
    """An argv of cli_argv with some flags cut to a prefix, unique or
    ambiguous, as --name or --name=value, and odd tokens put in."""
    argv = draw(cli_argv(files))
    for i, token in enumerate(argv):
        if i and token.startswith("--") and draw(st.booleans()):
            name, eq, value = token.partition("=")
            argv[i] = name[:draw(st.integers(3, len(name)))] + eq + value
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(ODD_TOKENS))
    return argv


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_table_parser_agrees_with_argparse(fuzz_files, data):
    argv = data.draw(cli_argv(fuzz_files) | prefixed_argv(fuzz_files))
    assert _parsed(cli.build_parser(), argv) == _parsed(argparse_parser(),
                                                        argv), argv


CORNER_CASES = [
    [], ["--help"], ["-h"], ["--he"], ["-hh"], ["-hx"], ["-h="], ["--help="],
    ["--"], ["--", "bound", "--n", "3"], ["bogus"], ["--bogus", "bound"],
    ["--bogus", "bound", "--help"], ["bound", "--n", "3", "--", "x"],
    ["bound", "--n=3"], ["bound", "--n", "3", "--n", "4"], ["bound", "--n"],
    ["bound", "--n", "x"], ["bound", "--n", "-3"], ["bound", "--n=-3"],
    ["bound", "--n", "٣"], ["bound", "--n", " 3 "], ["bound", "stray"],
    ["bound", "--he", "--n", "x"], ["bound", "--n", "x", "--help"],
    ["bound", "--n", "3", "--bogus"], ["bound", "--n", "3", "-h=h"],
    ["fit-cubic", "--i", "x"], ["fit-cubic", "--in", "x", "--ind", "1"],
    ["fit-cubic", "--in=", "--indices="], ["count", "--in", "x", "--e"],
    ["count", "--in", "x", "--exactly=1"], ["count", "--in", "x", "--w", "2"],
    ["conic", "--mode", "reps", "--ex", "1"],
    ["conic", "--mode", "reps", "--x", "-1", "--y", "-.5", "--xs", "- 1"],
    ["conic", "--mode", "reps", "--x", "-1/2"],
    ["conic", "--mod", "bogus"], ["conic", "--mode", "rep"],
    ["cantilever", "--curve", "weierstrass:0,17", "--base=-2:3,-1:4,4:9",
     "--delta", "8:23", "--extend", "30"],
    ["cantilever", "--curve", "weierstrass:0,17", "--base", "-2:3,-1:4,4:9",
     "--delta", "8:23", "--extend", "30"],
    ["tenpoint", "--curve", "cuspidal", "--base", "-1,0,1", "--delta", "1"],
    ["group-check", "--config", "triangle"],
    ["generate", "--example", "grid", "--n", "3", "--dense", "--out", "-"],
    ["generate", "--example", "grid", "--n", "3", "--out", "-"],
    ["bound", "--n", "-"],
]


@pytest.mark.parametrize("argv", CORNER_CASES)
def test_the_table_parser_agrees_on_argparse_corner_cases(argv):
    assert _parsed(cli.build_parser(), argv) == _parsed(argparse_parser(),
                                                        argv)


def test_help_lists_the_table(capsys, monkeypatch):
    # argparse's layout, matched on whitespace-normalised output, so that
    # where it wraps a line does not matter
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("usage: orchard ")
    for name, spec in cli._COMMANDS.items():
        assert f" {name} {spec['help']} " in out, name
        assert run([name, "-h"]) == 0
        raw = capsys.readouterr().out
        out_command = " ".join(raw.split())
        assert out_command.startswith(f"usage: orchard {name} [-h] ")
        assert f" {spec['help']} " in out_command, name
        for flag, _, default, _, text in spec["options"]:
            assert re.search(rf"^  {flag}\b", raw, re.M), flag
            assert text % {"default": default} in out_command, flag


def _assert_refused_as_argparse_refuses(argv) -> str:
    """run(argv) exits 2 with empty stdout and the stderr, byte for byte,
    of the argparse parser that the command table replaced
    (oracles.build_parser); that stderr is returned."""
    out, err, expected = io.StringIO(), io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(expected), \
            pytest.raises(SystemExit) as exc:
        argparse_parser().parse_args(argv)
    assert code == exc.value.code == 2 and out.getvalue() == "", argv
    assert err.getvalue() == expected.getvalue(), argv
    return err.getvalue()


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["bound"], "the following arguments are required: --n"),
    (["bound", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["fit-cubic", "--i", "x"],
     "ambiguous option: --i could match --in, --indices"),
    (["bound", "--n", "3", "--x"], "unrecognized arguments: --x"),
])
def test_a_usage_error_prints_usage_and_one_error_line(argv, message):
    err = _assert_refused_as_argparse_refuses(argv)
    assert err.startswith("usage: orchard ")
    assert re.match(rf"orchard( [\w-]+)?: error: {re.escape(message)}",
                    err.splitlines()[-1])


@pytest.mark.parametrize("argv", [argv for argv in CORNER_CASES
                                  if _parsed(argparse_parser(), argv) == 2])
def test_a_refused_corner_case_prints_what_argparse_prints(argv):
    _assert_refused_as_argparse_refuses(argv)
