"""Each script under scripts/ starts and prints its usage.

A script imports library names that no other test reaches, so a
renamed name would otherwise break it silently.  Only --help runs,
the census at a small size, the kernel crossover at one bit size and
the set-up split of one small call: no benchmark, no worker pool.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


def _run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script):
    assert _run_script(script, "--help").startswith("usage: ")


def test_census_classifies_each_family_cubic():
    """Three progressions and the triangle ratios lie on three lines, the
    points of y = x^3 on a cubic with no rich-line factor; the n-gon
    family is not a point set."""
    header, *rows = _run_script(ROOT / "scripts" / "census_configs.py",
                                "--n", "8").splitlines()
    assert header.split(",")[-1] == "cubic"
    assert [row.split(",")[0::6] for row in rows] == [
        ["three-progressions", "three-lines"],
        ["triangle-ratios", "three-lines"],
        ["ngon-directions", "-"],
        ["cubic-power", "no-candidate-factor"]]



def test_kernel_crossover_smoke():
    """Both kernels read the whole line stream and agree on it, and on
    the tripartite count of the rich input."""
    out = _run_script(ROOT / "scripts" / "kernel_crossover.py",
                      "--bits", "32", "--reps", "1").splitlines()
    assert out[0] == "bits,input,count,slope_s,mod_p_s,slope_over_mod_p"
    assert [row.split(",")[:3] for row in out[1:]] == [
        ["32", "random", "lines"], ["32", "rich", "lines"],
        ["32", "rich", "tripartite"]]


def test_kernel_crossover_against_a_second_checkout():
    """This checkout timed against itself, loaded a second time under
    another package name: each row adds the second tree's medians and
    the reps per kernel that this tree won."""
    out = _run_script(ROOT / "scripts" / "kernel_crossover.py", "--bits",
                      "32", "--reps", "2", "--against", str(ROOT))
    rows = [row.split(",") for row in out.splitlines()]
    assert rows[0] == ["bits", "input", "count", "slope_s", "mod_p_s",
                       "slope_over_mod_p", "against_slope_s",
                       "against_mod_p_s", "slope_wins", "mod_p_wins"]
    assert [row[:3] for row in rows[1:]] == [
        ["32", "random", "lines"], ["32", "rich", "lines"],
        ["32", "rich", "tripartite"]]
    assert all(0 <= int(w) <= 2 for row in rows[1:] for w in row[8:])


def test_setup_split_prints_every_layer(tmp_path):
    """Two reps of `bound --n 10` on a clean copy of the tree, against
    itself: every layer is printed and written, and no bytecode cache
    appears under src/.  No time is checked."""
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "orchard", tree / "src" / "orchard",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "setup_split.py", tree / "scripts")
    out = _run_script(tree / "scripts" / "setup_split.py", "--reps", "2",
                      "--against", str(tree), "--json",
                      str(tmp_path / "split.json"), "--", "bound", "--n",
                      "10").splitlines()
    assert out[0].split() == ["layer", "(ms,", "median)", "this", "against",
                              "change", "wins"]
    layers = [line[:28].strip() for line in out[1:]]
    modules = layers[2:layers.index("other modules")]
    assert layers == ["bare interpreter", "imports", *modules,
                      "other modules", "compilation", "argument parsing",
                      "points-file read", "whole call"]
    assert modules and all(m.startswith("orchard") for m in modules)
    written = json.loads((tmp_path / "split.json").read_text())
    assert [name.strip() for name in written["layers_ms"]] == layers
    assert written["argv"] == ["bound", "--n", "10"]
    assert not list((tree / "src").glob("**/__pycache__"))


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("spec, seeds", [("1-3,7", [1, 2, 3, 7]),
                                         ("5", [5]), ("2-2,4-5", [2, 4, 5])])
def test_seed_list_reads_ranges(spec, seeds):
    assert _load_script("bench_record").seed_list(spec) == seeds


@pytest.mark.parametrize("spec, message", [
    ("3-1", "empty range"), ("1,1", "seed twice"), ("1-3,2", "seed twice"),
    ("", "not N or N-M"), ("1,,2", "not N or N-M"), ("a", "not N or N-M"),
    ("-1", "not N or N-M")])
def test_seed_list_refuses_bad_specs(spec, message):
    with pytest.raises(SystemExit, match=message):
        _load_script("bench_record").seed_list(spec)
