"""What an import of orchard loads, and what the package exports.

The CLI imports each submodule on first use, so a subcommand runs in a
fresh interpreter here: under pytest every module is already loaded,
which would hide a name missing from the CLI's table of lazy names.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orchard
import orchard.cli as cli
from orchard import gen_parallel_aps, richlines

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs `python -m orchard.cli <argv>` and prints, as the last line of
# stderr, the orchard modules and the standard modules of STDLIB that
# the call loaded (orchard.cli itself runs as __main__): cli.main ends
# the process with os._exit, which the child wraps to print them first.
STDLIB = ("multiprocessing", "dataclasses", "inspect", "json", "fractions",
          "decimal", "argparse", "gettext", "locale")
CHILD = f"""
import os, runpy, sys

def _exit(code, exit=os._exit):
    print(*sorted(m for m in sys.modules
                  if m in {STDLIB!r} or m.startswith("orchard")),
          file=sys.stderr, flush=True)
    exit(code)

os._exit = _exit
runpy.run_module("orchard.cli", run_name="__main__", alter_sys=True)
"""

# (argv, modules loaded besides orchard, orchard.exact and
# orchard.richlines, which the CLI imports at its top, and the most
# source lines that the orchard modules it loads, the CLI's own
# included, may hold); {in} and
# {out} are a tiny labelled points file and an output path.  A change
# that adds code to a call's modules raises its ceiling in the same
# diff.  json is loaded only where a points file is read or written,
# the cubic fitting only by fit-cubic and the group descriptions only
# by group-check: a tenpoint or cantilever call compiles none of them.
# The point and line classes of orchard.projective only where a point
# is built: no count, directions or bound call loads them, nor the
# mod-_P kernel of orchard.modp, which only coordinates above
# richlines._BIG_BITS bits load (a cantilever's).  The commands other
# than count, directions, bound, tenpoint and cantilever live in
# orchard.commands, and fractions (which loads decimal) only where a
# Fraction is built: no count, directions or bound call loads either.
# No call loads argparse, gettext or locale for its arguments.
FRACTIONS = {"fractions", "decimal"}
# the pool has at most one process a core (richlines._cores, which the
# child shares): on one core a --workers 2 call reads its rows serially
# and loads no multiprocessing, whose pool loads locale, through
# subprocess
POOL = {"multiprocessing", "locale"} if richlines._cores() > 1 else set()
SUBCOMMANDS = {
    "generate": (["generate", "--example", "grid", "--n", "3"],
                 {"commands", "generators", "json", "projective",
                  *FRACTIONS}, 1507),
    # "-", stdout, is read as a value, not left to argparse
    "generate-stdout": (["generate", "--example", "grid", "--n", "3",
                         "--out", "-"],
                        {"commands", "generators", "json", "projective",
                         *FRACTIONS}, 1507),
    "count": (["count", "--in", "{in}", "--k", "3"], {"json"}, 1020),
    "count-tripartite": (["count", "--in", "{in}", "--tripartite", "1,2,3"],
                         {"json"}, 1020),
    "count-workers": (["count", "--in", "{in}", "--workers", "2"],
                      {"json", *POOL}, 1020),
    "directions": (["directions", "--in", "{in}"], {"json"}, 1020),
    "bound": (["bound", "--n", "10"], set(), 1020),
    "fit-cubic": (["fit-cubic", "--in", "{in}"],
                  {"commands", "cubics", "fitting", "json", "projective",
                   *FRACTIONS}, 1554),
    "group-check": (["group-check", "--config", "example1", "--n", "3"],
                    {"commands", "cubics", "descriptions", "generators",
                     "grouplaw", "projective", *FRACTIONS}, 2079),
    "tenpoint": (["tenpoint", "--curve", "cuspidal", "--base=-1,0,1",
                  "--delta", "1/10"],
                 {"cubics", "grouplaw", "projective", "tenpoint",
                  *FRACTIONS}, 1682),
    "cantilever": (["cantilever", "--curve", "weierstrass:0,17",
                    "--base=-2:3,-1:4,4:9", "--delta", "8:23",
                    "--extend", "3"],
                   {"cubics", "grouplaw", "modp", "projective", "tenpoint",
                    *FRACTIONS}, 1770),
    "conic": (["conic", "--mode", "involution", "--external", "1,2",
               "--x", "3"], {"commands", "conic", *FRACTIONS}, 1304),
    "experiment": (["experiment", "--kind", "quadruple", "--degree", "3",
                    "--n", "3"], {"commands", "curves", "projective",
                                  *FRACTIONS}, 1483),
    "experiment-dichotomy": (["experiment", "--kind", "dichotomy",
                              "--degree", "3", "--n", "3"],
                             {"commands", "curves", "projective",
                              *FRACTIONS}, 1483),
    "experiment-directions": (["experiment", "--kind", "directions",
                               "--degree", "3", "--n", "3"],
                              {"commands", "curves", "projective",
                               *FRACTIONS}, 1483),
    "plot": (["plot", "--in", "{in}", "--out", "{out}",
              "--mark-triple-lines"],
             {"commands", "json", "projective", "svg", *FRACTIONS}, 1506),
}


def _source_lines(module: str) -> int:
    """The lines of the source file of an orchard module."""
    parts = module.split(".")[1:] or ["__init__"]
    return len((SRC / "orchard" / f"{parts[0]}.py").read_text(
        encoding="utf-8").splitlines())


@pytest.fixture(scope="module")
def points_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("points") / "in.json"
    path.write_text(json.dumps(cli.pointset_to_doc(gen_parallel_aps(3))),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("case", list(SUBCOMMANDS))
def test_subcommand_in_fresh_interpreter(case, points_file, tmp_path,
                                         capsys):
    template, extra, ceiling = SUBCOMMANDS[case]

    def argv(out):
        return [a.format(**{"in": points_file, "out": out})
                for a in template]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD]
                           + argv(tmp_path / "child.svg"),
                           env=env, capture_output=True, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr
    # no call loads dataclasses, nor the inspect module that it imports:
    # orchard's value classes are plain, and both cost set-up time
    loaded = set(child.stderr.splitlines()[-1].split())
    assert loaded == ({"orchard", "orchard.exact", "orchard.richlines"}
                      | {m if m in STDLIB else f"orchard.{m}"
                         for m in extra})
    # orchard.cli, which runs as __main__, and each orchard module loaded
    assert sum(_source_lines(m) for m in {"orchard.cli", *loaded}
               if m.startswith("orchard")) <= ceiling

    assert cli.run(argv(tmp_path / "run.svg")) == 0
    assert child.stdout == capsys.readouterr().out
    if case == "plot":
        assert ((tmp_path / "child.svg").read_bytes()
                == (tmp_path / "run.svg").read_bytes())


# every name the package exports
EXPORTS = {
    "projective": "DegenerateError ProjLine ProjPoint collinear "
                  "direction_point incident join meet mk_point "
                  "point_from_rationals signed_ratio",
    "richlines": "InvariantViolation PointSet RichLineTable direction_count "
                 "green_tao_bound k_rich_count spanned_lines "
                 "triple_line_count tripartite_count",
    "generators": "NgonConfig gen_cubic_power gen_grid gen_ngon_directions "
                  "gen_parabola_ap gen_parallel_aps gen_triangle_ratios "
                  "parallel_aps_closed_form ratio_point triangle_ratio_set",
    "cubics": "CubicForm cuspidal_form weierstrass_form",
    "fitting": "classify_with_candidates fit_cubics",
    "grouplaw": "CuspidalCubic GroupElement LawWitness WeierstrassCurve "
                "WEIERSTRASS_IDENTITY cuspidal_third",
    "descriptions": "GroupDescription conic_line_params cuspidal_description "
                    "description_witness hyperbola_infinity_description "
                    "menelaus_params parabola_infinity_description "
                    "parallel_lines_description triangle_description "
                    "verify_group_description",
    "tenpoint": "Cantilever build_tenpoint_cuspidal "
                "build_tenpoint_weierstrass extend_cantilever "
                "lattice_witness nine_point_check verify_lattice",
    "halving": "ConvergenceError SampledArc halve_parameter_demo "
               "parallel_lines_arcs standard_system_ok "
               "three_lines_multiplicative_arcs",
    "conic": "ExternalPoint image_count involution_value "
             "parabola_collinear reps_collinear",
    "curves": "CurveSpec dichotomy_experiment few_directions_experiment "
              "graph_power quadruple_experiment",
}


def test_package_exports():
    names = []
    for module, exported in EXPORTS.items():
        owner = importlib.import_module(f"orchard.{module}")
        for name in exported.split():
            names.append(name)
            scope: dict = {}
            exec(f"from orchard import {name}", scope)
            assert getattr(orchard, name) is getattr(owner, name), name
            assert scope[name] is getattr(owner, name), name
    assert sorted(orchard.__all__) == sorted(names)
    assert set(names) <= set(dir(orchard))
    assert orchard.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        orchard.no_such_name
    with pytest.raises(ImportError):
        exec("from orchard import no_such_name", {})


def _bound(fn) -> set[str]:
    """The names that a function or lambda binds: its parameters and
    the targets it stores to, outside the functions nested in it."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _reads(path: Path) -> dict:
    """The names that the file reads, by the top-level definition that
    reads them (None for module-level code), outside the definition of
    the name itself: a bare name that no enclosing function binds, an
    attribute of a name bound to the package, the CLI or a submodule
    (orchard.x, _cli.x, richlines.x, ...), or a command that the parser
    names as a string (set_defaults(func="x")) for run to look up on the
    CLI."""
    owners = {"orchard", "cli", "_cli", *set(orchard._EXPORTS.values())}
    reads: dict = {}

    def visit(node, top, inside, local):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top = node.name if top is None else top
            inside = inside | {node.name}
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | _bound(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = None if node.id in local else node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in owners):
            name = node.attr
        elif (isinstance(node, ast.keyword) and node.arg == "func"
              and isinstance(node.value, ast.Constant)
              and isinstance(node.value.value, str)):
            name = node.value.value
        else:
            name = None
        if name is not None and name not in inside:
            reads.setdefault(top, set()).add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, top, inside, local)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, frozenset(),
          frozenset())
    return reads


def _reached(library: list[Path], readers: list[Path]) -> set[str]:
    """The names that a reader file reads anywhere, or that a library
    file reads in module-level code or in main, run or build_parser,
    and, to a fixpoint, the names that a top-level library definition
    reads once its own name is reached."""
    todo: set = set()
    for path in readers:
        todo.update(*_reads(path).values())
    defs: dict = {}
    for path in library:
        for top, names in _reads(path).items():
            if top in (None, "main", "run", "build_parser"):
                todo |= names
            else:
                defs.setdefault(top, set()).update(names)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= defs.get(name, set())
    return reached


def test_reads_skip_the_names_a_function_binds(tmp_path):
    # a parameter or a local named like an export hides it; the
    # module's own name, an attribute read and a later function do not
    snippet = tmp_path / "snippet.py"
    snippet.write_text(
        "def cases(gen_grid, *, k=spanned_lines):\n"
        "    tripartite_count = gen_grid + k\n"
        "    return tripartite_count, orchard.gen_cubic_power\n"
        "shadow = lambda line_members: line_members\n"
        "def later():\n"
        "    return tripartite_count, line_members\n"
        "def build_parser(p):\n"
        "    p.set_defaults(func='cmd_conic', help='image_count')\n")
    reads = set().union(*_reads(snippet).values())
    assert {"gen_grid", "k", "image_count"}.isdisjoint(reads)
    assert {"spanned_lines", "gen_cubic_power", "tripartite_count",
            "line_members", "cmd_conic"} <= reads


def test_reached_skips_what_only_an_unread_definition_reads(tmp_path):
    # module-level code, run and a reader file reach names, and so do
    # the definitions they reach (a class with its methods); a name that
    # only an unread function reads is not reached
    library = tmp_path / "library.py"
    library.write_text(
        "TABLE = {'grid': make}\n"
        "def make():\n"
        "    return Helper().go()\n"
        "class Helper:\n"
        "    def go(self):\n"
        "        return gen_grid\n"
        "def run():\n"
        "    return orchard.spanned_lines\n"
        "def unread():\n"
        "    return gen_cubic_power, tripartite_count\n")
    reader = tmp_path / "reader.py"
    reader.write_text("def main():\n    return tripartite_count\n")
    reached = _reached([library], [reader])
    assert {"make", "Helper", "gen_grid", "spanned_lines",
            "tripartite_count"} <= reached
    assert {"unread", "gen_cubic_power"}.isdisjoint(reached)


def test_every_export_has_a_reader():
    """Each exported name is reached from a script, an acceptance test
    or the library's own entry points; a unit test of the name alone,
    or a library definition that nothing reaches, does not count."""
    library = [f for f in sorted((SRC / "orchard").glob("*.py"))
               if f.name != "__init__.py"]
    readers = [*sorted((ROOT / "scripts").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    assert sorted(set(orchard._EXPORTS) - _reached(library, readers)) == []


# the modules allowed floating point: SVG rendering and the halving
# demo on continuous arcs; every other module computes exactly
FLOAT_MODULES = {"svg.py", "halving.py"}
EXACT_MATH = {"gcd", "lcm", "comb", "isqrt"}


def _float_uses(source: str) -> list[str]:
    """What in source can bring floating point in: a float or complex
    literal; the name float, unless it is the type argument of an
    isinstance test whose if-branch raises (a refusal); import math;
    and from math import of anything but gcd, lcm, comb and isqrt."""
    tree = ast.parse(source)
    refusals = set()
    for node in ast.walk(tree):
        test = node.test if isinstance(node, ast.If) else None
        if (isinstance(test, ast.Call) and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance" and len(test.args) == 2
                and isinstance(node.body[0], ast.Raise)):
            kinds = test.args[1]
            refusals.update(map(id, kinds.elts if isinstance(kinds, ast.Tuple)
                                else [kinds]))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Name) and node.id == "float"
              and id(node) not in refusals):
            found.append(f"line {node.lineno}: name float")
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = sorted({a.name for a in node.names} - EXACT_MATH)
            if extra:
                found.append(f"line {node.lineno}: from math import "
                             + ", ".join(extra))
    return found


def test_float_uses_flags_each_way_in():
    source = ("import math\n"
              "from math import gcd, isqrt, sqrt\n"
              "from math import comb, lcm\n"
              "HALF = 0.5\n"
              "ROOT = 1j\n"
              "def f(x):\n"
              "    if isinstance(x, float):\n"
              "        raise ValueError(x)\n"
              "    if isinstance(x, (int, float)):\n"
              "        return float(x)\n"
              "    return x if isinstance(x, float) else 2\n")
    found = _float_uses(source)
    assert len(found) == 7 and set(found) == {
        "line 1: import math", "line 2: from math import sqrt",
        "line 4: literal 0.5", "line 5: literal 1j",
        "line 9: name float", "line 10: name float",
        "line 11: name float"}


def test_exact_modules_use_no_floating_point():
    """Floating point only in SVG rendering and the halving demo."""
    modules = sorted((SRC / "orchard").glob("*.py"))
    assert FLOAT_MODULES <= {f.name for f in modules}
    found = {f.name: _float_uses(f.read_text(encoding="utf-8"))
             for f in modules if f.name not in FLOAT_MODULES}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert all(_float_uses((SRC / "orchard" / name).read_text(
        encoding="utf-8")) for name in FLOAT_MODULES)
