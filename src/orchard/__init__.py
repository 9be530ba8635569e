"""Exact rational geometry of triple lines and cubic curves.

Each exported name is loaded from its submodule on first use (PEP 562),
so that importing one submodule, as a CLI call does, does not compile
the others.
"""

import importlib

_EXPORTS = {name: module for module, names in (
    ("projective", "DegenerateError ProjLine ProjPoint collinear "
                   "direction_point incident join meet mk_point "
                   "point_from_rationals signed_ratio"),
    ("richlines", "InvariantViolation PointSet RichLineTable direction_count "
                  "green_tao_bound k_rich_count spanned_lines "
                  "triple_line_count tripartite_count"),
    ("generators", "NgonConfig gen_cubic_power gen_grid gen_ngon_directions "
                   "gen_parabola_ap gen_parallel_aps gen_triangle_ratios "
                   "parallel_aps_closed_form ratio_point triangle_ratio_set"),
    ("cubics", "CubicForm cuspidal_form weierstrass_form"),
    ("fitting", "classify_with_candidates fit_cubics"),
    ("grouplaw", "CuspidalCubic GroupElement LawWitness WeierstrassCurve "
                 "WEIERSTRASS_IDENTITY cuspidal_third"),
    ("descriptions", "GroupDescription conic_line_params "
                     "cuspidal_description description_witness "
                     "hyperbola_infinity_description menelaus_params "
                     "parabola_infinity_description "
                     "parallel_lines_description triangle_description "
                     "verify_group_description"),
    ("tenpoint", "Cantilever build_tenpoint_cuspidal "
                 "build_tenpoint_weierstrass extend_cantilever "
                 "lattice_witness nine_point_check verify_lattice"),
    ("halving", "ConvergenceError SampledArc halve_parameter_demo "
                "parallel_lines_arcs standard_system_ok "
                "three_lines_multiplicative_arcs"),
    ("conic", "ExternalPoint image_count involution_value "
              "parabola_collinear reps_collinear"),
    ("curves", "CurveSpec dichotomy_experiment few_directions_experiment "
               "graph_power quadruple_experiment"),
) for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
