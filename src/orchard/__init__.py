"""Exact rational geometry of triple lines and cubic curves."""

from .projective import (DegenerateError, LINE_AT_INFINITY, ProjLine,
                         ProjPoint, apply_transform, collinear,
                         direction_point, incident, join, meet, mk_point,
                         point_from_rationals, signed_ratio)
from .richlines import (InvariantViolation, PointSet, RichLineTable,
                        direction_count, green_tao_advisory, green_tao_bound,
                        k_rich_count, spanned_lines, triple_line_count,
                        tripartite_count)
from .generators import (NgonConfig, gen_cubic_power, gen_grid,
                         gen_ngon_directions, gen_parabola_ap,
                         gen_parallel_aps, gen_triangle_ratios,
                         parallel_aps_closed_form, ratio_point,
                         triangle_ratio_set)
from .cubics import (CubicForm, classify_with_candidates, cubic_from_lines,
                     cuspidal_form, fit_cubics, line_divides, on_common_cubic,
                     weierstrass_form)
from .grouplaw import (CuspidalCubic, GroupDescription, GroupElement,
                       LawWitness, WeierstrassCurve, WEIERSTRASS_IDENTITY,
                       conic_line_params, cuspidal_description,
                       cuspidal_third, description_witness,
                       hyperbola_infinity_description,
                       menelaus_params, parabola_infinity_description,
                       parallel_lines_description, parallel_lines_params,
                       sphere_membership, triangle_description,
                       verify_group_description, weierstrass_add,
                       weierstrass_third)
from .tenpoint import (Cantilever, ConvergenceError, SampledArc,
                       TenPointConfig, build_tenpoint_cuspidal,
                       build_tenpoint_weierstrass, extend_cantilever,
                       halve_parameter_demo, lattice_witness,
                       nine_point_check,
                       parallel_lines_arcs, standard_system_ok,
                       three_lines_multiplicative_arcs, verify_lattice)
from .conic import (ExternalPoint, combination_weight, filter_by_image_count,
                    image_count, involution_value, parabola_collinear,
                    reps_collinear)
from .curves import (CurveSpec, TripartiteCounts, TripartiteExperiment,
                     dichotomy_experiment, few_directions_experiment,
                     graph_power, line_curve, lines_product_curve, parabola,
                     quadruple_experiment, tripartite_curve_count,
                     weierstrass_spec)

__version__ = "0.1.0"
