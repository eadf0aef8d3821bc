"""High-order integration of scalar fields over smooth closed surfaces.

Curved triangulations of degree k are built by projecting the reference nodes
of a flat base mesh onto the surface through the closest-point map; surface
integrals are then assembled with symmetric triangle quadrature.  The study
harness measures convergence orders against Gauss-Bonnet and closed-form
targets.
"""

from .curved import (CurvedElement, ElementBatch, build_element,
                     build_surface_elements)
from .errors import (DegenerateJacobian, DegeneratePoint, IllConditionedWarning,
                     InsufficientData, IntegrationError, NoConvergence,
                     NonTriangleFace, OutsideTube, ParseError, StagnationWarning,
                     SurfquadError, TopologyMismatch, UnsupportedDegree)
from .interp import (ChebGrid, LagrangeBasis, ReferenceNodeSet, cheb_grid,
                     cheb_lebesgue, equidistant_lebesgue, interp_gradient_defect,
                     lagrange_basis, lebesgue_formula, reference_nodes)
from .quad import MODE_EXACT, MODE_INTERP, IntegralResult, integrate_surface
from .quadrules import QuadratureRule, builtin_rule, monomial_integral
from .refmesh import (FlatMesh, MeshStats, bisect, euler_characteristic,
                      generate_base, is_conforming_closed, mesh_size,
                      project_vertices, read_off, symmetry_census, write_off)
from .study import (ConvergenceReport, ConvergenceRow, RungeReport, RungeRow,
                    error_metric, exact_target, fit_slope, run_convergence,
                    run_runge)
from .surfaces import (ImplicitSurface, ellipsoid, from_level_set,
                       parse_surface, project_many, sphere, surface_area_exact,
                       torus)

__version__ = "0.1.0"
