"""Scaled boundary finite elements for the Laplace equation on polytopal meshes.

Semi-analytic shape functions on star-shaped polygonal/polyhedral
subdomains: piecewise polynomial traces on the subdomain boundaries are
extended radially through the eigen-modes of a collapsed-coordinate ODE
system, and only the skeleton carries unknowns.
"""

from .errors import (AssemblyError, ConfigError, MeshError, QuadratureError,
                     SbfemError, SolveError, SpectrumError)
from .refgeom import FacetKind
from .polyspace import (QuadratureRule, TraceBasis, facet_quadrature,
                        radial_quadrature, trace_basis)
from .ematrix import EMatrices, assemble_E
from .modes import (SbfemModes, SElementStiffness, build_system,
                    element_stiffness, select_modes)
from .mesh import (DofNumbering, PolytopalMesh, gen_coupled_singular,
                   gen_hex_mesh, gen_polygon_case1, gen_polyhedron_case1,
                   gen_quad_mesh, gen_refined_cube, gen_refined_square,
                   import_mesh, number_dofs, singular_open_selement)
from .solver import (DiscreteSolution, GlobalSystem, apply_dirichlet,
                     assemble_global, build_operators, fe_element_stiffness,
                     sbfem_interpolate, solve)
from .postproc import (ExactSolution, convergence_rates, get_exact,
                       report_to_csv, solution_errors)

__version__ = "0.1.0"
