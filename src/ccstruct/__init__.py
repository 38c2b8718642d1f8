"""Numerical toolkit for the global structure of the Carnot-Caratheodory
metric on model hypersurfaces {Im(z2) > P(z1)} in C^2.

The boundary is identified with C x R carrying the horizontal fields
X = d/dx + P_y d/dt and Y = -d/dy + P_x d/dt.  The package computes the
global structure value Lambda(z, delta) — the t-radius of the CC ball —
three independent ways (nested-supremum proxy, constructive stockyard
lower bound, direct path sampling), cross-validates them, and classifies
whether the surface admits a uniform global structure of linear or
quadratic type.
"""

__version__ = "0.1.0"

from .density import (BumpLattice, ConstantDensity, DensityField,
                      GridDensity, PolynomialPotential, RadialAlphaDensity,
                      ZeroDensity, decaying_bump_lattice, disk_mass)
from .errors import (CCStructError, DegenerateLoop, DensitySpecError,
                     InvalidStockyard, PotentialUnavailable,
                     QuadratureFailure)
from .geometry import (Pen, PlaneCurve, Stockyard, boundary_line_integral,
                       circle_curve, pack_disks, pen_mass, polygon_curve,
                       split_loop_into_seven, stockyard_mass,
                       validate_stockyard)
from .specfile import load_density_spec
from .structure import (LambdaEstimate, SupOptions, Window, WitnessDisk,
                        lambda_stockyard, lambda_sup, lambda_sweep, twist,
                        twist_many, volume_estimate)

__all__ = [
    "__version__",
    "BumpLattice", "ConstantDensity", "DensityField", "GridDensity",
    "PolynomialPotential", "RadialAlphaDensity", "ZeroDensity",
    "decaying_bump_lattice", "disk_mass",
    "CCStructError", "DegenerateLoop", "DensitySpecError",
    "InvalidStockyard", "PotentialUnavailable", "QuadratureFailure",
    "Pen", "PlaneCurve", "Stockyard", "boundary_line_integral",
    "circle_curve", "pack_disks", "pen_mass", "polygon_curve",
    "split_loop_into_seven", "stockyard_mass", "validate_stockyard",
    "load_density_spec",
    "LambdaEstimate", "SupOptions", "Window", "WitnessDisk",
    "lambda_stockyard", "lambda_sup", "lambda_sweep", "twist",
    "twist_many", "volume_estimate",
]
