"""Numerical toolkit for closest-point projections in normed planes.

Subpackages cover strictly convex norm models and their Gauss maps
(``norms``), exact Cantor-staircase arithmetic and the staircase-built norm
(``cantor``), hyperplane projections, the angle family of linear
projections and the intertwiner of equal-kernel maps (``projections``),
deterministic self-similar point clouds (``fractals``), box-counting
dimension estimation (``boxdim``), direction-sweep experiments (``sweep``)
and the cross-cutting verification suite (``checks``).
"""

__version__ = "0.1.0"

VERSION_HEADER = f"# normproj {__version__}"

from .norms import (  # noqa: E402
    HyperplaneNormal,
    NormModel,
    SupportTable,
    euclidean,
    eval_norm,
    from_support_table,
    gauss_map,
    inner_product,
    inverse_gauss,
    lp,
)
from .cantor import CantorSet, CounterexampleCurve, StaircaseValue  # noqa: E402
from .fractals import PointCloud  # noqa: E402
from .boxdim import DimensionEstimate  # noqa: E402
from .sweep import DirectionGrid, ExceptionalProfile  # noqa: E402
from .checks import CheckReport, run_all  # noqa: E402

