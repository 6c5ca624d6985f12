"""Numerical toolkit for closest-point projections in normed planes.

Subpackages cover strictly convex norm models and their Gauss maps
(``norms``), exact Cantor-staircase arithmetic and the staircase-built norm
(``cantor``), hyperplane projections, the angle family of linear
projections and the intertwiner of equal-kernel maps (``projections``),
deterministic self-similar point clouds (``fractals``), box-counting
dimension estimation (``boxdim``), direction-sweep experiments (``sweep``)
and the cross-cutting verification suite (``checks``).  Import the
submodule you need; the package itself loads none of them.
"""

__version__ = "0.1.0"

VERSION_HEADER = f"# normproj {__version__}"
