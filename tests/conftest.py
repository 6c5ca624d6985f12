"""Shared fixtures: the expensive staircase-norm builds happen once."""

import numpy as np
import pytest

from normproj import cantor, norms


@pytest.fixture(scope="session")
def triadic_set():
    return cantor.CantorSet()


@pytest.fixture(scope="session")
def curve10(triadic_set):
    return cantor.curve_samples(triadic_set, 10)


@pytest.fixture(scope="session")
def curve12(triadic_set):
    return cantor.curve_samples(triadic_set, 12)


@pytest.fixture(scope="session")
def ce_norm(curve10):
    return cantor.build_norm(curve10)


@pytest.fixture()
def rng():
    return np.random.default_rng(0x5EED)


@pytest.fixture(scope="session")
def wide_segment_table():
    """A square with corners rounded off at radius 1e-4 on nodes whose first
    knot segment is 0.5 wide and the rest about 0.011.  The cubic spline
    across the wide segment cuts a corner: its h + h'' reaches about -362."""
    corners = np.sqrt(2.0) * norms.unit_vector(np.pi / 4 + 0.1 + 0.5 * np.pi * np.arange(4))
    half = np.concatenate([[0.0], 0.5 + (np.pi - 0.5) * np.arange(255) / 255])
    phi = np.concatenate([half, half + np.pi])
    u = norms.unit_vector(phi)
    active = corners[np.argmax(u @ corners.T, axis=1)]
    return norms.SupportTable(phi=phi, h=1e-4 + np.sum(u * active, axis=1),
                              dh=np.sum(norms.rot90(u) * active, axis=1))
