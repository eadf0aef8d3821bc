import functools

import numpy as np
import pytest

import surfquad as sq


@pytest.fixture(scope="session")
def unit_sphere():
    return sq.sphere(1.0)


@pytest.fixture(scope="session")
def torus21():
    return sq.torus(2.0, 1.0)


@pytest.fixture(scope="session")
def flat_ellipsoid():
    return sq.ellipsoid(1.0, 1.0, 0.6)


@pytest.fixture()
def one_iteration_projector(monkeypatch):
    """Curved-node projection limited to one Newton iteration, so that it
    fails on the ellipsoid, which has no closed-form projection."""
    monkeypatch.setattr(sq.curved, "project_many",
                        functools.partial(sq.surfaces.project_many, max_iter=1))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def torus_points(R, r, n_theta, n_phi):
    """Regular (theta, phi) sample of the torus surface."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ring = R + r * np.cos(tt)
    return np.column_stack([
        (ring * np.cos(pp)).ravel(),
        (ring * np.sin(pp)).ravel(),
        (r * np.sin(tt)).ravel(),
    ])
