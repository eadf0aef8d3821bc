import collections
import dataclasses
import sys

import numpy as np
import pytest

import surfquad as sq
from surfquad import cli


@pytest.fixture(scope="session")
def unit_sphere():
    return sq.sphere(1.0)


@pytest.fixture(scope="session")
def torus21():
    return sq.torus(2.0, 1.0)


@pytest.fixture(scope="session")
def flat_ellipsoid():
    return sq.ellipsoid(1.0, 1.0, 0.6)


def newton(surface):
    """The surface without its closed-form projection: ``project_many`` runs
    the generic gradient-flow and damped-Newton iteration on it."""
    return dataclasses.replace(surface, analytic_project=None)


@pytest.fixture(scope="session")
def newton_ellipsoid():
    """The ellipsoid (1, 1, 0.6) projected by Newton, not its secular equation:
    the built-in surface that keeps the generic projector tested.  A test
    that holds for any surface runs on both, as ``test_x`` on
    ``flat_ellipsoid`` and ``test_x_newton`` on this one."""
    return newton(sq.ellipsoid(1.0, 1.0, 0.6))


@pytest.fixture()
def newton_cli(monkeypatch):
    """The command line parses every ``ellipsoid:`` spec to its Newton
    variant, so that a command runs the generic projector end to end."""
    def parse(spec):
        surface = sq.surfaces.parse_surface(spec)
        return newton(surface) if surface.name == "ellipsoid" else surface

    monkeypatch.setattr(cli, "parse_surface", parse)


def failing_nodes(surface):
    """Unique nodes of the bisected res-1 ellipsoid mesh at k = 4 that fail
    in one projection iteration: 224 under Newton, 252 under one secular step."""
    return 224 if surface.analytic_project is None else 252


@pytest.fixture()
def one_iteration_projector(monkeypatch):
    """Projection limited to one iteration, so that it fails on the points off
    the ellipsoid: one Newton iteration, or one step on its secular equation."""
    monkeypatch.setattr(sq.surfaces, "MAX_ITER", 1)


@pytest.fixture()
def passes(monkeypatch):
    """The number of slices of every ``blocks.blocks`` call made while the
    test runs, listed under the name of the function that made it: a test
    that patches ``blocks.BLOCK`` shows with it how many passes a loop ran."""
    calls = collections.defaultdict(list)
    slicer = sq.blocks.blocks

    def counted(n, size=None):
        slices = slicer(n, size)
        calls[sys._getframe(1).f_code.co_name].append(len(slices))
        return slices

    monkeypatch.setattr(sq.blocks, "blocks", counted)
    return calls


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
