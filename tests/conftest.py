"""Shared fixtures: the interior ecosystem sample, synthetic pipelines, and a
recorder of the package's `dop853` solves."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hybridhopf import dop853, eco
from hybridhopf.coefficients import CylindricalCoefficients, compute_coefficients
from hybridhopf.eco import EcoParams
from hybridhopf.frame import StandardFrame, build_standard_frame, standard_jet
from hybridhopf.models import ModelDefinition, builtin, jet, polynomial_model
from oracles import closed_form_frame


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """A model with everything derived at its Hopf point."""

    model: ModelDefinition
    point: np.ndarray
    frame: StandardFrame
    coeffs: CylindricalCoefficients


def build_pipeline(model: ModelDefinition, point) -> Pipeline:
    raw = jet(model, np.asarray(point, dtype=float), 0.0)
    frame = build_standard_frame(raw)
    coeffs = compute_coefficients(standard_jet(raw, frame))
    return Pipeline(model=model, point=np.asarray(point, dtype=float), frame=frame, coeffs=coeffs)


@pytest.fixture(scope="session")
def interior() -> EcoParams:
    return EcoParams(delta1=1.0, delta2=1.0, lam=0.3, alpha1=0.2, alpha2=0.6)


@pytest.fixture(scope="session")
def interior_model(interior):
    return eco.model(interior)


@pytest.fixture(scope="session")
def interior_hopf(interior) -> np.ndarray:
    return eco.hopf_point(interior)


@pytest.fixture(scope="session")
def interior_pipeline(interior_model, interior_hopf) -> Pipeline:
    """Interior sample with the generic (unit-vector) frame."""
    return build_pipeline(interior_model, interior_hopf)


@pytest.fixture(scope="session")
def closed_chart(interior, interior_model, interior_hopf) -> Pipeline:
    """Interior sample in the chart where the closed-form coefficients hold."""
    frame = closed_form_frame(interior)
    raw = jet(interior_model, interior_hopf, 0.0)
    coeffs = compute_coefficients(standard_jet(raw, frame))
    return Pipeline(model=interior_model, point=interior_hopf, frame=frame, coeffs=coeffs)


@pytest.fixture(scope="session")
def synthetic_pipeline():
    """Factory: the planted quadratic normal form dy1 = -omega y2 + a y1 z,
    dy2 = omega y1 + a y2 z, dz = b r^2 + c mu + d mu z at the origin, that is
    `toy_cylindrical` with beta2, beta5, gamma5, gamma7 = a, b, c, d."""

    def factory(a: float, b: float, c: float, d: float, omega: float = 1.0) -> Pipeline:
        params = {"omega": omega, "beta2": a, "beta5": b, "gamma5": c, "gamma7": d}
        model = builtin("toy_cylindrical", params)
        return build_pipeline(model, np.zeros(3))

    return factory


@pytest.fixture(scope="session")
def rotation_model():
    """Pure planar rotation with a trivial third axis: all coefficients zero."""
    return polynomial_model(
        {"y1": [[-1.0, 0, 1, 0, 0]], "y2": [[1.0, 1, 0, 0, 0]], "z": []},
        name="pure_rotation",
    )


@pytest.fixture
def solutions(monkeypatch):
    """The `dop853.Solution` of every `dop853.solve` call the package makes."""
    made = []
    solve = dop853.solve

    def recording(*args, **kwargs):
        made.append(solve(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(dop853, "solve", recording)
    return made
