"""The benchmark's own copies of package values and formulas agree with the
package.  `perfbench/workloads.py` restates the branch tolerance and the
planted type (its sigma written out by hand) as independent oracles; a change
to either side must show up here, not as a benchmark that checks the wrong
thing.  Point location from the benchmark's planted seeds is held to its
work counts here too.  The benchmark is imported without writing into its
directory."""
from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_pipeline
from hybridhopf import classifier, frame, models, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DRAWS_PER_TYPE = 30


@pytest.fixture(scope="module")
def workloads():
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = dont_write_bytecode


def test_benchmark_branch_tolerance_is_the_package_one(workloads):
    assert workloads.BRANCH_NEWTON_TOL == verify.BRANCH_NEWTON_TOL


@pytest.mark.parametrize("label", ["H", "ES", "EU"])
def test_benchmark_planted_type_is_what_classify_gives(workloads, label):
    """`expected_type` on `planted_config` draws gives the label and branch
    side that `classifier.classify` reads from the computed coefficients at
    the planted Hopf point, the origin."""
    rng = np.random.default_rng(2024)
    for _ in range(DRAWS_PER_TYPE):
        config = workloads.planted_config(rng, label)
        expected = workloads.expected_type(config["params"])
        coeffs = build_pipeline(models.from_config(config), np.zeros(3)).coeffs
        got = classifier.classify(coeffs)
        assert expected == (label, got.direction) == (got.label, got.direction), config


#: counted RHS calls per planted locate, mean over the pool: the Newton
#: matrix from the jet takes 4.3 (exact) and 30.3 (finite-difference jets)
#: on seed 1; the central difference of the residual took 24.3 and 176.3
PLANTED_LOCATE_RHS_BOUND = {"exact": 6.0, "finite_difference": 40.0}


@pytest.mark.parametrize("jets", ["exact", "finite_difference"])
def test_planted_locate_builds_no_central_difference_newton_matrix(workloads, monkeypatch, jets):
    """Locate from the benchmark's planted seeds, PLANTED_SEED_OFFSET from
    the Hopf point: with exact jets it calls `central_difference` never, and
    in both jet modes it stays within its bound on counted RHS calls."""
    pool = workloads.ClassifyRegion(1)
    pool.setup()
    cases = [c for c in pool.cases if c.planted and c.config["jets"] == jets]
    counts = {"rhs": 0, "central_difference": 0}
    central_difference = models.central_difference

    def counted_difference(f, X):
        counts["central_difference"] += 1
        return central_difference(f, X)

    monkeypatch.setattr(models, "central_difference", counted_difference)
    for case in cases:
        model = models.from_config(case.config)
        rhs = model.rhs

        def counted_rhs(X, mu, rhs=rhs):
            counts["rhs"] += 1
            return rhs(X, mu)

        seed = np.array(case.config["seed_state"])
        assert np.linalg.norm(seed) == pytest.approx(workloads.PLANTED_SEED_OFFSET)
        point = frame.locate_hopf_point(dataclasses.replace(model, rhs=counted_rhs), seed)
        assert np.max(np.abs(point)) < workloads.PLANTED_POINT_TOL
    assert len(cases) == 12
    assert counts["rhs"] / len(cases) <= PLANTED_LOCATE_RHS_BOUND[jets]
    if jets == "exact":
        assert counts["central_difference"] == 0
