"""The benchmark's own copies of package values and formulas agree with the
package.  `perfbench/workloads.py` restates the branch tolerance and the
planted type (its sigma written out by hand) as independent oracles; a change
to either side must show up here, not as a benchmark that checks the wrong
thing.  The benchmark is imported without writing into its directory."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_pipeline
from hybridhopf import classifier, models, verify

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
