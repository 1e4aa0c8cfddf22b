"""Self-test of the benchmark.

Every oracle must flag a deliberately wrong expectation, lost grid points
must count as failures, every workload must run on a seed not used while the
benchmark was tuned, traced work counts must repeat exactly, and the
benchmark must refuse to run without the package source.

    python3 -m pytest -q perfbench/selftest.py      # about two minutes
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from hybridhopf import eco, verify  # noqa: E402
from spans import NullTracer  # noqa: E402

FRESH_SEED = 9001
COUNT_METRICS = (
    "models.rhs_calls_per_op",
    "models.jac_calls_per_op",
    "verify.rhs_calls_per_orbit",
    "verify.jac_calls_per_orbit",
    "verify.points_converged_ratio",
)


def declared(key: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def classify_cases():
    wl = workloads.ClassifyRegion(FRESH_SEED)
    wl.setup()
    return wl.cases


def test_classify_oracle_flags_wrong_expectations(classify_cases):
    cases = [
        next(c for c in classify_cases if not c.planted and c.config["jets"] == "exact"),
        next(c for c in classify_cases if c.planted and c.config["jets"] == "finite_difference"),
    ]
    for case in cases:
        got = workloads.classify_pipeline(case.config, NullTracer())
        assert workloads.check_classification(case, got) == []
        ref = case.reference
        skewed = dataclasses.replace(ref.coeffs, beta5=ref.coeffs.beta5 * (1.0 + 1e-3))
        pred = got.prediction
        wrong_cases = [
            dataclasses.replace(case, label="EU" if case.label != "EU" else "ES"),
            dataclasses.replace(case, direction=-case.direction),
            dataclasses.replace(case, reference=dataclasses.replace(ref, coeffs=skewed)),
        ]
        if case.omega is not None:
            wrong_cases.append(dataclasses.replace(case, omega=case.omega * (1.0 + 1e-4)))
        for wrong in wrong_cases:
            assert workloads.check_classification(wrong, got), wrong
        wrong_prediction = dataclasses.replace(pred, r0=pred.r0 * (1.0 + 1e-6))
        assert workloads.check_classification(
            case, dataclasses.replace(got, prediction=wrong_prediction)
        )
    planted = cases[1]
    got = workloads.classify_pipeline(planted.config, NullTracer())
    assert workloads.check_classification(planted, dataclasses.replace(got, point=got.point + 1e-6))


def test_planted_types_cover_h_es_eu(classify_cases):
    assert {c.label for c in classify_cases if c.planted} == {"H", "ES", "EU"}


def test_branch_oracle_flags_wrong_expectations():
    case = workloads.branch_case(
        workloads.REFERENCE_CONFIG, "reference", eco.interior_guard(), "ES"
    )
    branch = verify.continue_branch(
        case.model, case.grid[:2], coeffs=case.coeffs, frame=case.frame, guard=case.guard
    )
    point = branch.points[0]
    verdict = verify.floquet_stability(point.orbit)
    assert workloads.check_orbit(case, point, verdict) == []
    flipped = dataclasses.replace(
        case.classification, orbit_stable=not case.classification.orbit_stable
    )
    assert workloads.check_orbit(dataclasses.replace(case, classification=flipped), point, verdict)
    for field, value in (("residual", 1e-8), ("liouville_defect", 1e-3)):
        bad = dataclasses.replace(point, orbit=dataclasses.replace(point.orbit, **{field: value}))
        assert workloads.check_orbit(case, bad, verdict), field
    assert workloads.check_orbit(case, point, dataclasses.replace(verdict, marginal=True))


def test_lost_grid_points_count_as_failures():
    lost_total = 0
    for i, p in enumerate(eco.sample_region(12, 5)):
        config = {"builtin": "predator_prey", "params": p.to_dict()}
        label = eco.classification_record(p).label
        case = workloads.branch_case(config, f"region[{i}]", eco.interior_guard(), label)
        outcome = workloads.run_branch(case, NullTracer())
        lost = len(case.grid) - outcome.orbits
        assert outcome.units == len(case.grid)
        assert outcome.failed >= lost
        lost_total += lost
    assert lost_total > 0


def test_cli_oracles_flag_wrong_outputs():
    ref = eco.EcoParams(**workloads.REFERENCE_CONFIG["params"])
    record = eco.classification_record(ref)
    good = {
        "classification.json": json.dumps(
            {"label": record.label, "direction": record.direction, "omega": record.omega}
        ).encode()
    }
    assert workloads.check_first_outputs("classify", good) == []
    wrong = {"classification.json": json.dumps(dict(json.loads(good["classification.json"]), label="EU")).encode()}
    assert workloads.check_first_outputs("classify", wrong)
    assert workloads.check_first_outputs("continue", {})
    rows = "type\n" + "ES\n" * (workloads.ECO_SWEEP_SAMPLES - 1) + "EU\n"
    assert workloads.check_first_outputs("eco_sweep", {"sweep.tsv": rows.encode()})

    cli = workloads.CliMix(FRESH_SEED, ROOT)
    assert cli.check_outputs("classify", good) == []
    assert cli.check_outputs("classify", good) == []
    assert cli.check_outputs("classify", {**good, "extra.json": b"{}"})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_on_a_fresh_seed(workload):
    res = result(bench("--workload", workload, "--seed", str(FRESH_SEED), "--seconds", "1"))
    assert res["correct"] and res["attempted"] >= 1
    assert set(res["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_work_counts_repeat_exactly():
    args = ("--workload", "classify-region", "--seed", str(FRESH_SEED), "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == declared("per_layer")
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package_source():
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "classify-region", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
