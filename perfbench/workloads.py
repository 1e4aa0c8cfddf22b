"""The three benchmark workloads: seeded inputs, the timed ops, and their oracles.

Every op calls the package's public functions from outside.  `run.py` puts
``src`` on ``sys.path`` before importing this module.  An op returns an
`Outcome`; its ``seconds`` cover the package calls only, never the oracle
checks that follow them.

* ``classify-region``: one config through the classification pipeline.
* ``branch-continue``: one model's branch over the 8-point |mu| grid, plus
  a Floquet verdict for each converged orbit.
* ``cli-mix``: one ``python -m hybridhopf.cli`` invocation, round-robin
  over the five subcommands on the README reference config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from hybridhopf import classifier, coefficients, eco, frame, models, verify
from hybridhopf.errors import HybridHopfError
from spans import NullTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: |mu| grid of branch-continue, on the side that `classify` predicts
BRANCH_GRID = tuple(float(m) for m in np.geomspace(5e-4, 2e-2, 8))
#: shooting tolerance `continue_branch` uses by default
BRANCH_NEWTON_TOL = 1e-10
LIOUVILLE_TOL = 1e-6
#: |mu| at which classify-region asks for a leading-order orbit prediction
PREDICT_MU = 5e-3
#: distance of a planted model's locate seed from its Hopf point (the origin)
PLANTED_SEED_OFFSET = 0.05
#: locate must land on the planted Hopf point to this accuracy
PLANTED_POINT_TOL = 1e-8
COEFFICIENT_NAMES = ("omega", "beta2", "beta3", "beta5", "beta6", "gamma5", "gamma7")

#: predator-prey sets (delta1, delta2, lam, alpha1, alpha2) whose branches
#: complete the grid under the seed's jitter: the README reference, then
#: three rounded draws of eco.sample_region(30, 11).  Draws that lost grid
#: points under a 3 % jitter, such as (6.67, 1.34, 0.38, 0.16, 0.63) and
#: (0.12, 2.13, 0.34, 0.25, 0.92), are left out (see README.md).
BRANCH_REFERENCE_SETS = (
    (1.0, 1.0, 0.3, 0.2, 0.6),
    (0.33, 0.53, 0.31, 0.14, 0.48),
    (0.26, 0.11, 0.19, 0.32, 0.86),
    (0.09, 0.14, 0.29, 0.14, 0.62),
)
BRANCH_JITTER = 0.03
BRANCH_JITTERS_PER_SET = 4

#: the README reference config, δ1 = δ2 = 1, λ = 0.3, α1 = 0.2, α2 = 0.6
REFERENCE_CONFIG = {
    "builtin": "predator_prey",
    "params": {"delta1": 1.0, "delta2": 1.0, "lam": 0.3, "alpha1": 0.2, "alpha2": 0.6},
}
ECO_SWEEP_SAMPLES = 10000
CLI_TIMEOUT_S = 120.0

#: speed probes.  The machine is shared: other tenants slow a process down
#: by up to about 2x for tens of seconds at a time.  Op times are scaled by
#: the workload's reference probe time over the probes around the op, that
#: is, to a machine on which the probe takes the reference time.
KERNEL_PROBE_ITERATIONS = 2000
_KERNEL_PROBE_MATRIX = np.arange(9.0).reshape(3, 3) / 10.0
#: a quiet 2-vCPU sandbox takes about 2.1 ms for the kernel probe and
#: 40 ms for the interpreter probe
KERNEL_PROBE_REFERENCE_S = 2.0e-3
INTERPRETER_PROBE_REFERENCE_S = 40e-3


@dataclasses.dataclass
class Outcome:
    """What one op did: time in the package, units attempted and failed.

    ``problems`` lists oracle mismatches; any of them makes the run incorrect.
    """

    seconds: float
    units: int = 1
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    orbits: int = 0
    kind: str = ""


def expected_type(p: dict) -> tuple[str, int]:
    """Type and branch side that planted toy_cylindrical coefficients imply.

    xi = sign(beta2 beta5) separates H from the elliptic types, whose
    stability is the sign of the focus quantity sigma; the orbit radius
    r0^2 = -mu gamma5 / beta5 fixes the side sign(mu) = -sign(beta5 gamma5).
    """
    b2, b3, b5, b6 = p["beta2"], p["beta3"], p["beta5"], p["beta6"]
    g5, g7 = p["gamma5"], p["gamma7"]
    side = -1 if b5 * g5 > 0 else 1
    if b2 * b5 > 0:
        return "H", side
    sigma = 2.0 * b3 * g5 * g5 - b5 * g5 * g7 + b6 * g5 * g5
    return ("ES" if sigma < 0 else "EU"), side


def planted_config(rng: np.random.Generator, label: str) -> dict:
    """A toy_cylindrical config of the given type with coefficients from ``rng``.

    The locate seed sits PLANTED_SEED_OFFSET away from the Hopf point in a
    random direction, so `locate_hopf_point` does real Newton work.
    """
    while True:
        b2, b5, g5 = rng.uniform(0.7, 1.3, 3) * rng.choice([-1.0, 1.0], 3)
        if (label == "H") != (b2 * b5 > 0):
            b5 = -b5
        b3, b6, g7 = rng.uniform(-1.0, 1.0, 3)
        sigma = 2.0 * b3 * g5 * g5 - b5 * g5 * g7 + b6 * g5 * g5
        if abs(sigma) >= 0.2:
            break
    if label != "H" and (sigma < 0) != (label == "ES"):
        b3, b6, g7 = -b3, -b6, -g7
    # beta1, beta4 and gamma3 stay zero: with beta1 != 0 the computed beta4,
    # beta6 and gamma7 differ from the planted values, so sigma would no longer
    # be an independent expectation
    params = {
        "omega": float(rng.uniform(0.9, 1.3)),
        "beta2": float(b2),
        "beta3": float(b3),
        "beta5": float(b5),
        "beta6": float(b6),
        "gamma5": float(g5),
        "gamma7": float(g7),
    }
    direction = rng.normal(size=3)
    offset = PLANTED_SEED_OFFSET * direction / np.linalg.norm(direction)
    return {"builtin": "toy_cylindrical", "params": params, "seed_state": offset.tolist()}


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def kernel_probe() -> float:
    """Best of three timings of a fixed Python and numpy kernel that does not
    touch the package; it slows down together with the in-process ops."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(KERNEL_PROBE_ITERATIONS):
            acc += float((_KERNEL_PROBE_MATRIX @ _KERNEL_PROBE_MATRIX)[0, 0]) + math.sqrt(i)
        best = min(best, _elapsed(start))
    return best


def interpreter_probe() -> float:
    """Best of three start-ups of ``python -c pass``.  A CLI call is mostly
    start-up and imports, and tracks this probe far better than the kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "pass"], cwd=ROOT, timeout=CLI_TIMEOUT_S, check=True
        )
        best = min(best, _elapsed(start))
    return best


# ---------------------------------------------------------------------------
# classify-region
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ClassifyResult:
    point: np.ndarray
    coeffs: object
    tolerance: float
    classification: object
    prediction: object
    model: object
    frame: object


def classify_pipeline(config: dict, tracer) -> ClassifyResult:
    """from_config -> locate -> assumptions -> jet -> frame -> coefficients -> type."""
    with tracer.span("models.from_config"):
        model = models.from_config(config)
    model = tracer.wrap(model)
    seed = config.get("seed_state") or model.metadata["hopf_seed"]
    with tracer.span("frame.locate_hopf_point"):
        point = frame.locate_hopf_point(model, seed)
    with tracer.span("frame.check_assumptions"):
        report = frame.check_assumptions(model, point)
    if not report.all_pass():
        raise HybridHopfError(f"assumptions failed: {report.failed()}")
    exact = config.get("jets", "exact") == "exact"
    with tracer.span("models.jet" if exact else "models.finite_difference_jet"):
        jet = models.jet(model, point, 0.0)
    with tracer.span("frame.build_standard_frame"):
        chart = frame.build_standard_frame(jet)
    with tracer.span("frame.standard_jet"):
        std = frame.standard_jet(jet, chart)
    with tracer.span("coefficients.compute_coefficients"):
        coeffs = coefficients.compute_coefficients(std)
    with tracer.span("classifier.classify"):
        classification = classifier.classify(coeffs)
    with tracer.span("classifier.predict_orbit"):
        prediction = classifier.predict_orbit(
            coeffs, classification.direction * PREDICT_MU, chart
        )
    return ClassifyResult(point, coeffs, std.tolerance, classification, prediction, model, chart)


@dataclasses.dataclass
class ClassifyCase:
    config: dict
    label: str
    direction: int
    #: closed-form rotation rate of a region draw; None for planted models
    omega: float | None
    planted: bool
    reference: ClassifyResult | None = None


def check_classification(case: ClassifyCase, got: ClassifyResult) -> list[str]:
    """Oracle of one classify op against its independent expectation."""
    problems = []
    tag = f"{case.config['builtin']}/{case.config.get('jets', 'exact')}"
    cls = got.classification
    if cls.label != case.label or cls.direction != case.direction:
        problems.append(
            f"{tag}: type {cls.label}/{cls.direction:+d}, expected {case.label}/{case.direction:+d}"
        )
    if case.omega is not None and abs(cls.omega - case.omega) > got.tolerance * max(1.0, case.omega):
        problems.append(f"{tag}: omega {cls.omega!r}, expected {case.omega!r}")
    pred, coeffs = got.prediction, got.coeffs
    if not (
        math.isclose(pred.period, 2.0 * math.pi / cls.omega, rel_tol=1e-12)
        and math.isclose(pred.r0**2, -pred.mu * coeffs.gamma5 / coeffs.beta5, rel_tol=1e-12)
    ):
        problems.append(f"{tag}: prediction r0={pred.r0!r} period={pred.period!r}")
    if case.planted and float(np.max(np.abs(got.point))) > PLANTED_POINT_TOL:
        problems.append(f"{tag}: Hopf point {got.point.tolist()} is not the origin")
    ref = case.reference
    if ref is not None:
        if case.config.get("jets") == "finite_difference":
            # FD coefficients agree with exact ones within the FD jet's stated accuracy
            for name in COEFFICIENT_NAMES:
                exact = getattr(ref.coeffs, name)
                if abs(getattr(got.coeffs, name) - exact) > got.tolerance * max(1.0, abs(exact)):
                    problems.append(f"{tag}: {name} {getattr(got.coeffs, name)!r} vs exact {exact!r}")
        elif got.coeffs != ref.coeffs:
            problems.append(f"{tag}: exact-mode coefficients differ between runs")
    return problems


class ClassifyRegion:
    """12 region draws and 12 planted models, each with exact and FD jets."""

    name = "classify-region"
    unit = "model"
    #: wall time of one pass at the parent commit on a quiet 2-vCPU sandbox
    pass_seconds = 0.55
    probe = staticmethod(kernel_probe)
    probe_reference_s = KERNEL_PROBE_REFERENCE_S
    n_region = 12
    n_planted_per_type = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases: list[ClassifyCase] = []

    def setup(self) -> None:
        cases = []
        for p in eco.sample_region(self.n_region, self.seed):
            record = eco.classification_record(p)
            cases.append(
                ClassifyCase(
                    {"builtin": "predator_prey", "params": p.to_dict()},
                    record.label,
                    record.direction,
                    math.sqrt(eco.omega_squared(p)),
                    planted=False,
                )
            )
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(self.n_planted_per_type):
            for label in ("H", "ES", "EU"):
                config = planted_config(rng, label)
                _, side = expected_type(config["params"])
                cases.append(ClassifyCase(config, label, side, None, planted=True))
        self.cases = []
        for case in cases:
            reference = classify_pipeline(case.config, NullTracer())
            for jets in ("exact", "finite_difference"):
                self.cases.append(
                    dataclasses.replace(
                        case, config=dict(case.config, jets=jets), reference=reference
                    )
                )

    def ops(self) -> list[Callable]:
        return [lambda tracer, case=case: self._op(case, tracer) for case in self.cases]

    def _op(self, case: ClassifyCase, tracer) -> Outcome:
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                got = classify_pipeline(case.config, tracer)
        except HybridHopfError:
            return Outcome(_elapsed(start), failed=1)
        seconds = _elapsed(start)
        problems = check_classification(case, got)
        return Outcome(seconds, failed=int(bool(problems)), problems=problems)


# ---------------------------------------------------------------------------
# branch-continue
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BranchCase:
    label: str
    model: object
    coeffs: object
    frame: object
    classification: object
    grid: tuple[float, ...]
    guard: Callable | None


def check_orbit(case: BranchCase, point, verdict) -> list[str]:
    """Oracle of one converged orbit: closure, Liouville defect, Floquet verdict."""
    orbit = point.orbit
    where = f"{case.label} mu={point.mu:.4g}"
    problems = []
    if not orbit.residual <= BRANCH_NEWTON_TOL:
        problems.append(f"{where}: residual {orbit.residual:.3e}")
    if not orbit.liouville_defect <= LIOUVILLE_TOL:
        problems.append(f"{where}: Liouville defect {orbit.liouville_defect:.3e}")
    if verdict.marginal or verdict.stable != case.classification.orbit_stable:
        problems.append(
            f"{where}: Floquet stable={verdict.stable} marginal={verdict.marginal}, "
            f"classification orbit_stable={case.classification.orbit_stable}"
        )
    return problems


def jittered_sets(seed: int) -> list[eco.EcoParams]:
    """BRANCH_JITTERS_PER_SET copies of the reference sets, each parameter
    scaled by 1 + BRANCH_JITTER * U(-1, 1)."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for ref in BRANCH_REFERENCE_SETS * BRANCH_JITTERS_PER_SET:
        while True:
            values = np.asarray(ref) * (1.0 + BRANCH_JITTER * rng.uniform(-1.0, 1.0, 5))
            p = eco.EcoParams(*(float(v) for v in values))
            if p.admissible():
                out.append(p)
                break
    return out


def branch_case(config: dict, label: str, guard, expected: str) -> BranchCase:
    """Set-up of one branch: location, jet, frame, coefficients and type."""
    got = classify_pipeline(config, NullTracer())
    if got.classification.label != expected:
        raise HybridHopfError(f"{label}: type {got.classification.label}, expected {expected}")
    grid = tuple(got.classification.direction * m for m in BRANCH_GRID)
    return BranchCase(
        label, got.model, got.coeffs, got.frame, got.classification, grid, guard
    )


def run_branch(case: BranchCase, tracer) -> Outcome:
    """One branch and the Floquet verdicts of its orbits, checked."""
    model = tracer.wrap(case.model)
    start = time.perf_counter()
    with tracer.span("op"):
        with tracer.span("verify.continue_branch"):
            branch = verify.continue_branch(
                model, case.grid, coeffs=case.coeffs, frame=case.frame, guard=case.guard
            )
        verdicts = []
        for point in branch.points:
            with tracer.span("verify.floquet_stability"):
                verdicts.append(verify.floquet_stability(point.orbit))
    seconds = _elapsed(start)
    problems: list[str] = []
    bad = 0
    for point, verdict in zip(branch.points, verdicts):
        found = check_orbit(case, point, verdict)
        problems += found
        bad += bool(found)
    lost = len(case.grid) - len(branch.points)
    return Outcome(
        seconds,
        units=len(case.grid),
        failed=lost + bad,
        problems=problems,
        orbits=len(branch.points),
    )


class BranchContinue:
    """16 jittered predator-prey branches and 3 planted ones (H, ES, EU) per pass.

    A planted branch costs about five times a predator-prey one because of
    its polynomial RHS.  With three planted ops in 19, the median and the
    tail op (the eleventh-largest of a run's 38) stay inside the
    predator-prey cluster instead of on its edge.
    """

    name = "branch-continue"
    unit = "grid point"
    pass_seconds = 10.0
    probe = staticmethod(kernel_probe)
    probe_reference_s = KERNEL_PROBE_REFERENCE_S

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cases: list[BranchCase] = []

    def setup(self) -> None:
        region = []
        for i, p in enumerate(jittered_sets(self.seed)):
            config = {"builtin": "predator_prey", "params": p.to_dict()}
            expected = eco.classification_record(p).label
            region.append(branch_case(config, f"predator_prey[{i}]", eco.interior_guard(), expected))
        rng = np.random.default_rng([self.seed, 3])
        self.cases = []
        for k, label in enumerate(("H", "ES", "EU")):
            config = planted_config(rng, label)
            planted = branch_case(config, f"toy_cylindrical[{label}]", None, label)
            self.cases += region[len(region) * k // 3 : len(region) * (k + 1) // 3] + [planted]

    def ops(self) -> list[Callable]:
        return [lambda tracer, case=case: run_branch(case, tracer) for case in self.cases]


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of a CLI child: the package from ``src``, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_commands(config_path: Path, seed: int) -> dict[str, list[str]]:
    """The five subcommands as a user runs them, keyed by metric name."""
    config = str(config_path)
    return {
        "classify": ["classify", "--config", config],
        "verify": ["verify", "--config", config, "--mu", "0.005"],
        "continue": [
            "continue",
            "--config",
            config,
            "--mu-grid",
            "0.0005,0.001,0.002,0.005,0.01,0.02",
        ],
        "eco_sweep": ["eco-sweep", "--samples", str(ECO_SWEEP_SAMPLES), "--seed", str(seed)],
        "truncated": [
            "truncated",
            "--config",
            config,
            "--epsilon",
            "0.1",
            "--mu-tilde",
            "0.25",
            "--r0",
            "0.8",
            "--compare",
        ],
    }


def read_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_first_outputs(kind: str, files: dict[str, bytes]) -> list[str]:
    """Independent checks on the first invocation of each subcommand."""
    ref = eco.EcoParams(**REFERENCE_CONFIG["params"])
    try:
        if kind == "classify":
            doc = json.loads(files["classification.json"])
            record = eco.classification_record(ref)
            if doc["label"] != record.label or doc["direction"] != record.direction:
                return [f"classify: {doc['label']}/{doc['direction']}, expected {record.label}"]
            if abs(doc["omega"] - math.sqrt(eco.omega_squared(ref))) > 1e-9:
                return [f"classify: omega {doc['omega']!r}"]
        elif kind == "verify":
            doc = json.loads(files["verify.json"])
            if not doc["stability_consistent"] or doc["residual"] > 1e-11:
                return [f"verify: inconsistent orbit {doc['stability']} residual {doc['residual']}"]
        elif kind == "continue":
            doc = json.loads(files["summary.json"])
            if doc["n_converged"] != len(doc["mu_grid"]) or doc["lost_at"] is not None:
                return [f"continue: {doc['n_converged']}/{len(doc['mu_grid'])} points"]
        elif kind == "eco_sweep":
            rows = files["sweep.tsv"].decode().splitlines()[1:]
            if len(rows) != ECO_SWEEP_SAMPLES or any(r.split("\t")[-1] != "ES" for r in rows):
                return ["eco-sweep: rows missing or not all of type ES"]
        elif kind == "truncated":
            doc = json.loads(files["truncated.json"])
            if not math.isfinite(doc["deviation"]):
                return ["truncated: non-finite deviation"]
    except (KeyError, ValueError) as exc:
        return [f"{kind}: unreadable output ({exc!r})"]
    return []


class CliMix:
    """Round-robin over classify, verify, continue, eco-sweep and truncated."""

    name = "cli-mix"
    unit = "invocation"
    #: 23 s give six passes: the median then sits inside one subcommand's
    #: cluster of times, and the tail op inside the next one up
    pass_seconds = 4.0
    probe = staticmethod(interpreter_probe)
    probe_reference_s = INTERPRETER_PROBE_REFERENCE_S

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.commands: dict[str, list[str]] = {}
        self.first: dict[str, dict[str, bytes]] = {}

    def setup(self) -> None:
        """Write the config, reset the reference outputs, warm the file cache."""
        config_path = self.workdir / "eco.json"
        config_path.write_text(json.dumps(REFERENCE_CONFIG))
        self.commands = cli_commands(config_path, self.seed)
        self.first = {}
        subprocess.run(
            [sys.executable, "-m", "hybridhopf.cli", "--version"],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
            check=True,
        )

    def ops(self) -> list[Callable]:
        return [
            lambda tracer, kind=kind: self.invoke(kind, tracer) for kind in self.commands
        ]

    def invoke(self, kind: str, tracer) -> Outcome:
        out = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=self.workdir))
        try:
            argv = [sys.executable, "-m", "hybridhopf.cli", *self.commands[kind], "--out", str(out)]
            start = time.perf_counter()
            with tracer.span("op"), tracer.span(f"cli.{kind}"):
                proc = subprocess.run(
                    argv, env=child_env(), cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S
                )
            seconds = _elapsed(start)
            if proc.returncode != 0:
                return Outcome(seconds, failed=1, kind=kind)
            files = read_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Outcome(seconds, problems=self.check_outputs(kind, files), kind=kind)

    def check_outputs(self, kind: str, files: dict[str, bytes]) -> list[str]:
        """First invocation: independent checks; later ones: byte-identical to it."""
        if kind not in self.first:
            self.first[kind] = files
            return check_first_outputs(kind, files)
        if files != self.first[kind]:
            return [f"{kind}: outputs differ from the first invocation"]
        return []


def make(name: str, seed: int, workdir: Path):
    if name == ClassifyRegion.name:
        return ClassifyRegion(seed)
    if name == BranchContinue.name:
        return BranchContinue(seed)
    if name == CliMix.name:
        return CliMix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (ClassifyRegion.name, BranchContinue.name, CliMix.name)
