"""hybridhopf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are ``classify-region``,
``branch-continue`` and ``cli-mix`` (see perfbench/README.md).  One client
runs ops in a closed loop: a fixed number of passes over the input pool,
which take about ``--seconds`` seconds at the parent commit.  Every result
is checked by an oracle.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it holds the per-layer metrics, from spans the benchmark records around its
own calls into each layer.  Everything printed before that line is the full
report: all end-to-end metrics by name and unit, the machine record and, in
a traced run, the span table and the tracing overhead.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and, through the environment, in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one CPU for this process and its children, so that the speed probe runs
# where the ops run (the CPUs of a shared machine are slowed independently)
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import contextlib
import dataclasses
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
#: repetitions of each per-layer probe of the CLI
PROBE_REPEATS = 3
#: the workload's speed probe is taken between ops at most this often
PROBE_INTERVAL_S = 0.25
RHS_PROBE_CALLS = 2000
ECO_PROBE_SAMPLES = 10000


def _package_on_path() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "hybridhopf" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'hybridhopf'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))


_package_on_path()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer, median, tail  # noqa: E402


def machine_record() -> dict:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        revision = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "revision": revision,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


@dataclasses.dataclass
class Loop:
    """Outcomes of a measured loop and the speed probes taken between ops.

    ``probes`` holds (number of outcomes recorded before the probe, seconds);
    ``reference`` is the probe time of the reference machine.
    """

    outcomes: list
    probes: list[tuple[int, float]]
    reference: float

    def scaled_seconds(self) -> list[float]:
        """Each op's seconds at reference machine speed: raw seconds times
        ``reference`` over the mean of the two probes around the op."""
        out = []
        for (lo, k0), (hi, k1) in zip(self.probes, self.probes[1:]):
            factor = self.reference / (0.5 * (k0 + k1))
            out.extend(o.seconds * factor for o in self.outcomes[lo:hi])
        return out


def passes_for(workload, seconds: float) -> int:
    """Whole passes over the pool that take about ``seconds`` of wall time at
    the parent commit.  The work per run is fixed, so every run of a workload
    measures the same ops: a faster program finishes sooner instead of doing
    more."""
    return max(1, round(seconds / workload.pass_seconds))


def measure(workload, passes: int, tracer) -> Loop:
    """Closed loop, one client: ``passes`` whole passes over the input pool."""
    loop = Loop([], [(0, workload.probe())], workload.probe_reference_s)
    last_probe = time.perf_counter()
    for _ in range(passes):
        for op in workload.ops():
            if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                loop.probes.append((len(loop.outcomes), workload.probe()))
                last_probe = time.perf_counter()
            loop.outcomes.append(op(tracer))
    loop.probes.append((len(loop.outcomes), workload.probe()))
    return loop


def timed_setups(workload, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds, mean of the probes around it) of ``repeats`` set-ups.

    Each set-up rebuilds the inputs from scratch; the last one is kept.
    """
    out = []
    probe = workload.probe()
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
        after = workload.probe()
        out.append((seconds, 0.5 * (probe + after)))
        probe = after
    return out


def peak_rss_mb(workload_name: str) -> float:
    """Peak resident set: of the benchmark process, or of the CLI children."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, loop: Loop) -> dict:
    """Every end-to-end metric of one measured loop: name -> (value, unit, note).

    Times are at reference machine speed (see `workloads.kernel_probe`);
    failures count every unit attempted.
    """
    outcomes = loop.outcomes
    seconds = loop.scaled_seconds()
    raw = [o.seconds for o in outcomes]
    busy = sum(seconds)
    units = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    tail_value, tail_pct, n = tail(seconds)
    out = {
        "ops_per_s": (len(seconds) / busy, "1/s", f"{n} ops, {busy:.3f} s busy ({sum(raw):.3f} s raw)"),
        "op_p50_ms": (1e3 * median(seconds), "ms", f"{1e3 * median(raw):.6g} ms raw"),
        "op_tail_ms": (1e3 * tail_value, "ms", f"p{tail_pct:.2f} of {n} ops"),
        "failed_frac": (failed / units, "1", f"{failed} of {units} units ({workload.unit}) failed"),
        "peak_rss_mb": (peak_rss_mb(workload.name), "MB", ""),
    }
    if workload.name == "branch-continue":
        orbits = sum(o.orbits for o in outcomes)
        out["orbits_per_s"] = (orbits / busy, "1/s", f"{orbits} converged orbits")
    if workload.name == "cli-mix":
        for kind in dict.fromkeys(o.kind for o in outcomes):
            walls = [s for s, o in zip(seconds, outcomes) if o.kind == kind]
            out[f"cli.{kind}_s"] = (median(walls), "s", f"median of {len(walls)}")
    return out


# ---------------------------------------------------------------------------
# per-layer probes (traced run only)
# ---------------------------------------------------------------------------


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, env=workloads.child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=workloads.CLI_TIMEOUT_S, check=True,
    )


def _importtime(stderr: str, module: str) -> float:
    """Cumulative seconds of ``module`` in ``-X importtime`` output, 0 if absent."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def cli_probes(cli, workdir: Path) -> tuple[dict, list[str]]:
    """Interpreter start-up, import cost and in-process `cli.main` per subcommand."""
    from hybridhopf import cli as cli_module

    interp, imports, scipy_integrate = [], [], []
    for _ in range(PROBE_REPEATS):
        interp.append(workloads.interpreter_probe())
        proc = _run_child([sys.executable, "-X", "importtime", "-c", "import hybridhopf.cli"])
        imports.append(_importtime(proc.stderr, "hybridhopf.cli"))
        scipy_integrate.append(_importtime(proc.stderr, "scipy.integrate"))
    metrics = {
        "cli.interpreter_s": median(interp),
        "cli.import_s": median(imports),
        "cli.import_scipy_integrate_s": median(scipy_integrate),
    }
    problems = []
    for kind, argv in cli.commands.items():
        times = []
        for _ in range(PROBE_REPEATS):
            out = Path(tempfile.mkdtemp(prefix=f"main-{kind}-", dir=workdir))
            try:
                sink = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli_module.main([*argv, "--out", str(out)])
                times.append(time.perf_counter() - start)
                files = workloads.read_outputs(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if code != 0 or files != cli.first.get(kind):
                problems.append(f"in-process {kind}: exit {code} or outputs differ from the CLI's")
        metrics[f"cli.main_ms.{kind}"] = 1e3 * median(times)
    return metrics, problems


def model_probes(classify, seed: int) -> dict:
    """Per-call RHS cost of each model kind and the eco closed-form sweep."""
    import hybridhopf.eco as eco

    per_call: dict[str, list[float]] = {"predator_prey": [], "polynomial": []}
    for case in classify.cases[::2]:
        ref = case.reference
        rhs, point = ref.model.rhs, ref.point
        start = time.perf_counter()
        for _ in range(RHS_PROBE_CALLS):
            rhs(point, 0.0)
        kind = "polynomial" if case.planted else "predator_prey"
        per_call[kind].append((time.perf_counter() - start) / RHS_PROBE_CALLS)
    scale = 1e4 / ECO_PROBE_SAMPLES
    start = time.perf_counter()
    samples = eco.sample_region(ECO_PROBE_SAMPLES, seed)
    sample_s = time.perf_counter() - start
    start = time.perf_counter()
    for p in samples:
        eco.closed_form_coefficients(p)
        eco.classification_record(p)
    closed_s = time.perf_counter() - start
    return {
        "models.rhs_us.predator_prey": 1e6 * median(per_call["predator_prey"]),
        "models.rhs_us.polynomial": 1e6 * median(per_call["polynomial"]),
        "eco.sample_region_ms_per_10k": 1e3 * sample_s * scale,
        "eco.closed_form_ms_per_10k": 1e3 * closed_s * scale,
    }


def span_metrics(tracer, count_passes: dict) -> dict:
    """Per-layer times from all spans, work counts from the fixed count passes."""
    spans = tracer.by_name()

    def ms(name: str) -> float:
        return 1e3 * median([s.seconds for s in spans.get(name, [])])

    first, last, _ = count_passes["classify-region"]
    ops = tracer.by_name(first, last)["op"]
    classify_counts = {
        "models.rhs_calls_per_op": sum(s.rhs_calls for s in ops) / len(ops),
        "models.jac_calls_per_op": sum(s.jac_calls for s in ops) / len(ops),
    }
    first, last, loop = count_passes["branch-continue"]
    outcomes = loop.outcomes
    branches = tracer.by_name(first, last)["verify.continue_branch"]
    orbits = sum(o.orbits for o in outcomes)
    return {
        "models.jet_ms": ms("models.jet"),
        "models.finite_difference_jet_ms": ms("models.finite_difference_jet"),
        **classify_counts,
        "frame.locate_hopf_point_ms": ms("frame.locate_hopf_point"),
        "frame.check_assumptions_ms": ms("frame.check_assumptions"),
        "frame.build_standard_frame_ms": ms("frame.build_standard_frame"),
        "frame.standard_jet_ms": ms("frame.standard_jet"),
        "coefficients.compute_coefficients_ms": ms("coefficients.compute_coefficients"),
        "classifier.classify_ms": ms("classifier.classify"),
        "classifier.predict_orbit_ms": ms("classifier.predict_orbit"),
        "verify.continue_branch_s": ms("verify.continue_branch") / 1e3,
        "verify.floquet_stability_ms": ms("verify.floquet_stability"),
        "verify.rhs_calls_per_orbit": sum(s.rhs_calls for s in branches) / orbits,
        "verify.jac_calls_per_orbit": sum(s.jac_calls for s in branches) / orbits,
        "verify.points_converged_ratio": orbits / sum(o.units for o in outcomes),
    }


def span_table(tracer) -> list[str]:
    """Per span name: count, median duration and summed self time."""
    own = tracer.self_seconds()
    rows: dict[str, list] = {}
    for span, self_s in zip(tracer.spans, own):
        row = rows.setdefault(span.name, [[], 0.0])
        row[0].append(span.seconds)
        row[1] += self_s
    lines = [f"  {'span':<36}{'count':>7}{'median_ms':>12}{'self_total_s':>14}"]
    for name, (durations, self_total) in sorted(rows.items()):
        lines.append(
            f"  {name:<36}{len(durations):>7}{1e3 * median(durations):>12.4f}{self_total:>14.4f}"
        )
    return lines


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def declared_metrics(key: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def result_line(correct: bool, attempted: int, failed: int, values: dict, key: str) -> str:
    units = declared_metrics(key)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<24}{value:>16.6g} {unit:<4} {note}")


def run(args, workdir: Path) -> str:
    record = machine_record()
    print(
        f"hybridhopf benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    print("machine: " + " ".join(f"{k}={v}" for k, v in record.items()))
    wl = {name: workloads.make(name, args.seed, workdir) for name in workloads.WORKLOADS}
    main = wl[args.workload]
    setups = timed_setups(main, SETUP_REPEATS)

    if not args.trace:
        loop = measure(main, passes_for(main, args.seconds), NullTracer())
        metrics = end_to_end(main, loop)
        setup_s = median([s * main.probe_reference_s / k for s, k in setups])
        metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_REPEATS} set-ups")
        print_metrics("end-to-end (untraced):", metrics)
        print_speed([loop])
        return finish([loop], [], {n: v[0] for n, v in metrics.items()}, "end_to_end")

    # traced run: half the time untraced, half traced, for the overhead
    half = passes_for(main, args.seconds / 2.0)
    untraced = measure(main, half, NullTracer())
    tracer = Tracer()
    count_passes = {}
    for name, workload in wl.items():
        if workload is not main:
            workload.setup()
        first = len(tracer.spans)
        loop = measure(workload, 1, tracer)
        count_passes[name] = (first, len(tracer.spans), loop)
    traced = measure(main, half, tracer)
    plain = end_to_end(main, untraced)
    with_spans = end_to_end(main, traced)
    print_metrics("end-to-end (untraced half):", plain)
    print_metrics("end-to-end (traced half):", with_spans)
    print("tracing overhead (traced - untraced):")
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        a, b = plain[name][0], with_spans[name][0]
        print(f"  {name:<24}{b - a:>+16.6g} {plain[name][1]:<4} ({100.0 * (b - a) / a:+.2f}%)")
    print_speed([untraced, traced])
    print("spans:")
    print("\n".join(span_table(tracer)))

    values = span_metrics(tracer, count_passes)
    values.update(model_probes(wl["classify-region"], args.seed))
    cli_values, cli_problems = cli_probes(wl["cli-mix"], workdir)
    values.update(cli_values)
    print("per-layer:")
    for name, unit in declared_metrics("per_layer").items():
        print(f"  {name:<40}{values[name]:>16.6g} {unit}")
    checked_only = [loop for _, _, loop in count_passes.values()]
    return finish([untraced, traced], checked_only, values, "per_layer", cli_problems)


def print_speed(loops: list[Loop]) -> None:
    probes = [k for loop in loops for _, k in loop.probes]
    print(
        f"machine speed probe: fastest {1e3 * min(probes):.3f} ms, median "
        f"{1e3 * median(probes):.3f} ms, slowest {1e3 * max(probes):.3f} ms "
        f"({len(probes)} probes); op times are scaled to {1e3 * loops[0].reference:g} ms"
    )


def finish(loops, checked_only, values, key, extra_problems=()) -> str:
    """Report oracle mismatches and build the result line.

    ``attempted`` and ``failed`` count the units of ``loops``; the oracles of
    ``checked_only`` also decide correctness.
    """
    outcomes = [o for loop in loops for o in loop.outcomes]
    checked = outcomes + [o for loop in checked_only for o in loop.outcomes]
    problems = [p for o in checked for p in o.problems] + list(extra_problems)
    for p in problems:
        print(f"ORACLE MISMATCH: {p}")
    return result_line(
        not problems,
        sum(o.units for o in outcomes),
        sum(o.failed for o in outcomes),
        values,
        key,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        line = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
