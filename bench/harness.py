"""Workloads, output checks and metrics of the bmmci benchmark.

Every call goes through ``bmmci.cli.main`` in this process, exactly as the
``bmmci`` command would run it, with its report captured from stdout.  The
caller puts ``src`` on ``sys.path`` before anything here imports ``bmmci``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = Path(__file__).resolve().parent / "references.json"

SETUP_REPEATS = 7
# Figures from more passes are medians; a run makes at least this many so
# that repeated same-seed calls can be compared byte for byte.
MIN_PASSES = 2
REL_TOL = 1e-12
RATE_SIGMAS = 5.0
# Reference error rates come from this many times the workload's trials,
# so their own sampling error is small beside the tolerance.
REFERENCE_FACTOR = 10
REFERENCE_SEED = 20261017


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``{work}`` and ``{seed}`` are filled per run."""

    key: str
    argv: tuple[str, ...]

    def resolve(self, work: Path, seed: int) -> list[str]:
        return [a.format(work=work, seed=seed) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    warmup: Call


INPUTS = (
    ("exponent_truth.txt", "000000\n101000\n100100\n"),
    ("tail_truth.txt", "0\n1\n1\n"),
)
SIM_WARMUP = Call("warmup",
                  ("simulate", "--truth", "{work}/tail_truth.txt",
                   "--flip", "0.1", "--m-values", "5,9,13",
                   "--trials", "2000", "--seed", "{seed}"))

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="scan",
            calls=(
                Call("closest_pair_4_4_f0.3",
                     ("closest-pair", "--n", "4", "--l", "4", "--flip", "0.3")),
                Call("closest_pair_4_4_f0",
                     ("closest-pair", "--n", "4", "--l", "4", "--flip", "0")),
                Call("verify_3_5_f0.3",
                     ("verify", "--n", "3", "--l", "5", "--flip", "0.3",
                      "--threads", "2")),
            ),
            warmup=Call("warmup",
                        ("verify", "--n", "2", "--l", "2", "--flip", "0.3")),
        ),
        Workload(
            name="exponent",
            calls=(
                Call("simulate_exponent",
                     ("simulate", "--truth", "{work}/exponent_truth.txt",
                      "--flip", "0.2", "--m-values", "10,20,30,40",
                      "--trials", "4096", "--seed", "{seed}")),
            ),
            warmup=SIM_WARMUP,
        ),
        Workload(
            name="tail",
            calls=(
                Call("simulate_tail",
                     ("simulate", "--truth", "{work}/tail_truth.txt",
                      "--flip", "0.1", "--m-values", "20,40,60,80,100,120",
                      "--trials", "400000", "--seed", "{seed}")),
            ),
            warmup=SIM_WARMUP,
        ),
    )
}


@dataclass
class CallResult:
    key: str
    code: int | str
    wall: float
    stdout: str
    stderr: str
    problems: list[str]


def run_call(argv: list[str], tracer: Tracer | None = None) -> tuple:
    """Run one CLI call in process: (exit code, wall seconds, stdout, stderr).

    A call that raises instead of exiting with a code reports the
    exception's type as its code and the traceback as its stderr.
    """
    from bmmci import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a lost run
            code = type(exc).__name__
            err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return code, wall, out.getvalue(), err.getvalue()


def write_inputs(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS:
        (work / name).write_text(text)


_SETUP_CHILD = """\
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from bmmci import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(time.perf_counter() - start, code)
"""


def setup_once(workload: Workload, seed: int, work: Path) -> float:
    """Input files, then import and one warm-up call in a fresh interpreter.

    Interpreter start-up is left out: the child times from before its
    ``import bmmci`` to the end of the warm-up call.
    """
    start = time.perf_counter()
    write_inputs(work)
    files_s = time.perf_counter() - start
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC),
                           *workload.warmup.resolve(work, seed)],
                          capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
        raise RuntimeError(f"set-up call failed: {proc.stderr.strip()}")
    return files_s + float(fields[0])


# -- output checks -----------------------------------------------------------

EXACT_FIELDS = ("pair_a", "pair_b", "zero_ci", "candidates", "status",
                "nearest_alternative")
CLOSE_FIELDS = ("min_ci_nats", "oracle_min_ci_nats", "exact_exponent_nats")


def reference_of(report: dict) -> dict:
    """The checked fields of a report, as stored in ``references.json``."""
    ref = {
        "exact": {k: report[k] for k in EXACT_FIELDS if k in report},
        "close": {k: report[k] for k in CLOSE_FIELDS if k in report},
    }
    if "per_m" in report:
        ref["error_rate"] = {str(p["m"]): p["error_rate"]
                             for p in report["per_m"]}
        ref["error_rate_trials"] = report["trials"]
    return ref


def check_report(text: str, ref: dict) -> list[str]:
    """Differences between a report and its reference; empty when it passes.

    Error rates pass within ``RATE_SIGMAS`` binomial standard errors of the
    reference rate at the report's trial count, so another valid random
    stream passes and a biased estimator does not.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    for key, want in ref["exact"].items():
        if report.get(key) != want:
            problems.append(f"{key}: {report.get(key)!r} != {want!r}")
    for key, want in ref["close"].items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or (
                abs(got - want) > REL_TOL * abs(want)):
            problems.append(f"{key}: {got!r} not within {REL_TOL} of {want!r}")
    if "error_rate" in ref:
        trials = report.get("trials")
        if not isinstance(trials, int) or trials < 1:
            return problems + [f"trials: {trials!r}"]
        rates = {str(p["m"]): p["error_rate"] for p in report.get("per_m", ())}
        if rates.keys() != ref["error_rate"].keys():
            problems.append(f"per_m sample counts {sorted(rates)} differ")
        for m, want in ref["error_rate"].items():
            if m not in rates:
                continue
            p = min(max(want, 1.0 / trials), 1.0 - 1.0 / trials)
            se = math.sqrt(p * (1.0 - p) / trials)
            if abs(rates[m] - want) > RATE_SIGMAS * se:
                problems.append(f"error_rate at m={m}: {rates[m]} is more "
                                f"than {RATE_SIGMAS} se from {want}")
    return problems


def record_reference(call: Call, work: Path) -> dict:
    """Run ``call`` once and keep its checked fields.

    A simulate call is run at ``REFERENCE_FACTOR`` times its trials on a
    seed of its own, so the stored rates are close to the true ones.
    """
    argv = call.resolve(work, REFERENCE_SEED)
    if argv[0] == "simulate":
        pos = argv.index("--trials") + 1
        argv[pos] = str(int(argv[pos]) * REFERENCE_FACTOR)
    code, _, out, err = run_call(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err}")
    return reference_of(json.loads(out))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# -- measurement -------------------------------------------------------------

def _work_counts(report_text: str) -> tuple[int, int]:
    """(source pairs compared, trials x sample counts) behind one report."""
    try:
        report = json.loads(report_text)
    except ValueError:
        return 0, 0
    if "candidates" in report:
        return report["candidates"], 0
    if "truth" in report:
        n_rows, n_cols = len(report["truth"]), len(report["truth"][0])
        n_sources = math.comb((1 << n_cols) + n_rows - 1, n_rows)
        return n_sources - 1, report["trials"] * len(report["m_values"])
    return 0, 0


@dataclass
class Pass:
    traced: bool
    calls: list[CallResult]
    layers: dict | None = None

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)

    def counts(self) -> tuple[int, int]:
        pairs = trials = 0
        for c in self.calls:
            p, t = _work_counts(c.stdout)
            pairs, trials = pairs + p, trials + t
        return pairs, trials


def run_pass(workload: Workload, refs: dict, seed: int, work: Path,
             tracer: Tracer | None) -> Pass:
    results = []
    if tracer:
        tracer.install()
    try:
        for call in workload.calls:
            code, wall, out, err = run_call(call.resolve(work, seed), tracer)
            results.append(CallResult(call.key, code, wall, out, err, []))
    finally:
        if tracer:
            tracer.restore()
    for res in results:
        if res.code != 0:
            res.problems.append(f"exit {res.code}: {res.stderr.strip()[-500:]}")
        else:
            res.problems.extend(check_report(res.stdout, refs[res.key]))
    layers = layer_metrics(tracer.spans) if tracer else None
    return Pass(traced=tracer is not None, calls=results, layers=layers)


@dataclass
class Run:
    setup: list[float]
    passes: list[Pass]
    warmup_ok: bool
    peak_rss_mb: float
    spans: list

    @property
    def attempted(self) -> int:
        return 1 + sum(len(p.calls) for p in self.passes)

    @property
    def failed(self) -> int:
        return (not self.warmup_ok) + sum(
            bool(c.problems) for p in self.passes for c in p.calls)


def measure(workload: Workload, refs: dict, seed: int, seconds: float,
            trace: bool, work: Path) -> Run:
    """Set up, then run passes over the workload until ``seconds`` is spent.

    A pass starts only if the previous pass's wall fits in the time left.
    With ``trace`` the passes alternate untraced and traced, so the same
    run shows both the per-layer figures and what tracing cost.
    Peak RSS is read after the first pass.  Every same-seed report must
    match the first pass's byte for byte.
    """
    setup = [setup_once(workload, seed, work) for _ in range(SETUP_REPEATS)]
    code, _, _, _ = run_call(workload.warmup.resolve(work, seed))
    passes: list[Pass] = []
    spans = []
    rss_mb = 0.0
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(workload, refs, seed, work, tracer))
        if tracer:
            spans.append([asdict(s) for s in tracer.spans])
        if len(passes) == 1:
            # Later passes only add allocator growth, which would tie the
            # peak to the number of passes that fit in the run.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + passes[-1].wall > seconds):
            break
    first = {c.key: c.stdout for c in passes[0].calls}
    for p in passes[1:]:
        for c in p.calls:
            if c.stdout != first[c.key]:
                c.problems.append("report differs from the first pass's")
    return Run(setup=setup, passes=passes, warmup_ok=(code == 0),
               peak_rss_mb=rss_mb, spans=spans)


def pass_wall(passes: list[Pass]) -> float:
    """Wall of one pass: the sum over its calls of each call's median wall."""
    keys = [c.key for c in passes[0].calls]
    return sum(statistics.median(c.wall for p in passes for c in p.calls
                                 if c.key == key)
               for key in keys)


def throughput(run: Run) -> dict[str, float]:
    """Pass wall, work rates and failures, from the untraced passes."""
    plain = [p for p in run.passes if not p.traced]
    wall = pass_wall(plain)
    pairs, trials = plain[0].counts()
    return {"wall_s": wall, "pairs_per_s": pairs / wall,
            "trials_per_s": trials / wall,
            "failed_ratio": run.failed / run.attempted}


def end_to_end(run: Run) -> dict[str, float]:
    rates = throughput(run)
    return {
        "setup_s": statistics.median(run.setup),
        "wall_s": rates["wall_s"],
        "pairs_per_s": rates["pairs_per_s"],
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run) -> dict[str, float]:
    """Medians over traced passes, plus tracing overhead and throughput."""
    traced = [p for p in run.passes if p.traced]
    rates = throughput(run)
    layers = {key: statistics.median(p.layers[key] for p in traced)
              for key in traced[0].layers}
    layers["trace.overhead_s"] = pass_wall(traced) - rates["wall_s"]
    layers["trials_per_s"] = rates["trials_per_s"]
    layers["failed_ratio"] = rates["failed_ratio"]
    return layers


def declared_units() -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def result_line(run: Run, trace: bool) -> dict:
    values = per_layer(run) if trace else end_to_end(run)
    units = declared_units()
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
