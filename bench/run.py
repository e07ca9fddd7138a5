"""End-to-end benchmark of `gcorr compose` and `gcorr verify`.

    python3 bench/run.py --workload ladder-deep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all          # every workload, then the oracle self-test
    python3 bench/run.py --selftest     # the oracles pass, and each one can fail

One op is one pass over the workload's instance set: `compose X Y OUT`,
then `verify X Y`, each through `gcorr.cli.main(argv)` in this process.
Times are in reference seconds: wall seconds scaled by a fixed reference
loop timed just before and just after them (see `reference_s`).  Every
verdict is checked against the oracles in `oracles.py`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

# One thread: numpy's BLAS would otherwise start a worker per core, and on a
# two-core share of a host those workers time the scheduler and make the
# peak RSS depend on thread timing.  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 25  # run_seconds in BENCHMARK.json
SETUP_REPEATS = 11  # a fixed count, so that peak_rss_mb does not depend on timing
CALL_LIMIT_S = 60  # a call that runs longer is a wrong verdict

END_TO_END = {"compose_s": "s", "verify_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
REFERENCE_CHUNKS = 8  # chunks of the reference loop per reference time
# A reference second is the time in which the reference chunk runs 1000
# times; on an idle core of a 2-vCPU Intel Xeon VM the chunk took 1.0 ms.
REFERENCE_CHUNK_S = 0.001

PER_LAYER = {
    "io_json.parse_instance_s": "s",
    "io_json.serialize_instance_s": "s",
    "io_json.bytes_read": "bytes",
    "correspondence.validate_s": "s",
    "correspondence.validate_composite_s": "s",
    "correspondence.make_correspondence_s": "s",
    "groupoids.fibre_product_s": "s",
    "groupoids.transformation_groupoid_s": "s",
    "groupoids.orbit_space_s": "s",
    "groupoids.check_proper_s": "s",
    "groupoids.groupoid_violations_s": "s",
    "groupoids.bispace_violations_s": "s",
    "groupoids.z_points": "count",
    "groupoids.middle_arrows": "count",
    "groupoids.middle_composable_pairs": "count",
    "groupoids.omega_points": "count",
    "measures.make_haar_s": "s",
    "measures.check_haar_s": "s",
    "measures.quotient_family_s": "s",
    "measures.cutoff_s": "s",
    "cohomology.check_cocycle_s": "s",
    "cohomology.invariant_probability_family_s": "s",
    "cohomology.decompose_multiplicative_s": "s",
    "cohomology.coboundary_residual_s": "s",
    "cohomology.exact_instances": "count",
    "composition.compose_s": "s",
    "composition.compose_self_s": "s",
    "composition.build_z_bispace_s": "s",
    "composition.build_m_s": "s",
    "composition.build_middle_groupoid_s": "s",
    "composition.lambda_pi_rep_independence_s": "s",
    "composition.build_delta_z_s": "s",
    "composition.z_invariance_residuals_s": "s",
    "composition.build_b_s": "s",
    "composition.build_mu_s": "s",
    "composition.build_mu_calls": "count",
    "composition.build_omega_bispace_s": "s",
    "composition.build_delta12_s": "s",
    "cstar.verify_theorem_s": "s",
    "cstar.verify_theorem_self_s": "s",
    "cstar.tensor_basis_gram_s": "s",
    "cstar.image_basis_gram_s": "s",
    "cstar.lambda_prime_s": "s",
    "cstar.lambda_prime_calls": "count",
    "cstar.left_action_s": "s",
    "cstar.left_action_calls": "count",
    "cstar.inner_product_s": "s",
    "cstar.tensor_inner_product_s": "s",
    "cstar.representation_matrices_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
}

# Ladder sizes of the traced run's scaling table, one traced op each.
SCALING_LADDERS = (8, 12, 16)
# Exact counts shown next to the times in the ladder scaling table.
SCALING_COUNTS = ("groupoids.z_points", "groupoids.middle_arrows",
                  "groupoids.middle_composable_pairs", "groupoids.omega_points",
                  "io_json.bytes_read", "cstar.lambda_prime_calls",
                  "cstar.left_action_calls", "composition.build_mu_calls")


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout(f"call ran past {CALL_LIMIT_S} s")


@dataclass
class CallResult:
    rc: Optional[int]
    seconds: float
    stdout: str
    stderr: str
    error: Optional[str] = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def verdict(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{what}: {' '.join(problems[0].split())[:240]}")


# ---------------------------------------------------------------------------
# gcorr import and set-up


def import_gcorr() -> None:
    """Import gcorr from this checkout's src/, never from anywhere else."""
    for name in [m for m in sys.modules if m == "gcorr" or m.startswith("gcorr.")]:
        del sys.modules[name]
    import gcorr
    import gcorr.cli

    if Path(gcorr.__file__).resolve().parent != (SRC / "gcorr").resolve():
        raise ImportError(f"gcorr was imported from {gcorr.__file__}, not from {SRC}")


def setup(workload: str, seed: int, sizes: dict, directory: Path):
    """Import gcorr and write the instance set, SETUP_REPEATS times; the
    last round's modules and files are the ones the ops use.  Returns the
    cases and each set-up's time in wall and in reference seconds."""
    wall, ref_s = [], []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        import_gcorr()
        cases = workloads.build(workload, directory, seed, sizes)
        wall.append(perf_counter() - t0)
        after = reference_s()
        ref_s.append(in_reference_s(wall[-1], before, after))
        before = after
    expectations(cases)
    return cases, wall, ref_s


def expectations(cases: list[workloads.Case]) -> None:
    """What the oracles expect, recomputed from the written input files."""
    for case in cases:
        x_doc, y_doc = oracles.load(case.x), oracles.load(case.y)
        case.z_points = oracles.z_points(x_doc, y_doc)
        if case.spans:
            case.span_multiset = oracles.composite_span(x_doc, y_doc)


def remove_work(directory: Path) -> None:
    """Delete this run's instance files, and the work directory once empty."""
    shutil.rmtree(directory, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()


# ---------------------------------------------------------------------------
# reference loop


def _reference_chunk() -> None:
    """About a millisecond of pure-Python work of the kinds gcorr does:
    dict updates and Fraction sums."""
    table: dict[int, int] = {}
    total = Fraction(0)
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 10 == 0:
            total += Fraction(i, 7)


def reference_s() -> float:
    """The median time of a reference chunk, taken now.

    The host's other tenants change this process's speed by up to 1.6x
    within seconds, and a call and the reference loop next to it slow down
    together.  So a call's time divided by the reference time around it is
    steady where the call's seconds are not.
    """
    times = []
    for _ in range(REFERENCE_CHUNKS):
        t0 = perf_counter()
        _reference_chunk()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def in_reference_s(seconds: float, before: float, after: float) -> float:
    """Wall seconds in reference seconds, given the reference times taken
    just before and just after them."""
    return seconds * 2 * REFERENCE_CHUNK_S / (before + after)


# ---------------------------------------------------------------------------
# ops


def call(argv: list[str]) -> CallResult:
    """gcorr.cli.main(argv) with captured output, a time limit and a timer."""
    cli = sys.modules["gcorr.cli"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a raising call is a wrong verdict, not a crash
        error = traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return CallResult(rc, dt, out.getvalue(), err.getvalue(), error)


def exit_problems(case: workloads.Case, res: CallResult) -> Optional[list[str]]:
    """The verdict's problems when the exit code alone decides it, else None."""
    if res.error:
        return [f"raised {res.error}"]
    if case.tampered:
        return [] if res.rc in (1, 2) else [f"exit {res.rc} on a tampered pair, expected 1 or 2"]
    if res.rc != 0:
        return [f"exit {res.rc}: {(res.stderr or res.stdout).strip()[:160]}"]
    return None


def check_compose(case: workloads.Case, res: CallResult) -> tuple[list[str], dict]:
    """Problems with one compose verdict, and the report's notes."""
    decided = exit_problems(case, res)
    if decided is not None:
        return decided, {}
    try:
        report = json.loads(res.stdout)
        notes = report["notes"]
        problems = [] if report["passed"] else ["compose report does not pass"]
        if int(notes["z_points"]) != case.z_points:
            problems.append(f"z_points {notes['z_points']}, recomputed {case.z_points}")
        out_doc = oracles.load(case.out)
        problems += oracles.composite_problems(out_doc)
        if case.ladder_n is not None:
            problems += oracles.ladder_problems(out_doc, case.ladder_n)
        if case.spans:
            problems += oracles.span_problems(out_doc, case.span_multiset)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    return problems, notes


def check_verify(case: workloads.Case, res: CallResult) -> list[str]:
    decided = exit_problems(case, res)
    if decided is not None:
        return decided
    try:
        return [] if json.loads(res.stdout)["passed"] else ["verify report does not pass"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


@dataclass
class OpResult:
    compose_calls: list[float]  # seconds of each case's call, in case order
    verify_calls: list[float]
    compose_ref_s: list[float]  # the same calls, in reference seconds
    verify_ref_s: list[float]
    reference: list[float]  # the reference times taken during the op
    sizes: Counter

    @property
    def compose_wall_s(self) -> float:
        return sum(self.compose_calls)

    @property
    def verify_wall_s(self) -> float:
        return sum(self.verify_calls)


class Runner:
    """Runs ops over one instance set and keeps the verdict tally."""

    def __init__(self, cases: list[workloads.Case], tally: Tally,
                 after_compose: Optional[Callable[[workloads.Case], None]] = None):
        self.cases = cases
        self.tally = tally
        self.after_compose = after_compose
        self.phase = None
        self.sizes: Counter = Counter()

    def observe_compose(self, args, kwargs, result) -> None:
        """Tracer hook on `compose`: middle groupoid sizes, compose calls only."""
        if self.phase == "compose":
            self.sizes.update(middle_sizes(result))

    def op(self) -> OpResult:
        gc.collect()
        op = OpResult([], [], [], [], [reference_s()], Counter())
        self.sizes = op.sizes
        for case in self.cases:
            case.out.unlink(missing_ok=True)
            self.phase = "compose"
            res = self.timed(op, "compose", ["compose", str(case.x), str(case.y), str(case.out), "--json"])
            self.phase = None
            if self.after_compose is not None and res.rc == 0:
                self.after_compose(case)
            problems, notes = check_compose(case, res)
            self.tally.verdict(f"{case.name} compose", problems)
            for key in ("z_points", "omega_points"):  # absent notes leave the count absent
                if str(notes.get(key, "")).isdigit():
                    op.sizes[f"groupoids.{key}"] += int(notes[key])
            if "scalar_mode" in notes:
                op.sizes["cohomology.exact_instances"] += notes["scalar_mode"] == "exact"
            res = self.timed(op, "verify", ["verify", str(case.x), str(case.y),
                                            "--trials", str(case.trials), "--json"])
            self.tally.verdict(f"{case.name} verify", check_verify(case, res))
        return op

    @staticmethod
    def timed(op: OpResult, key: str, argv: list[str]) -> CallResult:
        """One call, recorded in wall seconds and in reference seconds."""
        res = call(argv)
        op.reference.append(reference_s())
        getattr(op, f"{key}_calls").append(res.seconds)
        getattr(op, f"{key}_ref_s").append(in_reference_s(res.seconds, *op.reference[-2:]))
        return res


def middle_sizes(result) -> dict:
    """Arrows and composable pairs of Z⋊G₂ (empty if the result no longer
    exposes the middle groupoid as `tg_z`)."""
    tg = getattr(result, "tg_z", None)
    if tg is None:
        return {}
    n_src, n_dst = Counter(tg.src), Counter(tg.dst)
    return {
        "groupoids.middle_arrows": len(tg.src),
        "groupoids.middle_composable_pairs": sum(k * n_dst[u] for u, k in n_src.items()),
    }


def run_ops(runner: Runner, seconds: float, op: Optional[Callable] = None) -> list:
    """Ops while the next one, taking as long as the slowest so far, still
    ends within `seconds`; at least one."""
    op = op or runner.op
    start = perf_counter()
    ops = [op()]
    longest = perf_counter() - start
    while perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        ops.append(op())
        longest = max(longest, perf_counter() - t0)
    return ops


# ---------------------------------------------------------------------------
# reporting


def median(values):
    return statistics.median(values) if values else None


def pass_s(ops: list[OpResult], key: str) -> float:
    """Each case's median call time in reference seconds, summed over the
    instance set: one pass, steady under the host's speed swings."""
    per_case = zip(*(getattr(o, f"{key}_ref_s") for o in ops))
    return sum(statistics.median(times) for times in per_case)


def tail_percentile(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"no tail percentile has 10 samples beyond it at n={n}"
    ranked = sorted(values)
    return f"p{best:g} {ranked[min(n - 1, int(n * best / 100))]:.4f}"


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload: str, seed: int, load_start: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "loadavg_start": load_start,
        "loadavg_end": read_loadavg(),
    }


def print_result(tally: Tally, metrics: dict, units: dict) -> None:
    payload = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
        if metrics.get(name) is not None
    }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": payload,
    }))


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_start = read_loadavg()
    directory = WORK / f"{workload}-{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        cases, setup_wall, setup_ref_s = setup(workload, seed, workloads.FULL[workload], directory)
        tally = Tally()
        runner = Runner(cases, tally)
        runner.op()  # warm-up, discarded
        if not trace:
            ops = run_ops(runner, seconds)
            metrics = {
                "compose_s": pass_s(ops, "compose"),
                "verify_s": pass_s(ops, "verify"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": median(setup_ref_s),
            }
            report_end_to_end(workload, seed, ops, metrics, setup_wall, tally)
            units = END_TO_END
        else:
            metrics = traced_run(workload, seed, seconds, runner, directory, tally)
            units = PER_LAYER
        for line in tally.examples:
            print(f"wrong verdict: {line}")
        print("env: " + json.dumps(environment(workload, seed, load_start), sort_keys=True))
        print_result(tally, metrics, units)
        return 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        remove_work(directory)


def report_end_to_end(workload, seed, ops, metrics, setup_wall, tally) -> None:
    n = len(ops)
    print(f"workload {workload}  seed {seed}  {n} measured ops after 1 warm-up op")
    reference = [r for o in ops for r in o.reference]
    print(f"  {'reference':<13} median {median(reference) * 1e3:.4f} ms, fastest "
          f"{min(reference) * 1e3:.4f} ms, slowest {max(reference) * 1e3:.4f} ms  (n={len(reference)})")
    for key in ("compose", "verify"):
        values = [getattr(o, f"{key}_wall_s") for o in ops]
        print(f"  {key + '_s':<13} {metrics[key + '_s']:.4f} reference s  (sum over "
              f"{len(ops[0].compose_calls)} cases of each one's median in {n} ops)")
        print(f"  {'':<13} wall: median {median(values):.4f} s  (n={n} ops; {tail_percentile(values)}); "
              f"per op: {' '.join(f'{v:.3f}' for v in values)}")
    share = tally.failed / tally.attempted
    print(f"  {'failed_share':<13} {share:g} share  ({tally.failed} wrong of {tally.attempted} verdicts)")
    print(f"  {'peak_rss_mb':<13} {metrics['peak_rss_mb']:.1f} MB")
    print(f"  {'setup_s':<13} {metrics['setup_s']:.4f} reference s, median of {len(setup_wall)} set-ups; "
          f"wall: {', '.join(f'{t:.3f}' for t in setup_wall)} s")


def traced_run(workload, seed, seconds, runner: Runner, directory: Path, tally: Tally) -> dict:
    """Untraced ops for the first half of the time, traced ops for the
    second; per-layer metrics are medians over the traced ops."""
    plain = run_ops(runner, seconds / 2)
    tr = tracing.Tracer()
    warnings = tr.install()
    bytes_read: Counter = Counter()

    def count_bytes(args, kwargs, result):
        text = args[0] if args else kwargs.get("text", "")
        bytes_read["io_json.bytes_read"] += len(text.encode("utf-8"))

    tr.observers["io_json.parse_instance"] = count_bytes
    try:
        traced = run_ops(runner, seconds / 2, lambda: traced_op(runner, tr, bytes_read))
        scaling = None
        if workload == "ladder-deep":
            scaling = {}
            for n in SCALING_LADDERS:
                cases = workloads.build(workload, directory / f"scale{n}", seed,
                                        dict(workloads.FULL[workload], n=n))
                expectations(cases)
                scaling[n] = traced_op(Runner(cases, tally), tr, bytes_read)[1]
    finally:
        tr.uninstall()

    metrics: dict = {}
    for name, unit in PER_LAYER.items():
        vals = [v[name] for _, v in traced if v.get(name) is not None]
        metrics[name] = median(vals) if vals else None
        if unit != "s" and metrics[name] is not None:
            metrics[name] = round(metrics[name])  # exact counts, the same on every op
    metrics["trace.overhead_s"] = pass_s([r for r, _ in traced], "compose") - pass_s(plain, "compose")
    warnings += [f"metric {name} is absent" for name, v in metrics.items() if v is None]
    report_traced(workload, seed, plain, traced, metrics, warnings, scaling)
    return metrics


def traced_op(runner: Runner, tr, bytes_read: Counter) -> tuple[OpResult, dict]:
    """One op under the tracer, with its per-layer values."""
    tr.observers["composition.compose"] = runner.observe_compose
    tr.take_op()
    bytes_read.clear()
    res = runner.op()
    values = tracing.layer_metrics(tr.take_op(), tr.labels)
    values.update(res.sizes)
    values.update(bytes_read)
    return res, values


def report_traced(workload, seed, plain, per_op, metrics, warnings, scaling) -> None:
    print(f"workload {workload}  seed {seed}  traced run: {len(plain)} untraced ops, "
          f"{len(per_op)} traced ops (after 1 warm-up op)")
    for line in warnings:
        print(f"warning: {line}")
    print(f"  {'metric':<46} {'value':>12}  unit")
    for name, unit in PER_LAYER.items():
        value = metrics.get(name)
        shown = "absent" if value is None else (f"{value:.4f}" if unit == "s" else f"{value:g}")
        print(f"  {name:<46} {shown:>12}  {unit}")
    if scaling is None:
        return
    sizes = SCALING_LADDERS
    print(f"ladder scaling (traced, one op at each n = {', '.join(map(str, sizes))})")
    print(f"  {'metric':<46} " + "".join(f"{f'n={n}':>10} " for n in sizes)
          + " ".join(f"{f'x{b}/{a}':>7}" for a, b in zip(sizes, sizes[1:])))
    names = [n for n in PER_LAYER if n.endswith("_s") and not n.startswith("trace.")]
    names += SCALING_COUNTS
    for name in names:
        vals = [scaling[n].get(name) for n in sizes]
        if any(v is None for v in vals):
            continue
        ratios = [f"{b / a:7.2f}" if a else f"{'-':>7}" for a, b in zip(vals, vals[1:])]
        fmt = (lambda v: f"{v:10.4f}") if name.endswith("_s") else (lambda v: f"{v:10g}")
        print(f"  {name:<46} {''.join(fmt(v) + ' ' for v in vals)}{' '.join(ratios)}")


# ---------------------------------------------------------------------------
# oracle self-test


def selftest() -> int:
    """At tiny sizes every oracle passes, and a planted wrong verdict for
    each oracle raises failed_share."""
    signal.signal(signal.SIGALRM, _alarm)
    directory = WORK / f"selftest-{os.getpid()}"
    failures = []

    def one_op(workload, mutate=None, after_compose=None) -> Tally:
        import_gcorr()
        cases = workloads.build(workload, directory / workload, 0, workloads.TINY[workload])
        expectations(cases)
        if mutate is not None:
            mutate(cases)
        tally = Tally()
        Runner(cases, tally, after_compose).op()
        return tally

    def expect(label, tally, wrong: bool) -> None:
        share = tally.failed / tally.attempted
        ok = (share > 0) if wrong else (share == 0)
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: failed_share {share:g} "
              f"({tally.failed} of {tally.attempted})" + (f"; {tally.examples[0]}" if tally.examples else ""))
        if not ok:
            failures.append(label)

    def label_tampered_clean(cases):
        next(c for c in cases if c.tampered).tampered = False

    def weight_off_by_one(cases):
        x_doc, y_doc = oracles.load(cases[0].x), oracles.load(cases[0].y)
        family = x_doc["correspondences"][0]["family"]
        point = next(iter(family))
        family[point] = workloads.scalar(oracles.num(family[point]) + 1)
        cases[0].span_multiset = oracles.composite_span(x_doc, y_doc)

    def scale_delta12(case):
        doc = oracles.load(case.out)
        entry = doc["correspondences"][0]["adjoining"][0]
        entry[2] = workloads.scalar(3 * oracles.num(entry[2])) if isinstance(entry[2], str) else 3 * entry[2]
        case.out.write_text(json.dumps(doc))

    try:
        print("oracle self-test (tiny sizes)")
        for workload in workloads.WORKLOADS:
            expect(f"{workload} passes on the seed", one_op(workload), wrong=False)
        expect("random-mix: a tampered file labelled clean",
               one_op("random-mix", mutate=label_tampered_clean), wrong=True)
        expect("spans-wide: a span weight off by one",
               one_op("spans-wide", mutate=weight_off_by_one), wrong=True)
        for workload in ("ladder-deep", "random-mix"):
            expect(f"{workload}: a Δ₁₂ entry scaled in OUT.json",
                   one_op(workload, after_compose=scale_delta12), wrong=True)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]
        in_sync = (listed == (list(END_TO_END), list(PER_LAYER))
                   and spec["run_seconds"] == DEFAULT_SECONDS)
        print(f"  [{'ok' if in_sync else 'FAIL'}] BENCHMARK.json lists the metrics and run length run.py uses")
        if not in_sync:
            failures.append("BENCHMARK.json out of sync")
    finally:
        remove_work(directory)
    print("self-test " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# every workload


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per process), then the
    self-test."""
    status = 0
    rows = []
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
        if not result["correct"]:
            status = 1
    if not trace:
        print("\nsummary")
        names = list(END_TO_END)
        print(f"  {'workload':<12} " + " ".join(f"{n:>14}" for n in names) + f" {'failed_share':>14}")
        for workload, result in rows:
            m = result["metrics"]
            cells = [f"{m[n]['value']:>11.4f} {m[n]['unit']:<2}" if n in m else f"{'absent':>14}" for n in names]
            share = result["failed"] / result["attempted"]
            print(f"  {workload:<12} " + " ".join(cells) + f" {share:>8g} share")
    print()
    return selftest() or status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, then the self-test")
    parser.add_argument("--selftest", action="store_true", help="only the oracle self-test")
    args = parser.parse_args(argv)
    if not (SRC / "gcorr" / "__init__.py").is_file():
        print(f"error: no gcorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("--workload, --all or --selftest is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
