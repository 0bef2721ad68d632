"""bibeta benchmark: four workloads, end-to-end metrics, and a per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It runs the checked-out ``src/`` tree
(children get ``PYTHONPATH=src`` and the benchmark refuses a ``bibeta``
imported from anywhere else), draws every input from ``--seed``, and runs
one workload in a closed loop with one client: each invocation starts when
the previous one has ended.  It repeats the workload (at least twice with
``--trace 0``) until ``--seconds`` have passed, checks every output, and
checks that each repetition wrote byte-identical outputs.

Workloads (why each exists is in BENCHMARK.json):

  mc-prior-posterior  CLI `posterior` at n=100, m=100, 10^7 prior pairs, under
                      prior A = AN5(5,5,5,5,1e-4) (log-space sampling) and
                      prior B = AN8(10,0,0,2.5,0,0,0,5), the AN8 embedding of
                      OL-(10,2.5,5), whose exact posterior is the oracle.
  fine-grid-io        CLI `posterior` with an OL-(10,2.5,5) prior at m=1000,
                      n=10^4, then CLI `sample` of 10^6 OL-(10,2.5,5) pairs.
  moment-tables       CLI `tables --table 5`, `tables --table 6` and an AN8
                      `closure-check --which both`, each at 10^6 samples.
  posterior-sweep     in-process library use (sweep.py): 48 datasets, n
                      log-spaced 10^2..10^6, under AN5 (m=100, 10^6 prior
                      pairs, cached), OL-(10,2.5,5) (m=1000) and indep
                      B(1,1)xB(1,1) (m=100) priors.

End-to-end metrics (--trace 0), each the median over the run's samples:

  wall_s       one repetition: summed wall time of its CLI processes, or,
               for posterior-sweep, the sweep after the first call
  setup_s      CLI: `python -m bibeta --version` in a fresh process, timed
               SETUP_REPEATS times; posterior-sweep: import plus the first,
               cold joint_posterior, once per fresh process
  peak_rss_mb  largest peak RSS of the child processes of one repetition,
               read per child with os.wait4 (the largest over a run would
               grow with the number of repetitions: the same `sample`
               invocation peaks anywhere between 256 and 310 MB)
  answer_err   distance of the workload's answer from an exact oracle:
               mc-prior-posterior: prior_tv, the total variation between the
                 prior grid prior B's run used (its posterior weights divided
                 by the likelihood) and the exact OL- prior on the same grid.
                 posterior_tv, between the posterior weights and the exact
                 OL- posterior, is checked (below MC_POSTERIOR_TV_LIMIT) and
                 printed, but it moves with the seed-drawn counts by 11-26%
                 (IQR over median, 10 seeds), where prior_tv moves by 1-5%;
               fine-grid-io: total variation between the 50x50 histogram of
                 the 10^6 sampled pairs and the exact OL- cell probabilities;
               moment-tables: largest corr_std_error the CLI reports for a
                 Table 5/6 correlation.  The run also prints
                 corr_sd_over_reported_se: that normal-theory error
                 understates the measured standard deviation of a 10^6-pair
                 correlation (reference.json corr_sd) by up to 1.7x, so the
                 table checks use corr_sd;
               posterior-sweep: posterior_mean_err, the largest |grid
                 posterior mean - exact Beta posterior mean| of eta and theta
                 under the indep prior.

Failed operations are reported as ``failed`` out of ``attempted`` (the
failed_frac), not as a metric, because their expected value is 0.

With --trace 1 the run alternates untraced and traced repetitions and
prints the per-layer metrics of BENCHMARK.json, medians over the traced
repetitions; see tracer.py.  Every traced repetition must reconcile: the
layers' self times plus trace.unattributed_s equal trace.wall_s within
RECONCILE_TOL of it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are a readable report
that includes the sample counts, quartiles and the machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
PY = sys.executable

MIN_ITERATIONS = 2
SETUP_REPEATS = 5
RECONCILE_TOL = 1e-3
# stop starting repetitions that could end after this many seconds
HARD_LIMIT_S = 150.0

TRUTH = (0.35, 0.7734, 0.5987)  # pi, eta, theta
OL_MINUS = (10.0, 2.5, 5.0)
SAMPLE_N = 1_000_000
SWEEP_DATASETS = 48
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


if not (SRC / "bibeta" / "__init__.py").is_file():
    _fail(f"no bibeta package under {SRC}; run from a checkout of the repository")
if not BENCHMARK.is_file():
    _fail(f"missing {BENCHMARK}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(SRC))
import bibeta  # noqa: E402

tracer.check_source(bibeta)

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([ENV["PYTHONPATH"]] if ENV.get("PYTHONPATH") else []))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int
    stdout: Path
    stderr: Path

    def error_tail(self) -> str:
        return self.stderr.read_text(errors="replace").strip()[-300:]


def run_child(cmd: List[str], logs: Path, label: str) -> Child:
    """Run one process to its end; wall time as seen from here, peak RSS from wait4."""
    logs.mkdir(parents=True, exist_ok=True)
    out, err = logs / f"{label}.out", logs / f"{label}.err"
    with out.open("wb") as fo, err.open("wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ENV, cwd=ROOT, stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, err)


def digest_files(directory: Path, label: str) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob(f"{label}.*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_spans(path: Path) -> list:
    try:
        return json.loads(path.read_text())["spans"]
    except (OSError, ValueError, KeyError):
        return []


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def draw_counts(rng: np.random.Generator, n: int) -> List[int]:
    """Counts (n, n1, k1, k2) of one screening study at the fixed truth."""
    pi, eta, theta = TRUTH
    n1 = int(rng.binomial(n, pi))
    return [n, n1, int(rng.binomial(n1, eta)), int(rng.binomial(n - n1, theta))]


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    wall: float
    rss_mb: float
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    answer: Optional[float] = None
    setup: Optional[float] = None
    layers: Optional[Dict[str, float]] = None
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass
class CliWorkload:
    """A workload of CLI invocations plus the checks of their outputs."""

    invocations: Callable[[dict, Path], List[tuple]]
    check: Callable[[dict, Path], tuple]  # -> (problems by label, answer_err, other figures)


def _posterior_argv(counts: List[int], m: int, seed: int, prior: List[str], out: Path) -> List[str]:
    return ["posterior", "--data", ",".join(map(str, counts)), "--m", str(m), "--seed", str(seed),
            *prior, "--out", str(out)]


def mc_invocations(inp: dict, out: Path) -> List[tuple]:
    counts, seed = inp["counts"], inp["seed"]
    return [
        ("prior-a", _posterior_argv(counts, 100, seed, ["--prior-family", "an5", "--prior-alphas", "5,5,5,5,1e-4"],
                                    out / "prior-a")),
        ("prior-b", _posterior_argv(counts, 100, seed, ["--prior-family", "an8", "--prior-alphas",
                                                        "10,0,0,2.5,0,0,0,5"], out / "prior-b")),
    ]


def mc_check(inp: dict, out: Path) -> tuple:
    problems_a, _ = checks.check_posterior(out / "prior-a", 100)
    problems_b, weights = checks.check_posterior(out / "prior-b", 100)
    if weights is None:
        return {"prior-a": problems_a, "prior-b": problems_b}, None, {}
    tv = checks.total_variation(weights, checks.exact_ol_minus_posterior(inp["counts"], OL_MINUS, 100))
    if tv > checks.MC_POSTERIOR_TV_LIMIT:
        problems_b.append(f"prior-b: posterior_tv {tv:.5f} exceeds {checks.MC_POSTERIOR_TV_LIMIT}")
    answer = checks.prior_tv(weights, inp["counts"], OL_MINUS)
    return {"prior-a": problems_a, "prior-b": problems_b}, answer, {"posterior_tv": tv}


def fine_invocations(inp: dict, out: Path) -> List[tuple]:
    alphas = ",".join(f"{a:g}" for a in OL_MINUS)
    return [
        ("posterior", _posterior_argv(inp["counts"], 1000, inp["seed"],
                                      ["--prior-family", "ol-minus", "--prior-alphas", alphas], out / "posterior")),
        ("sample", ["sample", "--family", "ol-minus", "--alphas", alphas, "--n", str(SAMPLE_N),
                    "--seed", str(inp["seed"]), "--out", str(out / "sample.csv")]),
    ]


def fine_check(inp: dict, out: Path) -> tuple:
    problems, weights = checks.check_posterior(out / "posterior", 1000)
    if weights is not None:
        tv = checks.total_variation(weights, checks.exact_ol_minus_posterior(inp["counts"], OL_MINUS, 1000))
        if tv > checks.EXACT_TV_TOL:
            problems.append(f"posterior: TV {tv:.2e} from the exact closed-form posterior")
    sample_problems, sample_tv = checks.check_sample(out / "sample.csv", SAMPLE_N, OL_MINUS)
    return {"posterior": problems, "sample": sample_problems}, sample_tv, {}


def moment_invocations(inp: dict, out: Path) -> List[tuple]:
    seed = str(inp["seed"])
    return [
        ("table5", ["tables", "--table", "5", "--seed", seed, "--out", str(out / "table5.csv")]),
        ("table6", ["tables", "--table", "6", "--seed", seed, "--out", str(out / "table6.csv")]),
        ("closure", ["closure-check", "--family", "an8", "--alphas", "1,2,3,0.5,1.5,2.5,0.7,1.2",
                     "--which", "both", "--seed", seed, "--out", str(out / "closure.json")]),
    ]


def moment_check(inp: dict, out: Path) -> tuple:
    reference = json.loads((HERE / "reference.json").read_text())
    p5, se5, ratio5 = checks.check_table(out / "table5.csv", 5, reference)
    p6, se6, ratio6 = checks.check_table(out / "table6.csv", 6, reference)
    answer = max(se5, se6) if se5 is not None and se6 is not None else None
    problems = {"table5": p5, "table6": p6, "closure": checks.check_closure(out / "closure.json")}
    return problems, answer, {"corr_sd_over_reported_se": max(ratio5, ratio6)}


CLI_WORKLOADS = {
    "mc-prior-posterior": CliWorkload(mc_invocations, mc_check),
    "fine-grid-io": CliWorkload(fine_invocations, fine_check),
    "moment-tables": CliWorkload(moment_invocations, moment_check),
}
WORKLOAD_NAMES = ["mc-prior-posterior", "fine-grid-io", "moment-tables", "posterior-sweep"]
# what answer_err measures on each workload
ANSWER_ERR = {
    "mc-prior-posterior": "prior_tv",
    "fine-grid-io": "sample_tv",
    "moment-tables": "max_corr_std_error",
    "posterior-sweep": "posterior_mean_err",
}


def make_inputs(name: str, seed: int) -> dict:
    rng = workload_rng(name, seed)
    if name == "mc-prior-posterior":
        return {"seed": seed, "counts": draw_counts(rng, 100)}
    if name == "fine-grid-io":
        return {"seed": seed, "counts": draw_counts(rng, 10_000)}
    if name == "moment-tables":
        return {"seed": seed}
    sizes = np.rint(np.logspace(2, 6, SWEEP_DATASETS)).astype(int)
    return {"seed": seed, "datasets": [draw_counts(rng, int(n)) for n in sizes]}


def cli_iteration(wl: CliWorkload, inp: dict, out: Path, traced: bool) -> Iteration:
    out.mkdir(parents=True)
    children = {}
    for label, argv in wl.invocations(inp, out):
        if traced:
            cmd = [PY, str(HERE / "tracer.py"), "--spans", str(out / "spans" / f"{label}.json"), "--", *argv]
            (out / "spans").mkdir(exist_ok=True)
        else:
            cmd = [PY, "-m", "bibeta", *argv]
        children[label] = run_child(cmd, out / "logs", label)
    problems, answer, extras = wl.check(inp, out)
    for label, child in children.items():
        if child.code != 0:
            problems[label].insert(0, f"{label}: exit {child.code}: {child.error_tail()}")
    it = Iteration(
        wall=sum(c.wall for c in children.values()),
        rss_mb=max(c.rss_mb for c in children.values()),
        attempted=len(children),
        failed=sum(1 for p in problems.values() if p),
        problems=[msg for p in problems.values() for msg in p],
        digests={label: digest_files(out, label) for label in children},
        answer=answer,
        extras=extras,
    )
    if traced:
        it.layers = tracer.layer_metrics(
            [(c.wall, read_spans(out / "spans" / f"{label}.json")) for label, c in children.items()]
        )
    shutil.rmtree(out)
    return it


def sweep_iteration(inp: dict, out: Path, traced: bool) -> Iteration:
    out.mkdir(parents=True)
    (out / "inputs.json").write_text(json.dumps(inp))
    cmd = [PY, str(HERE / "sweep.py"), str(out / "inputs.json"), str(out / "result.json")]
    if traced:
        cmd.append(str(out / "spans.json"))
    child = run_child(cmd, out / "logs", "sweep")
    layers = tracer.layer_metrics([(child.wall, read_spans(out / "spans.json"))]) if traced else None
    if child.code != 0:
        attempted = 1 + 3 * 3 * len(inp["datasets"])
        problems = [f"sweep: exit {child.code}: {child.error_tail()}"]
        shutil.rmtree(out)
        return Iteration(math.nan, child.rss_mb, attempted, attempted, problems, setup=math.nan, layers=layers)
    result = json.loads((out / "result.json").read_text())
    problems = list(result["errors"])
    answer, err_problems = sweep_mean_err(inp, result)
    problems += err_problems
    problems += [
        f"sweep: dataset {r['dataset']} prior {r['prior']}: weights sum to {r['weight_sum']!r}"
        for r in result["results"]
        if abs(r["weight_sum"] - 1.0) > checks.WEIGHT_SUM_TOL
    ]
    it = Iteration(
        wall=result["sweep_s"],
        rss_mb=child.rss_mb,
        attempted=result["attempted"],
        failed=min(len(problems), result["attempted"]),
        problems=problems,
        digests={"sweep": result["digest"]},
        answer=answer,
        setup=result["setup_s"],
        layers=layers,
    )
    shutil.rmtree(out)
    return it


def sweep_mean_err(inp: dict, result: dict) -> tuple:
    """Largest |grid posterior mean - exact Beta mean| under the indep B(1,1)xB(1,1) prior."""
    by_key = {(r["dataset"], r["prior"]): r for r in result["results"]}
    if len(by_key) != 3 * len(inp["datasets"]):
        return None, [f"sweep: {len(by_key)} results for {3 * len(inp['datasets'])} dataset-prior pairs"]
    problems, worst = [], None
    for i, (n, n1, k1, k2) in enumerate(inp["datasets"]):
        r = by_key[(i, "indep")]
        exact = ((1 + k1) / (2 + n1), (1 + k2) / (2 + n - n1))
        err = max(abs(r["values"][0] - exact[0]), abs(r["values"][1] - exact[1]))
        # a midpoint grid cannot place a mean further than one cell from the truth
        if not err <= 1.0 / r["m"]:
            problems.append(f"sweep: dataset {i} (n={n}) posterior mean off the exact Beta mean by {err:.2e}")
        worst = err if worst is None else max(worst, err)
    return worst, problems


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "bibeta": bibeta.__file__,
    }


def measure_setup(out: Path) -> tuple:
    """Fresh-process `python -m bibeta --version`: wall times and problems."""
    walls, problems = [], []
    probe = run_child([PY, "-c", "import bibeta, sys; sys.stdout.write(bibeta.__file__)"], out, "probe")
    if SRC not in Path(probe.stdout.read_text() or "/").resolve().parents:
        _fail(f"child processes import bibeta from {probe.stdout.read_text()!r}, not from {SRC}")
    for i in range(SETUP_REPEATS):
        child = run_child([PY, "-m", "bibeta", "--version"], out, f"version{i}")
        walls.append(child.wall)
        if child.code != 0 or child.stdout.read_text().strip() != f"bibeta {bibeta.__version__}":
            problems.append(f"--version: exit {child.code}, output {child.stdout.read_text()!r}")
    return walls, problems


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        _fail("--seed must be >= 0")
    spec = json.loads(BENCHMARK.read_text())
    env_info = environment(args.seed)
    print(f"bibeta benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env_info, sort_keys=True))

    inp = make_inputs(args.workload, args.seed)
    run_dir = OUT_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        setup_walls, setup_problems = [], []
        if args.workload in CLI_WORKLOADS and not args.trace:
            setup_walls, setup_problems = measure_setup(run_dir / "setup")

        def iteration(traced: bool, index: int) -> Iteration:
            out = run_dir / f"{'traced' if traced else 'plain'}{index}"
            if args.workload in CLI_WORKLOADS:
                return cli_iteration(CLI_WORKLOADS[args.workload], inp, out, traced)
            return sweep_iteration(inp, out, traced)

        plain: List[Iteration] = []
        traced: List[Iteration] = []
        longest = 0.0
        while True:
            now = time.perf_counter()
            enough = len(plain) >= (1 if args.trace else MIN_ITERATIONS) and (len(traced) >= 1 or not args.trace)
            if enough and (now - start >= args.seconds or now - start + longest > HARD_LIMIT_S):
                break
            use_trace = bool(args.trace) and len(traced) < len(plain)
            it = iteration(use_trace, len(traced) if use_trace else len(plain))
            longest = max(longest, time.perf_counter() - now)
            (traced if use_trace else plain).append(it)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    # byte-identical outputs across repetitions, traced or not
    reference = plain[0].digests
    for it in plain[1:] + traced:
        for label, digest in it.digests.items():
            if digest != reference.get(label):
                it.failed = min(it.attempted, it.failed + (it.attempted if label == "sweep" else 1))
                it.problems.append(f"{label}: output differs from the first repetition's")
    for it in traced:
        m = it.layers
        if abs(m["trace.residual_s"]) > RECONCILE_TOL * m["trace.wall_s"]:
            it.failed = max(it.failed, 1)
            it.problems.append(f"trace does not reconcile: residual {m['trace.residual_s']:.3e} s")

    runs = plain + traced
    attempted = sum(it.attempted for it in runs) + len(setup_walls)
    failed = sum(it.failed for it in runs) + len(setup_problems)
    problems = setup_problems + [p for it in runs for p in it.problems]

    if args.trace:
        wanted = spec["per_layer"]
        samples = {k: [it.layers[k] for it in traced] for k in traced[0].layers}
        untraced_wall = statistics.median(it.wall for it in plain)
        samples["trace.overhead_frac"] = [statistics.median(it.wall for it in traced) / untraced_wall - 1.0]
        unit_note = f"{len(traced)} traced / {len(plain)} untraced repetitions"
    else:
        wanted = spec["end_to_end"]
        samples = {
            "wall_s": [it.wall for it in plain],
            "setup_s": setup_walls or [it.setup for it in plain],
            "peak_rss_mb": [it.rss_mb for it in plain],
            "answer_err": [it.answer for it in plain if it.answer is not None] or [float("nan")],
        }
        unit_note = f"{len(plain)} repetitions"

    print(f"metrics ({unit_note}): median [q1, q3] n")
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        values = samples[name]
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        shown = " ".join(f"{v:.4g}" for v in values) if 1 < len(values) <= 12 else ""
        print(f"  {name:36s} {median:.6g} {unit} [{q1:.6g}, {q3:.6g}] n={len(values)}  {shown}")
        metrics[name] = {"value": median, "unit": unit}
    if not args.trace:
        print(f"  answer_err is {ANSWER_ERR[args.workload]} on this workload")
        for name in plain[0].extras:
            print(f"  also measured: {name} {statistics.median(it.extras[name] for it in plain):.6g}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    correct = failed == 0 and all(np.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
