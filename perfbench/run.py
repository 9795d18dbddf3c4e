"""Benchmark of the shiftwatch command-line interface.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick              # self-test at tiny sizes
    python3 perfbench/run.py --record-reference   # rewrite reference.json

Run it from the root of a source checkout; the program is imported from
``src/``. Inputs are generated from ``--seed`` under ``perfbench/.work``,
which is removed when the run ends. All workloads are closed loop: one CLI
child process at a time replays a generated file as fast as it can, with
the BLAS thread count fixed at ``BLAS_THREADS``.

Workloads (why each was chosen):
    evaluate-suite  ``shiftwatch evaluate --workers 1`` over a sudden-shift
        suite on the acceptance suite's generator. The batch path: k-NN
        scoring and batch PM-EB paths; ``MonitorState.observe`` never runs.
    monitor-knn     ``shiftwatch monitor --production FILE`` with the
        built-in k-NN. Set-up scores the calibration half; each event costs
        one ``predict``; PM-EB is a small share.
    monitor-scores  ``shiftwatch monitor --production -`` reading a long
        scored stream from stdin. No estimator: per-line ingest, PM-EB
        updates, ``observe`` and the in-memory trajectory. Not listed in
        BENCHMARK.json: its pure-Python timings swing with the shared
        machine's speed faster than the probe below can follow (ten-seed
        IQR/median 3-17% with scaling, against 5-6% for the other two),
        so it is run by hand, mainly for its per-layer trace.

``--trace 0`` repeats rounds of three child processes for ``--seconds``:
``probe.py``, a set-up invocation (the same command on a one-event input;
for evaluate-suite horizon 1 and onset 1) and the main invocation. Wall
times are scaled to reference seconds by PROBE_REF_S / (median probe wall
time), because a shared machine's speed drifts by tens of percent between
runs; the unscaled medians are printed too. End-to-end metrics:
    events_per_s  production events / median main wall time (for
                  evaluate-suite: calibratable runs x horizon)
    runs_per_s    streams monitored end to end / median main wall time (a
                  calibratable suite run, or the one stream of a monitor
                  command; an uncalibratable run streams nothing)
    setup_s       median wall time of the set-up invocations
    peak_rss_mb   median ru_maxrss of the main command's process
``--trace 1`` alternates untraced and traced main invocations (see
``trace_cli.py``) and prints the per-layer metrics: self times of the
spans grouped by module, call and row counts, ``cli.other_s`` (time not
inside any span: start-up, imports, row parsing, JSON writes),
``trace.overhead_s`` (traced minus untraced wall time) and
``monitor.detect_delay_events`` (phi_q2 alarm time minus the onset; for
evaluate-suite the mean over runs, a run that never alarms counting at
horizon + 1). The delay is exact per input, so the output digests check
it rather than a bound.

Every invocation is checked: exit code, the sha256 of each output file
against ``reference.json``, and for the monitor the event count and that
``phi_q2`` never latches after ``phi_q``. A mismatch counts as a failed
operation. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
TRACE_CLI = os.path.join(BENCH_DIR, "trace_cli.py")
PROBE = os.path.join(BENCH_DIR, "probe.py")

# Wall time of probe.py on the 2-vCPU machine the benchmark was defined
# on; end-to-end times are reported in these reference seconds.
PROBE_REF_S = 0.65

BLAS_THREADS = 1
# The input seed is reduced modulo N_VARIANTS so that reference.json
# holds the expected digests of every input the benchmark can generate.
N_VARIANTS = 16
MIN_REPS = {0: 3, 1: 1}
CHILD_TIMEOUT_S = 150.0
CLI_ENTRY = "import sys; from shiftwatch.cli import main; sys.exit(main())"
ENV_QUERY = (
    "import json, numpy; from shiftwatch import confidence; "
    "print(json.dumps({'numpy': numpy.__version__, 'backend': confidence.BACKEND}))"
)

SIZES = {
    "full": {
        "evaluate-suite": dict(n_source=8000, horizon=3000, onset=200, n_seeds=1),
        "monitor-knn": dict(n_source=6000, events=3000, onset=300),
        "monitor-scores": dict(n_source=20000, events=100_000, onset=500),
    },
    "quick": {
        "evaluate-suite": dict(n_source=1500, horizon=300, onset=30, n_seeds=1),
        "monitor-knn": dict(n_source=1000, events=400, onset=40),
        "monitor-scores": dict(n_source=1000, events=800, onset=40),
    },
}
WORKLOADS = tuple(SIZES["full"])

# Span names from trace_cli.py grouped into per-layer self times. Every
# span name belongs to exactly one group, so the groups plus cli.other_s
# add up to the traced command's time from process start to its return.
LAYER_TIMES = {
    "core.read_s": ("core.read_dataset",),
    "estimator.fit_s": ("estimator.fit_knn",),
    "estimator.score_cal_s": ("estimator.score_dataset",),
    "estimator.predict_s": ("estimator.predict", "estimator.predict_many"),
    "calibration.calibrate_s": ("calibration.calibrate",),
    "confidence.update_s": ("confidence.pmeb_update",),
    "confidence.path_s": ("confidence.pmeb_best_lower_path",),
    "monitor.observe_s": ("monitor.observe",),
    "monitor.source_stats_s": (
        "monitor.source_statistics",
        "monitor.oracle_source_statistics",
        "monitor.source_mean_upper",
    ),
    "monitor.write_s": ("monitor.write_trajectory_csv",),
    "shiftsim.split_s": ("shiftsim.split_pools",),
    "shiftsim.stream_s": ("shiftsim.build_stream",),
    "harness.run_self_s": ("harness.run_suite", "harness.run_experiment"),
    "harness.aggregate_s": (
        "harness.suite_metrics",
        "harness.suite_metrics_by_r2",
        "harness.reports_to_json",
    ),
}
# count metric -> (span names, "calls" to count spans or "n" to sum their counts)
LAYER_COUNTS = {
    "core.read_rows": (("core.read_dataset",), "n"),
    "estimator.score_cal_rows": (("estimator.score_dataset",), "n"),
    "estimator.predict_calls": (LAYER_TIMES["estimator.predict_s"], "calls"),
    "calibration.calls": (("calibration.calibrate",), "calls"),
    "confidence.update_calls": (("confidence.pmeb_update",), "calls"),
    "confidence.path_steps": (("confidence.pmeb_best_lower_path",), "n"),
    "monitor.observe_calls": (("monitor.observe",), "calls"),
    "monitor.trajectory_rows": (("monitor.write_trajectory_csv",), "n"),
    "harness.runs": (("harness.run_experiment",), "calls"),
    "harness.uncalibratable": (("harness.run_experiment",), "n"),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _python_json(args):
    """Run a Python helper child and parse the JSON it prints. Helpers do
    what needs numpy, so this process never imports it."""
    proc = subprocess.run(
        [sys.executable] + args, capture_output=True, text=True,
        env=_child_env(), timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Invocation:
    args: tuple
    stdin: Optional[str]
    outputs: tuple
    exit_code: int


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    info: dict = field(default_factory=dict)
    trace: Optional[dict] = None


class Run:
    """Generated inputs of one workload plus its checked CLI invocations."""

    def __init__(self, workload: str, seed: int, sizes: dict, tmp: str, reference: Optional[dict]):
        self.workload = workload
        self.sizes = sizes
        self.tmp = tmp
        self.out = os.path.join(tmp, "out")
        gen = os.path.join(BENCH_DIR, "gen.py")
        self.manifest = _python_json([gen, workload, str(seed), json.dumps(sizes), os.path.join(tmp, "inputs")])
        self.reference = reference
        self.expected = {k: dict(v) for k, v in (reference or {}).items() if k != "inputs"}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        if reference is not None and not reference:
            self.problems.append("reference.json has no digests for these inputs")
        elif reference is not None and reference["inputs"] != self.manifest["sha256"]:
            self.problems.append("generated inputs differ from reference.json")
        self.invocations = self._invocations(seed)

    def _invocations(self, seed: int) -> dict:
        s, files = self.sizes, self.manifest["files"]
        if self.workload == "evaluate-suite":
            common = (
                "evaluate", "--source", files["source"], "--out-dir", self.out,
                "--n-seeds", str(s["n_seeds"]), "--workers", "1", "--seed", str(seed),
                "--feature-kinds", self.manifest["feature_kinds"],
            )
            outputs = ("metrics.json", "runs.json")
            return {
                "main": Invocation(common + ("--horizon", str(s["horizon"]), "--onset", str(s["onset"])), None, outputs, 0),
                "setup": Invocation(common + ("--horizon", "1", "--onset", "1"), None, outputs, 0),
            }
        outputs = ("trajectory.csv", "monitor.json")
        common = ("monitor", "--source", files["source"], "--out-dir", self.out, "--seed", str(seed))
        invocations = {}
        for kind, prod, code in (("main", files["production"], 2), ("setup", files["production_one"], 0)):
            if self.workload == "monitor-scores":
                invocations[kind] = Invocation(common + ("--production", "-"), prod, outputs, code)
            else:
                invocations[kind] = Invocation(common + ("--production", prod), None, outputs, code)
        return invocations

    def _spawn(self, argv, stdin_path: Optional[str] = None):
        """Run one child process; returns (exit code, start, wall time,
        peak RSS in MB, stderr)."""
        stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
        stderr_path = os.path.join(self.tmp, "stderr.txt")
        try:
            with open(stderr_path, "wb") as err:
                start = time.monotonic()
                proc = subprocess.Popen(
                    argv, stdin=stdin, stdout=subprocess.DEVNULL,
                    stderr=err, cwd=self.tmp, env=_child_env(),
                )
                timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                wall = time.monotonic() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdin_path:
                stdin.close()
        with open(stderr_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace").strip()
        return proc.returncode, start, wall, usage.ru_maxrss / 1024.0, stderr

    def probe(self) -> Optional[float]:
        """Wall time of one probe.py run, or None when it failed."""
        code, _, wall, _, stderr = self._spawn([sys.executable, PROBE])
        if code != 0:
            self.problems.append(f"probe.py exited {code}: {stderr[-500:]}")
            return None
        return wall

    def invoke(self, kind: str, traced: bool = False) -> Optional[Outcome]:
        """Run one invocation, check it, and return its outcome, or None
        when it failed."""
        inv = self.invocations[kind]
        shutil.rmtree(self.out, ignore_errors=True)
        spans_path = os.path.join(self.tmp, "spans.json") if traced else None
        self.attempted += 1
        prefix = [sys.executable, TRACE_CLI, spans_path] if traced else [sys.executable, "-c", CLI_ENTRY]
        code, start, wall, rss, stderr = self._spawn(prefix + list(inv.args), inv.stdin)
        problems = []
        if code != inv.exit_code:
            problems.append(f"exit code {code}, expected {inv.exit_code}: {stderr[-500:]}")
        digests = {}
        for name in inv.outputs:
            path = os.path.join(self.out, name)
            if os.path.exists(path):
                digests[name] = _sha256(path)
            else:
                problems.append(f"missing output {name}")
        trace = None
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                trace = json.load(fh)
            trace["command_s"] = trace["main_end"] - start
            wall -= trace["margins_s"]
            if kind == "main" and trace["margins_sha256"] is not None:
                digests["runs_margins"] = trace["margins_sha256"]
        elif traced:
            problems.append("traced run wrote no spans")
        expected = self.expected.setdefault(kind, {})
        for name, digest in digests.items():
            if self.reference is not None and name not in expected:
                problems.append(f"reference.json has no {kind} {name} digest")
            elif expected.setdefault(name, digest) != digest:
                problems.append(f"{name} sha256 {digest[:12]} differs from expected {expected[name][:12]}")
        info = {}
        if not problems:
            try:
                info = self._info(kind)
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}{' traced' if traced else ''}: {p}" for p in problems)
            return None
        return Outcome(wall, rss, info, trace)

    def _info(self, kind: str) -> dict:
        """Work done and detection delay, read from the outputs; raises
        ValueError when they break an invariant."""
        s, onset = self.sizes, self.manifest["onset"]
        if self.workload == "evaluate-suite":
            with open(os.path.join(self.out, "runs.json")) as fh:
                runs = json.load(fh)["runs"]
            if not runs:
                raise ValueError("suite reported no runs")
            horizon = s["horizon"] if kind == "main" else 1
            usable = [r for r in runs if not r["uncalibratable"]]
            # restricted mean delay: a run that never alarms counts at horizon + 1
            delays = []
            for r in runs:
                t = None if r["uncalibratable"] else r["detectors"]["plugin_q2"]["first_alarm"]
                delays.append((horizon + 1 if t is None else t) - onset)
            return {"runs": len(usable), "events": len(usable) * horizon, "delay": statistics.fmean(delays)}
        with open(os.path.join(self.out, "monitor.json")) as fh:
            summary = json.load(fh)
        events = s["events"] if kind == "main" else 1
        if summary["events"] != events:
            raise ValueError(f"monitor saw {summary['events']} events, expected {events}")
        t_q, t_q2 = summary["phi_q_alarm_time"], summary["phi_q2_alarm_time"]
        if t_q is not None and (t_q2 is None or t_q2 > t_q):
            raise ValueError(f"phi_q2 latched at {t_q2}, after phi_q at {t_q}")
        if kind == "main" and t_q2 is None:
            raise ValueError("phi_q2 never latched on the shifted stream")
        delay = None if t_q2 is None else t_q2 - onset
        return {"runs": 1, "events": events, "delay": delay}


def layer_metrics(trace: dict, command_s: float) -> dict:
    """Per-layer metrics of one traced run; ``command_s`` runs from the
    child's start to the command's return."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls, counts, run_s = {}, {}, {}, []
    for i, (name, start, end, parent, n) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + n
        if name == "harness.run_experiment":
            run_s.append(end - start)
    grouped = {n for names in LAYER_TIMES.values() for n in names}
    if not set(self_s) <= grouped:
        raise ValueError(f"spans outside every layer: {sorted(set(self_s) - grouped)}")
    out = {m: sum(self_s.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
    for metric, (names, how) in LAYER_COUNTS.items():
        out[metric] = sum((calls if how == "calls" else counts).get(n, 0) for n in names)
    predict_rows = sum(counts.get(n, 0) for n in LAYER_TIMES["estimator.predict_s"])
    calls_ = out["estimator.predict_calls"]
    out["estimator.rows_per_call"] = predict_rows / calls_ if calls_ else 0.0
    run_s.sort()
    out["harness.run_s_p50"] = _median(run_s)
    out["harness.run_s_p90"] = run_s[min(len(run_s) - 1, int(0.9 * len(run_s)))] if run_s else 0.0
    out["cli.other_s"] = command_s - sum(out[m] for m in LAYER_TIMES)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, mode: str = "full") -> dict:
    """Run one workload; returns the result object plus the observed digests."""
    sizes = SIZES[mode][workload]
    reference = None
    input_seed = seed
    if mode == "full":
        input_seed = seed % N_VARIANTS
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        if ref["sizes"] == SIZES["full"]:
            reference = ref["workloads"][workload].get(str(input_seed), {})
        else:
            reference = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        run = Run(workload, input_seed, sizes, tmp, reference)
        run.invoke("setup")  # warm-up: byte-compiles the package, fills the page cache
        if trace:
            one_round = lambda: (run.invoke("main"), run.invoke("main", traced=True))
        else:
            one_round = lambda: (run.probe(), run.invoke("setup"), run.invoke("main"))
        rounds = []
        start = time.monotonic()
        while len(rounds) < MIN_REPS[trace] or _room_for_one_more(start, len(rounds), seconds):
            rounds.append(one_round())
        rounds = [r for r in rounds if all(r)]
        metrics = _trace_metrics(rounds) if trace else _end_to_end_metrics(rounds)
        if trace and workload == "evaluate-suite" and "runs_margins" not in run.expected["main"]:
            run.problems.append("the traced evaluate run recorded no runs_margins digest")
        failed = run.failed
        return {
            "correct": failed == 0 and not run.problems,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": metrics,
            "detect_delay_events": rounds[0][-1].info["delay"] if rounds else None,
            "raw_medians_s": _raw_medians(rounds) if rounds and not trace else {},
            "problems": run.problems,
            "digests": run.expected,
            "inputs": run.manifest["sha256"],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _room_for_one_more(start: float, done: int, seconds: float) -> bool:
    """Whether a round of average length still ends within ``seconds``."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / done <= seconds


def _raw_medians(rounds) -> dict:
    probe, setup, main = zip(*rounds)
    return {
        "probe": _median(probe),
        "setup": _median([o.wall for o in setup]),
        "main": _median([o.wall for o in main]),
    }


def _end_to_end_metrics(rounds) -> dict:
    """Metrics of (probe wall, set-up outcome, main outcome) rounds, with
    times scaled to reference seconds by the probe."""
    if not rounds:
        return {}
    raw = _raw_medians(rounds)
    scale = PROBE_REF_S / raw["probe"]
    info = rounds[0][-1].info
    wall = raw["main"] * scale
    return {
        "events_per_s": {"value": info["events"] / wall, "unit": "events/s"},
        "runs_per_s": {"value": info["runs"] / wall, "unit": "runs/s"},
        "setup_s": {"value": raw["setup"] * scale, "unit": "s"},
        "peak_rss_mb": {"value": _median([r[-1].rss_mb for r in rounds]), "unit": "MB"},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.startswith("harness.run_s_"):
        return "s"
    if metric == "monitor.detect_delay_events":
        return "events"
    return "rows/call" if metric == "estimator.rows_per_call" else "count"


def _trace_metrics(pairs) -> dict:
    if not pairs:
        return {}
    per_pair = []
    for untraced, traced in pairs:
        m = layer_metrics(traced.trace, traced.trace["command_s"])
        m["monitor.detect_delay_events"] = untraced.info["delay"]
        m["trace.overhead_s"] = traced.wall - untraced.wall
        per_pair.append(m)
    return {k: {"value": _median([m[k] for m in per_pair]), "unit": _unit(k)} for k in per_pair[0]}


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "shiftwatch")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode())
            h.update(_sha256(path).encode())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **_python_json(["-c", ENV_QUERY]),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _declared_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quick() -> int:
    """Self-test at tiny sizes: every declared metric is printed with its
    unit, digests repeat across two back-to-back runs, and the layers a
    workload bypasses read zero."""
    must_be_zero = {
        "monitor-scores": [m for m in LAYER_COUNTS if m.startswith("estimator.")] + ["estimator.rows_per_call"],
        "evaluate-suite": ["monitor.observe_calls", "confidence.update_calls"],
    }
    failures = []
    for workload in WORKLOADS:
        before = len(failures)
        first, second, traced = (
            run_workload(workload, 3, 0, t, mode="quick") for t in (0, 0, 1)
        )
        for label, res in (("run 1", first), ("run 2", second), ("traced", traced)):
            failures += [f"{workload} {label}: {p}" for p in res["problems"]]
        if first["digests"] != second["digests"] or first["inputs"] != second["inputs"]:
            failures.append(f"{workload}: digests differ between back-to-back runs")
        for res, t in ((first, 0), (traced, 1)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != _declared_metrics(t):
                failures.append(f"{workload} trace {t}: metrics {got} differ from BENCHMARK.json")
        for metric in must_be_zero.get(workload, []):
            if traced["metrics"].get(metric, {}).get("value") != 0:
                failures.append(f"{workload}: {metric} is not zero")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


def record_reference() -> int:
    """Record the expected output digests of every input variant."""
    table = {"sizes": SIZES["full"], "workloads": {}}
    for workload in WORKLOADS:
        table["workloads"][workload] = {}
        for variant in range(N_VARIANTS):
            os.makedirs(WORK_DIR, exist_ok=True)
            tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
            try:
                run = Run(workload, variant, SIZES["full"][workload], tmp, None)
                run.invoke("setup")
                run.invoke("main")
                if workload == "evaluate-suite":
                    run.invoke("main", traced=True)
                if run.problems:
                    print("\n".join(run.problems), file=sys.stderr)
                    return 1
                table["workloads"][workload][str(variant)] = {"inputs": run.manifest["sha256"], **run.expected}
                print(f"{workload} {variant}: recorded", flush=True)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shiftwatch CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shiftwatch", "cli.py")):
        print(f"no shiftwatch sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}, sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if not result["metrics"]:
        print("no invocation succeeded; no metrics to report", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'detect_delay_events':28s} {result['detect_delay_events']:.6g} events (checked by digest)")
        raw = ", ".join(f"{k} {v:.4g} s" for k, v in result["raw_medians_s"].items())
        print(f"unscaled median wall times: {raw}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
