"""Runs one workload through the public CLI, checks its outputs and
derives the metrics.

A session is one pass of the workload: ``gen-data`` (the set-up), then
the workload's commands, each called as ``contrastlab.cli.main(argv)``
in this process. An untraced run repeats sessions until ``seconds`` have
passed; a traced run alternates untraced and traced sessions, so that
drift in machine speed falls on both alike.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import SpeedProbe
from contrastlab import cli
from spans import TENSOR_OPS, SpanTable, StepClock, Tracer, current_attributes
from workloads import EVAL_COMMANDS, Workload, make_config

MIN_SETUPS = 5
STEP_WINDOW_S = 0.1
MIN_TRACED = 2
REPORTED_OPS = ("matmul", "gather", "concat", "add", "mul", "div", "exp", "log", "l2_normalize")
TRAIN_LOG_FIELDS = 10
FORWARD_LAYERS = ("tensor.", "nets.", "losses.")


class Ledger:
    """Operations attempted and the ones that failed, never retried.

    An operation is a command the program runs or a check of its output.
    A command that exits non-zero is a failed operation; a check that
    fails is a wrong output as well, which makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def record(self, what: str, ok: bool, reason: str = "", check: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {reason}" if reason else what)
            if check:
                self.wrong.append(self.failures[-1])
        return ok


@dataclass
class CommandRun:
    name: str
    exit_code: int | None
    seconds: float
    stdout: str
    stderr: str
    steps: list[float]
    begin: float
    end: float

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


@dataclass
class Session:
    traced: bool
    commands: list[CommandRun] = field(default_factory=list)
    completed: bool = False
    digest: str | None = None
    checkpoint_bytes: int = 0
    cases: int = 0

    @property
    def setup_s(self) -> float | None:
        first = self.commands[0] if self.commands else None
        return first.seconds if first is not None and first.ok else None

    @property
    def work_s(self) -> float:
        return sum(c.seconds for c in self.commands[1:])

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)

    def command(self, name: str) -> CommandRun | None:
        return next((c for c in self.commands if c.name == name), None)


def run_command(command: str, config: Path, clock: StepClock,
                tracer: Tracer | None = None) -> CommandRun:
    steps = clock.begin()
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "-c", str(config)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tracer.call(f"cli.{command}", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # An error the CLI did not turn into an exit code.
            traceback.print_exc(file=err)
            code = None
    end = time.perf_counter()
    return CommandRun(command, code, end - start, out.getvalue(), err.getvalue(), steps,
                      start, end)


# -- output checks -----------------------------------------------------------

def _sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def _check_train_log(path: Path, workload: Workload) -> str:
    """Empty when every row is finite, additive and the count is right."""
    lines = path.read_text().splitlines()
    if not lines or len(lines[0].split(",")) != TRAIN_LOG_FIELDS:
        return "bad header"
    rows = lines[1:]
    if len(rows) != workload.pretrain_steps:
        return f"{len(rows)} rows, expected {workload.pretrain_steps}"
    for n, row in enumerate(rows, start=2):
        fields = row.split(",")
        if len(fields) != TRAIN_LOG_FIELDS:
            return f"line {n}: {len(fields)} fields"
        values = [float(x) for x in fields[2:]]
        if not all(math.isfinite(v) for v in values):
            return f"line {n}: non-finite value"
        loss, pos, neg, omega = values[:4]
        if loss != pos + neg + omega:
            return f"line {n}: loss {loss!r} != pos + neg + omega {pos + neg + omega!r}"
    return ""


def _check_eval_log(path: Path, workload: Workload) -> str:
    lines = path.read_text().splitlines()
    sizes = workload.config["eval"]["probe_sizes"]
    expected = 1 + 1 + 1 + len(sizes)   # header, pretrain row, knn row, probe rows
    if len(lines) != expected:
        return f"{len(lines)} lines, expected {expected}"
    for n, row in enumerate(lines[1:], start=2):
        epoch, rest = row.split(",", 1)
        values = [float(x) for x in rest.split(",") if x]
        if not values or not all(0.0 <= v <= 1.0 for v in values):
            return f"line {n}: value outside [0, 1]"
        if n > 2 and epoch != "-1":
            return f"line {n}: epoch {epoch}, expected -1"
    return ""


def _check_separability(path: Path) -> str:
    lines = path.read_text().splitlines()
    if len(lines) != 1 + 2 * 101:
        return f"{len(lines)} lines, expected 203"
    overlaps = [row.split(",")[3] for row in lines[1:] if ":overlap," in row]
    if len(overlaps) != 2 or not all(0.0 <= float(v) <= 1.0 for v in overlaps):
        return "overlap rows missing or outside [0, 1]"
    return ""


def check_outputs(session: Session, workload: Workload, out_dir: Path, ledger: Ledger,
                  tag: str) -> None:
    """Check a session's outputs and set the digest of a completed one.
    Suite lines count as cases even when their command failed."""
    if workload.pretrains:
        files = [out_dir / n for n in ("train_log.csv", "eval_log.csv", "separability.csv")]
        for path, problem in zip(files, (_check_train_log(files[0], workload),
                                         _check_eval_log(files[1], workload),
                                         _check_separability(files[2]))):
            ledger.record(f"{tag} {path.name}", not problem, problem)
        pretrain = session.command("pretrain")
        ledger.record(f"{tag} step clock", len(pretrain.steps) == workload.pretrain_steps,
                      f"{len(pretrain.steps)} optimizer steps, expected "
                      f"{workload.pretrain_steps}")
        session.digest = _sha256(*(p.read_bytes() for p in files))
        session.checkpoint_bytes = (out_dir / "checkpoint.bin").stat().st_size
        return
    blobs = []
    for cmd in session.commands[1:]:
        lines = cmd.stdout.splitlines()
        session.cases += len(lines)
        for line in lines:
            ledger.record(f"{tag} {cmd.name} case", line.startswith("PASS "), line)
        blobs.append(cmd.stdout.encode())
    reduce = session.command("reduce-check")
    if reduce.ok:
        ledger.record(f"{tag} step clock", len(reduce.steps) >= 2,
                      f"{len(reduce.steps)} optimizer steps in reduce-check")
    if session.completed:
        session.digest = _sha256(*blobs)


def _failure_detail(cmd: CommandRun, workload: Workload) -> str:
    message = (cmd.stderr.strip().splitlines() or ["no message"])[-1]
    where = ""
    if cmd.name == "pretrain":
        done = len(cmd.steps)
        per_epoch = workload.steps_per_epoch
        where = f" at epoch {done // per_epoch} step {done % per_epoch}"
    return f"exit {cmd.exit_code}{where}: {message}"


def run_session(workload: Workload, seed: int, sdir: Path, clock: StepClock,
                ledger: Ledger, tracer: Tracer | None) -> Session:
    """One set-up plus the workload's commands; the directory is removed
    afterwards."""
    tag = f"{'traced ' if tracer else ''}session {sdir.name}"
    sdir.mkdir(parents=True)
    config = sdir / "config.json"
    out_dir = sdir / "out"
    config.write_text(json.dumps(make_config(workload, seed, str(sdir / "data"), str(out_dir))))
    session = Session(traced=tracer is not None)
    before = current_attributes() if tracer else None
    if tracer:
        tracer.install()
    try:
        failed = False
        for command in ("gen-data",) + workload.commands:
            cmd = run_command(command, config, clock, tracer)
            session.commands.append(cmd)
            if not ledger.record(f"{tag} {command}", cmd.ok, "" if cmd.ok
                                 else _failure_detail(cmd, workload), check=False):
                failed = True
                # The eval commands need the dataset and the checkpoint;
                # the two check commands do not depend on each other.
                if command == "gen-data" or workload.pretrains:
                    break
        session.completed = not failed
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        ledger.record(f"{tag} wrappers restored", current_attributes() == before,
                      "a traced attribute was not put back")
    if session.completed or (len(session.commands) > 1 and not workload.pretrains):
        check_outputs(session, workload, out_dir, ledger, tag)
    shutil.rmtree(sdir)
    return session


# -- metrics -----------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def step_intervals(sessions: list[Session], probe: SpeedProbe | None = None) -> list[float]:
    """Intervals between consecutive optimizer steps of one command (s),
    pooled over the sessions. With a probe: net of its jobs and at the
    reference speed, by the probe's speed over the interval widened by
    STEP_WINDOW_S on each side (a step is too short to hold enough jobs)."""
    out = []
    for c in (c for s in sessions for c in s.commands if len(c.steps) >= 2):
        t = np.asarray(c.steps)
        if probe is None:
            out += np.diff(t).tolist()
            continue
        out += (probe.net(t[:-1], t[1:])
                * probe.factor(t[:-1] - STEP_WINDOW_S, t[1:] + STEP_WINDOW_S)).tolist()
    return out


def end_to_end(sessions: list[Session], setups: list[CommandRun], workload: Workload,
               ledger: Ledger, probe: SpeedProbe) -> tuple[dict, dict]:
    """Metric values plus (q1, median, q3, n) of each, over untraced
    sessions that completed. Times are net of the probe's jobs and at its
    reference speed; the wall-clock medians are kept under ``wall``."""
    done = [s for s in sessions if s.completed] or sessions

    def scaled(commands: list[CommandRun]) -> float:
        return float(sum(probe.scaled(c.begin, c.end) for c in commands))

    samples = {"setup_s": [scaled([c]) for c in setups],
               "session_s": [scaled(s.commands[1:]) for s in done]}
    stats = {k: (*quartiles(v), len(v)) for k, v in samples.items() if v}
    values = {k: q[1] for k, q in stats.items()}
    wall = {"setup_s": statistics.median(c.seconds for c in setups) if setups else None,
            "session_s": statistics.median(s.work_s for s in done)}
    intervals = step_intervals(done, probe)
    if intervals:
        ms = np.asarray(intervals) * 1e3
        values["step_ms_p50"] = float(np.percentile(ms, 50))
        values["train_samples_per_s"] = workload.samples_per_step * len(ms) / (ms.sum() / 1e3)
        stats["step_ms"] = (float(np.percentile(ms, 25)), values["step_ms_p50"],
                            float(np.percentile(ms, 75)), len(ms))
        # The highest percentile with ten samples beyond it; printed, not
        # gated (see README: its run-to-run spread exceeds any bound).
        stats["step_ms_p90"] = (float(np.percentile(ms, 90)), len(ms))
        wall_ms = np.asarray(step_intervals(done)) * 1e3
        wall["step_ms_p50"] = float(np.percentile(wall_ms, 50))
        wall["train_samples_per_s"] = workload.samples_per_step * len(ms) / (wall_ms.sum() / 1e3)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ops_ok_frac"] = (ledger.attempted - len(ledger.failures)) / max(1, ledger.attempted)
    stats["wall"] = wall
    stats["probe_jobs"] = len(probe.durations)
    stats["probe_job_ms"] = float(np.mean(probe.durations) * 1e3) if probe.durations else None
    return values, stats


def _step_windows(t: SpanTable) -> list[tuple[int, np.ndarray]]:
    """(training-loop span, end times of its optimizer steps) per loop."""
    steps = np.flatnonzero(t.mask("train.optimizer_step"))
    loops = []
    for loop in np.unique(t.parent[steps]):
        ends = np.sort(t.end[steps[t.parent[steps] == loop]])
        if len(ends) >= 2:
            loops.append((int(loop), ends))
    return loops


def step_breakdown(t: SpanTable) -> dict:
    """Split the time between consecutive optimizer steps into the calls
    the training loop makes: augment, forward (engine, nets, losses),
    backward, optimizer, and the loop's own code (the remainder)."""
    parts = {"augment": 0.0, "forward": 0.0, "backward": 0.0, "optimizer": 0.0}
    total, windows, ops, views = 0.0, 0, 0, 0
    is_op = np.isin(t.name_id, [t.ids(f"tensor.{op}") for op in TENSOR_OPS])
    is_view = t.mask("augment.make_two_views")
    for loop, ends in _step_windows(t):
        lo, hi = ends[0], ends[-1]
        inside = (t.start > lo) & (t.end <= hi)
        total += hi - lo
        windows += len(ends) - 1
        ops += int((inside & is_op).sum())
        views += int((inside & is_view).sum())
        for i in np.flatnonzero(inside & (t.parent == loop)):
            name = t.names[t.name_id[i]]
            if name == "augment.make_two_views":
                parts["augment"] += t.duration[i]
            elif name == "tensor.backward":
                parts["backward"] += t.duration[i]
            elif name == "train.optimizer_step":
                parts["optimizer"] += t.duration[i]
            elif name.startswith(FORWARD_LAYERS):
                parts["forward"] += t.duration[i]
    parts = {k: float(v) for k, v in parts.items()}
    return {"step_s": float(total), "windows": windows, "ops": ops, "views": views,
            "other": float(total - sum(parts.values())), **parts}


def traced_metrics(t: SpanTable, session: Session) -> dict:
    """Per-layer values of one traced session: times (s unless named
    otherwise) and exact counts."""
    steps = step_breakdown(t)
    windows = max(1, steps["windows"])
    views = t.calls("augment.augment_view")
    counts = {
        "augment.views": views,
        "rng.derive_calls": t.calls("rng.derive"),
        "nets.mlp_calls": t.calls("nets.mlp"),
        "losses.nce_head_terms.calls": t.calls("losses.nce_head_terms"),
        "losses.ntxent_terms.calls": t.calls("losses.ntxent_terms"),
        "train.steps": steps["windows"],
        "tensor.ops_per_step": steps["ops"] / windows,
        "nets.checkpoint_bytes": session.checkpoint_bytes,
        "checks.cases": session.cases,
        **{f"tensor.op.{op}.calls": t.calls(f"tensor.{op}") for op in REPORTED_OPS},
    }
    times = {
        "augment.train_views_s": t.inclusive("augment.make_two_views"),
        "augment.view_us": t.inclusive("augment.augment_view") / views * 1e6 if views else 0.0,
        "augment.load_dataset_s": t.inclusive("augment.load_dataset"),
        "augment.write_dataset_s": t.inclusive("augment.write_dataset"),
        "rng.derive_s": t.inclusive("rng.derive"),
        "tensor.backward_s": t.inclusive("tensor.backward"),
        "tensor.finite_diff_check_s": t.inclusive("tensor.finite_diff_check"),
        "losses.nce_head_terms_s": t.inclusive("losses.nce_head_terms"),
        "losses.ntxent_terms_s": t.inclusive("losses.ntxent_terms"),
        "nets.mlp_forward_s": t.inclusive("nets.mlp"),
        "train.step_s": steps["step_s"],
        "train.forward_s": steps["forward"],
        "train.step_other_s": steps["other"],
        "train.optimizer_s": t.inclusive("train.optimizer_step"),
        "metrics.temperature_stats_s": t.inclusive("metrics.temperature_stats"),
        "train.evaluate_s": t.inclusive("train.evaluate"),
        "train.encode_features_s": t.inclusive("train.encode_features"),
        "train.knn_eval_s": t.inclusive("train.knn_eval"),
        "train.linear_probe_s": t.inclusive("train.linear_probe"),
        "train.build_eval_pairs_s": t.inclusive("train.build_eval_pairs"),
        "metrics.separability_report_s": t.inclusive("metrics.separability_report"),
        "nets.save_bundle_s": t.inclusive("nets.save_bundle"),
        "nets.load_bundle_s": t.inclusive("nets.load_bundle"),
        "checks.gradcheck_suite_s": t.inclusive("checks.gradcheck_suite"),
        "checks.mle_equivalence_suite_s": t.inclusive("checks.mle_equivalence_suite"),
        "checks.reduction_suite_s": t.inclusive("checks.reduction_suite"),
        "config.load_config_s": t.inclusive("config.load_config"),
        **{f"tensor.op.{op}.self_s": t.self_total(f"tensor.{op}") for op in REPORTED_OPS},
    }
    shares = {k: steps[k] / steps["step_s"] for k in ("augment", "forward", "backward",
                                                      "optimizer", "other")
              } if steps["step_s"] else {}
    return {"counts": counts, "times": times, "shares": shares,
            "views_per_step": steps["views"] / windows}


def command_times(sessions: list[Session], workload: Workload) -> dict:
    """Median untraced wall time of the command groups a user runs."""
    def median_of(names):
        vals = [sum(c.seconds for c in s.commands if c.name in names) for s in sessions]
        return statistics.median(vals) if vals else 0.0
    if workload.pretrains:
        return {"cli.pretrain_s": median_of(("pretrain",)),
                "cli.eval_s": median_of(EVAL_COMMANDS), "cli.checks_s": 0.0}
    return {"cli.pretrain_s": 0.0, "cli.eval_s": 0.0,
            "cli.checks_s": median_of(workload.commands)}


# -- the run -----------------------------------------------------------------

@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict
    details: dict

    def line(self, units: dict[str, str]) -> dict:
        """The result line: ``correct`` when no output check failed and
        every metric is a finite number; ``failed`` counts failed
        commands too."""
        correct = not self.ledger.wrong and all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in self.metrics.values())
        return {"correct": correct, "attempted": self.ledger.attempted,
                "failed": len(self.ledger.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()}}


def _check_repeats(sessions: list[Session], ledger: Ledger) -> None:
    """Every completed session of one seed gives the same output digest."""
    done = [s for s in sessions if s.completed]
    for i, s in enumerate(done[1:], start=2):
        ledger.record(f"digest of session {i} ({'traced' if s.traced else 'untraced'})",
                      s.digest == done[0].digest, f"{s.digest} != {done[0].digest}")


def _setups(sessions: list[Session], workload: Workload, seed: int, work: Path,
            clock: StepClock, ledger: Ledger) -> list[CommandRun]:
    """Set-up commands of the sessions, topped up to MIN_SETUPS."""
    setups = [s.commands[0] for s in sessions if s.setup_s is not None]
    while len(setups) < MIN_SETUPS:
        sdir = work / f"setup{len(setups)}"
        sdir.mkdir(parents=True)
        config = sdir / "config.json"
        config.write_text(json.dumps(make_config(workload, seed, str(sdir / "data"),
                                                 str(sdir / "out"))))
        cmd = run_command("gen-data", config, clock)
        shutil.rmtree(sdir)
        if not ledger.record(f"set-up {len(setups)}", cmd.ok,
                             "" if cmd.ok else _failure_detail(cmd, workload), check=False):
            break
        setups.append(cmd)
    return setups


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, per_layer: list[str], end_to_end_names: list[str]) -> RunResult:
    """Run sessions for about ``seconds`` and derive the metric set the
    mode reports: end-to-end untraced, per-layer traced."""
    ledger = Ledger()
    clock = StepClock()
    tracer = Tracer() if trace else None
    # Untraced runs only: the probe's jobs would fall inside spans.
    probe = None if trace else SpeedProbe()
    sessions: list[Session] = []
    started = time.perf_counter()
    clock.install()
    if probe:
        probe.start()
    try:
        while True:
            # A traced run alternates traced and untraced sessions,
            # starting and ending traced: T, U, T, ...
            traced = trace and len(sessions) % 2 == 0
            sessions.append(run_session(workload, seed, work / f"s{len(sessions)}", clock,
                                        ledger, tracer if traced else None))
            elapsed = time.perf_counter() - started
            typical = statistics.median(s.seconds for s in sessions)
            if not trace:
                # Time for the set-ups still to top up, inside the budget.
                elapsed += max(0, MIN_SETUPS - len(sessions)) * statistics.median(
                    s.commands[0].seconds for s in sessions)
            if trace and (len(sessions) < 2 * MIN_TRACED - 1 or not traced):
                continue
            # Stop where the run ends nearest to `seconds`.
            if elapsed + typical * (1.0 if trace else 0.5) > seconds:
                break
        untraced = [s for s in sessions if not s.traced]
        setups = [] if trace else _setups(untraced, workload, seed, work, clock, ledger)
    finally:
        if probe:
            probe.stop()
        clock.uninstall()
    _check_repeats(sessions, ledger)
    threads = thread_count()
    ledger.record("threads", threads <= max(1, os.cpu_count() or 1),
                  f"{threads} threads on {os.cpu_count()} cores")
    details = {"sessions": len(sessions), "failures": ledger.failures,
               "digest": next((s.digest for s in sessions if s.digest), None)}
    if not trace:
        values, stats = end_to_end(untraced, setups, workload, ledger, probe)
        metrics = {name: values.get(name) for name in end_to_end_names}
        details["quartiles"] = stats
        return RunResult(ledger, metrics, details)
    traced_runs = []
    for run, s in enumerate(x for x in sessions if x.traced):
        if s.completed:
            traced_runs.append(traced_metrics(tracer.spans(run), s))
    values = _layer_values(traced_runs, sessions, workload, ledger)
    metrics = {name: values.get(name) for name in per_layer}
    details["spans"] = len(tracer.start)
    details["stage_shares"] = traced_runs[0]["shares"] if traced_runs else {}
    tracer.write(work / "spans.npz")
    return RunResult(ledger, metrics, details)


def _layer_values(traced_runs: list[dict], sessions: list[Session], workload: Workload,
                  ledger: Ledger) -> dict:
    if not traced_runs:
        return {}
    first = traced_runs[0]
    for i, r in enumerate(traced_runs[1:], start=2):
        moved = sorted(k for k in first["counts"] if r["counts"][k] != first["counts"][k])
        ledger.record(f"counts of traced session {i}", not moved, f"changed: {moved}")
    if first["counts"]["train.steps"]:
        ledger.record("make_two_views calls per step", first["views_per_step"]
                      == workload.samples_per_step,
                      f"{first['views_per_step']} per step, expected {workload.samples_per_step}")
    for i, r in enumerate(traced_runs, start=1):
        # Stages are disjoint calls inside the step windows, so what is
        # left for the loop's own code cannot be negative.
        ledger.record(f"step breakdown of traced session {i}", r["times"]["train.step_other_s"]
                      >= -1e-6, f"remainder {r['times']['train.step_other_s']} s")
    values = dict(first["counts"])
    for key in first["times"]:
        values[key] = statistics.median(r["times"][key] for r in traced_runs)
    traced = [s.seconds for s in sessions if s.traced and s.completed]
    untraced = [s.seconds for s in sessions if not s.traced and s.completed]
    values["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else None)
    values.update(command_times([s for s in sessions if not s.traced and s.completed], workload))
    return values


def thread_count() -> int:
    """Threads of this process (1 where /proc is missing)."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


def environment() -> dict:
    """What the timings depend on: interpreter, numpy and its BLAS, CPU,
    core count and this process's thread count."""
    import platform

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": cpu, "nproc": os.cpu_count(), "threads": thread_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
