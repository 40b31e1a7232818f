"""Outside-in benchmark of the ghzverify CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {refute,complete,wide,all} \
        --seed N --seconds S --trace {0,1}

One client drives the CLI in a closed loop: one child
``python -m ghzverify ...`` runs at a time, and the next starts only after
the previous one exits.  Every output is judged by ``checker``, which does
not import ghzverify; a rejected output counts as a failed invocation and
does not stop the run.

``--trace 0`` repeats cycles of (PROBES_PER_PASS probes, one workload pass)
for about S seconds (see ``_keep_cycling``) and prints the end-to-end
metrics.  ``--trace 1`` repeats cycles of (one pass untraced, the same pass
traced) and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload both ways.  The last line of stdout
is one JSON object.  A results file under ``.perfbench/`` holds the machine
facts, the seed and every argv with its timing and verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

#: Probes run before each pass; setup_s is their median over the run.
PROBES_PER_PASS = 4
#: A run kills its running child and stops this long after it starts.
RUN_DEADLINE_S = 170.0
#: No CLI command spends measurable time in BLAS, and one thread per child
#: keeps timings steady on a small shared host.
THREAD_ENV = {name: "1" for name in
              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
#: apply_pauli reads 16 B and writes 16 B per complex128 amplitude.
BYTES_PER_AMPLITUDE = 32

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "1")]

_UNITS = {"calls": "count", "self_s": "s", "reports": "count", "operators": "count",
          "assignments": "count", "amplitudes": "count", "assignments_per_s": "1/s",
          "bytes_computed": "B", "per_case": "1"}
_TIMED = ["calls", "self_s"]
#: Reported metrics per traced function, in report order.
_SPAN_METRICS = {
    "lhv.find_contradictions": _TIMED + ["reports"],
    "lhv.exhaustive_search": _TIMED + ["assignments", "assignments_per_s"],
    "lhv.verify_ks_identity": _TIMED,
    "poles.enumerate_pole": _TIMED + ["operators"],
    "poles.eigenvalue_symbolic": _TIMED,
    "pauli.letters": _TIMED,
    "pauli.multiply": _TIMED,
    "counting.table1": _TIMED,
    "counting.c_n_closed": ["calls"],
    "states.rotated_dense": _TIMED,
    "states.apply_rotations": _TIMED,
    "states.signed_bit_sums": _TIMED + ["amplitudes"],
    "rotations.co_rotate_quarter": _TIMED,
    "oracle.check_eigen": _TIMED,
    "oracle.apply_pauli": _TIMED + ["amplitudes", "bytes_computed", "per_case"],
    "oracle.check_conjugation": _TIMED,
    "oracle.materialize": _TIMED,
    "oracle.observable_matrix": _TIMED,
}


def _per_layer() -> list[tuple[str, str]]:
    """Per-layer metrics: cli first, then each module's total self time and its spans."""
    out = [("cli.self_s", "s"), ("cli.stdout_bytes", "B"), ("cli.invocations", "count"),
           ("cli.failed", "count"), ("cli.child_cpu_s", "s")]
    for span, suffixes in _SPAN_METRICS.items():
        module_total = (f"{span.split('.')[0]}.self_s", "s")
        if module_total not in out:
            out.append(module_total)
        out += [(f"{span}.{suffix}", _UNITS[suffix]) for suffix in suffixes]
    return out + [("oracle.worst_residual", "1"), ("trace.overhead_s", "s")]


PER_LAYER = _per_layer()


class RunTimeout(Exception):
    """The run reached RUN_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise RunTimeout


def _on_term(signum, frame):
    # Unwinds through Runner.spawn, which kills and reaps the running child.
    raise SystemExit(128 + signum)


def replay_line(argv: list[str]) -> str:
    """The shell command that reruns one invocation by hand from the repo root."""
    env = " ".join(f"{k}={v}" for k, v in sorted(THREAD_ENV.items()))
    return f"PYTHONPATH=src {env} python3 -m ghzverify {shlex.join(argv)}"


@dataclass
class Invocation:
    number: int
    argv: list[str]
    traced: bool
    start: float = 0.0
    end: float = 0.0
    returncode: int = -1
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    stdout_bytes: int = 0
    verdict: checker.Verdict = field(default_factory=lambda: checker.Verdict(False, "not run"))
    spans: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"argv": self.argv, "traced": self.traced, "wall_s": self.wall_s,
                "returncode": self.returncode, "peak_rss_mb": self.peak_rss_mb,
                "cpu_s": self.cpu_s, "stdout_bytes": self.stdout_bytes,
                "ok": self.verdict.ok, "reason": self.verdict.reason,
                "replay": replay_line(self.argv)}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), **THREAD_ENV}


class Judge:
    """``checker.py`` serving in its own process, one verdict per request.

    On Linux a child's ``ru_maxrss`` includes the peak RSS of the process
    that spawned it (its memory before exec).  So the process that spawns
    the CLI children must stay small, and never loads an output itself:
    parsing one can take hundreds of MB.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "checker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, argv: list[str], returncode: int, path: Path) -> checker.Verdict:
        self.proc.stdin.write(json.dumps([argv, returncode, str(path)]) + "\n")
        self.proc.stdin.flush()
        return checker.Verdict(**json.loads(self.proc.stdout.readline()))

    def __enter__(self) -> Judge:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Spawns one CLI child at a time, times it, and keeps every record."""

    def __init__(self, scratch: Path, deadline: float, judge: Judge):
        self.scratch = scratch
        self.deadline = deadline
        self.judge_process = judge
        self.env = child_env()
        self.invocations: list[Invocation] = []

    def _paths(self, number: int) -> tuple[Path, Path]:
        return self.scratch / f"{number}.out", self.scratch / f"{number}.spans"

    def spawn(self, argv: list[str], traced: bool = False) -> Invocation:
        """Run one child to completion; its output is judged by :meth:`judge`."""
        number = len(self.invocations)
        out, spans = self._paths(number)
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), str(number), *argv]
        else:
            cmd = [sys.executable, "-m", "ghzverify", *argv]
        redirect = [(os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                    (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
        inv = Invocation(number, argv, traced)
        self.invocations.append(inv)
        inv.start = perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, self.env, file_actions=redirect)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - perf_counter(), 1e-3))
            try:
                _, status, usage = os.wait4(pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            inv.verdict = checker.Verdict(False, "killed at the run deadline")
            raise
        inv.end = perf_counter()
        inv.returncode = os.waitstatus_to_exitcode(status)
        inv.peak_rss_mb = usage.ru_maxrss / 1024
        inv.cpu_s = usage.ru_utime + usage.ru_stime
        return inv

    def judge(self, inv: Invocation) -> None:
        out, spans = self._paths(inv.number)
        inv.stdout_bytes = out.stat().st_size
        inv.verdict = self.judge_process.check(inv.argv, inv.returncode, out)
        out.unlink()
        if inv.traced and spans.exists():
            inv.spans = json.loads(spans.read_text())
            spans.unlink()

    def run_pass(self, argvs: list[list[str]], traced: bool = False) -> tuple[float, list[Invocation]]:
        """Run a pass back to back; return its wall time and its invocations.

        Outputs are judged only after the last child exits, so checker time
        stays out of the pass's wall-time interval.
        """
        done = []
        try:
            for argv in argvs:
                done.append(self.spawn(argv, traced))
        finally:
            for inv in done:
                self.judge(inv)
        return done[-1].end - done[0].start, done


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _keep_cycling(loop_start: float, cycle_start: float, seconds: float) -> bool:
    """Start another cycle if at least half of one more still fits.

    Runs then end within half a cycle of ``seconds`` on either side, and a
    workload with long cycles still gets more than one pass.
    """
    now = perf_counter()
    return (now - loop_start) + (now - cycle_start) / 2 <= seconds


def measure_end_to_end(runner: Runner, workload: str, seed: int,
                       seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the per-pass and per-probe samples behind them."""
    walls, probes, work = [], [], []
    loop_start = perf_counter()
    for argvs in workloads.passes(workload, seed):
        cycle_start = perf_counter()
        for _ in range(PROBES_PER_PASS):
            probe = runner.spawn(workloads.PROBE)
            runner.judge(probe)
            probes.append(probe.wall_s)
        wall, done = runner.run_pass(argvs)
        walls.append(wall)
        work += done
        if not _keep_cycling(loop_start, cycle_start, seconds):
            break
    attempted = len(runner.invocations)
    failed = sum(not inv.verdict.ok for inv in runner.invocations)
    values = {
        "wall_s": _median(walls),
        "setup_s": _median(probes),
        "peak_rss_mb": max(inv.peak_rss_mb for inv in work),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return values, {"wall_s": walls, "setup_s": probes}


def layer_metrics(untraced: list[Invocation], traced: list[Invocation], overhead: float) -> dict:
    """Per-layer metrics of one pass, from its untraced and traced runs."""
    times: dict[str, list] = {}
    counts: dict[str, int] = {}
    for inv in traced:
        if inv.spans is None:
            continue
        for name, (calls, self_s) in tracer.self_times(inv.spans["spans"], inv.spans["leaves"]).items():
            cell = times.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += self_s
        for name, value in inv.spans["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {
        "cli.stdout_bytes": sum(inv.stdout_bytes for inv in untraced),
        "cli.invocations": len(untraced),
        "cli.failed": sum(not inv.verdict.ok for inv in untraced),
        "cli.child_cpu_s": sum(inv.cpu_s for inv in untraced),
        "trace.overhead_s": overhead,
    }
    for layer in tracer.TRACED:
        metrics[f"{layer}.self_s"] = sum(s for name, (_, s) in times.items()
                                         if name.split(".")[0] == layer)
    for name, _ in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in metrics:
            continue
        if suffix == "calls":
            metrics[name] = times.get(base, [0, 0.0])[0]
        elif suffix == "self_s":
            metrics[name] = times.get(base, [0, 0.0])[1]
        else:
            metrics[name] = counts.get(name, 0)
    sweep_s = metrics["lhv.exhaustive_search.self_s"]
    metrics["lhv.exhaustive_search.assignments_per_s"] = (
        metrics["lhv.exhaustive_search.assignments"] / sweep_s if sweep_s else 0.0)
    metrics["oracle.apply_pauli.bytes_computed"] = (
        BYTES_PER_AMPLITUDE * metrics["oracle.apply_pauli.amplitudes"])
    cases = sum(inv.verdict.eigen_cases for inv in traced)
    metrics["oracle.apply_pauli.per_case"] = (
        metrics["oracle.apply_pauli.calls"] / cases if cases else 0.0)
    metrics["oracle.worst_residual"] = max(inv.verdict.worst_residual for inv in untraced + traced)
    return metrics


def measure_layers(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics, each the median over (untraced, traced) cycles of one pass."""
    cycles = []
    loop_start = perf_counter()
    for argvs in workloads.passes(workload, seed):
        cycle_start = perf_counter()
        plain_wall, plain = runner.run_pass(argvs)
        traced_wall, traced = runner.run_pass(argvs, traced=True)
        cycles.append(layer_metrics(plain, traced, traced_wall - plain_wall))
        if not _keep_cycling(loop_start, cycle_start, seconds):
            break
    return {name: _median([c[name] for c in cycles]) for name, _ in PER_LAYER}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_sizes() -> dict[str, str]:
    """CPU 0's L2 and L3 sizes as the kernel reports them, e.g. {"l2": "2048K"}."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                sizes[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine_facts() -> dict:
    """Facts about the host and the children's interpreter.

    Raises RuntimeError when the children cannot import ghzverify from
    this checkout's ``src``.
    """
    script = ("import json, sys, numpy, ghzverify; print(json.dumps({'python': sys.version.split()[0], "
              "'numpy': numpy.__version__, 'ghzverify_file': ghzverify.__file__}))")
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("importing ghzverify timed out") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import ghzverify from {SRC}: {proc.stderr.strip()[-300:]}")
    child = json.loads(proc.stdout)
    if not Path(child["ghzverify_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ghzverify resolves to {child['ghzverify_file']}, not under {SRC}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": child["python"],
        "numpy": child["numpy"],
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "child_thread_env": THREAD_ENV,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, facts: dict) -> dict:
    """One run of one workload; returns the result object and writes the results file."""
    started = perf_counter()
    RESULTS.mkdir(exist_ok=True)
    result: dict = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="tmp-") as scratch, Judge() as judge:
        runner = Runner(Path(scratch), started + RUN_DEADLINE_S, judge)
        samples = {}
        try:
            if trace:
                values = measure_layers(runner, workload, seed, seconds)
                units = PER_LAYER
            else:
                values, samples = measure_end_to_end(runner, workload, seed, seconds)
                units = END_TO_END
            result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units}
        except RunTimeout:
            pass
    attempted = len(runner.invocations)
    failed = sum(not inv.verdict.ok for inv in runner.invocations)
    result.update(correct=attempted > 0 and failed == 0 and bool(result["metrics"]),
                  attempted=attempted, failed=failed)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": facts, "elapsed_s": perf_counter() - started, "samples": samples,
              "invocations": [inv.record() for inv in runner.invocations], **result}
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _print_human(workload, seed, trace, result, runner.invocations, path)
    return result


def _print_human(workload: str, seed: int, trace: int, result: dict,
                 invocations: list[Invocation], path: Path) -> None:
    print(f"# {workload} seed={seed} trace={trace}: {result['attempted']} invocations, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"{workload:>9} {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    for inv in invocations:
        if not inv.verdict.ok:
            print(f"FAILED ({inv.verdict.reason}): {replay_line(inv.argv)}")
    print(f"# results: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics. "
                             "--workload all runs both and ignores this flag.")
    args = parser.parse_args(argv)
    if not (SRC / "ghzverify" / "__init__.py").is_file():
        print(f"error: no ghzverify sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    try:
        facts = machine_facts()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, facts)
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, args.seconds, trace, facts)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
