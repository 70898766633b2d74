"""memnet-sim benchmark: three scenario workloads through ``memnet_sim.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heralded_ghz --seed 0 --seconds 34 --trace 0

Each workload repeats rounds of its scenario executions in this process for
``--seconds`` seconds, writes every report bundle to a scratch directory
under ``.perfbench/`` and checks it.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced and
half traced, and prints the per-layer metrics.  Without ``--workload`` it
runs all three workloads.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy

from spans import Recorder, layer_metrics, traced
from workloads import WORKLOADS, Scenario, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_STARTS = 5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import memnet_sim.cli as cli\n"
    "cli.cf.preset('paper')\n"
    "print(time.perf_counter() - t)\n"
)

# The end-to-end metrics of the result line, each bounded in BENCHMARK.json.
# Neighbours on a shared host slow the whole machine by up to 1.7x for
# minutes at a time, so the bounded round time is calibrated against a fixed
# reference computation timed beside every execution (see reference_seconds);
# the plain wall times are printed beside it, unbounded.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref.p50", "ref"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)
PRINTED = (
    ("wall_s.p50", "s"),
    ("wall_s.tail", "s"),
    ("work_per_s", "1/s"),
    ("failed_ratio", "ratio"),
)

_G = "heralded_ghz"
_P = "pair_sweeps"
_S = "swap_grid"
_ALL = "heralded_ghz, pair_sweeps, swap_grid"
# (name, unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("events.build_event_tables.s", "s", "lower", f"wall_s.p50 on {_G}; none on {_P}, {_S}"),
    ("events.build_event_tables.calls", "count", "lower", f"wall_s.p50 on {_G}; none on {_P}, {_S}"),
    ("events.classes", "count", "lower", f"wall_s.p50 on {_G}; none on {_P}, {_S}"),
    ("events.conditional_success_estimate.s", "s", "lower", f"wall_s.p50 on {_G}; none on {_P}, {_S}"),
    ("events.self_s", "s", "lower", f"wall_s.p50 on {_G}; none on {_P}, {_S}"),
    ("events.EventTable.sample.s", "s", "lower", f"work_per_s, wall_s.p50 on {_G}"),
    ("events.EventTable.sample.calls", "count", "lower", f"work_per_s, wall_s.p50 on {_G}"),
    ("quantum.apply_unitary.s", "s", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.apply_unitary.calls", "count", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.measurement_probabilities.s", "s", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.measurement_probabilities.calls", "count", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.DensityMatrix.s", "s", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.DensityMatrix.calls", "count", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("quantum.self_s", "s", "lower", f"wall_s.p50 on {_G}; a little on {_P}"),
    ("optics.connect_three.s", "s", "lower", f"wall_s.p50 on {_G}"),
    ("optics.averaged_swap_fidelity.s", "s", "lower", f"wall_s.p50 on {_S} only"),
    ("optics.averaged_swap_fidelity.calls", "count", "lower", f"wall_s.p50 on {_S} only"),
    ("optics.self_s", "s", "lower", f"wall_s.p50 on {_S} only"),
    ("node.storage_channel.s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("node.storage_channel.calls", "count", "lower", f"wall_s.p50 on {_P}"),
    ("node.entangled_pair_state.s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("node.entangled_pair_state.calls", "count", "lower", f"wall_s.p50 on {_P}"),
    ("node.self_s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("detection.subtract_accidentals.s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("detection.subtract_accidentals.calls", "count", "lower", f"wall_s.p50 on {_P}"),
    ("detection.visibility_raw.calls", "count", "lower", f"wall_s.p50 on {_P}"),
    ("detection.self_s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("detection.write_coincidence_csv.s", "s", "lower", f"wall_s.p50 on {_ALL}; most on {_P}"),
    ("witness.fidelity_from_counts.s", "s", "lower", f"wall_s.p50 on {_G}"),
    ("witness.fidelity_from_counts.calls", "count", "lower", f"wall_s.p50 on {_G}"),
    ("witness.populations_from_counts.s", "s", "lower", f"wall_s.p50 on {_G}"),
    ("witness.self_s", "s", "lower", f"wall_s.p50 on {_G}"),
    ("witness.write_setting_counts_csv.s", "s", "lower", f"wall_s.p50 on {_ALL}; most on {_P}"),
    ("harness.self_s", "s", "lower", f"wall_s.p50, work_per_s on {_P}, {_G}; none on {_S}"),
    ("harness.rng_streams", "count", "lower", f"wall_s.p50, work_per_s on {_P}, {_G}; none on {_S}"),
    ("harness.draws_per_stream", "draws/stream", "higher", f"wall_s.p50, work_per_s on {_P}, {_G}; none on {_S}"),
    ("harness.curve_fit.s", "s", "lower", f"wall_s.p50 on {_P}"),
    ("harness.curve_fit.calls", "count", "lower", f"wall_s.p50 on {_P}"),
    ("harness.emit_report.s", "s", "lower", f"wall_s.p50 on {_ALL}; most on {_P}"),
    ("harness.emit_report.bytes", "bytes", "lower", f"wall_s.p50 on {_ALL}; most on {_P}"),
    ("config.preset.s", "s", "lower", f"setup_s, wall_s.p50 on {_ALL}"),
    ("config.self_s", "s", "lower", f"setup_s, wall_s.p50 on {_ALL}"),
    ("cli.main.s", "s", "lower", f"setup_s, wall_s.p50 on {_ALL}"),
    ("cli.self_s", "s", "lower", f"setup_s, wall_s.p50 on {_ALL}"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_ref.p50 of this run, in s"),
)


def tail_index(n: int) -> int | None:
    """Index into ``n`` sorted samples of the highest percentile that has at
    least ten samples beyond it, or None when there are fewer than eleven."""
    return n - 11 if n >= 11 else None


@dataclass
class Execution:
    id: int
    scenario: str
    round: int
    seconds: float
    work: int
    problems: list[str]
    ref: float = float("nan")  # mean reference time just before and just after


@dataclass
class Summary:
    """Timing summary of the successful executions of whole rounds.

    A round runs each scenario of the workload once, so ``p50`` (the median
    round) is the sum over scenarios of each scenario's median execution
    time.  ``tail`` scales it by the tail percentile of every execution's
    time relative to its scenario's median, which for a single-scenario
    workload is that scenario's tail percentile.  ``p50_ref`` is ``p50``
    with every execution time first divided by the reference time timed
    beside it: the median round in units of the reference computation.
    """

    p50: float
    p50_ref: float
    tail: float
    tail_percentile: float
    tail_beyond: int
    executions: int
    rounds: int
    work_per_s: float  # a round's work over p50


def summarize(executions: list[Execution], scenarios: list[str]) -> Summary | None:
    ok = [e for e in executions if not e.problems]
    times = {s: [e.seconds for e in ok if e.scenario == s] for s in scenarios}
    if not all(times.values()):
        return None
    med = {s: statistics.median(t) for s, t in times.items()}
    p50 = sum(med.values())
    p50_ref = sum(
        statistics.median(e.seconds / e.ref for e in ok if e.scenario == s) for s in scenarios
    )
    work = sum(statistics.median(e.work for e in ok if e.scenario == s) for s in scenarios)
    ratios = sorted(e.seconds / med[e.scenario] for e in ok)
    k = tail_index(len(ratios))
    k = len(ratios) - 1 if k is None else k
    return Summary(
        p50=p50,
        p50_ref=p50_ref,
        tail=p50 * ratios[k],
        tail_percentile=100.0 * (k + 1) / len(ratios),
        tail_beyond=len(ratios) - 1 - k,
        executions=len(ok),
        rounds=len({e.round for e in executions}),
        work_per_s=work / p50,
    )


def _bundle_digest(out_dir: Path) -> tuple[str, dict]:
    """Digest of the report body and every artifact file, plus the body."""
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        body = json.load(fh)["body"]
    h = hashlib.sha256(json.dumps(body, sort_keys=True, indent=2).encode())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "report.json":
            h.update(str(path.relative_to(out_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest(), body


class Runner:
    """Runs and checks one workload's executions with one seed."""

    def __init__(self, workload: Workload, seed: int, scratch: Path) -> None:
        from memnet_sim import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference: dict[str, str] = {}

    def execute(self, scenario: Scenario, round_: int, workers: int = 1, recorder=None) -> Execution:
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.attempted += 1
        seconds, work, problems = 0.0, 0, []
        try:
            if recorder is not None:
                recorder.begin_execution(self.attempted)
            argv = scenario.argv(self.seed, str(out_dir), workers)
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                status = self.cli.main(argv)
            seconds = time.perf_counter() - start
            if status != 0:
                problems.append(f"exit status {status}")
            else:
                digest, body = _bundle_digest(out_dir)
                reference = self._reference.setdefault(scenario.scenario, digest)
                if digest != reference:
                    problems.append("report bundle differs from the first one of this run")
                problems += scenario.check(body)
                work = scenario.work(body)
        except SystemExit as exc:
            problems.append(f"cli exited with {exc.code}")
        except Exception:
            problems.append(traceback.format_exc())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"{scenario.scenario} (execution {self.attempted}): {p}" for p in problems]
        return Execution(self.attempted, scenario.scenario, round_, seconds, work, problems)

    def check_threaded(self) -> None:
        """Untimed thread-pool execution of every scenario that has one.

        It runs first, so its bundle is the reference the timed
        ``--workers 1`` executions must reproduce byte for byte.
        """
        for scenario in self.workload.scenarios:
            if scenario.check_workers > 1:
                self.execute(scenario, -1, workers=scenario.check_workers)

    def rounds(self, seconds: float, recorder=None) -> list[Execution]:
        """Whole rounds for about ``seconds``: another round starts while it
        would end less than half a round past ``seconds``; at least one.

        The reference computation runs before the first execution and after
        each one; an execution's ``ref`` is the mean of the two beside it.
        """
        executions: list[Execution] = []
        start = time.perf_counter()
        n = 0
        ref_before = reference_seconds()
        while n == 0 or (time.perf_counter() - start) * (n + 0.5) / n <= seconds:
            for scenario in self.workload.scenarios:
                execution = self.execute(scenario, n, recorder=recorder)
                ref_after = reference_seconds()
                execution.ref = (ref_before + ref_after) / 2
                ref_before = ref_after
                executions.append(execution)
            n += 1
        return executions


# bound at import, so the traced run's Philox counter never sees the reference
_Philox = numpy.random.Philox


def reference_seconds() -> float:
    """Seconds a fixed computation takes, about 50 ms on a 2-core Xeon.

    It uses no memnet_sim code, only the kinds of work the scenarios do:
    an interpreter loop over a dict, small Philox streams with multinomial
    draws, and arithmetic on a 2 MB array.  Timed beside every execution,
    it measures how fast the host runs at that moment, so dividing by it
    takes out the host's slow phases and keeps changes to the program.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(100_000):
        table[i & 1023] = acc
        acc += (i * 7) % 13
    for k in range(400):
        rng = numpy.random.Generator(_Philox(key=numpy.array([k, 3], dtype=numpy.uint64)))
        rng.multinomial(512, [0.25] * 4)
    a = numpy.arange(250_000, dtype=numpy.float64)
    for _ in range(16):
        a = numpy.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - start


def measure_setup(starts: int = SETUP_STARTS) -> list[float]:
    """Seconds a fresh interpreter takes to import the CLI and build the preset.

    One untimed start first fills the bytecode cache.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(starts + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> str:
    import scipy

    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} commit={commit}"
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _line(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:<40} {value:>14.6g} {unit:<12} {note}")


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = measure_setup()
    runner.check_threaded()
    executions = runner.rounds(seconds)
    s = summarize(executions, [sc.scenario for sc in runner.workload.scenarios])
    if s is None:
        return {}
    ok_ratio = (runner.attempted - runner.failed) / runner.attempted
    scenarios = " + ".join(sc.scenario for sc in runner.workload.scenarios)
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh-interpreter starts"),
        "wall_ref.p50": (
            s.p50_ref,
            f"median round ({scenarios}) over the reference time beside each execution; "
            f"{s.rounds} rounds, {s.executions} executions",
        ),
        "wall_s.p50": (s.p50, f"median round; {s.rounds} rounds, {s.executions} executions; not bounded"),
        "wall_s.tail": (
            s.tail,
            f"p50 x p{s.tail_percentile:.1f} of {s.executions} execution/scenario-median ratios "
            f"({s.tail_beyond} beyond); not bounded",
        ),
        "work_per_s": (s.work_per_s, f"{runner.workload.work_unit}: a round's work over wall_s.p50; not bounded"),
        "peak_rss_mb": (peak_rss_mb(), "peak resident memory of this process"),
        "success_ratio": (ok_ratio, f"{runner.attempted - runner.failed} of {runner.attempted} executions passed"),
        "failed_ratio": (1 - ok_ratio, f"{runner.failed} of {runner.attempted} executions failed"),
    }
    for name, unit in END_TO_END + PRINTED:
        _line(name, values[name][0], unit, values[name][1])
    return {name: _metric(values[name][0], unit) for name, unit in END_TO_END}


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict:
    runner.check_threaded()
    scenarios = [sc.scenario for sc in runner.workload.scenarios]
    untraced = summarize(runner.rounds(seconds / 2), scenarios)
    recorder = Recorder()
    with traced(recorder):
        executions = runner.rounds(seconds / 2, recorder=recorder)
    recorder.write(spans_path)
    traced_summary = summarize(executions, scenarios)
    if untraced is None or traced_summary is None:
        return {}

    round_of = {e.id: e.round for e in executions}
    per_round = []
    for r in sorted(set(round_of.values())):
        spans = [sp for sp in recorder.spans if round_of.get(sp.execution) == r]
        counts: dict[str, int] = {}
        for (execution, name), n in recorder.counts.items():
            if round_of.get(execution) == r:
                counts[name] = counts.get(name, 0) + n
        values = layer_metrics(spans, counts)
        work = sum(e.work for e in executions if e.round == r)
        streams = values["harness.rng_streams"]
        values["harness.draws_per_stream"] = work / streams if streams else 0.0
        per_round.append((values, work))

    out = {}
    for name, unit, _, moves in PER_LAYER:
        if name == "trace.overhead_s":
            # in reference units, so the host's speed between the halves cancels
            ref = statistics.median(e.ref for e in executions)
            value = (traced_summary.p50_ref - untraced.p50_ref) * ref
            note = (
                f"(traced {traced_summary.p50_ref:.4g} - untraced {untraced.p50_ref:.4g} ref) "
                f"x {ref * 1e3:.3g} ms median reference"
            )
        elif any(name.startswith(f"{a}.") for a in recorder.absent):
            value, note = 0.0, "absent: this version of memnet_sim has no such function"
        elif unit == "s":
            value = statistics.median(v[name] for v, _ in per_round)
            note = f"median of {len(per_round)} traced rounds"
            if per_round[0][0].get(name.removesuffix(".s") + ".calls") == 0:
                note = "not called on this workload"
        else:
            seen = {v[name] for v, _ in per_round}
            if len(seen) > 1:
                runner.failed += 1
                runner.problems.append(f"{name} differs between traced rounds: {sorted(seen)}")
            value = per_round[0][0][name]
            note = "per round"
            if name == "harness.draws_per_stream":
                note = f"{per_round[0][1]} samples / {per_round[0][0]['harness.rng_streams']} streams"
        _line(name, value, unit, f"{note}; moves {moves}")
        out[name] = _metric(value, unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    workload = WORKLOADS[name]
    print(f"{name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"  host: {host_info()}")
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    runner = Runner(workload, seed, scratch)
    try:
        if trace:
            metrics = per_layer(runner, seconds, OUT / f"spans-{name}.jsonl")
        else:
            metrics = end_to_end(runner, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    if not metrics:
        print(f"perfbench: {name}: no successful execution of some scenario", file=sys.stderr)
        return None
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run; repeat for several (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed to memnet-sim as --seed")
    parser.add_argument("--seconds", type=float, default=34.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memnet_sim" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'memnet_sim'} not found; run from a memnet-sim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = args.workload or list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        results[name] = result
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
