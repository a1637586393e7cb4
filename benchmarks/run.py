"""Benchmark of areaconics: closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

Workloads (see ``workloads.py``): ``construct`` (one application, its JSON
round trip and replay), ``sweep`` (``sample_locus`` then
``verify_residuals``), ``check`` (``verify_residuals`` and
``fit_conic_oracle`` on closed-form points) and ``cli`` (one fresh
``python -m areaconics.cli`` process per call).

``--trace 0`` measures the end-to-end metrics with tracing off.
After the timed operations, ``construct`` checks an untimed census of
full-range inputs that includes the domain of the package's known
tolerance defect (see ``workloads.py``); the census's failures are
reported on their own and do not count as failed operations.
``--trace 1`` spends half the time untraced and half traced, and reports
the per-layer metrics from the traced half plus the ratio of the two
throughputs. Every operation's output is checked either way. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and a provenance record.

``--smoke`` runs every workload in both modes at tiny sizes in a few
seconds and checks the shape of each result against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Any

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "areaconics"

# Fresh interpreters timed for ``setup_s`` and the CLI floors; the median is
# reported. The set-up samples are taken half before and half after the
# timed ops, so that they see the machine over the whole run.
REPEATS = {"full": 9, "smoke": 1}
# Ops run before timing starts, from their own input stream, so caches fill first.
WARMUP_SHARE = 0.05
# The tail is each workload's ``tail_percentile``, chosen so that at least
# TAIL_SAMPLES samples lie beyond it in its shortest runs on a 2-vCPU VM
# (for ``sweep`` and ``check``, in the middle of the slowest size's group of
# latencies); a run with fewer ops falls back to the highest percentile
# with TAIL_SAMPLES beyond.
# A fixed percentile keeps the tail from moving with the number of ops a
# run completes, and keeps a run of 70k sub-millisecond ops from reporting
# its 11th-worst op, which is one of the few 3-15 ms host stalls a run
# suffers or not.
TAIL_SAMPLES = 10
LAYERS = ("kernel", "constructions", "locus", "figures", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def layer_of(exc: Exception, default: str) -> str:
    """The layer a failure belongs to.

    A failed check names its layer; an exception belongs to the module of
    its innermost frame in the package, or to the layer the workload calls
    when no package frame raised it (a child process timing out, say).
    """
    if isinstance(exc, workloads.CheckFailed):
        return exc.layer
    found = default
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent == PACKAGE_DIR and path.stem in LAYERS:
            found = path.stem
    return found


# On a shared 2-vCPU virtual machine the speed of Python code swung by up to
# a factor of two over minutes, for every process alike. So a fixed piece of
# reference work that does not touch the package is timed between
# operations, and each operation's time is scaled to a machine on which
# that work takes the reference's ``seconds``: measured * seconds / (median
# of the REFERENCE_WINDOW reference times taken just before the operation
# and as many just after). The reference is work of the operations' own
# kind: pure-Python work in this process for the in-process workloads, and
# a fresh interpreter that imports numpy for ``cli``, whose operations are
# process starts dominated by imports. The pure-Python reference did not
# follow the drift of cli latency, and neither did a bare interpreter start
# when imports, set-up time and cli latency all slowed by half together.
# The latencies and the throughput are reported at that reference speed: a
# slower package still reads slower, a slower machine does not. A hiccup
# during an operation stays in its time, as the factor comes from the
# reference work around it. The set-up time is mostly imports, numpy's
# above all, so each set-up sample is scaled by the numpy-import reference
# timed right after it. The report also prints every time as measured.
REFERENCE_WINDOW = 5


@dataclass(frozen=True)
class _Cell:
    x: float
    y: float
    label: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("cell coordinates must be finite")


# Keeps the last cells alive across calls, so the reference reaches into
# memory the way a long-running process does, not only into a warm cache.
_RING: list = [None] * 4096


def reference_work() -> int:
    """Small validated objects, float math, dicts and JSON, like the package's own work."""
    size = 0
    for i in range(300):
        cell = _Cell(i * 0.5, math.sqrt(i + 1.0), "c")
        _RING[(i * 13) % len(_RING)] = cell
        if i % 30 == 0:
            size += len(json.dumps({"x": cell.x, "y": math.hypot(cell.x, cell.y), "l": cell.label}))
    return size


def import_numpy_in_a_fresh_interpreter() -> None:
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=60,
        check=True,
    )


@dataclass(frozen=True)
class Reference:
    """Work timed between operations, and its time at the reference speed."""

    label: str
    work: Any
    seconds: float
    # Samples taken after one operation, at most.
    per_op: int
    # Seconds from one sampling to the next, at least.
    every_s: float


PYTHON_REFERENCE = Reference("pure-Python work", reference_work, 0.0004, 10, 0.05)
NUMPY_IMPORT_REFERENCE = Reference(
    "a fresh interpreter importing numpy", import_numpy_in_a_fresh_interpreter, 0.15, 1, 0.5
)


class Speed:
    """Times of a reference taken through a run."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self.reference.work()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)

    def sample_after(self, elapsed: float) -> None:
        """Sample when due, more often after long operations (one per 0.1 s, up to ``per_op``)."""
        if time.perf_counter() - self.last >= self.reference.every_s:
            self.sample(min(self.reference.per_op, 1 + int(elapsed / 0.1)))

    def factor_at(self, index: int) -> float:
        """Measured seconds times this are seconds at the reference speed, around sample ``index``."""
        window = self.samples[max(0, index - REFERENCE_WINDOW) : index + REFERENCE_WINDOW]
        return self.reference.seconds / statistics.median(window)

    @property
    def run_factor(self) -> float:
        """The factor over every sample of the run."""
        return self.reference.seconds / statistics.median(self.samples)


class Loop:
    """Outcome of one closed loop: per-op latencies, items and failures."""

    def __init__(self, reference: Reference = PYTHON_REFERENCE) -> None:
        self.speed = Speed(reference)
        self.attempted = 0
        self.latencies: list[float] = []
        # For each op, the number of reference samples taken before it started.
        self.reference_at: list[int] = []
        self.items_ok = 0
        self.items = 0
        self.failures: Counter[str] = Counter()
        self.reasons: Counter[str] = Counter()
        # Failures outside the workload's documented known-defect domain.
        self.unexpected = 0

    def record(self, workload: Any, op: Any, result: Any, error: Exception | None) -> None:
        """Check one operation's output and count its items or its failure."""
        self.attempted += 1
        self.items += op.items
        if error is None:
            try:
                workload.check(op.args, result)
            except workloads.CheckFailed as exc:
                error = exc
        if error is None:
            self.items_ok += op.items
            return
        self.failures[layer_of(error, workload.layer)] += 1
        known = workload.known_defect(op.args)
        self.unexpected += not known
        tag = "known defect" if known else "UNEXPECTED"
        self.reasons[f"{tag}: {type(error).__name__}: {str(error)[:80]}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def items_per_s(self) -> float:
        return self.items_ok / sum(self.latencies)

    def scaled(self) -> list[float]:
        """The latencies at the reference speed."""
        factors = {i: self.speed.factor_at(i) for i in set(self.reference_at)}
        return [t * factors[i] for t, i in zip(self.latencies, self.reference_at)]


def closed_loop(workload: Any, seconds: float, tracer: Any = None, after_op: Any = None) -> Loop:
    """Run ops back to back until ``seconds`` of wall time have passed.

    The loop then runs on to the end of the workload's current cycle.
    """
    out = Loop(NUMPY_IMPORT_REFERENCE if workload.process_per_op else PYTHON_REFERENCE)
    out.speed.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or out.attempted % workload.cycle or out.attempted == 0:
        op = workload.next_input()
        out.reference_at.append(len(out.speed.samples))
        result = error = None
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            result = workload.run(op.args)
        except Exception as exc:  # an op failing is data, not a benchmark fault
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        out.latencies.append(elapsed)
        out.record(workload, op, result, error)
        if after_op is not None:
            after_op(op, result)
        out.speed.sample_after(elapsed)
    return out


def census(workload: Any) -> Loop:
    """Check the workload's census operations, untimed."""
    out = Loop()
    for op in workload.census():
        result = error = None
        try:
            result = workload.run(op.args)
        except Exception as exc:  # a failure is data
            error = exc
        out.record(workload, op, result, error)
    return out


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """The tail percentile used (see TAIL_SAMPLES) and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(TAIL_SAMPLES, int(n * (100.0 - percentile) / 100.0))
    index = max(0, n - beyond - 1)
    return 100.0 * (index + 1) / n, ordered[index]


def fresh_seconds(command: list[str], repeats: int, stdout_value: bool = False) -> list[float]:
    """Times of ``command`` in fresh processes, by wall clock or as it reports."""
    samples = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"{command[:3]} failed: {done.stderr.strip()[-400:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) if stdout_value else wall)
    return samples


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(workload: Any, seed: int, seconds: float, trace: int, sizes: str) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "problem_sizes": workload.sizes,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "clients": 1,
        "loop": "closed",
    }


def fail_note(loop: Loop, what: str) -> str:
    ratio = loop.failed / max(1, loop.attempted)
    return f"fail_ratio {ratio:.6f} ratio ({loop.failed} of {loop.attempted} {what})"


def setup_samples(command: list[str], count: int) -> list[tuple[float, float]]:
    """Set-up times reported by fresh children, each with the time of the reference after it."""
    pairs = []
    for _ in range(count):
        setup = fresh_seconds(command, 1, stdout_value=True)[0]
        start = time.perf_counter()
        NUMPY_IMPORT_REFERENCE.work()
        pairs.append((setup, time.perf_counter() - start))
    return pairs


def end_to_end(
    loop: Loop, checked: Loop, rss: float, setups: list[tuple[float, float]], tail_percentile: float
) -> tuple[dict, list[str]]:
    setup = statistics.median(s * NUMPY_IMPORT_REFERENCE.seconds / r for s, r in setups)
    scaled = loop.scaled()
    percentile, tail_value = tail(scaled, tail_percentile)
    values = {
        "setup_s": setup,
        "items_per_s": loop.items_ok / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mib": rss,
    }
    measured = {
        "setup_s": statistics.median(s for s, _ in setups),
        "items_per_s": loop.items_per_s,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_tail_ms": tail(loop.latencies, tail_percentile)[1] * 1e3,
    }
    # fail_ratio is zero on the timed ops, so it is reported here and through
    # the result's attempted/failed counts rather than as a bounded metric.
    notes = [
        f"speed factor {loop.speed.run_factor:.4f} "
        f"({loop.speed.reference.label} takes {loop.speed.reference.seconds * 1e6:.0f} us at 1)",
        "as measured, before scaling: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
        fail_note(loop, "timed ops"),
        f"latency_tail_ms is p{percentile:.2f} of {loop.attempted} ops",
    ]
    if checked.attempted:
        notes.append("census " + fail_note(checked, "untimed full-range ops"))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, notes


class CliLayers:
    """Per-layer readings of the ``cli`` workload's traced half.

    Its children run through ``probe.py cli``, which reports the import and
    run times and whether numpy was loaded. After each child, the same
    arguments run once more in this process under the tracer, for the
    warm ``cli.run`` time and the spans below it.
    """

    def __init__(self, workload: Any, tracer: Any) -> None:
        self.workload = workload
        self.tracer = tracer
        self.probes: list[dict] = []
        workload.probe = BENCH / "probe.py"

    def after_op(self, op: Any, result: Any) -> None:
        from areaconics import cli

        if result is not None:
            line = [x for x in result.stderr.splitlines() if x.startswith("probe ")]
            if line:
                self.probes.append(json.loads(line[-1][len("probe "):]))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.tracer.begin_op()
            try:
                cli.run(list(op.args["argv"]))
            finally:
                self.tracer.end_op()

    def metrics(self, repeats: int) -> dict:
        probes = self.probes or [{"import_ms": 0.0, "run_ms": 0.0, "numpy_loaded": False}]
        interpreter = fresh_seconds([sys.executable, "-c", "pass"], repeats)
        return {
            "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
            "cli.import_ms": statistics.median(p["import_ms"] for p in probes),
            "cli.numpy_loaded": sum(bool(p["numpy_loaded"]) for p in probes) / len(probes),
        }


def per_layer(tracer: Any, untraced: Loop, traced: Loop, checked: Loop, extra: dict) -> dict:
    stats, counts = tracer.stats, tracer.counts
    items = traced.items

    def total(*names: str, field: str = "total") -> float:
        return sum(getattr(stats[n], field) for n in names if n in stats)

    kernel = [n for n in stats if n.startswith("kernel.")]
    sweeps = stats.get("locus.sample_locus")
    verify = stats.get("locus.verify_residuals")
    fit = stats.get("locus.fit_conic_oracle")
    csv_names = ("locus.write_locus_csv", "locus.read_locus_csv")
    csv_points = sum(stats[n].units for n in csv_names if n in stats)
    apply = stats.get("constructions.apply")
    svg = stats.get("figures.render_svg")
    run = stats.get("cli.run")
    values = {
        "kernel.calls": sum(stats[n].calls for n in kernel) / items,
        "kernel.points": counts["kernel.points"] / items,
        "kernel.self_us": total(*kernel, field="self_time") / items * 1e6,
        "constructions.apply.self_us": total("constructions.apply", field="self_time") / items * 1e6,
        "constructions.steps_built": counts["constructions.steps_built"] / items,
        "constructions.replay.self_us": total("constructions.replay_trace", field="self_time") / items * 1e6,
        "constructions.trace_json_us": total("constructions.trace_json") / items * 1e6,
        "locus.sample_locus.self_us": total("locus.sample_locus", field="self_time") / items * 1e6,
        "locus.applications_per_height": (
            apply.children_by_parent["locus.sample_locus"] / sweeps.units if sweeps and apply else 0.0
        ),
        "locus.verify_residuals.ns_per_point": verify.total / verify.units * 1e9 if verify else 0.0,
        "locus.fit_conic_oracle.ms": fit.total / fit.calls * 1e3 if fit else 0.0,
        "locus.fit_conic_oracle.peak_mib": fit.peak_bytes / 2**20 if fit else 0.0,
        "locus.csv_us_per_point": total(*csv_names) / csv_points * 1e6 if csv_points else 0.0,
        "figures.scene_us": total("figures.scene_from_application", "figures.scene_from_locus") / items * 1e6,
        "figures.render_svg_us": total("figures.render_svg") / items * 1e6,
        "figures.svg_bytes": svg.units / items if svg else 0.0,
        "cli.interpreter_ms": 0.0,
        "cli.import_ms": 0.0,
        "cli.numpy_loaded": 0.0,
        "cli.run_ms": run.total / run.calls * 1e3 if run else 0.0,
    }
    values.update(extra)
    # Failures per op over the census where the workload has one, else over
    # the timed ops (a failed timed op also shows in the result's counts).
    if checked.attempted:
        failures, ops = checked.failures, checked.attempted
    else:
        failures = untraced.failures + traced.failures
        ops = untraced.attempted + traced.attempted
    for layer in LAYERS:
        values[f"{layer}.failures"] = failures[layer] / ops
    values["trace.overhead_ratio"] = traced.items_per_s / untraced.items_per_s
    return values


PER_LAYER_UNITS = {
    "kernel.calls": "count",
    "kernel.points": "count",
    "kernel.self_us": "us",
    "constructions.apply.self_us": "us",
    "constructions.steps_built": "count",
    "constructions.replay.self_us": "us",
    "constructions.trace_json_us": "us",
    "locus.sample_locus.self_us": "us",
    "locus.applications_per_height": "ratio",
    "locus.verify_residuals.ns_per_point": "ns",
    "locus.fit_conic_oracle.ms": "ms",
    "locus.fit_conic_oracle.peak_mib": "MiB",
    "locus.csv_us_per_point": "us",
    "figures.scene_us": "us",
    "figures.render_svg_us": "us",
    "figures.svg_bytes": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_loaded": "ratio",
    "cli.run_ms": "ms",
    **{f"{layer}.failures": "1/op" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def run(name: str, seed: int, seconds: float, trace: int, sizes: str) -> tuple[list[str], dict]:
    """One benchmark run: the report lines and the result object."""
    repeats = REPEATS[sizes]
    workload = workloads.make(name, seed, sizes, ROOT)
    warmup = workloads.make(name, seed + 1_000_003, sizes, ROOT)
    setup_command = [sys.executable, str(BENCH / "probe.py"), "setup", name, str(seed), sizes]
    try:
        closed_loop(warmup, WARMUP_SHARE * seconds)
        if not trace:
            setups = setup_samples(setup_command, (repeats + 1) // 2)
            loop = closed_loop(workload, seconds)
            rss = workload.peak_rss_kib / 1024.0 if name == "cli" else peak_rss_mib(resource.RUSAGE_SELF)
            setups += setup_samples(setup_command, repeats // 2)
            checked = census(workload)
            metrics, notes = end_to_end(loop, checked, rss, setups, workload.tail_percentile)
            loops = [loop]
        else:
            untraced = closed_loop(workload, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                cli_layers = CliLayers(workload, tracer) if name == "cli" else None
                traced = closed_loop(
                    workload,
                    seconds / 2,
                    tracer=None if cli_layers else tracer,
                    after_op=cli_layers.after_op if cli_layers else None,
                )
            finally:
                tracer.uninstall()
            extra = cli_layers.metrics(repeats) if cli_layers else {}
            checked = census(workload)
            values = per_layer(tracer, untraced, traced, checked, extra)
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
            notes = [f"traced {traced.attempted} ops after {untraced.attempted} untraced ops"]
            if checked.attempted:
                notes.append("census " + fail_note(checked, "untimed full-range ops"))
            loops = [untraced, traced]
    finally:
        workload.close()
        warmup.close()
    attempted = sum(x.attempted for x in loops)
    failed = sum(x.failed for x in loops)
    reasons = sum((x.reasons for x in [*loops, checked]), Counter())
    lines = ["provenance " + json.dumps(provenance(workload, seed, seconds, trace, sizes))]
    lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines += notes
    lines += [f"failure x{count}: {reason}" for reason, count in reasons.most_common()]
    correct = failed == 0 and checked.unexpected == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def smoke() -> int:
    """Every workload in both modes at tiny sizes; checks each result's shape."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        for trace in (0, 1):
            lines, result = run(name, 1, 0.3, trace, "smoke")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            ok = (
                sorted(result) == ["attempted", "correct", "failed", "metrics"]
                and units == expected[trace]
                and result["attempted"] >= 1
                and result["correct"]
                and all(isinstance(m["value"], float) for m in result["metrics"].values())
            )
            bad += not ok
            print(
                f"smoke {name} trace={trace}: {'ok' if ok else 'BAD'} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
    return 1 if bad else 0


def build() -> None:
    """Compile the package's bytecode, so no timed import pays for it."""
    if not compileall.compile_dir(str(PACKAGE_DIR), quiet=1):
        raise RuntimeError("areaconics does not compile")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR.relative_to(ROOT)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build()
    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    lines, result = run(args.workload, args.seed, args.seconds, args.trace, "full")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
