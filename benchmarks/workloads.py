"""Seeded inputs, timed operations and correctness checks for each workload.

Every workload is a closed loop driven by one caller: the next operation
starts when the previous one has returned. A workload object hands out
one operation's input at a time (``next_input``), so the input exists
only while its operation runs and the process high-water mark reflects
the package rather than a stored workload. ``run`` holds exactly the
package calls that are timed; ``check`` compares the outputs with values
the benchmark derives on its own and is not timed.

Randomness comes from ``random.Random(seed)`` only. Problem sizes are not
random. ``sweep`` and ``check``, whose operations differ in size by orders
of magnitude, deal them in cycles of ``cycle`` operations that hold the
same kinds and sizes (the midpoints of equal log-uniform strata) in every
cycle, in a seeded order; ``cli`` cycles through its verbs. The benchmark
loop ends on a cycle boundary, so every run times the same mix and a
percentile of its latencies does not move with the number of operations a
run completes. ``cli``'s locus sizes step through their range along a
low-discrepancy sequence. The seed draws everything else (the order of
the kinds, dealt in shuffled rounds so each is equally frequent at any
point of a run, the scales, the aspect ratios and the points). This keeps
the median and tail latencies from moving with the seed.

No timed operation is expected to fail. ``construct`` draws its timed
inputs outside the domain of a known defect of the package; its untimed
census (``census``) checks a fixed number of inputs drawn over the full
ranges, that domain included, and the benchmark reports the census's
failures on their own.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

# Problem sizes as (low, high) ranges, sampled log-uniformly.
SIZES: dict[str, dict[str, tuple[int, int]]] = {
    "full": {
        "sweep_heights": (100, 10_000),
        "verify_points": (10_000, 100_000),
        "fit_points": (1_000, 4_000),
        "locus_samples": (200, 400),
    },
    "smoke": {
        "sweep_heights": (10, 40),
        "verify_points": (100, 400),
        "fit_points": (60, 200),
        "locus_samples": (10, 20),
    },
}

# Relative tolerance of the benchmark's own checks against closed forms.
REL_TOL = 1e-9
# Tolerance of the implicit-coefficient comparison, after both vectors are
# scaled to unit length and aligned in sign.
FIT_TOL = 1e-6


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""

    def __init__(self, layer: str, reason: str) -> None:
        super().__init__(reason)
        self.layer = layer


# The kernel compares squared lengths against this absolute tolerance, so a
# construction whose area b*y or squared height y*y falls below it can snap
# a secant to a tangent: a wrong J or a zero-length extension. That is a
# known defect of the package. Such inputs are left out of the timed
# operations and go to the census, where their failures are counted but do
# not make a run incorrect.
KERNEL_EPS_ABS = 1e-12
# Full-range inputs checked, untimed, by a workload's census.
CENSUS_OPS = {"full": 3000, "smoke": 30}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Golden:
    """Additive-recurrence (golden ratio) sequence in [0, 1)."""

    STEP = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self) -> None:
        self.u = 0.0

    def __call__(self) -> float:
        self.u = (self.u + self.STEP) % 1.0
        return self.u


class Rounds:
    """Deals the values in shuffled rounds, each value once per round."""

    def __init__(self, rng: random.Random, values: tuple) -> None:
        self.rng = rng
        self.values = values
        self.pool: list = []

    def __call__(self) -> Any:
        if not self.pool:
            self.pool = list(self.values)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def log_uniform_int(u: float, bounds: tuple[int, int]) -> int:
    return int(round(log_uniform(u, *bounds)))


def conic_heights(kind: str, base: float, lam: float | None) -> tuple[float, float]:
    """The CLI's default height range: 5-95 % of L/lambda, or 0.05 L to 2 L."""
    if kind == "ellipse":
        top = base / lam
        return 0.05 * top, 0.95 * top
    return 0.05 * base, 2.0 * base


def conic_x(kind: str, base: float, lam: float | None, y: float) -> float:
    """Closed form of the upper branch: x = sqrt(L y -+ lam y^2)."""
    if kind == "parabola":
        return math.sqrt(base * y)
    if kind == "ellipse":
        return math.sqrt((base - lam * y) * y)
    return math.sqrt((base + lam * y) * y)


class Workload:
    """What the benchmark loop needs from a workload; see the module docstring."""

    name = ""
    # The layer the operation calls into, charged with failures raised
    # outside any package frame.
    layer = ""
    # Reported tail latency percentile (see run.TAIL_SAMPLES).
    tail_percentile = 99.0
    # Operations per cycle (see the module docstring); 1 for no cycles.
    cycle = 1
    # Whether each operation starts a process.
    process_per_op = False

    def known_defect(self, args: dict) -> bool:
        """Whether a failure on these inputs is a documented defect of the package."""
        return False

    def census(self) -> list:
        """Untimed operations over the full input ranges, known defects included."""
        return []

    def close(self) -> None:
        """Release what the workload holds outside the process."""


@dataclass
class Op:
    """One operation's input and the number of items it represents."""

    items: int
    args: dict


class Construct(Workload):
    """One application of a random kind, its trace round trip and replay."""

    name = "construct"
    layer = "constructions"

    def __init__(self, seed: int, sizes: dict) -> None:
        from areaconics import constructions

        self.c = constructions
        self.seed = seed
        self.rng = random.Random(seed)
        self.kind = Rounds(self.rng, ("exact", "deficient", "excess"))
        self.census_ops = sizes["census_ops"]
        self.sizes = {
            "L": (1e-6, 1e6),
            "y/L": (1e-3, 10.0),
            "lambda_excess": (0.1, 10.0),
            "lambda*y/L_deficient": (0.01, 0.99),
            "census_ops": self.census_ops,
        }

    def next_input(self) -> Op:
        """The next input outside the known-defect domain."""
        while True:
            op = self.draw(self.rng, self.kind)
            if not self.known_defect(op.args):
                return op

    def census(self) -> list:
        rng = random.Random(f"census-{self.seed}")
        kind = Rounds(rng, ("exact", "deficient", "excess"))
        return [self.draw(rng, kind) for _ in range(self.census_ops)]

    @staticmethod
    def draw(rng: random.Random, kinds: Rounds) -> Op:
        """One input from the full ranges."""
        kind = kinds()
        base = log_uniform(rng.random(), 1e-6, 1e6)
        height = base * log_uniform(rng.random(), 1e-3, 10.0)
        lam = None
        if kind == "excess":
            lam = log_uniform(rng.random(), 0.1, 10.0)
        elif kind == "deficient":
            lam = rng.uniform(0.01, 0.99) * base / height
        return Op(1, {"kind": kind, "base": base, "height": height, "lam": lam})

    def run(self, a: dict) -> Any:
        c = self.c
        if a["kind"] == "exact":
            result = c.apply_exact(a["base"], a["height"])
        elif a["kind"] == "deficient":
            result = c.apply_deficient(a["base"], a["lam"], a["height"])
        else:
            result = c.apply_excess(a["base"], a["lam"], a["height"])
        replayed = c.replay_trace(c.ConstructionTrace.from_json(result.trace.to_json()))
        return result, replayed

    @staticmethod
    def rect_base(a: dict) -> float:
        sign = {"exact": 0.0, "deficient": -1.0, "excess": 1.0}[a["kind"]]
        return a["base"] + sign * (a["lam"] or 0.0) * a["height"]

    def known_defect(self, a: dict) -> bool:
        return min(self.rect_base(a) * a["height"], a["height"] ** 2) < KERNEL_EPS_ABS

    def check(self, a: dict, out: Any) -> None:
        result, replayed = out
        height = a["height"]
        b = self.rect_base(a)
        g = result.square_side_g
        if not (close(result.J.x, g) and close(result.J.y, height)):
            raise CheckFailed("constructions", "J != (g, y)")
        if not close(g * g, b * height):
            raise CheckFailed("constructions", "g^2 != b*y")
        built = {k: (p.x.hex(), p.y.hex()) for k, p in result.figure_points.items()}
        again = {k: (p.x.hex(), p.y.hex()) for k, p in replayed.items()}
        if built != again:
            raise CheckFailed("constructions", "JSON replay is not bit-exact")


KINDS = ("parabola", "ellipse", "hyperbola")


# Each sweep cycle holds every kind at SWEEP_STRATA sizes, the log-uniform
# midpoints of as many equal strata of the size range. The kinds cost about
# the same per height, so the latencies fall into one group per size. An
# odd number of sizes puts the median in the middle of a group rather than
# on the gap between two, and few sizes put many ops in each group.
SWEEP_STRATA = 5


class Sweep(Workload):
    """``sample_locus`` for a random conic, then ``verify_residuals``."""

    name = "sweep"
    layer = "locus"
    # The middle of the largest size's group.
    tail_percentile = 100.0 * (1.0 - 0.5 / SWEEP_STRATA)
    cycle = len(KINDS) * SWEEP_STRATA

    def __init__(self, seed: int, sizes: dict) -> None:
        from areaconics import locus

        self.locus = locus
        self.rng = random.Random(seed)
        heights = sizes["sweep_heights"]
        strata = [log_uniform_int((j + 0.5) / SWEEP_STRATA, heights) for j in range(SWEEP_STRATA)]
        self.deal = Rounds(self.rng, tuple((kind, n) for kind in KINDS for n in strata))
        self.sizes = {"heights": heights, "strata": strata, "L": (1e-3, 1e3), "lambda": (0.1, 10.0)}

    def next_input(self) -> Op:
        rng = self.rng
        kind, n = self.deal()
        base = log_uniform(rng.random(), 1e-3, 1e3)
        lam = None if kind == "parabola" else log_uniform(rng.random(), 0.1, 10.0)
        lo, hi = conic_heights(kind, base, lam)
        return Op(n, {"kind": kind, "base": base, "lam": lam, "range": (lo, hi, n)})

    def run(self, a: dict) -> Any:
        loc = self.locus
        kind = loc.ConicKind(a["kind"])
        points = loc.sample_locus(kind, a["base"], loc.SampleRange(*a["range"]), a["lam"])
        return points, loc.verify_residuals(points, kind, a["base"], a["lam"], tol=REL_TOL)

    def check(self, a: dict, out: Any) -> None:
        points, report = out
        kind, base, lam = a["kind"], a["base"], a["lam"]
        if not report.passed:
            raise CheckFailed("locus", "verify_residuals did not pass")
        heights = self.locus.SampleRange(*a["range"]).heights()
        uppers = points[: len(heights)]
        if [p.y for p in uppers] != heights:
            raise CheckFailed("locus", "sampled heights differ from the range")
        for p in uppers:
            if not close(p.x, conic_x(kind, base, lam, p.y)):
                raise CheckFailed("locus", "point off the closed form")
        lowers = points[len(heights):]
        if kind == "hyperbola":
            mirrored = sorted((-base / lam - p.y, p.x) for p in uppers)
            if [(p.y, p.x) for p in lowers] != mirrored:
                raise CheckFailed("locus", "lower branch is not the reflected upper branch")
        elif lowers:
            raise CheckFailed("locus", "unexpected lower branch")


# Each check cycle holds, per call, every kind both plain and mirrored, and
# CHECK_STRATA point counts (the log-uniform midpoints of as many equal
# strata), each as often. Few counts put many ops in each count's group of
# latencies.
CHECK_SETS = tuple((kind, mirrored) for kind in KINDS for mirrored in (False, True))
CHECK_STRATA = 3


class Check(Workload):
    """Alternates ``fit_conic_oracle`` and ``verify_residuals`` on closed-form points."""

    name = "check"
    layer = "locus"
    cycle = 2 * len(CHECK_SETS)
    # The middle of the slowest group: the largest fit.
    tail_percentile = 100.0 * (1.0 - 0.25 / CHECK_STRATA)

    def __init__(self, seed: int, sizes: dict) -> None:
        from areaconics import locus

        self.locus = locus
        self.rng = random.Random(seed)
        self.sets = {op: Rounds(self.rng, CHECK_SETS) for op in ("fit", "verify")}
        repeat = len(CHECK_SETS) // CHECK_STRATA
        strata = {
            op: tuple(
                log_uniform_int((j + 0.5) / CHECK_STRATA, sizes[f"{op}_points"]) for j in range(CHECK_STRATA)
            )
            for op in ("fit", "verify")
        }
        self.totals = {op: Rounds(self.rng, counts * repeat) for op, counts in strata.items()}
        self.count = 0
        self.sizes = {
            "fit_points": sizes["fit_points"],
            "verify_points": sizes["verify_points"],
            "strata": strata,
            "L": (1e-3, 1e3),
            "lambda": (0.1, 10.0),
        }

    def next_input(self) -> Op:
        rng = self.rng
        op = "fit" if self.count % 2 == 0 else "verify"
        self.count += 1
        kind, mirrored = self.sets[op]()
        base = log_uniform(rng.random(), 1e-3, 1e3)
        lam = None if kind == "parabola" else log_uniform(rng.random(), 0.1, 10.0)
        total = self.totals[op]()
        per_set = total // ((2 if kind == "hyperbola" else 1) * (2 if mirrored else 1))
        lo, hi = conic_heights(kind, base, lam)
        loc = self.locus
        uppers = []
        for _ in range(per_set):
            y = rng.uniform(lo, hi)
            uppers.append(loc.LocusPoint(conic_x(kind, base, lam, y), y, loc.Branch.UPPER))
        points = list(uppers)
        if kind == "hyperbola":
            points += [loc.LocusPoint(p.x, -base / lam - p.y, loc.Branch.LOWER) for p in uppers]
        if mirrored:
            points += [loc.LocusPoint(-p.x, p.y, p.branch) for p in points]
        return Op(len(points), {"op": op, "kind": kind, "base": base, "lam": lam, "points": points})

    def run(self, a: dict) -> Any:
        loc = self.locus
        if a["op"] == "fit":
            return loc.fit_conic_oracle(a["points"])
        return loc.verify_residuals(
            a["points"], loc.ConicKind(a["kind"]), a["base"], a["lam"], tol=REL_TOL
        )

    def check(self, a: dict, out: Any) -> None:
        if a["op"] == "verify":
            if not out.passed:
                raise CheckFailed("locus", "verify_residuals rejected closed-form points")
            return
        expected = self.locus.conic_params(
            self.locus.ConicKind(a["kind"]), a["base"], a["lam"]
        ).implicit_coefficients()
        if not same_up_to_scale(out, expected):
            raise CheckFailed("locus", "fitted conic differs from the closed form")


def same_up_to_scale(a: tuple, b: tuple, tol: float = FIT_TOL) -> bool:
    """Whether a = s*b for some nonzero s, compared on unit vectors."""
    na = math.sqrt(sum(v * v for v in a))
    nb = math.sqrt(sum(v * v for v in b))
    ua = [v / na for v in a]
    ub = [v / nb for v in b]
    sign = 1.0 if sum(x * y for x, y in zip(ua, ub)) >= 0.0 else -1.0
    return max(abs(x - sign * y) for x, y in zip(ua, ub)) <= tol


VERBS = ("construct", "solve", "locus", "params", "maxarea", "verify", "figure")


class Cli(Workload):
    """One fresh ``python -m areaconics.cli`` process per operation.

    The calls cycle through the seven verbs. ``verify`` reads the CSV that
    the preceding ``locus`` call wrote, and ``figure`` cycles through the
    nine standard figures. Output files go to a scratch directory inside
    the checkout, removed by ``close``.
    """

    name = "cli"
    layer = "cli"
    tail_percentile = 80.0
    cycle = len(VERBS)
    process_per_op = True

    def __init__(self, seed: int, sizes: dict, root: Path) -> None:
        from areaconics import cli  # noqa: F401  (the import the children repeat)

        self.rng = random.Random(seed)
        self.root = root
        self.workdir: Path | None = None
        self.count = 0
        self.figure = 0
        self.last_locus: dict | None = None
        self.app_kind = Rounds(self.rng, ("exact", "deficient", "excess"))
        self.conic_kind = Rounds(self.rng, KINDS)
        self.samples = Golden()
        self.sizes = {"locus_samples": sizes["locus_samples"], "L": (0.5, 20.0), "lambda": (0.25, 4.0)}
        # Children run the command line below, with ``probe`` set in a traced run.
        self.probe: Path | None = None
        # The largest memory high-water mark of a child, in KiB.
        self.peak_rss_kib = 0

    def _workdir(self) -> Path:
        if self.workdir is None:
            scratch = self.root / ".bench_build"
            scratch.mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        return self.workdir

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def _lam(self, kind: str) -> float | None:
        if kind in ("exact", "parabola"):
            return None
        return round(log_uniform(self.rng.random(), 0.25, 4.0), 6)

    def next_input(self) -> Op:
        rng = self.rng
        verb = VERBS[self.count % len(VERBS)]
        self.count += 1
        base = round(log_uniform(rng.random(), 0.5, 20.0), 6)
        argv = [verb]
        a: dict[str, Any] = {"verb": verb}
        work = self._workdir()
        if verb in ("construct", "solve"):
            kind = self.app_kind()
            lam = self._lam(kind)
            if verb == "construct":
                top = base / lam if kind == "deficient" else 2.0 * base
                value = round(rng.uniform(0.05, 0.95) * top, 6)
                trace, svg = work / f"trace{self.count}.json", work / f"app{self.count}.svg"
                argv += ["--height", repr(value), "--trace", str(trace), "--svg", str(svg)]
                a.update(trace=trace, svg=svg)
            else:
                top = base * base / (4.0 * lam) if kind == "deficient" else base * base
                value = round(rng.uniform(0.05, 0.95) * top, 6)
                argv += ["--area", repr(value)]
            argv += ["--kind", kind, "--base", repr(base)]
            a.update(kind=kind, base=base, lam=lam, value=value)
        elif verb in ("locus", "params"):
            kind = self.conic_kind()
            lam = self._lam(kind)
            argv += ["--kind", kind, "--base", repr(base)]
            a.update(kind=kind, base=base, lam=lam)
            if verb == "locus":
                samples = log_uniform_int(self.samples(), self.sizes["locus_samples"])
                out = work / f"locus{self.count}.csv"
                argv += ["--samples", str(samples), "--out", str(out)]
                a.update(samples=samples, out=out)
                self.last_locus = a
        elif verb == "maxarea":
            lam = self._lam("ellipse")
            argv += ["--base", repr(base)]
            a.update(base=base, lam=lam)
        elif verb == "verify":
            src = self.last_locus
            argv += ["--points", str(src["out"]), "--kind", src["kind"], "--base", repr(src["base"])]
            argv += ["--tol", "1e-9"]
            a.update(kind=src["kind"], base=src["base"], lam=src["lam"], points=src["out"])
            lam = src["lam"]
        else:
            self.figure = self.figure % 9 + 1
            out = work / f"figure{self.count}.svg"
            argv += ["--which", str(self.figure), "--out", str(out)]
            a.update(which=self.figure, out=out)
            lam = None
        if lam is not None:
            argv += ["--lambda", repr(lam)]
        a["argv"] = argv
        return Op(1, a)

    def command(self, argv: list[str]) -> list[str]:
        if self.probe is not None:
            return [sys.executable, str(self.probe), "cli", *argv]
        return [sys.executable, "-m", "areaconics.cli", *argv]

    def run(self, a: dict) -> Any:
        """Run one child and wait for it, noting its own memory high-water mark.

        The child is reaped with ``os.wait4`` for its resource usage, so the
        reported peak is that of the cli children alone, not of the other
        processes the benchmark starts. Its output goes to files in the
        scratch directory, which no pipe buffer can block.
        """
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        work = self._workdir()
        argv = self.command(a["argv"])
        with open(work / "stdout", "w+", encoding="utf-8") as out, open(
            work / "stderr", "w+", encoding="utf-8"
        ) as err:
            child = subprocess.Popen(argv, cwd=self.root, env=env, stdout=out, stderr=err)
            timer = threading.Timer(60.0, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(argv, child.returncode, out.read(), err.read())

    def check(self, a: dict, out: subprocess.CompletedProcess) -> None:
        from areaconics import constructions as c
        from areaconics import figures, locus

        if out.returncode != 0:
            raise CheckFailed("cli", f"{a['verb']} exited {out.returncode}: {out.stderr.strip()}")
        verb = a["verb"]
        doc = json.loads(out.stdout) if out.stdout.strip() else None
        if verb == "construct":
            if a["kind"] == "exact":
                result = c.apply_exact(a["base"], a["value"])
            elif a["kind"] == "deficient":
                result = c.apply_deficient(a["base"], a["lam"], a["value"])
            else:
                result = c.apply_excess(a["base"], a["lam"], a["value"])
            expected = result.summary()
            if a["trace"].read_text(encoding="utf-8") != result.trace.to_json(indent=2) + "\n":
                raise CheckFailed("cli", "construct --trace differs from the in-process trace")
            svg = figures.render_svg(figures.scene_from_application(result))
            if a["svg"].read_text(encoding="utf-8") != svg:
                raise CheckFailed("cli", "construct --svg differs from the in-process figure")
        elif verb == "solve":
            kind = c.ApplicationKind(a["kind"])
            expected = {"heights": c.solve_height_for_area(kind, a["base"], a["value"], a["lam"])}
        elif verb == "locus":
            expected = None
            kind = locus.ConicKind(a["kind"])
            lo, hi = conic_heights(a["kind"], a["base"], a["lam"])
            points = locus.sample_locus(kind, a["base"], locus.SampleRange(lo, hi, a["samples"]), a["lam"])
            if locus.read_locus_csv(a["out"]) != points:
                raise CheckFailed("cli", "locus CSV differs from the in-process sweep")
        elif verb == "params":
            expected = locus.conic_params(locus.ConicKind(a["kind"]), a["base"], a["lam"]).to_json_dict()
        elif verb == "maxarea":
            area, at_base = locus.max_applicable_area(a["base"], a["lam"])
            expected = {"area": area, "at_base": at_base}
        elif verb == "verify":
            points = locus.read_locus_csv(a["points"])
            kind = locus.ConicKind(a["kind"])
            expected = locus.verify_residuals(points, kind, a["base"], a["lam"], 1e-9).to_json_dict()
        else:
            expected = None
            if a["out"].read_text(encoding="utf-8") != figures.standard_figure(a["which"]):
                raise CheckFailed("cli", f"figure {a['which']} differs from standard_figure")
        if doc != expected:
            raise CheckFailed("cli", f"{verb} JSON differs from the in-process result")


WORKLOADS = {w.name: w for w in (Construct, Sweep, Check, Cli)}


def make(name: str, seed: int, sizes: str, root: Path) -> Any:
    cls = WORKLOADS[name]
    if cls is Cli:
        return Cli(seed, SIZES[sizes], root)
    return cls(seed, dict(SIZES[sizes], census_ops=CENSUS_OPS[sizes]))
