import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from areaconics import cli
from areaconics.cli import run
from areaconics.constructions import ConstructionTrace, replay_trace
from areaconics.locus import (
    Branch,
    ConicKind,
    LocusSamples,
    SampleRange,
    _sample_locus_floats,
    conic_params,
    fit_conic_oracle,
    mirror,
    read_locus_csv,
    sample_locus,
    verify_residuals,
    write_locus_csv,
)


def test_maxarea_prints_json(capsys):
    assert run(["maxarea", "--base", "2", "--lambda", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"area": 1.0, "at_base": 1.0}


def test_construct_summary(capsys):
    assert run(["construct", "--kind", "exact", "--base", "4", "--height", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "exact"
    assert doc["square_side_g"] == 2.0
    assert doc["J"] == [2.0, 1.0]
    assert "lambda" not in doc


def test_construct_writes_trace_and_svg(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    svg_path = tmp_path / "diagram.svg"
    code = run(
        [
            "construct", "--kind", "excess", "--base", "2", "--lambda", "1",
            "--height", "1", "--trace", str(trace_path), "--svg", str(svg_path),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == 1.0
    assert doc["rect_base_b"] == 3.0

    trace = ConstructionTrace.from_json(trace_path.read_text(encoding="utf-8"))
    points = replay_trace(trace)
    assert points["J"].x == pytest.approx(math.sqrt(3.0), rel=1e-12)

    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert root.get("version") == "1.1"


def test_construct_infeasible_deficiency(capsys):
    code = run(["construct", "--kind", "deficient", "--base", "4", "--lambda", "1", "--height", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "deficiency" in err


def test_a_failing_construction_names_its_step(capsys):
    assert run(["construct", "--kind", "exact", "--base", "1", "--height", "5e9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "areaconics: error: extension distance must be positive, got 0.0; at step 'I' (Extend A, E, A, G; I.46)\n"
    )


@pytest.mark.parametrize("above", [0, 1])
def test_a_failing_locus_names_its_step_and_height_on_each_side_of_the_float_sweep_cutoff(tmp_path, capsys, monkeypatch, above):
    # G snaps to the tangent foot A at the first default height, 5e-8.
    monkeypatch.setattr(cli, "_FLOAT_SWEEP_MAX", 200 - above)
    argv = ["locus", "--kind", "parabola", "--base", "1e-6", "--samples", "200", "--out", str(tmp_path / "small.csv")]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        "areaconics: error: extension distance must be positive, got 0.0; "
        "at step 'I' (Extend A, E, A, G; I.46); at height 5e-08 (index 0)\n"
    )


def test_solve_roots(capsys):
    assert run(["solve", "--kind", "deficient", "--base", "4", "--lambda", "1", "--area", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["heights"] == pytest.approx([1.0, 3.0], rel=1e-12)


def test_solve_infeasible_area(capsys):
    code = run(["solve", "--kind", "deficient", "--base", "4", "--lambda", "1", "--area", "5"])
    assert code == 1
    assert "maximum applicable area" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,extra",
    [("parabola", []), ("ellipse", ["--lambda", "1"]), ("hyperbola", ["--lambda", "1"])],
)
def test_locus_verify_round_trip(tmp_path, capsys, kind, extra):
    csv_path = tmp_path / f"{kind}.csv"
    code = run(
        [
            "locus", "--kind", kind, "--base", "2", *extra,
            "--y-min", "0.2", "--y-max", "1.6", "--samples", "9", "--out", str(csv_path),
        ]
    )
    assert code == 0
    assert csv_path.exists()
    code = run(
        [
            "verify", "--points", str(csv_path), "--kind", kind, "--base", "2",
            *extra, "--tol", "1e-9",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["passed"] is True


@pytest.mark.parametrize("above", [0, 1])
def test_locus_writes_sample_locus_csv_on_each_side_of_the_float_sweep_cutoff(tmp_path, monkeypatch, above):
    n = cli._FLOAT_SWEEP_MAX + above
    ran = []
    for name in ("sample_locus", "_sample_locus_floats"):
        sweep = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, sweep=sweep, name=name: ran.append(name) or sweep(*args))
    csv_path = tmp_path / "cli.csv"
    argv = ["locus", "--kind", "hyperbola", "--base", "2", "--lambda", "0.5", "--y-min", "0.2", "--y-max", "1.6"]
    assert run([*argv, "--samples", str(n), "--out", str(csv_path)]) == 0
    assert ran == ["sample_locus" if above else "_sample_locus_floats"]
    write_locus_csv(sample_locus(ConicKind.HYPERBOLA, 2.0, SampleRange(0.2, 1.6, n), 0.5), tmp_path / "api.csv")
    assert csv_path.read_bytes() == (tmp_path / "api.csv").read_bytes()


def test_locus_default_range(tmp_path):
    csv_path = tmp_path / "default.csv"
    code = run(["locus", "--kind", "ellipse", "--base", "2", "--lambda", "1",
                "--samples", "5", "--out", str(csv_path)])
    assert code == 0
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "x,y,branch"
    assert len(rows) == 6


@pytest.mark.parametrize(
    "family, message",
    [
        (["ellipse", "--base", "2", "--lambda", "0"], "aspect ratio must be positive and finite, got 0.0"),
        (["parabola", "--base", "0"], "base length must be positive and finite, got 0.0"),
        (["hyperbola", "--base", "-2", "--lambda", "1"], "base length must be positive and finite, got -2.0"),
        (["parabola", "--base", "inf"], "base length must be positive and finite, got inf"),
        (["ellipse", "--base", "2", "--lambda", "-1"], "aspect ratio must be positive and finite, got -1.0"),
        (["ellipse", "--base", "2", "--lambda", "inf"], "aspect ratio must be positive and finite, got inf"),
    ],
)
def test_locus_checks_its_family_before_the_default_range(tmp_path, capsys, family, message):
    csv_path = tmp_path / "never.csv"
    assert run(["locus", "--kind", *family, "--samples", "5", "--out", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"areaconics: error: {message}"
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "family, y_range",
    [
        # The default top height 2*L overflows.
        (["parabola", "--base", "1e308"], "[5.0000000000000006e+306, inf]"),
        # L/lambda overflows, and so do both ends.
        (["ellipse", "--base", "1e308", "--lambda", "1e-10"], "[inf, inf]"),
    ],
)
def test_locus_reports_an_overflowing_default_range(tmp_path, capsys, family, y_range):
    csv_path = tmp_path / "never.csv"
    assert run(["locus", "--kind", *family, "--samples", "5", "--out", str(csv_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (
        f"areaconics: error: the default height range {y_range} overflows for this family; "
        "pass --y-min and --y-max"
    )
    assert "Traceback" not in captured.err
    assert not csv_path.exists()


def test_verify_detects_mismatch(tmp_path, capsys):
    csv_path = tmp_path / "parabola.csv"
    assert run(["locus", "--kind", "parabola", "--base", "2", "--y-min", "0.2",
                "--y-max", "1.6", "--samples", "5", "--out", str(csv_path)]) == 0
    code = run(["verify", "--points", str(csv_path), "--kind", "parabola",
                "--base", "5", "--tol", "1e-9"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["max_residual"] > report["threshold"]


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.001, 2)])
def test_verify_reads_columns_written_to_csv_as_verify_residuals_does(tmp_path, capsys, scale, code):
    points = mirror(sample_locus(ConicKind.HYPERBOLA, 2.0, SampleRange(0.2, 1.6, 9), 0.5))
    samples = LocusSamples(
        [p.x * scale for p in points], [p.y for p in points], [p.branch is Branch.LOWER for p in points]
    )
    csv_path = tmp_path / "hyperbola.csv"
    write_locus_csv(samples, csv_path)
    report = verify_residuals(samples, ConicKind.HYPERBOLA, 2.0, 0.5, 1e-9)
    argv = ["verify", "--points", str(csv_path), "--kind", "hyperbola", "--base", "2", "--lambda", "0.5"]
    assert run([*argv, "--tol", "1e-9"]) == code
    assert json.loads(capsys.readouterr().out) == report.to_json_dict()
    assert report.passed is (code == 0)


def test_verify_reads_a_csv_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_locus_csv(mirror(sample_locus(ConicKind.HYPERBOLA, 2.0, SampleRange(0.2, 1.6, 9), 0.5)), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_locus_csv(marked) == read_locus_csv(plain)
    printed = []
    for path in (plain, marked):
        argv = ["verify", "--points", str(path), "--kind", "hyperbola", "--base", "2", "--lambda", "0.5"]
        assert run([*argv, "--tol", "1e-9"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_params_json(capsys):
    assert run(["params", "--kind", "hyperbola", "--base", "2", "--lambda", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["center"] == [0.0, -1.0]
    assert doc["eccentricity"] == pytest.approx(math.sqrt(2.0), abs=1e-15)


_ROUNDS_TO_ONE = {
    ("ellipse", "1e-17"): {
        "kind": "ellipse", "base_L": 2.0, "lambda": 1e-17, "center": [0.0, 1e17],
        "semi_axis_x": 316227766.0168379, "semi_axis_y": 1e17, "vertices": [[0.0, 0.0], [0.0, 2e17]],
        "eccentricity": 1.0,
    },
    ("ellipse", "1e17"): {
        "kind": "ellipse", "base_L": 2.0, "lambda": 1e17, "center": [0.0, 1e-17],
        "semi_axis_x": 3.162277660168379e-09, "semi_axis_y": 1e-17, "vertices": [[0.0, 0.0], [0.0, 2e-17]],
        "eccentricity": 1.0,
    },
    ("hyperbola", "1e-17"): {
        "kind": "hyperbola", "base_L": 2.0, "lambda": 1e-17, "center": [0.0, -1e17],
        "semi_axis_x": 316227766.0168379, "semi_axis_y": 1e17, "vertices": [[0.0, 0.0], [0.0, -2e17]],
        "eccentricity": 1.0, "asymptote_slopes": [316227766.0168379, -316227766.0168379],
        "conjugate_axis_y": -1e17,
    },
    ("hyperbola", "1e-16"): {
        "kind": "hyperbola", "base_L": 2.0, "lambda": 1e-16, "center": [0.0, -1e16],
        "semi_axis_x": 100000000.0, "semi_axis_y": 1e16, "vertices": [[0.0, 0.0], [0.0, -2e16]],
        "eccentricity": 1.0, "asymptote_slopes": [100000000.0, -100000000.0], "conjugate_axis_y": -1e16,
    },
}


@pytest.mark.parametrize("kind, lam", sorted(_ROUNDS_TO_ONE))
def test_params_prints_an_eccentricity_that_rounds_to_one(capsys, kind, lam):
    # These used to exit 1: a range check rejected the correctly rounded e = 1.0.
    assert run(["params", "--kind", kind, "--base", "2", "--lambda", lam]) == 0
    assert json.loads(capsys.readouterr().out) == _ROUNDS_TO_ONE[kind, lam]


def test_figure_writes_svg(tmp_path):
    out = tmp_path / "figure3.svg"
    assert run(["figure", "--which", "3", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.get("version") == "1.1"


def test_figure_out_of_range(tmp_path, capsys):
    out = tmp_path / "figure10.svg"
    assert run(["figure", "--which", "10", "--out", str(out)]) == 1
    assert "figure number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--points", "{missing}/points.csv", "--kind", "parabola", "--base", "2", "--tol", "1e-9"],
        ["figure", "--which", "3", "--out", "{missing}/f.svg"],
    ],
)
def test_a_missing_file_or_directory_exits_1_with_one_error_line(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    assert run([arg.format(missing=missing) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("areaconics: error: ")
    assert str(missing) in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_lambda_rejected_for_exact(capsys):
    code = run(["construct", "--kind", "exact", "--base", "1", "--height", "1", "--lambda", "1"])
    assert code == 1
    assert "--lambda" in capsys.readouterr().err


def test_lambda_rejected_for_parabola(capsys):
    code = run(["params", "--kind", "parabola", "--base", "1", "--lambda", "1"])
    assert code == 1
    assert "--lambda" in capsys.readouterr().err


def test_lambda_required_for_deficient(capsys):
    code = run(["construct", "--kind", "deficient", "--base", "4", "--height", "1"])
    assert code == 1
    assert "--lambda is required" in capsys.readouterr().err


def test_unknown_verb(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert run(["maxarea", "--base", "2", "--lambda", "1", "--bogus", "3"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    assert run(["construct", "--kind", "exact", "--base", "4"]) == 1
    capsys.readouterr()


def test_stdout_is_single_json_document(capsys):
    assert run(["params", "--kind", "ellipse", "--base", "4", "--lambda", "0.75"]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # raises if anything else is interleaved
    assert out.count("\n") == 1


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this checkout's ``src``; return its stdout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-c", code, *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_stays_off_the_network_stack():
    # xml.sax.saxutils alone would pull urllib, http, ssl and email into
    # every CLI process.
    heavy = ("xml.sax", "urllib.request", "http.client", "ssl", "email")
    code = "import sys, areaconics.cli; print([m for m in %r if m in sys.modules])" % (heavy,)
    assert _fresh_python(code).strip() == "[]"


def test_cli_import_builds_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates
    # each class's methods from source at import.
    heavy = ("dataclasses", "inspect")
    code = "import sys, areaconics.cli; print([m for m in %r if m in sys.modules])" % (heavy,)
    assert _fresh_python(code).strip() == "[]"


# Runs each argv through cli.run and prints the steps after which numpy
# was loaded ("import" for the package import itself) or the exit code
# was not 0.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import areaconics, areaconics.cli
seen = ["import"] if "numpy" in sys.modules else []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = areaconics.cli.run(argv)
    if code != 0 or "numpy" in sys.modules:
        seen.append([argv[0], code])
print(json.dumps(seen))
"""


def test_verbs_that_neither_sweep_nor_fit_never_load_numpy(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("x,y,branch\n2.0,1.0,upper\n-2.0,1.0,upper\n", encoding="utf-8")
    hyperbola = str(tmp_path / "hyperbola.csv")
    argv = ["locus", "--kind", "hyperbola", "--base", "2", "--lambda", "0.5", "--samples", "200", "--out", hyperbola]
    assert run(argv) == 0
    verbs = [
        ["construct", "--kind", "excess", "--base", "2", "--lambda", lam, "--height", height,
         "--trace", str(tmp_path / "trace.json"), "--svg", str(tmp_path / "diagram.svg")]
        for lam, height in (("1", "1"), ("0.5", "1.5"))
    ] + [
        ["solve", "--kind", "deficient", "--base", "4", "--lambda", "1", "--area", "3"],
        ["params", "--kind", "ellipse", "--base", "4", "--lambda", "0.75"],
        ["maxarea", "--base", "2", "--lambda", "1"],
        ["verify", "--points", str(points), "--kind", "parabola", "--base", "4", "--tol", "1e-9"],
        ["verify", "--points", hyperbola, "--kind", "hyperbola", "--base", "2", "--lambda", "0.5", "--tol", "1e-9"],
    ] + [["figure", "--which", str(n), "--out", str(tmp_path / f"figure{n}.svg")] for n in range(1, 10)]
    assert json.loads(_fresh_python(_NUMPY_PROBE, json.dumps(verbs))) == []


def test_locus_up_to_the_float_sweep_cutoff_never_loads_numpy(tmp_path):
    csv_path = str(tmp_path / "locus.csv")
    kinds = [["parabola"], ["ellipse", "--lambda", "0.5"], ["hyperbola", "--lambda", "0.5"]]
    locus = [["locus", "--kind", *kind, "--base", "2", "--samples", "300", "--out", csv_path] for kind in kinds]
    assert json.loads(_fresh_python(_NUMPY_PROBE, json.dumps(locus))) == []


def test_sweeps_and_fits_load_numpy_on_first_use(tmp_path):
    csv_path = str(tmp_path / "locus.csv")
    samples = str(cli._FLOAT_SWEEP_MAX + 1)
    locus = [["locus", "--kind", "parabola", "--base", "2", "--samples", samples, "--out", csv_path]]
    assert json.loads(_fresh_python(_NUMPY_PROBE, json.dumps(locus))) == [["locus", 0]]
    fit = (
        "import sys\n"
        "from areaconics.locus import LocusPoint, fit_conic_oracle\n"
        "before = 'numpy' in sys.modules\n"
        "fit_conic_oracle([LocusPoint(x, x * x / 4.0) for x in range(-3, 4)])\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert _fresh_python(fit).split() == ["False", "True"]


def test_verify_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tmp_path, capsys):
    points = tmp_path / "points.csv"
    points.write_text("x,y,branch\n2.0,1.0,upper\n", encoding="utf-8")
    argv = ["verify", "--points", str(points), "--kind", "parabola", "--base", "4", "--tol"]
    for tol in ("-1", "nan", "inf"):
        assert run([*argv, tol]) == 1
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err
    assert run([*argv, "0"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_solve_overflow(capsys):
    # L*y + lam*y**2 = area with 4*lam*area beyond the float range: the
    # root is still representable.
    assert run(["solve", "--kind", "excess", "--base", "1", "--lambda", "10", "--area", "1e307"]) == 0
    assert json.loads(capsys.readouterr().out)["heights"] == [pytest.approx(1e153, rel=1e-12)]
    # area/L = 1e600 is not.
    assert run(["solve", "--kind", "exact", "--base", "1e-300", "--area", "1e300"]) == 1
    assert "overflows the float range" in capsys.readouterr().err


def test_params_exits_1_where_a_semi_axis_underflows(capsys):
    for kind in ("ellipse", "hyperbola"):
        assert run(["params", "--kind", kind, "--base", "1e-300", "--lambda", "1e300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().endswith(
            "error: L/(2*lambda) for L = 1e-300, lambda = 1e+300 underflows the float range"
        )



def test_verify_prints_one_report_where_a_semi_axis_squared_underflows(tmp_path, capsys):
    # Below ~1.5e-162 a semi-axis's square underflows to 0, which the vertex
    # form never divides by. Both evaluations print verify_residuals' report:
    # the float loop, in a fresh process that has not loaded numpy, and the
    # columns, in this one.
    points = tmp_path / "points.csv"
    points.write_text("x,y,branch\n1e-170,1e-171,upper\n", encoding="utf-8")
    argvs, printed = [], []
    for kind in ("ellipse", "hyperbola"):
        for base in ("1e-170", "1e-160"):
            for lam in ("1", "1e-10"):
                argv = ["verify", "--points", str(points), "--kind", kind, "--base", base, "--lambda", lam]
                argvs.append([*argv, "--tol", "1e-9"])
                code = run(argvs[-1])
                captured = capsys.readouterr()
                report = verify_residuals(read_locus_csv(points), ConicKind(kind), float(base), float(lam), 1e-9)
                assert captured.out == json.dumps(report.to_json_dict()) + "\n"
                assert captured.err == ""
                assert code == (0 if report.passed else 2)
                printed.append([code, captured.out, captured.err])
    fresh = (
        "import contextlib, io, json, sys, areaconics.cli\n"
        "printed = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "        code = areaconics.cli.run(argv)\n"
        "    printed.append([code, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps([printed, 'numpy' in sys.modules]))\n"
    )
    assert json.loads(_fresh_python(fresh, json.dumps(argvs))) == [printed, False]


BASE_NOT_FINITE = "base length must be positive and finite, got inf"
RATIO_NOT_FINITE = "aspect ratio must be positive and finite, got inf"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["params", "--kind", "parabola", "--base", "inf"], BASE_NOT_FINITE),
        (["params", "--kind", "hyperbola", "--base", "1", "--lambda", "inf"], RATIO_NOT_FINITE),
        (["verify", "--kind", "parabola", "--base", "inf"], BASE_NOT_FINITE),
        (["verify", "--kind", "hyperbola", "--base", "1", "--lambda", "inf"], RATIO_NOT_FINITE),
        (["construct", "--kind", "exact", "--base", "inf", "--height", "1"], BASE_NOT_FINITE),
        (["maxarea", "--base", "1", "--lambda", "inf"], RATIO_NOT_FINITE),
    ],
)
def test_an_infinite_base_or_aspect_ratio_exits_1(tmp_path, capsys, argv, message):
    if argv[0] == "verify":
        points = tmp_path / "one.csv"
        points.write_text("x,y,branch\n2.0,1.0,upper\n", encoding="utf-8")
        argv = [*argv, "--points", str(points), "--tol", "1e-9"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"error: {message}")


@pytest.mark.parametrize(
    "kind",
    [["exact"], ["deficient", "--lambda", "0.5"], ["excess", "--lambda", "1"]],
    ids=["exact", "deficient", "excess"],
)
def test_construct_exits_1_at_an_infinite_height(capsys, kind):
    assert run(["construct", "--kind", *kind, "--base", "1", "--height", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("error: rectangle height must be positive and finite, got inf")


@pytest.mark.parametrize(
    "family, first, last",
    [
        (["parabola", "--base", "3"], 0.05 * 3.0, 2.0 * 3.0),
        (["hyperbola", "--base", "3", "--lambda", "0.5"], 0.05 * 3.0, 2.0 * 3.0),
        # The ellipse's heights stay below L/lambda = 6.
        (["ellipse", "--base", "3", "--lambda", "0.5"], 0.05 * 6.0, 0.95 * 6.0),
    ],
)
def test_locus_default_range_runs_from_its_first_to_its_last_height(tmp_path, family, first, last):
    csv_path = tmp_path / "default.csv"
    assert run(["locus", "--kind", *family, "--samples", "7", "--out", str(csv_path)]) == 0
    heights = [p.y for p in read_locus_csv(csv_path) if p.branch is Branch.UPPER]
    assert len(heights) == 7
    assert (heights[0], heights[-1]) == (first, last)


def test_locus_rejects_an_infinite_top_height(tmp_path, capsys):
    csv_path = tmp_path / "never.csv"
    argv = ["locus", "--kind", "parabola", "--base", "2", "--y-min", "0.1", "--y-max", "inf", "--samples", "3",
            "--out", str(csv_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "areaconics: error: y_max must be finite, got inf\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("given", [["--y-min", "0.5"], ["--y-max", "1.5"]])
def test_locus_takes_both_ends_of_the_height_range_or_neither(tmp_path, capsys, given):
    csv_path = tmp_path / "never.csv"
    argv = ["locus", "--kind", "parabola", "--base", "2", *given, "--samples", "5", "--out", str(csv_path)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "areaconics: error: --y-min and --y-max must be given together\n"
    assert not csv_path.exists()


# The console script's checks at the inputs the CI workflow gives it.
CONSTRUCT_ARGS = {
    "excess": ["--kind", "excess", "--base", "2", "--lambda", "0.5", "--height", "1.5"],
    "exact": ["--kind", "exact", "--base", "4", "--height", "1.5"],
    "deficient": ["--kind", "deficient", "--base", "4", "--lambda", "1", "--height", "1.5"],
}


@pytest.mark.parametrize("args", list(CONSTRUCT_ARGS.values()), ids=list(CONSTRUCT_ARGS))
def test_constructs_trace_file_and_its_compact_rewrite_replay_to_the_printed_j(tmp_path, capsys, args):
    trace_path = tmp_path / "trace.json"
    assert run(["construct", *args, "--trace", str(trace_path)]) == 0
    printed = [float(v).hex() for v in json.loads(capsys.readouterr().out)["J"]]
    text = trace_path.read_text(encoding="utf-8")
    # The indented file, decoded whole with every step built, reads as the
    # same trace as its compact rewrite, which is the document json.dumps writes.
    compact = ConstructionTrace.from_json(text).to_json()
    assert compact == json.dumps(json.loads(text))
    assert ConstructionTrace.from_json(text) == ConstructionTrace.from_json(compact)
    for written in (text, compact):
        J = replay_trace(ConstructionTrace.from_json(written))["J"]
        assert [J.x.hex(), J.y.hex()] == printed


@pytest.mark.parametrize(
    "kind, lam", [(ConicKind.PARABOLA, None), (ConicKind.ELLIPSE, 0.5), (ConicKind.HYPERBOLA, 0.5)]
)
@pytest.mark.parametrize("base", [1e-5, 1.0, 1e150])
def test_each_locus_sweep_writes_the_other_sweeps_csv(tmp_path, kind, lam, base):
    # At 300 samples the CLI sweeps over floats and writes sample_locus's CSV;
    # above the cutoff its sample_locus writes the float sweep's. Default
    # heights, which the first and last upper points give back.
    cli_csv, api_csv = tmp_path / "cli.csv", tmp_path / "api.csv"
    for n, other in ((300, sample_locus), (cli._FLOAT_SWEEP_MAX + 1, _sample_locus_floats)):
        argv = ["locus", "--kind", kind.value, "--base", repr(base), "--samples", str(n), "--out", str(cli_csv)]
        assert run(argv + (["--lambda", repr(lam)] if lam else [])) == 0
        heights = [p.y for p in read_locus_csv(cli_csv)[:n]]
        write_locus_csv(other(kind, base, SampleRange(heights[0], heights[-1], n), lam), api_csv)
        assert cli_csv.read_bytes() == api_csv.read_bytes(), n


def test_a_lower_branch_whose_heights_all_tie_above_the_cutoff_is_the_float_sweeps(tmp_path):
    # Every reflected height rounds to -1e20: the lower branch comes from the
    # stable sort, not the reversal, and the CSV is the float sweep's.
    n = cli._FLOAT_SWEEP_MAX + 1
    tied, floats = tmp_path / "tied.csv", tmp_path / "floats.csv"
    argv = ["locus", "--kind", "hyperbola", "--base", "1", "--lambda", "1e-20", "--samples", str(n), "--out", str(tied)]
    assert run(argv) == 0
    points = read_locus_csv(tied)
    heights = [p.y for p in points[:n]]
    assert {p.y for p in points[n:]} == {-1e20}
    sample_range = SampleRange(heights[0], heights[-1], n)
    write_locus_csv(_sample_locus_floats(ConicKind.HYPERBOLA, 1.0, sample_range, 1e-20), floats)
    assert tied.read_bytes() == floats.read_bytes()


def test_a_locus_where_g_snaps_to_the_tangent_foot_fails_or_returns_a_true_x(tmp_path):
    csv_path = tmp_path / "small.csv"
    code = run(["locus", "--kind", "parabola", "--base", "1e-6", "--samples", "200", "--out", str(csv_path)])
    assert code in (0, 1)
    if code == 0:
        xs = [p.x for p in read_locus_csv(csv_path)]
        assert xs and 0.0 not in xs


@pytest.fixture(scope="module")
def big_loci(tmp_path_factory):
    """The CLI's 20,000-sample ellipse and hyperbola CSVs (L = 2, lambda = 0.5, default heights), by kind."""
    out = tmp_path_factory.mktemp("big_loci")
    paths = {kind: str(out / f"{kind}.csv") for kind in ("ellipse", "hyperbola")}
    for kind, path in paths.items():
        argv = ["locus", "--kind", kind, "--base", "2", "--lambda", "0.5", "--samples", "20000", "--out", path]
        assert run(argv) == 0
    return paths


def test_verify_prints_the_column_report_on_20000_samples_in_a_process_without_numpy(big_loci):
    # verify loads no numpy and checks point by point; this process has loaded
    # numpy and checks on columns, in blocks of 8,192 points. Both print the same JSON.
    fresh = (
        "import contextlib, io, json, sys, areaconics.cli\n"
        "printed = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        printed.append([areaconics.cli.run(argv), out.getvalue()])\n"
        "print(json.dumps([printed, 'numpy' in sys.modules]))\n"
    )
    argvs, expected = [], []
    for kind, path in big_loci.items():
        argvs.append(["verify", "--points", path, "--kind", kind, "--base", "2", "--lambda", "0.5", "--tol", "1e-9"])
        report = verify_residuals(read_locus_csv(path), ConicKind(kind), 2.0, 0.5, 1e-9)
        expected.append([0, json.dumps(report.to_json_dict()) + "\n"])
    assert json.loads(_fresh_python(fresh, json.dumps(argvs))) == [expected, False]


def test_the_fit_of_the_20000_sample_csvs_recovers_the_closed_form(big_loci):
    # The fit reads 8,192 points at a time and keeps only the R factor of the
    # rows so far: the ellipse's 20k points take 3 blocks, the hyperbola's 40k 5.
    for kind, path in big_loci.items():
        fitted = fit_conic_oracle(read_locus_csv(path))
        expected = conic_params(ConicKind(kind), 2.0, 0.5).implicit_coefficients()
        assert max(abs(a - b) for a, b in zip(fitted, expected)) <= 1e-6, (kind, fitted, expected)
