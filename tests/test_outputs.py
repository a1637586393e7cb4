"""Golden outputs: the exact bytes of figures, traces and JSON documents.

Each pinned value was recorded from the package as it stood before the
three applications were folded into one area family, so these tests
show that refactors of the kind-dependent code move no output bit. The
one later change is the ellipse verify row at infinite height, whose nan
residual now counts as the worst.
"""

import hashlib
import json

import pytest

from areaconics.cli import run
from areaconics.figures import standard_figure


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


FIGURE_SHA256 = {
    1: "addcf93296e28be51c04d628921e8c31e3888f0e88039023ec8dabc1bee5ed67",
    2: "e2e67d1a4f43c7c06e1e5210068bec0e3dc139d6809c1a0a29d19b972c1302d5",
    3: "fbb13577d74b185994bb4db44499f931c7b58f9ee75137530c7f3e4bd1d829ae",
    4: "a569b4839d4d44a2e123e2490f5b864914c317b44340a9741da662d26f317d5f",
    5: "7b2b57eeb9a40945204b2a7ddf50b31cc79c868e31d886eb3e1c49c933a00c0b",
    6: "ac294f6176e9803f963a681806b1a110c4d2e00576f0122f6b909779512aca96",
    7: "dec83585ff32c55693f94d44e42db2252d706223b6716568b77ffd32e945a83e",
    8: "9dad9e60c0bb041c7034073f4ea7eb70a8caa2ce9b3e2bbd121d1c49def4237b",
    9: "c3d103b4c0531b704e2d62fc4807c5fe7bca62b622e3a63d0426656e0f152752",
}


@pytest.mark.parametrize("n", sorted(FIGURE_SHA256))
def test_standard_figure_bytes(n):
    assert sha256(standard_figure(n)) == FIGURE_SHA256[n]


@pytest.mark.parametrize(
    "args, summary, trace_sha256",
    [
        (
            ["--kind", "exact", "--base", "4", "--height", "1.5"],
            '{"kind": "exact", "base_L": 4.0, "height_y": 1.5, "rect_base_b": 4.0, "area_X": 6.0, '
            '"square_side_g": 2.449489742783178, "J": [2.449489742783178, 1.5]}',
            "9a6bbc3bf9249d48a7907f8d3d25b5c7945a8ae497f21c19d05fd53bd2812f80",
        ),
        (
            ["--kind", "deficient", "--base", "4", "--lambda", "1", "--height", "2.5"],
            '{"kind": "deficient", "base_L": 4.0, "lambda": 1.0, "height_y": 2.5, "rect_base_b": 1.5, '
            '"area_X": 3.75, "square_side_g": 1.9364916731037085, "J": [1.9364916731037085, 2.5]}',
            "dafd8f43111245a18df88f0bad351da4ee7dc2cd01e2a388f181be1271a91d4a",
        ),
        (
            ["--kind", "excess", "--base", "1", "--lambda", "0.25", "--height", "2"],
            '{"kind": "excess", "base_L": 1.0, "lambda": 0.25, "height_y": 2.0, "rect_base_b": 1.5, '
            '"area_X": 3.0, "square_side_g": 1.7320508075688772, "J": [1.7320508075688772, 2.0]}',
            "1b3e0136469b516eb44cb239408c76733aa45c695c3f79adf26f3ecb43dee862",
        ),
    ],
)
def test_construct_summary_and_trace_bytes(tmp_path, capsys, args, summary, trace_sha256):
    trace_path = tmp_path / "trace.json"
    assert run(["construct", *args, "--trace", str(trace_path)]) == 0
    assert capsys.readouterr().out == summary + "\n"
    assert sha256(trace_path.read_text(encoding="utf-8")) == trace_sha256


@pytest.mark.parametrize(
    "args, document",
    [
        (
            ["--kind", "parabola", "--base", "4"],
            '{"kind": "parabola", "base_L": 4.0, "vertices": [[0.0, 0.0]]}',
        ),
        (
            ["--kind", "ellipse", "--base", "4", "--lambda", "0.75"],
            '{"kind": "ellipse", "base_L": 4.0, "lambda": 0.75, "center": [0.0, 2.6666666666666665], '
            '"semi_axis_x": 2.3094010767585034, "semi_axis_y": 2.6666666666666665, '
            '"vertices": [[0.0, 0.0], [0.0, 5.333333333333333]], "eccentricity": 0.5}',
        ),
        (
            ["--kind", "hyperbola", "--base", "2", "--lambda", "1.5"],
            '{"kind": "hyperbola", "base_L": 2.0, "lambda": 1.5, "center": [0.0, -0.6666666666666666], '
            '"semi_axis_x": 0.8164965809277261, "semi_axis_y": 0.6666666666666666, '
            '"vertices": [[0.0, 0.0], [0.0, -1.3333333333333333]], "eccentricity": 1.5811388300841898, '
            '"asymptote_slopes": [0.8164965809277261, -0.8164965809277261], '
            '"conjugate_axis_y": -0.6666666666666666}',
        ),
    ],
)
def test_params_bytes(capsys, args, document):
    assert run(["params", *args]) == 0
    assert capsys.readouterr().out == document + "\n"


# Each point set is checked under every kind: an upper point, a
# lower-branch point (only the hyperbola reflects it), and both with a
# point at infinite height, whose residuals are inf or nan.
UPPER = "1.5,0.7,upper\n"
LOWER = "1.3,-2.1,lower\n"
INFINITE = UPPER + LOWER + "0.25,inf,upper\n"
KIND_ARGS = {
    "parabola": ["--kind", "parabola", "--base", "2"],
    "ellipse": ["--kind", "ellipse", "--base", "2", "--lambda", "1.5"],
    "hyperbola": ["--kind", "hyperbola", "--base", "2", "--lambda", "1.5"],
}
INF = float("inf")
NAN = float("nan")


@pytest.mark.parametrize(
    "kind, rows, residual, worst",
    [
        ("parabola", UPPER, 0.8500000000000001, [1.5, 0.7, "upper"]),
        ("ellipse", UPPER, 1.585, [1.5, 0.7, "upper"]),
        ("hyperbola", UPPER, 0.11500000000000021, [1.5, 0.7, "upper"]),
        ("parabola", LOWER, 5.890000000000001, [1.3, -2.1, "lower"]),
        ("ellipse", LOWER, 12.505, [1.3, -2.1, "lower"]),
        ("hyperbola", LOWER, 0.7250000000000008, [1.3, -2.1, "lower"]),
        ("parabola", INFINITE, INF, [0.25, INF, "upper"]),
        # L*y - lam*y**2 is inf - inf = nan at y = inf; a nan residual is the worst.
        ("ellipse", INFINITE, NAN, [0.25, INF, "upper"]),
        ("hyperbola", INFINITE, INF, [0.25, INF, "upper"]),
    ],
)
def test_verify_bytes(tmp_path, capsys, kind, rows, residual, worst):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("x,y,branch\n" + rows, encoding="utf-8")
    assert run(["verify", "--points", str(csv_path), *KIND_ARGS[kind], "--tol", "1e-9"]) == 2
    report = {"kind": kind, "base_L": 2.0}
    if kind != "parabola":
        report["lambda"] = 1.5
    report.update(tol=1e-09, threshold=4e-09, passed=False, max_residual=residual, worst=worst)
    assert capsys.readouterr().out == json.dumps(report) + "\n"
