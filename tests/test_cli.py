import json
import subprocess
import sys

import numpy as np
import pytest

from heintze.linalg import jordan_block, save_matrix


def run_cli(*args, env=None, timeout=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "heintze.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def files(tmp_path):
    paths = {}
    mats = {
        "j3": jordan_block(1.0, 3),
        "j2": jordan_block(1.0, 2),
        "i2": np.eye(2),
        "d12": np.diag([1.0, 2.0]),
        "d24": np.diag([2.0, 4.0]),
        "d13": np.diag([1.0, 3.0]),
        "neg": np.diag([-1.0, 2.0]),
    }
    for name, a in mats.items():
        p = tmp_path / f"{name}.json"
        save_matrix(p, a)
        paths[name] = str(p)
    shear = tmp_path / "shear1.json"
    shear.write_text(json.dumps(
        {"kind": "shear", "n": 2, "C": {"knots": [[0.0, 0.0], [1.0, 1.0]]}}
    ))
    paths["shear1"] = str(shear)
    paths["dir"] = tmp_path
    return paths


def test_rpjf_outputs_and_exit_codes(files):
    rc, out, _ = run_cli("rpjf", files["j3"])
    assert rc == 0 and out == "1 x 3\n"
    rc, out, _ = run_cli("rpjf", files["d12"])
    assert rc == 0 and out == "1 x 1\n2 x 1\n"
    rc, _, err = run_cli("rpjf", files["neg"])
    assert rc == 2 and "-1" in err
    rc, _, err = run_cli("rpjf", str(files["dir"] / "missing.json"))
    assert rc == 1


def test_classify_exit_codes_and_json(files):
    rc, out, _ = run_cli("classify", files["d12"], files["d24"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["scale"] == pytest.approx(0.5)
    rc, out, _ = run_cli("classify", files["d12"], files["d13"])
    assert rc == 3
    assert json.loads(out)["equivalent"] is False
    rc, out, _ = run_cli("classify", files["j2"], files["i2"])
    assert rc == 3


@pytest.mark.parametrize("argv", [
    ("rpjf", "j3", "--tol", "nan"),
    ("classify", "j2", "d12", "--tol", "nan"),
])
def test_bad_tolerance_exits_one(files, argv):
    # --tol nan used to read J2 as two J1s and call it equivalent to diag(1, 2)
    rc, out, err = run_cli(*(files.get(a, a) for a in argv))
    assert rc == 1 and out == ""
    assert "tol must be positive" in err


def test_dist_euclidean_example(files):
    rc, out, _ = run_cli("dist", "--matrix", files["i2"],
                         "--x", "0,0", "--y", "3,4")
    assert rc == 0
    assert out.strip() == "5.000000000000"


def test_dist_usage_errors(files):
    rc, _, err = run_cli("dist", "--matrix", files["i2"],
                         "--x", "0,0", "--y", "1,2,3")
    assert rc == 1
    rc, _, _ = run_cli("dist", "--matrix", files["i2"],
                       "--x", "0,zz", "--y", "1,2")
    assert rc == 1


def test_qvar_report_and_manifest(files):
    out_csv = str(files["dir"] / "rep.csv")
    rc, out, err = run_cli(
        "qvar", "--matrix", files["d12"], "--u", "1",
        "--box=0,1;0,1", "--t=-5:-3:1", "--q", "1,1.5,2",
        "--out", out_csv,
    )
    assert rc == 0, err
    body = open(out_csv).read()
    assert body.startswith("t,Q,cells,V,log V\n")
    assert len(body.strip().splitlines()) == 10
    fits = open(str(files["dir"] / "rep-fits.csv")).read()
    lines = fits.strip().splitlines()
    assert lines[0] == "Q,slope,predicted,residual,classification"
    per_q = {l.split(",")[0]: l.split(",")[-1] for l in lines[1:]}
    assert per_q["1.5"] == "critical"
    manifest = json.loads(open(out_csv + ".manifest.json").read())
    assert manifest["command"] == "qvar"
    assert manifest["seed"] == 0
    assert "matrix" in manifest["input_digests"]
    assert manifest["version"]


@pytest.mark.parametrize("grid", ["-inf:0:1", "0:1:nan", "nan:1:0.5",
                                  "0:nan:0.5"])
def test_qvar_non_finite_grid_exits_one(files, grid):
    # -inf + step stays -inf, so a grid from -inf would grow without end:
    # the timeout ends the child should it loop.  A NaN bound or step
    # would give a grid of one point or none
    rc, out, err = run_cli(
        "qvar", "--matrix", files["d12"], "--u", "1", "--box=0,1;0,1",
        f"--t={grid}", "--q", "1", "--out", str(files["dir"] / "t.csv"),
        timeout=60)
    assert rc == 1 and out == ""
    assert f"grid {grid!r} must be finite" in err
    assert not (files["dir"] / "t.csv").exists()


@pytest.mark.parametrize("grid, message", [
    ("-1e300:-2:1", "has 1e+300 points, more than 10000"),
    ("-10001.5:-1.5:1", "has 10001 points, more than 10000"),
    # 11 points, but past 2^53 adding 1 rounds back to the same float
    ("-9007199254741000:-9007199254740990:1",
     "stops at -9007199254741000.0: its step is below the float spacing"),
])
def test_qvar_unending_grid_exits_one(files, grid, message):
    # the grid is counted before it is built one float at a time, and a
    # step that stops moving t ends it: the timeout ends the child should
    # it loop
    rc, out, err = run_cli(
        "qvar", "--matrix", files["d12"], "--u", "1", "--box=0,1;0,1",
        f"--t={grid}", "--q", "1", "--out", str(files["dir"] / "t.csv"),
        timeout=60)
    assert rc == 1 and out == ""
    assert f"grid {grid!r} {message}" in err
    assert not (files["dir"] / "t.csv").exists()


@pytest.mark.parametrize("qs", ["0.5", "nan", "inf", "1,1"])
def test_qvar_bad_q_exits_one(files, qs):
    out_csv = files["dir"] / "q.csv"
    rc, out, err = run_cli(
        "qvar", "--matrix", files["j2"], "--u", "1", "--box=0,1;0,1",
        "--t=-4:-2:1", "--q", qs, "--out", str(out_csv))
    assert rc == 1 and out == ""
    assert "error: Q values must be finite, at least 1 and distinct" in err
    assert "Traceback" not in err
    assert not out_csv.exists()


def test_qvar_cap_exit_code(files):
    out_csv = str(files["dir"] / "never.csv")
    rc, _, err = run_cli(
        "qvar", "--matrix", files["d12"], "--u", "1",
        "--box=0,1;0,1", "--t=-8:-6:1", "--q", "1",
        "--out", out_csv, env={"HEINTZE_MAX_CELLS": "1000"},
    )
    assert rc == 4
    assert "exceeds" in err


def test_qvar_determinism_golden(files):
    body = {}
    for tag in ("a", "b"):
        out_csv = str(files["dir"] / f"rep_{tag}.csv")
        rc, _, _ = run_cli(
            "qvar", "--matrix", files["d12"], "--u", "1",
            "--box=0,1;0,1", "--t=-5:-3:1", "--q", "1,2",
            "--out", out_csv,
        )
        assert rc == 0
        body[tag] = (
            open(out_csv).read(),
            open(str(files["dir"] / f"rep_{tag}-fits.csv")).read(),
        )
    assert body["a"] == body["b"]


def test_qsmap_verify_report(files):
    out_json = str(files["dir"] / "verify.json")
    rc, out, err = run_cli(
        "qsmap-verify", "--map", files["shear1"], "--matrix", files["j2"],
        "--samples", "400", "--seed", "3", "--out", out_json,
    )
    assert rc == 0, err
    assert "seed = 3" in out
    doc = json.loads(open(out_json).read())
    assert doc["min_ratio"] <= 1.0 <= doc["max_ratio"]
    assert doc["within_bound"] is True
    manifest = json.loads(open(out_json + ".manifest.json").read())
    assert manifest["seed"] == 3
    assert set(manifest["input_digests"]) == {"map", "matrix"}


def test_conformal_probe_output(files):
    rc, out, _ = run_cli("conformal-probe", "--map", files["shear1"],
                         "--t=-4,-8")
    assert rc == 0
    assert "final ratio = 1.41421356237" in out


PROBE_GOLDEN = {
    "shear": (
        {"kind": "shear", "n": 2,
         "C": {"knots": [[-1.0, 0.0], [0.5, 0.25], [1.0, 1.0]]}},
        '{\n  "bound": 5.557504237413575,\n  "box_radius": 5.0,\n'
        '  "max_ratio": 1.6271809890822995,\n'
        '  "min_ratio": 0.3443208731561613,\n  "samples": 300,\n'
        '  "seed": 4,\n  "within_bound": true\n}\n',
        "1.01379375505",
    ),
    "jordan_family": (
        {"kind": "jordan_family", "n": 2, "a": [1.5], "v": [0.1, -0.2],
         "C": {"knots": [[0.0, 0.0], [1.0, 0.5]]}},
        '{\n  "bound": 9.241432094149962,\n  "box_radius": 5.0,\n'
        '  "max_ratio": 1.611735699960128,\n'
        '  "min_ratio": 1.4643952204884954,\n  "samples": 300,\n'
        '  "seed": 4,\n  "within_bound": true\n}\n',
        "1.58113883008",
    ),
}


@pytest.mark.parametrize("kind", sorted(PROBE_GOLDEN))
def test_map_commands_golden(files, kind):
    doc, report, ratio = PROBE_GOLDEN[kind]
    map_path = files["dir"] / f"{kind}.json"
    map_path.write_text(json.dumps(doc))
    out_json = str(files["dir"] / f"{kind}-verify.json")
    rc, _, err = run_cli(
        "qsmap-verify", "--map", str(map_path), "--matrix", files["j2"],
        "--samples", "300", "--seed", "4", "--out", out_json,
    )
    assert rc == 0, err
    assert open(out_json).read() == report
    rc, out, _ = run_cli("conformal-probe", "--map", str(map_path),
                         "--t=-1,-4,-8")
    assert rc == 0
    assert out == "".join(f"t = {t}: ratio = {ratio}\n"
                          for t in (-1, -4, -8)) + f"final ratio = {ratio}\n"


def test_conformal_probe_outside_the_float_range_exits_four(files):
    # t = 710 used to end in an OverflowError traceback
    for t in ("710", "-744"):
        rc, out, err = run_cli("conformal-probe", "--map", files["shear1"],
                               f"--t=-4,{t}")
        assert rc == 4 and out == ""
        assert f"t = {float(t)!r}" in err and "Traceback" not in err


def test_qsmap_verify_zero_samples_exits_one(files):
    # --samples 0 used to print numpy's "zero-size array to reduction
    # operation minimum"
    rc, _, err = run_cli("qsmap-verify", "--map", files["shear1"],
                         "--matrix", files["j2"], "--samples", "0",
                         "--out", str(files["dir"] / "v.json"))
    assert rc == 1
    assert "samples must be at least 1" in err


@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_qsmap_verify_bad_box_radius_exits_one(files, radius):
    # nan and inf used to end in a traceback, 0 and -1 in numpy's messages
    rc, _, err = run_cli("qsmap-verify", "--map", files["shear1"],
                         "--matrix", files["j2"], f"--box-radius={radius}",
                         "--out", str(files["dir"] / "v.json"))
    assert rc == 1 and "Traceback" not in err
    assert err == ("error: box_radius must be finite and positive, not "
                   f"{float(radius)!r}\n")


def test_overflow_sized_matrix_exits_four(files):
    # used to print five RuntimeWarnings and "error: SVD did not converge"
    big = files["dir"] / "big.json"
    big.write_text(json.dumps({"rows": [[1e308, 1.0], [0.0, 1e308]]}))
    for argv in (("rpjf", str(big)), ("classify", files["j2"], str(big))):
        rc, out, err = run_cli(*argv)
        assert rc == 4 and out == ""
        assert err == ("solver failure: matrix entries must be at most "
                       "1e+150 in absolute value, not 1e+308\n")


def test_unknown_flag_exits_one(files):
    rc, _, _ = run_cli("dist", "--nope", "1")
    assert rc == 1


MALFORMED_MAPS = {  # document -> the message after "error: "
    '{"kind": "jordan_family", "n": 2}':
        "jordan_family map: missing field 'a'",
    '[{"kind": "shear", "n": 2, "C": {"knots": [[0.0, 0.0]]}}]':
        "a map is a JSON object, not list",
    '{"kind": "shear", "n": 2, "C": 5}': "malformed shear map: ",
    '{"kind": "shear", "n": 2, "C": {"knots": 5}}': "malformed shear map: ",
    '{"kind": "composition", "maps": 5}': "malformed composition map: ",
    # a dimension must be an integer, not be cut to one
    '{"kind": "shear", "n": 2.7, "C": {"knots": [[0.0, 0.0], [1.0, 1.0]]}}':
        "malformed shear map: ",
}


def test_malformed_map_file_exits_one(files, tmp_path):
    # an uncaught exception exits 1 too: the message must be the CLI's
    bad = tmp_path / "bad_map.json"
    for doc, message in MALFORMED_MAPS.items():
        bad.write_text(doc)
        for args in (["qsmap-verify", "--matrix", files["j2"],
                      "--out", str(tmp_path / "v.json")],
                     ["conformal-probe", "--t=-1"]):
            rc, out, err = run_cli(*args, "--map", str(bad))
            assert rc == 1 and out == "", (doc, args[0], err)
            assert err.startswith("error: " + message), err
            assert "Traceback" not in err, err
