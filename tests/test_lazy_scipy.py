"""The package never loads scipy.  Canonical spaces with several
eigenvalues, or whose g may rise (and so march on the closed-form g),
the map bounds, which share the metric's bracket-and-refine, and the
general D_A path and mat_exp of a non-canonical matrix, which take the
numpy real Schur form, all run on numpy alone.  Each check runs in a
fresh interpreter, since the test session itself imports scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import heintze

SRC = str(Path(heintze.__file__).resolve().parents[1])


def run_python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_canonical_workflows_never_load_scipy(tmp_path):
    out = run_python("""
        import math, sys

        def check(step):
            assert "scipy" not in sys.modules, step
            print(step)

        import numpy as np
        import heintze as h
        check("import")
        j2, j3 = h.jordan_block(1.0, 2), h.jordan_block(1.0, 3)
        box = np.array([[0.0] * 3, [1.0] * 3])
        assert h.count_cells(h.PackingSpec(j3, -2.0, box)) > 0
        check("count_cells")
        space = h.BoundarySpace(j3)
        assert h.dist(space, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) > 0
        check("dist")

        def block_sum(*blocks):
            n = sum(len(b) for b in blocks)
            a, i = np.zeros((n, n)), 0
            for b in blocks:
                a[i:i + len(b), i:i + len(b)] = b
                i += len(b)
            return a

        rng = np.random.default_rng(0)
        for a in (block_sum([[2.0]], j2), h.jordan_block(0.3, 2),
                  block_sum(h.jordan_block(0.45, 3), [[0.45]])):
            x, y = rng.uniform(-3.0, 3.0, (2, 50, len(a)))
            assert (h.dist_pairs(h.BoundarySpace(a), x, y) > 0).all()
        check("dist on several eigenvalues and a rising g")
        shear = h.Shear(2, h.PiecewiseLinear(((0.0, 0.0), (1.0, 0.5))))
        rep = h.distortion_profile(shear, h.BoundarySpace(j2), np.zeros(2),
                                   [1.0, 0.5], samples_per_radius=20)
        assert all(math.isfinite(r.sup_ratio) for r in rep.rows)
        check("distortion_profile")
        family = h.JordanFamilyMap(3, (1.5, -0.5), (0.1, 0.0, -0.2),
                                   h.PiecewiseLinear(((0.0, 0.0), (1.0, 0.5))))
        assert h.jordan_family_bound(family) > 1.0
        assert h.poly_bilip_bound(3, (-1.7, 0.3, 1.1)) > 1.0
        check("bounds")
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        rotated = rot @ j2 @ rot.T
        assert h.dist(h.BoundarySpace(rotated), [0.0, 0.0], [1.0, 2.0]) > 0
        check("general")
        assert math.isfinite(h.mat_exp(rotated, -1.5).sum())
        check("mat_exp")
    """, tmp_path)
    assert out.splitlines() == [
        "import", "count_cells", "dist",
        "dist on several eigenvalues and a rising g", "distortion_profile",
        "bounds", "general", "mat_exp"]


def test_exact_taylor_terms_load_neither_fractions_nor_decimal(tmp_path):
    # past 170! the terms t^k / k! are integer quotients: no import pays
    # for them at set-up
    out = run_python("""
        import sys

        def check(step):
            assert "fractions" not in sys.modules, step
            assert "decimal" not in sys.modules, step
            print(step)

        import heintze as h
        check("import")
        assert h.nilpotent_exp(200, 7.5)[0, 199] > 0.0
        check("nilpotent_exp")
        assert h.shear_bilip_bound(172, 1.0) > 1.0
        check("bound")
    """, tmp_path)
    assert out.splitlines() == ["import", "nilpotent_exp", "bound"]


def test_cli_rpjf_on_a_canonical_matrix_never_loads_scipy(tmp_path):
    heintze.save_matrix(tmp_path / "j3.json", heintze.jordan_block(1.0, 3))
    out = run_python("""
        import runpy, sys

        sys.argv = ["heintze", "rpjf", "j3.json"]
        try:
            runpy.run_module("heintze.cli", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
        assert "scipy" not in sys.modules
    """, tmp_path)
    assert out.strip()
