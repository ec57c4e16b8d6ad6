"""The package never loads scipy, and loads each layer on first use.

Canonical spaces with several eigenvalues, or whose g may rise (and so
march on the closed-form g), the map bounds, which share the metric's
bracket-and-refine, and the general D_A path and mat_exp of a
non-canonical matrix, which take the numpy real Schur form, all run on
numpy alone.  ``import heintze`` loads numpy and ``linalg`` only; each of
``metric``, ``spectral``, ``variation`` and ``maps`` loads on first use
of one of its names, and each CLI subcommand loads only its own layer.
Beyond what ``import numpy`` loads, ``import heintze`` loads neither
``dataclasses`` (its records are NamedTuples) nor ``json``, and neither
a Jordan packing count nor ``heintze qvar`` loads ``numpy.ma`` (the
packing's axis dedup does not call ``np.unique``, which loads it on
numpy 2.4).
Each check runs in a fresh interpreter, since the test session itself
imports scipy and every layer.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import heintze

LAYERS = ("metric", "spectral", "variation", "maps")
SRC = str(Path(heintze.__file__).resolve().parents[1])


def run_python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_layers(code, tmp_path):
    """The layers loaded once ``code`` has run in a fresh interpreter."""
    out = run_python(textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(m for m in {LAYERS!r}
                                if "heintze." + m in sys.modules)))
    """), tmp_path)
    return json.loads(out.splitlines()[-1])


def modules_beyond_numpy(code, tmp_path):
    """The modules loaded once ``code`` has run in a fresh interpreter,
    less those ``import numpy`` loads: a set difference, so that the
    checks below hold where numpy itself loads numpy.ma (numpy 1.x)."""
    out = run_python("import sys\nimport numpy\nbase = set(sys.modules)\n"
                     + textwrap.dedent(code) + textwrap.dedent("""
        extra = sorted(set(sys.modules) - base)
        import json
        print(json.dumps(extra))
    """), tmp_path)
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_neither_dataclasses_nor_json(tmp_path):
    # the linalg records are NamedTuples, and only load_matrix and
    # save_matrix import json
    extra = modules_beyond_numpy("import heintze", tmp_path)
    assert "heintze.linalg" in extra
    assert not extra & {"dataclasses", "json", "numpy.ma"}, extra


@pytest.mark.parametrize("n", [2, 3])
def test_jordan_count_cells_never_loads_numpy_ma(tmp_path, n):
    # np.unique(rows, axis=0) calls np.ma.is_masked on numpy 2.4: the axis
    # dedup of a Jordan packing must not call it
    extra = modules_beyond_numpy(f"""
        import heintze as h
        box = numpy.array([[0.0] * {n}, [1.0] * {n}])
        spec = h.PackingSpec(h.jordan_block(1.0, {n}), -2.0, box)
        assert h.count_cells(spec) == len(h.enumerate_packing(spec)) > 0
    """, tmp_path)
    assert "heintze.variation" in extra
    assert "numpy.ma" not in extra


def test_cli_qvar_on_a_jordan_matrix_never_loads_numpy_ma(tmp_path):
    heintze.save_matrix(tmp_path / "j2.json", heintze.jordan_block(1.0, 2))
    extra = modules_beyond_numpy("""
        import runpy

        sys.argv = ["heintze", "qvar", "--matrix", "j2.json", "--u", "1",
                    "--box=0,1;0,1", "--t=-4:-2:1", "--q", "1",
                    "--out", "q.csv"]
        try:
            runpy.run_module("heintze.cli", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
    """, tmp_path)
    assert "heintze.variation" in extra
    assert "numpy.ma" not in extra


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


def test_import_loads_numpy_and_linalg_and_no_other_layer(tmp_path):
    layers = loaded_layers("""
        import sys

        import heintze
        assert "numpy" in sys.modules and "heintze.linalg" in sys.modules
    """, tmp_path)
    assert layers == []


@pytest.mark.parametrize("name, layer", [("count_cells", "variation"),
                                         ("dist_pairs", "metric")])
def test_first_use_loads_the_owning_layer_only(tmp_path, name, layer):
    layers = loaded_layers(f"""
        import heintze
        f = heintze.{name}
        assert vars(heintze)["{name}"] is f  # later lookups are dict hits
    """, tmp_path)
    assert layers == [layer]


def test_every_public_name_is_its_layers_object(tmp_path):
    layers = loaded_layers("""
        import sys

        import heintze
        names = heintze.__all__
        assert len(set(names)) == len(names)
        assert set(names) <= set(dir(heintze))
        for name in names:
            obj = getattr(heintze, name)
            layer = sys.modules[obj.__module__]
            assert layer.__name__.startswith("heintze."), name
            assert getattr(layer, name) is obj is getattr(heintze, name), name
    """, tmp_path)
    assert layers == sorted(LAYERS)


def test_star_import_binds_every_name_and_unknown_names_raise(tmp_path):
    run_python("""
        import heintze

        ns = {}
        exec("from heintze import *", ns)
        assert heintze.__all__ and all(
            ns[name] is getattr(heintze, name) for name in heintze.__all__)
        for name in ("no_such_name", "_newton", "linalg_"):
            try:
                getattr(heintze, name)
            except AttributeError as exc:
                assert name in str(exc)
            else:
                raise AssertionError(name)
    """, tmp_path)


@pytest.mark.parametrize("argv, layer", [
    (["rpjf", "j3.json"], "spectral"),
    (["dist", "--matrix", "j3.json", "--x", "0,0,0", "--y", "1,2,3"],
     "metric"),
    (["qvar", "--matrix", "j3.json", "--u", "1", "--box=0,1;0,1;0,1",
      "--t=-4:-2:1", "--q", "1", "--out", "q.csv"], "variation"),
], ids=["rpjf", "dist", "qvar"])
def test_cli_subcommand_loads_its_own_layer_only(tmp_path, argv, layer):
    heintze.save_matrix(tmp_path / "j3.json", heintze.jordan_block(1.0, 3))
    layers = loaded_layers(f"""
        import runpy, sys

        sys.argv = ["heintze", *{argv!r}]
        try:
            runpy.run_module("heintze.cli", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
    """, tmp_path)
    assert layers == [layer]
