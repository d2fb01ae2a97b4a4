"""Tests of the benchmark itself: every correctness check fails on a
deliberately corrupted output, the smoke mode runs every workload, the
traced run's counts repeat, and BENCHMARK.json matches the code.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import layertrace  # noqa: E402
import pipeline as pl  # noqa: E402
import run  # noqa: E402
from polyrefine import cnn, metrics, raster, vem  # noqa: E402
from polyrefine.mesh import PolyMesh, generate_triangle_grid, generate_voronoi_grid, refine_mesh  # noqa: E402

WORKLOADS = pl.WORKLOADS


@pytest.fixture(scope="module")
def mp_mesh():
    grid = generate_voronoi_grid(9, seed=0)
    return refine_mesh(grid, range(grid.n_elements), "mp")


def fails(fn, *args, **kwargs) -> str:
    with pytest.raises(checks.CheckError) as info:
        fn(*args, **kwargs)
    return str(info.value)


# ---------------------------------------------------------------------------
# each check on a clean and a corrupted output
# ---------------------------------------------------------------------------

def test_mesh_check_dropped_element(mp_mesh):
    checks.check_unit_square_mesh(mp_mesh.vertices, mp_mesh.elements)
    fails(checks.check_unit_square_mesh, mp_mesh.vertices, mp_mesh.elements[1:])


def test_mesh_check_shifted_boundary_vertex(mp_mesh):
    v = mp_mesh.vertices.copy()
    k = int(np.argmin(v[:, 0] + np.abs(v[:, 1] - 0.5)))  # a vertex on x = 0
    assert v[k, 0] == 0.0
    v[k, 0] = -1e-3
    fails(checks.check_unit_square_mesh, v, mp_mesh.elements)


def test_mesh_check_area_preserving_corruptions():
    """Corruptions that keep the area 1, caught by the topology checks."""
    tri = generate_triangle_grid(4)
    # element 0 given its own copy of a vertex: a crack that keeps V - E + F
    v = np.vstack([tri.vertices, tri.vertices[tri.elements[0][1]]])
    loops = copy.deepcopy(tri.elements)
    loops[0][1] = len(v) - 1
    assert "off the square's boundary" in fails(checks.check_unit_square_mesh, v, loops)
    # an unused vertex
    v = np.vstack([tri.vertices, [[0.5, 0.5]]])
    assert "V - E + F" in fails(checks.check_unit_square_mesh, v, tri.elements)
    # element 5 (all edges shared) replaced by a second copy of element 0
    loops = tri.elements[:5] + tri.elements[6:] + [tri.elements[0]]
    assert "more than two" in fails(checks.check_unit_square_mesh, tri.vertices, loops)


def test_stub_count_and_apr_checks():
    checks.check_stub_count(128, 1)
    fails(checks.check_stub_count, 127, 1)
    checks.check_cnn_beats_mp("voronoi", 0.5, {"cnn-rp": 0.6})
    fails(checks.check_cnn_beats_mp, "voronoi", 0.6, {"cnn-rp": 0.5})


def test_raster_check_flipped_pixel():
    rng = np.random.default_rng(3)
    poly = cnn.perturbed_polygon(5, rng)
    px = raster.rasterize(poly).pixels.copy()
    checks.check_raster(poly.coords, px)
    _, dist = checks.scanline_fill(poly.coords)
    i, j = np.unravel_index(int(np.argmax(dist)), dist.shape)  # deepest pixel
    px[i, j] ^= 1
    fails(checks.check_raster, poly.coords, px)
    fails(checks.check_same_raster, px, raster.rasterize(poly).pixels, "moved")


def test_label_checks_flipped_label():
    labels = [3, 4, 5, 6] * 10
    checks.check_labels_equal(labels, list(labels), "x")
    flipped = list(labels)
    flipped[7] = 3
    fails(checks.check_labels_equal, labels, flipped, "x")
    fails(checks.check_all_label, [3, 3, 4], 3, "triangles")
    checks.check_accuracy(labels, labels, 0.5, "x")
    fails(checks.check_accuracy, [3] * 40, labels, 0.5, "x")
    # the committed classifier is held to its own floor, not to twice chance
    weak = [3 if i % 20 < 9 else label for i, label in enumerate(labels)]  # 70% right
    checks.check_accuracy(weak, labels, pl.accuracy_floor(4), "x")
    fails(checks.check_accuracy, weak, labels, pl.COMMITTED_FLOOR, "committed")


def test_loss_check():
    checks.check_loss_falls([1.4, 0.9, 0.6])
    fails(checks.check_loss_falls, [0.6, 0.9, 1.4])
    fails(checks.check_loss_falls, [1.0])


def _solved(mesh, case):
    system = vem.assemble(mesh, case)
    return system, vem.solve(system)


def _residual(system, u):
    A = system.matrix.tocsr()
    return checks.check_residual(A.indptr, A.indices, A.data, system.rhs, system.dirichlet_index, u, "t")


def test_solution_checks_perturbed_solution(mp_mesh):
    system, u = _solved(mp_mesh, vem.sine_case())
    _residual(system, u)
    bad = u.copy()
    interior = np.setdiff1d(np.arange(len(u)), system.dirichlet_index)
    bad[interior[0]] += 1e-4
    fails(_residual, system, bad)
    patch = vem.linear_case(*pl.PATCH)
    system, u = _solved(mp_mesh, patch)
    checks.check_patch(mp_mesh.vertices, u, pl.PATCH, "t")
    u[interior[0]] += 1e-6
    fails(checks.check_patch, mp_mesh.vertices, u, pl.PATCH, "t")


def test_residual_check_on_cg_path():
    """A mesh above vem._DIRECT_SOLVE_LIMIT interior DoFs is solved by CG;
    the independent residual accepts it and rejects a perturbed solution."""
    n = 72
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([(x, y) for y in xs for x in xs])
    vid = lambda i, j: j * (n + 1) + i  # noqa: E731
    quads = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)] for j in range(n) for i in range(n)]
    mesh = PolyMesh(verts, quads)
    system, u = _solved(mesh, vem.boundary_layer_case())
    assert system.n_dofs - len(system.dirichlet_index) > vem._DIRECT_SOLVE_LIMIT
    _residual(system, u)
    interior = np.setdiff1d(np.arange(len(u)), system.dirichlet_index)
    u[interior[len(interior) // 2]] += 1e-3
    fails(_residual, system, u)


def test_target_step_check():
    errors = [0.84, 0.33]
    checks.check_target_step(errors, 1, 0.5, "s")
    fails(checks.check_target_step, errors, 1, 0.2, "s")  # not reached
    fails(checks.check_target_step, [0.84, 0.40, 0.33], 2, 0.5, "s")  # reached earlier
    fails(checks.check_target_step, [0.84, 0.497], 1, 0.5, "s")  # within 1%


def test_quality_checks():
    tri = generate_triangle_grid(4)
    rep = metrics.quality_report(tri.polygons())
    checks.check_unit_interval(rep.values, "q")
    checks.check_right_isosceles(rep.values)
    bad = dict(rep.values, CR=rep.values["CR"] + 0.01)
    fails(checks.check_right_isosceles, bad)
    bad = dict(rep.values, ER=np.where(np.arange(tri.n_elements) == 3, 1.5, rep.values["ER"]))
    fails(checks.check_unit_interval, bad, "q")
    fails(checks.check_right_isosceles, dict(rep.values, MA=rep.values["MA"] * (1 + 1e-9)))


# ---------------------------------------------------------------------------
# the checks wired into a pipeline catch a corrupted stage output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def training_round():
    net = pl.load_classifier()
    pipe = pl.build("training", 5, net)
    return pipe, run.run_round(pipe.stages)


def _corrupt(metric: str, out):
    """A copy of a stage's item outputs with the first item's corrupted."""
    out = copy.copy(out)
    if metric == "dataset_images_per_s":
        data = list(out[0])
        data[0] = dataclasses.replace(data[0], image=raster.BinaryImage(1 - data[0].image.pixels))
        out[0] = data
    elif metric == "train_images_per_s":
        net, history = out[0]
        out[0] = (net, dict(history, train_loss=history["train_loss"][::-1]))
    elif metric == "classify_elements_per_s":
        out[0] = [3 if label != 3 else 4 for label in out[0]]
    elif metric.startswith("refine_"):
        m = out[0]
        out[0] = PolyMesh(m.vertices, m.elements[1:], validate=False)
    elif metric == "study_s":
        rec = out[0]
        out[0] = dataclasses.replace(rec, errors=[e * 3.0 for e in rec.errors])
    elif metric == "vem_dofs_per_s":
        system, u, err = out[0]
        bad = u.copy()
        bad[np.setdiff1d(np.arange(len(u)), system.dirichlet_index)[0]] += 1e-3
        out[0] = (system, bad, err)
    elif metric == "quality_elements_per_s":
        rep = out[0]
        out[0] = dataclasses.replace(rep, values=dict(rep.values, NPD=rep.values["NPD"] + 1.0))
    return out


def test_pipeline_checks_pass_on_clean_round(training_round):
    pipe, outputs = training_round
    pipe.check(outputs)


@pytest.mark.parametrize(
    "metric",
    [
        "dataset_images_per_s",
        "train_images_per_s",
        "classify_elements_per_s",
        "refine_mp_elements_per_s",
        "refine_cnn_elements_per_s",
        "study_s",
        "vem_dofs_per_s",
        "quality_elements_per_s",
    ],
)
def test_pipeline_check_fails_on_corrupted_stage(training_round, metric):
    pipe, outputs = training_round
    fails(pipe.check, dict(outputs, **{metric: _corrupt(metric, outputs[metric])}))


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    """--seconds 0: one round of every stage and every check."""
    proc, lines = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 8
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc, lines = _run(ROOT, "--workload", workload, "--seed", "3", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(lines[-1])["metrics"])
    assert set(results[0]) == set(layertrace.PER_LAYER) | {"trace.overhead_pct"}
    for name, (unit, kind, _) in layertrace.PER_LAYER.items():
        if kind in ("calls", "count"):
            assert results[0][name]["value"] == results[1][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run(tmp_path, "--workload", "uniform", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_manifest_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (unit, _, _) in layertrace.PER_LAYER.items()}
    layer_units["trace.overhead_pct"] = "%"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    budget = (4 + 22 * len(WORKLOADS)) * (spec["run_seconds"] + 12)
    assert budget < 3420, budget
