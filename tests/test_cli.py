import hashlib

import numpy as np
import pytest

from polyrefine import cli, cnn
from polyrefine.mesh import PolyMesh, load_mesh, save_mesh


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A quickly trained model just to exercise the cnn-* command paths."""
    path = tmp_path_factory.mktemp("model") / "model.bin"
    data = cnn.generate_dataset(4, 60, seed=5)
    train, val, _ = cnn.split_dataset(data, seed=5)
    net = cnn.Network(4, seed=5)
    cnn.train(net, train, val, cnn.TrainConfig(seed=5, max_epochs=2))
    cnn.save_model(net, path)
    return path


def test_gen_mesh_and_quality(tmp_path):
    out = tmp_path / "out"
    assert run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0) == 0
    mesh = load_mesh(out / "mesh.txt")
    assert mesh.n_elements == 32
    assert (out / "mesh.svg").exists()
    assert run("quality", "--mesh", out / "mesh.txt", "--out-dir", out) == 0
    lines = (out / "quality.csv").read_text().splitlines()
    assert lines[0] == "element,UF,CR,APR,MA,ER,NPD"
    assert len(lines) == 33
    assert (out / "quality_hist.svg").read_text().startswith("<svg")


def test_refine_mp_roundtrip(tmp_path):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "nonconvex", "--out-dir", out, "--seed", 0)
    assert (
        run(
            "refine", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--steps", 1, "--out-dir", out,
        )
        == 0
    )
    refined = load_mesh(out / "mesh_refined.txt")
    assert refined.n_elements > 14
    assert refined.total_area() == pytest.approx(1.0, rel=1e-8)


def test_refine_prints_one_line_per_step(tmp_path, capsys):
    """Each step reports the element counts, the elements refined by the
    strategy and by fallback bisection, and the pass's dependency levels."""
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "nonconvex", "--out-dir", out)
    capsys.readouterr()
    assert run("refine", "--mesh", out / "mesh.txt", "--strategy", "mp", "--steps", 2, "--out-dir", out) == 0
    assert capsys.readouterr().out.splitlines() == [
        "step 1: 14 -> 98 elements (mp 12, fallback-bisect 2), 8 levels",
        "step 2: 98 -> 605 elements (mp 90, fallback-bisect 8), 51 levels",
        "refined mesh: 605 elements",
    ]
    assert run("refine", "--mesh", out / "mesh.txt", "--strategy", "mp", "--fraction", 0.2, "--out-dir", out) == 0
    assert capsys.readouterr().out.splitlines()[0] == "step 1: 14 -> 34 elements (mp 3, fallback-bisect 0), 3 levels"


def test_refine_requires_model_for_cnn(tmp_path):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0)
    code = run(
        "refine", "--mesh", out / "mesh.txt", "--strategy", "cnn-rp",
        "--steps", 1, "--out-dir", out,
    )
    assert code == 1


def test_refine_with_model_and_classify(tmp_path, tiny_model):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0)
    assert (
        run(
            "refine", "--mesh", out / "mesh.txt", "--strategy", "cnn-rp",
            "--model", tiny_model, "--steps", 1, "--out-dir", out,
        )
        == 0
    )
    refined = load_mesh(out / "mesh_refined.txt")
    assert refined.total_area() == pytest.approx(1.0, rel=1e-8)
    assert (
        run("classify", "--mesh", out / "mesh.txt", "--model", tiny_model, "--out-dir", out)
        == 0
    )
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[0] == "element,label"
    assert len(lines) == 33
    labels = {int(l.split(",")[1]) for l in lines[1:]}
    assert labels <= {3, 4, 5, 6}


def test_gen_dataset_and_train(tmp_path):
    out = tmp_path / "out"
    assert (
        run("gen-dataset", "--classes", 4, "--per-class", 3, "--seed", 2, "--out-dir", out)
        == 0
    )
    files = sorted((out / "dataset").glob("*.pgm"))
    assert len(files) == 12
    assert (
        run(
            "train", "--dataset-dir", out / "dataset", "--epochs", 1,
            "--batch-size", 4, "--seed", 2, "--out-dir", out,
        )
        == 0
    )
    assert (out / "model.bin").exists()
    assert (out / "history.csv").read_text().startswith("epoch,")
    assert (out / "confusion.csv").exists()


def test_study_sine(tmp_path):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0)
    assert (
        run(
            "study", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--steps", 1, "--case", "sine", "--out-dir", out,
        )
        == 0
    )
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "step,dofs,h,error"
    assert len(lines) == 3
    assert (out / "convergence.svg").read_text().startswith("<svg")


def test_byte_identical_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run("gen-mesh", "--grid", "voronoi", "--out-dir", out, "--seed", 4)
        run("quality", "--mesh", out / "mesh.txt", "--out-dir", out)
        run(
            "study", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--steps", 1, "--case", "layer", "--out-dir", out,
        )
    for name in ("mesh.txt", "quality.csv", "convergence.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cli_error_exits(tmp_path):
    assert run("quality", "--mesh", tmp_path / "missing.txt", "--out-dir", tmp_path) == 1
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0)
    assert (
        run(
            "study", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--fraction", "1.5", "--out-dir", out,
        )
        == 1
    )
    assert (
        run(
            "refine", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--steps", 0, "--out-dir", out,
        )
        == 1
    )


@pytest.mark.parametrize("command", ["refine", "study"])
def test_cli_rejects_rho_outside_the_unit_interval(tmp_path, capsys, command):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "smoothed", "--out-dir", out, "--seed", 0)
    capsys.readouterr()
    args = [command, "--mesh", out / "mesh.txt", "--strategy", "mp", "--rho", 1.5]
    assert run(*args, "--steps", 1, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err == "error: rho must lie strictly between 0 and 1, got 1.5\n"


def test_mp_three_passes_element_count_band(tmp_path):
    """Midpoint refinement of the 32-triangle grid for three uniform passes
    lands within +-30% of 6371 elements (propagation order shifts the exact
    count)."""
    out = tmp_path / "out"
    run("gen-mesh", "--grid", "triangles", "--out-dir", out, "--seed", 0)
    assert (
        run(
            "refine", "--mesh", out / "mesh.txt", "--strategy", "mp",
            "--steps", 3, "--out-dir", out,
        )
        == 0
    )
    refined = load_mesh(out / "mesh_refined.txt")
    assert 6371 * 0.7 <= refined.n_elements <= 6371 * 1.3


# SHA-256 of quality.csv, recorded before the grouped quality kernels
QUALITY_GOLDEN = {
    ("nonconvex", 2): "bd51cb2ebbeaf98a1261f1ea1915a48f671c12178d597bf4fb2d2b7bc44b1326",
    ("voronoi", 1): "7655f46b47fa559876faba7554d72bf07f3b4802d78c26fbef0569c46300ad6d",
}


@pytest.mark.parametrize("grid,steps", sorted(QUALITY_GOLDEN))
def test_quality_csv_matches_golden_hash(tmp_path, grid, steps):
    out = tmp_path / "out"
    run("gen-mesh", "--grid", grid, "--out-dir", out, "--seed", 3)
    args = ("--strategy", "mp", "--steps", steps, "--out-dir", out)
    assert run("refine", "--mesh", out / "mesh.txt", *args) == 0
    assert run("quality", "--mesh", out / "mesh_refined.txt", "--out-dir", out, "--seed", 3) == 0
    digest = hashlib.sha256((out / "quality.csv").read_bytes()).hexdigest()
    assert digest == QUALITY_GOLDEN[(grid, steps)]


# SHA-256 of mesh_refined.txt and of the labels.csv of that mesh, with the
# committed classifier; recorded when each element was classified alone
CNN_GOLDEN = {
    ("voronoi", "cnn-rp"): (
        "4ec5dc3ccb0272ab332f18bd16885913e33e3a1d369e84d5f9b7d1f399233731",
        "2b2a57527df777f366b569d1eded3264fee8bff0990bd6e69e43421bc4abbaf9",
    ),
    ("smoothed", "cnn-mp"): (
        "717e68d98aa035c09d04a21a6487ff6e7c5d3c2193fbdc0601eaa585a5b223c2",
        "0103a01b46a2b6ec08c0d2b1243b5911cdb4fdf1a78f5bd2daf0e623f7331745",
    ),
    ("triangles", "cnn-rp"): (
        "73ce3e182efa1088c6374da77c1cc82731c54ff07608d049adefed4b514bd7fb",
        "b30de1c8f04355376b3cb17e33c5b8f612a40d9fab238af7e5bb237d6214dd7f",
    ),
}


@pytest.mark.parametrize("grid,strategy", sorted(CNN_GOLDEN))
def test_cnn_refine_and_classify_match_golden_hashes(tmp_path, grid, strategy):
    from conftest import CLASSIFIER

    out = tmp_path / "out"
    run("gen-mesh", "--grid", grid, "--out-dir", out, "--seed", 3)
    args = ("--strategy", strategy, "--model", CLASSIFIER, "--steps", 2, "--out-dir", out)
    assert run("refine", "--mesh", out / "mesh.txt", *args) == 0
    assert run("classify", "--mesh", out / "mesh_refined.txt", "--model", CLASSIFIER, "--out-dir", out) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("mesh_refined.txt", "labels.csv"))
    assert digests == CNN_GOLDEN[(grid, strategy)]


def test_classify_of_an_empty_mesh_writes_the_header(tmp_path):
    from conftest import CLASSIFIER

    save_mesh(PolyMesh(np.zeros((0, 2)), []), tmp_path / "empty.txt")
    assert run("classify", "--mesh", tmp_path / "empty.txt", "--model", CLASSIFIER, "--out-dir", tmp_path) == 0
    assert (tmp_path / "labels.csv").read_bytes() == b"element,label\r\n"


def test_quality_of_an_empty_mesh_is_a_one_line_error(tmp_path, capsys):
    save_mesh(PolyMesh(np.zeros((0, 2)), []), tmp_path / "empty.txt")
    assert load_mesh(tmp_path / "empty.txt").n_elements == 0
    assert run("quality", "--mesh", tmp_path / "empty.txt", "--out-dir", tmp_path) == 1
    assert capsys.readouterr().err == "error: quality report: the mesh has no elements\n"
    assert not (tmp_path / "quality.csv").exists()
