"""Golden hashes of refined meshes: refactors must keep the output bytes.

Two uniform passes on each initial grid with each strategy, and three
adaptive passes (the 30% largest diameters) on three grids, written by
`save_mesh` and hashed. The adaptive passes leave hanging nodes in
unrefined neighbours from one pass to the next. The CNN strategies use the geometric stand-in
classifier `corner_label`, so the hashes do not depend on a trained model.
The strategy counts of the passes are checked first, so a mismatch
names the branch that moved. Every pass output must also pass the full
`PolyMesh.validate` and keep its input's total area: a pass itself checks
only conformity.
"""
import hashlib
from collections import Counter

import pytest

from polyrefine.geometry import diameter
from polyrefine.mesh import GRID_GENERATORS, mark_fixed_fraction, refine_mesh_report, save_mesh
from polyrefine.refine import corner_label

GOLDEN = {
    ("triangles", "mp"): "1b65f76b7bed59c698f1f8d9ae02fed48dd9bbceadc6438e0fbdd0680315be62",
    ("triangles", "cnn-rp"): "73ce3e182efa1088c6374da77c1cc82731c54ff07608d049adefed4b514bd7fb",
    ("triangles", "cnn-mp"): "4a682aa5a6d8c0a1212bac0f6f8902e032e80e2aaafa04b319100b5cfd15c2d9",
    ("voronoi", "mp"): "af4664b54f03672c96500d48c3ecf3d2ed58c1e742123d1bbc53bd2933c9536f",
    ("voronoi", "cnn-rp"): "3e148cc2d7ee25daaccc37f2f4f3ceb7e7799468125c8b1c3210ae7e5b727cd3",
    ("voronoi", "cnn-mp"): "a6a0d418924a8ae8abd390c8d1b248dee12bcaa35f624af4c80927c061603531",
    ("smoothed", "mp"): "7c7436cf8c8f71d16cac4f2185b934dc1107c54fb7289be2f4103668c4c41b65",
    ("smoothed", "cnn-rp"): "948e014b8cbaf94fe1a3431c4828d46003ada755aff4fb3fb8eefd353a5241dd",
    ("smoothed", "cnn-mp"): "3b85a5a3d040333e7ac07015b5e53c027400d2d9f7f43aacb0db037d43132249",
    ("nonconvex", "mp"): "e501fbb98ef6bcc758c6ee4c85403b2e40add10d28298537153fd940d12bbd86",
    ("nonconvex", "cnn-rp"): "61119248a34dd1764c29b82812d87b88b67e2b14344e4e2a95ff8627f50c1d22",
    ("nonconvex", "cnn-mp"): "bd718bfec1f41660cd1fc859b1c4356e56f1056bf60cf0e1b395520bea732fd7",
}

COUNTS = {
    ("triangles", "mp"): {"mp": 168},
    ("triangles", "cnn-rp"): {"cnn-rp": 160},
    ("triangles", "cnn-mp"): {"cnn-mp": 128},
    ("voronoi", "mp"): {"mp": 73},
    ("voronoi", "cnn-rp"): {"cnn-rp": 61},
    ("voronoi", "cnn-mp"): {"cnn-mp": 54},
    ("smoothed", "mp"): {"mp": 79},
    ("smoothed", "cnn-rp"): {"cnn-rp": 68},
    ("smoothed", "cnn-mp"): {"cnn-mp": 60},
    ("nonconvex", "mp"): {"mp": 102, "fallback-bisect": 10},
    ("nonconvex", "cnn-rp"): {"cnn-rp": 67, "fallback-bisect": 15},
    ("nonconvex", "cnn-mp"): {"cnn-mp": 79, "fallback-bisect": 7},
}


ADAPTIVE_GOLDEN = {
    ("triangles", "mp"): "aab271a9b9805f0c01b6d32dcc7d4ddf3c21883c14ecc86fbbe50572293dfbe9",
    ("triangles", "cnn-rp"): "a1d8154d3d743eff2366acb36e188f548d04eaf5581e9f5299ce6cfd4168009e",
    ("triangles", "cnn-mp"): "8ef9e8e4ba5c5c53476ea250c87fa5187bbc775beaa83b1b8a60bd17e301a6f4",
    ("voronoi", "mp"): "ab2b0c91f4940f76ae4ac002d44668bf78c4f51b48fcff0f2aaec34833adbbc8",
    ("voronoi", "cnn-rp"): "8f6321baf13fbcfeff52ee80f5c3bb91266997e7d88dbead8fe45a67ae3e526f",
    ("voronoi", "cnn-mp"): "5a90afb16c014351588c07d00b1b39ef810689112987d91d3fb89e4726851619",
    ("nonconvex", "mp"): "585cd0b5ba9c64c3523c837dc4209f59550214b963ec6750208eccd5ab385f12",
    ("nonconvex", "cnn-rp"): "87fbdc8c1778e318c211982c3741637a48bbc1110df3c78047a977269f221fe3",
    ("nonconvex", "cnn-mp"): "44db61e585fd09e306ac3060de65f06db08c8b2bd77560e76eb8c982f31d78e2",
}

ADAPTIVE_COUNTS = {
    ("triangles", "mp"): {"mp": 67},
    ("triangles", "cnn-rp"): {"cnn-rp": 65},
    ("triangles", "cnn-mp"): {"cnn-mp": 52},
    ("voronoi", "mp"): {"mp": 33},
    ("voronoi", "cnn-rp"): {"cnn-rp": 30},
    ("voronoi", "cnn-mp"): {"cnn-mp": 25},
    ("nonconvex", "mp"): {"mp": 51, "fallback-bisect": 2},
    ("nonconvex", "cnn-rp"): {"cnn-rp": 31, "fallback-bisect": 8},
    ("nonconvex", "cnn-mp"): {"cnn-mp": 38, "fallback-bisect": 2},
}


def _checked_pass(m, marks, strategy):
    new, report = refine_mesh_report(m, marks, strategy, corner_label)
    new.validate()
    assert new.total_area() == pytest.approx(m.total_area(), rel=1e-10, abs=0)
    return new, report


def _sha256_of_saved(m, tmp_path) -> str:
    path = tmp_path / "mesh_refined.txt"
    save_mesh(m, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("grid,strategy", sorted(GOLDEN))
def test_two_uniform_passes_match_golden_hash(tmp_path, grid, strategy):
    m = GRID_GENERATORS[grid]()
    counts = Counter()
    for _ in range(2):
        m, report = _checked_pass(m, range(m.n_elements), strategy)
        counts.update(report.strategy_counts)
    assert dict(counts) == COUNTS[(grid, strategy)]
    assert _sha256_of_saved(m, tmp_path) == GOLDEN[(grid, strategy)]


@pytest.mark.parametrize("grid,strategy", sorted(ADAPTIVE_GOLDEN))
def test_three_adaptive_passes_match_golden_hash(tmp_path, grid, strategy):
    m = GRID_GENERATORS[grid]()
    counts = Counter()
    for _ in range(3):
        marks = mark_fixed_fraction([diameter(p) for p in m.polygons()], 0.3)
        m, report = _checked_pass(m, marks, strategy)
        counts.update(report.strategy_counts)
    assert dict(counts) == ADAPTIVE_COUNTS[(grid, strategy)]
    assert _sha256_of_saved(m, tmp_path) == ADAPTIVE_GOLDEN[(grid, strategy)]
