"""The benchmark's layer trace wraps polyrefine functions and methods by
name: renaming one (`PolyMesh.validate`, `PolyMesh.total_area`,
`refine_mesh_report`, ...) must fail here, not in a later traced benchmark
run."""
import importlib.util
from pathlib import Path

from polyrefine import mesh

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_layer_trace_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layertrace", _PATH)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    validate = mesh.PolyMesh.validate
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert mesh.PolyMesh.validate is not validate
        mesh.generate_triangle_grid(1)
        assert tracer.per_layer()["geometry.polygon.calls"] == 2
    finally:
        tracer.uninstall()
    assert mesh.PolyMesh.validate is validate
