"""Outside-in layer trace: wraps public functions of polyrefine's modules.

While installed, every wrapped call records a span (name, start, end,
parent) and, for some layers, a count taken from its arguments or result.
Spans stay in memory; `per_layer` reduces them to the benchmark's per-layer
metrics. A layer's self time is its span's duration minus the time its
direct child spans cover (children never overlap: one thread).
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from polyrefine import cnn, geometry, metrics, raster, refine, vem
from polyrefine import mesh as pmesh

_train_module = sys.modules["polyrefine.cnn.train"]  # cnn.train is the function


def _images(args, kwargs, result):
    return {"cnn.forward.images": args[1].shape[0]}


def _epochs(args, kwargs, result):
    return {"cnn.train.epochs": len(result["epoch"])}


def _fallbacks(args, kwargs, result):
    return {"refine.fallback.count": result[1].strategy_counts.get("fallback-bisect", 0)}


def _interior(args, kwargs, result):
    system = args[0]
    return {"vem.solve.interior_dofs": system.n_dofs - len(system.dirichlet_index)}


# (span name, owner, attribute, counter); functions are replaced wherever a
# polyrefine module holds them, methods on their class.
TARGETS = (
    ("geometry.polygon", geometry.Polygon, "__init__", None),
    ("geometry.inscribed_radius", geometry, "inscribed_radius", None),
    ("raster.rasterize", raster, "rasterize", None),
    ("cnn.data.perturbed_polygon", sys.modules["polyrefine.cnn.data"], "perturbed_polygon", None),
    ("cnn.forward", cnn.Network, "forward_logits", _images),
    ("cnn.backward", cnn.Network, "backward_from_logits", None),
    ("cnn.train", _train_module, "train", _epochs),
    ("cnn.train.adam", _train_module, "adam_step", None),
    ("cnn.train.refresh_norm", cnn.Network, "refresh_norm_stats", None),
    ("refine.refine_element", refine, "refine_element", None),
    ("refine.validate_partition", refine, "validate_partition", None),
    ("mesh.refine_pass", pmesh, "refine_mesh_report", _fallbacks),
    ("mesh.validate", pmesh.PolyMesh, "validate", None),
    ("mesh.total_area", pmesh.PolyMesh, "total_area", None),
    ("vem.assemble", vem, "assemble", None),
    ("vem.solve", vem, "solve", _interior),
    ("vem.local_errors", vem, "local_errors", None),
    ("metrics.quality_report", metrics, "quality_report", None),
)

# per-layer metric -> (unit, kind, span or counter name)
PER_LAYER = {
    "geometry.polygon.calls": ("count", "calls", "geometry.polygon"),
    "geometry.polygon.s": ("s", "total", "geometry.polygon"),
    "raster.rasterize.calls": ("count", "calls", "raster.rasterize"),
    "raster.rasterize.s": ("s", "total", "raster.rasterize"),
    "cnn.data.perturbed_polygon.s": ("s", "total", "cnn.data.perturbed_polygon"),
    "cnn.forward.calls": ("count", "calls", "cnn.forward"),
    "cnn.forward.images": ("images", "count", "cnn.forward.images"),
    "cnn.forward.s": ("s", "total", "cnn.forward"),
    "cnn.backward.s": ("s", "total", "cnn.backward"),
    "cnn.train.epochs": ("count", "count", "cnn.train.epochs"),
    "cnn.train.adam_s": ("s", "total", "cnn.train.adam"),
    "cnn.train.refresh_norm_s": ("s", "total", "cnn.train.refresh_norm"),
    "refine.refine_element.calls": ("count", "calls", "refine.refine_element"),
    "refine.refine_element.self_s": ("s", "self", "refine.refine_element"),
    "refine.validate_partition.calls": ("count", "calls", "refine.validate_partition"),
    "refine.validate_partition.s": ("s", "total", "refine.validate_partition"),
    "refine.fallback.count": ("count", "count", "refine.fallback.count"),
    "mesh.refine_pass.calls": ("count", "calls", "mesh.refine_pass"),
    "mesh.refine_pass.self_s": ("s", "self", "mesh.refine_pass"),
    "mesh.validate.s": ("s", "total", "mesh.validate"),
    "mesh.total_area.s": ("s", "total", "mesh.total_area"),
    "vem.assemble.s": ("s", "total", "vem.assemble"),
    "vem.solve.s": ("s", "total", "vem.solve"),
    "vem.solve.interior_dofs": ("DoFs", "count", "vem.solve.interior_dofs"),
    "vem.local_errors.s": ("s", "total", "vem.local_errors"),
    "metrics.quality_report.s": ("s", "total", "metrics.quality_report"),
    "geometry.inscribed_radius.calls": ("count", "calls", "geometry.inscribed_radius"),
    "geometry.inscribed_radius.s": ("s", "total", "geometry.inscribed_radius"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, original, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[key] += n
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("polyrefine") and m is not None]
        for name, owner, attr, counter in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_layer(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        source = {"calls": calls, "total": total, "self": own, "count": self.counts}
        return {metric: source[kind].get(key, 0) for metric, (_, kind, key) in PER_LAYER.items()}

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
