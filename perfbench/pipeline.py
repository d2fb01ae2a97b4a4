"""The benchmark's workloads: gen-dataset -> train -> classify -> refine ->
study -> quality, each stage a fixed list of jobs on fixed inputs.

`build(workload, seed, net)` does the set-up (grids and the meshes the
stages reuse) and returns a Pipeline. A Stage is a list of items, each one
call into the program; a round runs every item of every stage once. Items
repeat the same job on the same inputs, so every repetition must give the
same output, and `Pipeline.check` verifies the outputs of one round.

The program is reached only through public functions of `polyrefine`,
looked up on their modules at call time so that the tracer can wrap them.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from polyrefine import cnn, geometry, metrics, raster, vem
from polyrefine import mesh as pmesh

MODEL_PATH = Path(__file__).resolve().parent / "model" / "classifier.bin"
WORKLOADS = ("uniform", "adaptive", "training")
FRESH_SAMPLES = 160  # labelled polygons drawn for each accuracy check
ADAPTIVE_FRACTION = 0.3
ADAPTIVE_STEPS = 3  # marked steps of the adaptive chains that vem and quality reuse
PATCH = (1.0, -2.0, 0.5)  # the linear patch case u = x - 2y + 1/2
# Affine maps under which the raster must not change: (scale, shift).
RASTER_MAPS = ((2.5, (3.7, -1.9)), (0.01, (-250.0, 125.5)))
RASTER_MAPPED = 8  # images per dataset item checked under each map
# The voronoi and smoothed grids are fixed reference grids, not drawn from
# --seed: the cost per element of refinement, VEM and quality differed by
# up to 1.5x between seeded grids of 9-10 cells, which would swamp the
# run-to-run comparison. --seed draws the polygons and training sets.
GRID_SEED = 0


@dataclass
class Stage:
    """One end-to-end metric. Its time per round is the sum over items of
    each item's mean time; `work` and `fingerprint` read the list of
    item outputs of one round."""

    metric: str
    items: list[Callable[[], object]]
    work: Callable[[list], float]
    fingerprint: Callable[[list], object]
    rate: bool = True  # report work / time; otherwise the time itself


@dataclass
class Pipeline:
    stages: list[Stage]
    study_dofs: int
    check: Callable[[dict], None]  # takes {metric: item outputs of one round}


def _mesh_key(m) -> tuple:
    return m.vertices.tobytes(), tuple(map(tuple, m.elements))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _dataset_stage(classes: int, per_class: int, seeds: list[int]) -> tuple[Stage, Callable]:
    def check(datasets) -> None:
        # generate_dataset draws perturbed_polygon samples class by class
        # from default_rng(seed); replaying the draws gives each image's
        # polygon, which the independent fill must reproduce.
        for seed, data in zip(seeds, datasets):
            checks.require(len(data) == classes * per_class, "dataset: wrong image count")
            rng = np.random.default_rng(seed)
            for k in range(len(data)):
                label = 3 + k // per_class
                poly = cnn.perturbed_polygon(label, rng)
                px = data[k].image.pixels
                what = f"dataset {seed} image {k}"
                checks.require(data[k].label == label, f"{what}: label {data[k].label}")
                checks.check_raster(poly.coords, px, what)
                if k < RASTER_MAPPED:
                    for scale, shift in RASTER_MAPS:
                        moved = geometry.Polygon(poly.coords * scale + np.asarray(shift))
                        checks.check_same_raster(raster.rasterize(moved).pixels, px, f"{what} x{scale}+{shift}")

    stage = Stage(
        "dataset_images_per_s",
        [lambda s=s: cnn.generate_dataset(classes, per_class, seed=s) for s in seeds],
        lambda datasets: sum(map(len, datasets)),
        lambda datasets: b"".join(s.image.pixels.tobytes() for data in datasets for s in data),
    )
    return stage, check


def accuracy_floor(classes: int) -> float:
    """Twice the accuracy of guessing: the floor for the small network that
    the train stage trains in every round."""
    return 2.0 / classes


# The floor for the committed classifier, which scores 1.0 on the fixed
# samples of `common_checks` and 0.99-1.0 on fresh samples of other seeds.
COMMITTED_FLOOR = 0.9


def _fresh_samples(classes: int, seed: int) -> tuple[list, np.ndarray]:
    """Polygons whose labels are their corner counts by construction."""
    rng = np.random.default_rng(seed)
    labels = np.array([3 + i % classes for i in range(FRESH_SAMPLES)])
    return [cnn.perturbed_polygon(int(label), rng) for label in labels], labels


def _predict(net, polys) -> np.ndarray:
    images = np.stack([raster.rasterize(p).pixels for p in polys])
    return net.forward(images).argmax(axis=1) + 3


def _train_stage(classes: int, per_class: int, epochs: int, seed: int) -> tuple[Stage, Callable]:
    data = cnn.generate_dataset(classes, per_class, seed=seed + 1)
    train_set, val_set, _ = cnn.split_dataset(data, seed=seed)
    # patience above the epoch count: a fixed number of epochs, no early stop
    config = cnn.TrainConfig(max_epochs=epochs, patience=epochs + 1, batch_size=16, seed=seed)
    fresh, labels = _fresh_samples(classes, seed + 2)

    def train():
        net = cnn.Network(classes, seed=seed)
        return net, cnn.train(net, train_set, val_set, config)

    def check(outs) -> None:
        net, history = outs[0]
        checks.check_loss_falls(history["train_loss"])
        checks.check_accuracy(_predict(net, fresh), labels, accuracy_floor(classes), "trained network")

    stage = Stage(
        "train_images_per_s",
        [train],
        lambda outs: len(train_set) * len(outs[0][1]["epoch"]),
        lambda outs: tuple(outs[0][1]["train_loss"]),
    )
    return stage, check


def _classify_stage(net, polygon_lists) -> tuple[Stage, Callable]:
    """One element at a time, as `polyrefine classify` does."""

    def check(label_lists) -> None:
        for polys, labels in zip(polygon_lists, label_lists):
            checks.check_labels_equal(_predict(net, polys), labels, "classify")

    stage = Stage(
        "classify_elements_per_s",
        [lambda ps=ps: [net.classify_polygon(p) for p in ps] for ps in polygon_lists],
        lambda label_lists: sum(map(len, label_lists)),
        lambda label_lists: tuple(map(tuple, label_lists)),
    )
    return stage, check


def _refine_stage(metric: str, jobs) -> tuple[Stage, Callable]:
    """jobs: (mesh, marks, strategy, classifier, name); the work is the
    number of elements the passes create."""

    def created(outs) -> int:
        return sum(o.n_elements - (m.n_elements - len(marks)) for (m, marks, *_), o in zip(jobs, outs))

    def check(outs) -> None:
        for (*_, name), o in zip(jobs, outs):
            checks.check_unit_square_mesh(o.vertices, o.elements, name)

    stage = Stage(
        metric,
        [lambda j=j: pmesh.refine_mesh(j[0], j[1], j[2], j[3]) for j in jobs],
        created,
        lambda outs: tuple(map(_mesh_key, outs)),
    )
    return stage, check


def _study_chain(mesh, strategy, classifier, r: float, steps: int, case):
    """The meshes, errors and marks of `vem.convergence_study`, step by step."""
    meshes, errors, marks = [mesh], [], []
    for step in range(steps + 1):
        m = meshes[-1]
        u = vem.solve(vem.assemble(m, case))
        err = vem.local_errors(m, u, case)
        errors.append(float(np.sqrt(err.sum())))
        marks.append(pmesh.mark_fixed_fraction(err, r))
        if step < steps:
            meshes.append(pmesh.refine_mesh(m, marks[-1], strategy, classifier))
    return meshes, errors, marks


def _study_stage(studies):
    """studies: (mesh, strategy, classifier, r, steps, case, target, name),
    where `steps` is the first step whose error is at or below `target`.
    Returns the stage, its check, the DoFs at the targets, and each study's
    step-by-step chain."""
    chains = [_study_chain(m, s, c, r, k, case) for m, s, c, r, k, case, _, _ in studies]

    def check(records) -> None:
        for (*_, target, name), (meshes, errors, _), rec in zip(studies, chains, records):
            checks.check_target_step(rec.errors, len(rec.steps) - 1, target, name)
            checks.require(
                rec.dofs == [m.n_vertices for m in meshes] and rec.errors == errors,
                f"{name}: study record differs from its step-by-step replay",
            )
            checks.check_unit_square_mesh(meshes[-1].vertices, meshes[-1].elements, f"{name} final mesh")
        check_patch_tests([meshes[-1] for meshes, _, _ in chains], "study final mesh")

    stage = Stage(
        "study_s",
        [
            lambda st=st: vem.convergence_study(st[0], st[1], st[2], st[3], st[4], st[5])
            for st in studies
        ],
        len,
        lambda records: tuple((tuple(r.dofs), tuple(r.errors)) for r in records),
        rate=False,
    )
    dofs = sum(meshes[-1].n_vertices for meshes, _, _ in chains)
    return stage, check, dofs, chains


def check_patch_tests(meshes, what: str) -> None:
    case = vem.linear_case(*PATCH)
    for i, m in enumerate(meshes):
        u = vem.solve(vem.assemble(m, case))
        checks.check_patch(m.vertices, u, PATCH, f"{what} {i}")


def _vem_stage(meshes, case) -> tuple[Stage, Callable]:
    def solve(m):
        system = vem.assemble(m, case)
        u = vem.solve(system)
        return system, u, vem.local_errors(m, u, case)

    def check(outs) -> None:
        for i, (system, u, err) in enumerate(outs):
            A = system.matrix.tocsr()
            checks.check_residual(A.indptr, A.indices, A.data, system.rhs, system.dirichlet_index, u, f"vem mesh {i}")
            checks.require(np.all(err >= 0.0), f"vem mesh {i}: negative local error")
        check_patch_tests(meshes, "vem mesh")

    stage = Stage(
        "vem_dofs_per_s",
        [lambda m=m: solve(m) for m in meshes],
        lambda outs: sum(len(u) for _, u, _ in outs),
        lambda outs: tuple(u.tobytes() for _, u, _ in outs),
    )
    return stage, check


def _quality_stage(polygon_lists) -> tuple[Stage, Callable]:
    def check(reports) -> None:
        for i, rep in enumerate(reports):
            checks.check_unit_interval(rep.values, f"quality mesh {i}")

    stage = Stage(
        "quality_elements_per_s",
        [lambda ps=ps: metrics.quality_report(ps) for ps in polygon_lists],
        lambda reports: sum(r.n_elements for r in reports),
        lambda reports: tuple(tuple(r.medians.values()) for r in reports),
    )
    return stage, check


def _pipeline(parts, study_dofs: int, extra=()) -> Pipeline:
    def check(outputs: dict) -> None:
        for stage, stage_check in parts:
            stage_check(outputs[stage.metric])
        for fn in extra:
            fn(outputs)

    return Pipeline([stage for stage, _ in parts], study_dofs, check)


def _all(m) -> range:
    return range(m.n_elements)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _uniform(seed: int, net) -> Pipeline:
    grids = {name: gen(seed=GRID_SEED) for name, gen in pmesh.GRID_GENERATORS.items()}
    shaped = ("voronoi", "smoothed")  # where the paper compares shape quality
    once = {n: pmesh.refine_mesh(grids[n], _all(grids[n]), "mp") for n in shaped}
    mp_jobs = [(g, _all(g), "mp", None, f"{n} mp") for n, g in grids.items()]
    mp_jobs.append((once["voronoi"], _all(once["voronoi"]), "mp", None, "voronoi mp pass 2"))
    cnn_keys = [(n, s) for n in (*shaped, "nonconvex") for s in ("cnn-rp", "cnn-mp")]
    cnn_jobs = [(grids[n], _all(grids[n]), s, net, f"{n} {s}") for n, s in cnn_keys]
    study, study_check, dofs, _ = _study_stage(
        [(grids["triangles"], "cnn-rp", net, 1.0, 1, vem.sine_case(), 0.5, "uniform CNN-RP sine study")]
    )
    parts = [
        _dataset_stage(4, 4, [10 * seed, 10 * seed + 1]),
        _train_stage(4, 24, 3, seed),
        _classify_stage(net, [grids[n].polygons() for n in ("voronoi", "smoothed", "nonconvex")]),
        _refine_stage("refine_mp_elements_per_s", mp_jobs),
        _refine_stage("refine_cnn_elements_per_s", cnn_jobs),
        (study, study_check),
        _vem_stage(list(once.values()), vem.sine_case()),
        _quality_stage([pmesh.refine_mesh(grids[n], _all(grids[n]), "cnn-rp", net).polygons() for n in shaped]),
    ]

    def cnn_quality(outputs) -> None:
        mp = dict(zip(grids, outputs["refine_mp_elements_per_s"][: len(grids)]))
        by_job = dict(zip(cnn_keys, outputs["refine_cnn_elements_per_s"]))
        for n in shaped:
            checks.check_cnn_beats_mp(
                n,
                checks.median_area_perimeter_ratio(mp[n].vertices, mp[n].elements),
                {s: checks.median_area_perimeter_ratio(by_job[n, s].vertices, by_job[n, s].elements) for s in ("cnn-rp", "cnn-mp")},
            )

    return _pipeline(parts, dofs, (cnn_quality,))


def _adaptive(seed: int, net) -> Pipeline:
    tri = pmesh.GRID_GENERATORS["triangles"]()
    case = vem.boundary_layer_case()
    r = ADAPTIVE_FRACTION
    study, study_check, dofs, _ = _study_stage(
        [
            (tri, "cnn-rp", net, r, 1, case, 0.75, "adaptive CNN-RP layer study"),
            (tri, "mp", None, r, 1, case, 0.75, "adaptive MP layer study"),
        ]
    )
    # the studies' chains continued past their targets, for vem and quality
    rp_meshes, _, rp_marks = _study_chain(tri, "cnn-rp", net, r, ADAPTIVE_STEPS, case)
    mp_meshes, _, mp_marks = _study_chain(tri, "mp", None, r, ADAPTIVE_STEPS, case)
    parts = [
        _dataset_stage(4, 4, [10 * seed, 10 * seed + 1]),
        _train_stage(4, 24, 3, seed),
        _classify_stage(net, [tri.polygons()]),
        _refine_stage(
            "refine_mp_elements_per_s",
            [(m, marks, "mp", None, f"adaptive MP pass {k}") for k, (m, marks) in enumerate(zip(mp_meshes[:2], mp_marks))],
        ),
        _refine_stage(
            "refine_cnn_elements_per_s",
            [
                (m, marks, s, net, f"adaptive {s} pass {k}")
                for k, (m, marks) in enumerate(zip(rp_meshes[:2], rp_marks))
                for s in ("cnn-rp", "cnn-mp")
            ],
        ),
        (study, study_check),
        _vem_stage([rp_meshes[-1], mp_meshes[-1]], case),
        _quality_stage([rp_meshes[2].polygons(), mp_meshes[1].polygons()]),
    ]
    return _pipeline(parts, dofs)


def _training(seed: int, net) -> Pipeline:
    tri = pmesh.GRID_GENERATORS["triangles"]()
    grids = [pmesh.GRID_GENERATORS[n](seed=GRID_SEED) for n in ("voronoi", "smoothed")]
    fresh, labels = _fresh_samples(net.n_classes, seed + 3)
    chunks = [fresh[i : i + 20] for i in range(0, 60, 20)]
    study, study_check, dofs, _ = _study_stage(
        [(tri, "mp", None, 1.0, 1, vem.sine_case(), 0.5, "training MP sine study")]
    )
    parts = [
        _dataset_stage(6, 6, [10 * seed + i for i in range(3)]),
        _train_stage(6, 30, 4, seed),
        _classify_stage(net, chunks),
        _refine_stage("refine_mp_elements_per_s", [(g, _all(g), "mp", None, f"grid {i} mp") for i, g in enumerate(grids)]),
        _refine_stage(
            "refine_cnn_elements_per_s", [(g, _all(g), "cnn-rp", net, f"grid {i} cnn-rp") for i, g in enumerate(grids)]
        ),
        (study, study_check),
        _vem_stage(grids, vem.sine_case()),
        _quality_stage([g.polygons() for g in grids]),
    ]

    def known_labels(outputs) -> None:
        predicted = [label for chunk in outputs["classify_elements_per_s"] for label in chunk]
        checks.check_accuracy(
            predicted, labels[: len(predicted)], COMMITTED_FLOOR, "classify on labelled polygons"
        )

    return _pipeline(parts, dofs, (known_labels,))


def load_classifier():
    return cnn.load_model(MODEL_PATH)


def build(workload: str, seed: int, net) -> Pipeline:
    return {"uniform": _uniform, "adaptive": _adaptive, "training": _training}[workload](seed, net)


def common_checks(net) -> None:
    """Checks on fixed inputs, run by every workload: the committed
    classifier, and CNN-RP with a classifier that always answers 3, which
    quarters every triangle of the triangle grid into right isosceles
    triangles with known quality metrics."""
    tri = pmesh.GRID_GENERATORS["triangles"]()
    fresh, labels = _fresh_samples(net.n_classes, 12345)
    checks.check_accuracy(_predict(net, fresh), labels, COMMITTED_FLOOR, "committed classifier")
    checks.check_all_label([net.classify_polygon(p) for p in tri.polygons()], 3, "triangle grid")
    m = tri
    for k in (1, 2):
        m = pmesh.refine_mesh(m, _all(m), "cnn-rp", lambda p: 3)
        checks.check_stub_count(m.n_elements, k)
        checks.check_unit_square_mesh(m.vertices, m.elements, f"stub CNN-RP pass {k}")
        if k == 1:
            values = metrics.quality_report(m.polygons()).values
            checks.check_unit_interval(values, "stub-refined quality")
            checks.check_right_isosceles(values)
