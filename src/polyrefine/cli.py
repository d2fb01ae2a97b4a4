"""Command-line front end.

Every command reads its randomness from --seed alone, writes fixed-name
artifacts into --out-dir and exits nonzero with a one-line diagnostic on
failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import cnn, metrics, svgplot, vem
from .geometry import diameters
from .mesh import (
    GRID_GENERATORS,
    load_mesh,
    mark_fixed_fraction,
    refine_mesh,
    save_mesh,
)
from .refine import Strategy

STRATEGIES = ("mp", "cnn-mp", "cnn-rp")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, help="directory for all outputs")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyrefine",
        description="CNN-guided polygonal mesh refinement toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mesh", help="generate an initial grid (mesh.txt, mesh.svg)")
    p.add_argument("--grid", choices=sorted(GRID_GENERATORS), required=True)
    _add_common(p)

    p = sub.add_parser("gen-dataset", help="write a labeled image set (dataset/)")
    p.add_argument("--classes", type=int, default=4, help="number of shape classes")
    p.add_argument("--per-class", type=int, default=2000)
    _add_common(p)

    p = sub.add_parser(
        "train", help="train the classifier (model.bin, history.csv, confusion.csv)"
    )
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=2000)
    p.add_argument("--dataset-dir", help="reuse a gen-dataset directory")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=128)
    _add_common(p)

    p = sub.add_parser("classify", help="label every mesh element (labels.csv)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--model", required=True)
    _add_common(p)

    p = sub.add_parser(
        "refine", help="refine a mesh (mesh_refined.txt, mesh_refined.svg)"
    )
    p.add_argument("--mesh", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--model", help="model file (needed for cnn-* strategies)")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument(
        "--fraction",
        type=float,
        default=1.0,
        help="per pass, refine this fraction of elements (largest diameter first)",
    )
    p.add_argument("--rho", type=float, default=0.5, help="inner-polygon scale")
    _add_common(p)

    p = sub.add_parser(
        "quality", help="quality metrics (quality.csv, quality_hist.svg)"
    )
    p.add_argument("--mesh", required=True)
    p.add_argument("--bins", type=int, default=20)
    _add_common(p)

    p = sub.add_parser(
        "study", help="convergence study (convergence.csv, convergence.svg)"
    )
    p.add_argument("--mesh", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--model", help="model file (needed for cnn-* strategies)")
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--case", choices=sorted(vem.CASES), default="sine")
    p.add_argument("--rho", type=float, default=0.5)
    _add_common(p)

    return ap


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _classifier_for(args):
    if args.strategy == "mp":
        return None
    if not args.model:
        raise SystemExit(f"strategy {args.strategy} needs --model")
    return cnn.load_model(args.model)


def _check_fraction(r: float) -> float:
    if not 0.0 < r <= 1.0:
        raise SystemExit("--fraction must be in (0, 1]")
    return r


def cmd_gen_mesh(args) -> None:
    out = _out_dir(args)
    mesh = GRID_GENERATORS[args.grid](seed=args.seed)
    save_mesh(mesh, out / "mesh.txt")
    svgplot.polygons_svg(
        [mesh.vertices[loop] for loop in mesh.elements], out / "mesh.svg"
    )
    print(f"{args.grid}: {mesh.n_elements} elements, {mesh.n_vertices} vertices")


def cmd_gen_dataset(args) -> None:
    out = _out_dir(args)
    data = cnn.generate_dataset(args.classes, args.per_class, seed=args.seed)
    cnn.save_dataset(data, out / "dataset")
    print(f"wrote {len(data)} images to {out / 'dataset'}")


def cmd_train(args) -> None:
    out = _out_dir(args)
    if args.dataset_dir:
        data = cnn.load_dataset(args.dataset_dir)
        n_classes = len(data[0].onehot)
    else:
        data = cnn.generate_dataset(args.classes, args.per_class, seed=args.seed)
        n_classes = args.classes
    config = cnn.TrainConfig(
        batch_size=args.batch_size, max_epochs=args.epochs, seed=args.seed
    )
    train_set, val_set, test_set = cnn.split_dataset(data, config.split, seed=args.seed)
    net = cnn.Network(n_classes, seed=args.seed)
    history = cnn.train(net, train_set, val_set, config)
    cnn.save_model(net, out / "model.bin")
    with open(out / "history.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_loss", "val_accuracy"])
        for row in zip(*(history[k] for k in ("epoch", "train_loss", "val_loss", "val_accuracy"))):
            w.writerow([row[0]] + [repr(v) for v in row[1:]])
    cm = cnn.confusion_matrix(net, test_set)
    with open(out / "confusion.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["true\\pred"] + [str(j + 3) for j in range(n_classes)])
        for i in range(n_classes):
            w.writerow([str(i + 3)] + [int(v) for v in cm[i]])
    print(f"test accuracy: {cnn.accuracy(cm):.4f} ({len(test_set)} samples)")


def cmd_classify(args) -> None:
    out = _out_dir(args)
    mesh = load_mesh(args.mesh)
    net = cnn.load_model(args.model)
    labels = net.classify_polygons(mesh.polygons())
    with open(out / "labels.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["element", "label"])
        w.writerows(enumerate(labels.tolist()))
    print(f"labeled {mesh.n_elements} elements")


def cmd_refine(args) -> None:
    out = _out_dir(args)
    mesh = load_mesh(args.mesh)
    classifier = _classifier_for(args)
    r = _check_fraction(args.fraction)
    if args.steps < 1:
        raise SystemExit("--steps must be >= 1")
    for _ in range(args.steps):
        marks = mark_fixed_fraction(mesh.per_element(diameters), r)
        mesh = refine_mesh(mesh, marks, Strategy(args.strategy), classifier, args.rho)
    save_mesh(mesh, out / "mesh_refined.txt")
    svgplot.polygons_svg(
        [mesh.vertices[loop] for loop in mesh.elements], out / "mesh_refined.svg"
    )
    print(f"refined mesh: {mesh.n_elements} elements")


def cmd_quality(args) -> None:
    out = _out_dir(args)
    mesh = load_mesh(args.mesh)
    report = metrics.quality_report(mesh.polygons(), bins=args.bins)
    report.to_csv(out / "quality.csv")
    svgplot.histograms_svg(report.histograms, out / "quality_hist.svg")
    medians = ", ".join(f"{k}={report.medians[k]:.3f}" for k in metrics.METRIC_NAMES)
    print(f"{mesh.n_elements} elements; medians: {medians}")


def cmd_study(args) -> None:
    out = _out_dir(args)
    mesh = load_mesh(args.mesh)
    classifier = _classifier_for(args)
    r = _check_fraction(args.fraction)
    if args.steps < 1:
        raise SystemExit("--steps must be >= 1")
    case = vem.CASES[args.case]()
    record = vem.convergence_study(
        mesh, Strategy(args.strategy), classifier, r, args.steps, case, rho=args.rho
    )
    record.to_csv(out / "convergence.csv")
    svgplot.loglog_svg(
        {args.strategy: (record.dofs, record.errors)},
        out / "convergence.svg",
        xlabel="degrees of freedom",
        ylabel="H1-like error",
        title=f"{args.case}, r={r}",
    )
    print(
        f"study done: {record.dofs[0]} -> {record.dofs[-1]} DoFs, "
        f"error {record.errors[0]:.3e} -> {record.errors[-1]:.3e}"
    )


_HANDLERS = {
    "gen-mesh": cmd_gen_mesh,
    "gen-dataset": cmd_gen_dataset,
    "train": cmd_train,
    "classify": cmd_classify,
    "refine": cmd_refine,
    "quality": cmd_quality,
    "study": cmd_study,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except SystemExit as exc:
        if exc.code not in (0, None):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
