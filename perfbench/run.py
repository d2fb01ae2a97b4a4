"""Benchmark of the polyrefine pipeline, run from the repository root:

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 30 --trace 0

One process sets up a workload (imports, grids, the committed classifier,
the meshes its stages reuse), then repeats whole rounds of its eight stages
until `--seconds` is spent, checks the outputs of a round, and prints every
end-to-end metric by name and unit. A stage's time is the sum of its items'
mean times over the rounds, at the reference speed (reference.py); the
set-up time is one cold set-up, at the speed of the first round.

`--trace 1` instead runs every stage four times (untraced, traced,
untraced, traced, back to back), prints the per-layer metrics of the first
traced pass and the tracing overhead, and writes the spans to
perfbench/out/. `--seconds 0` is
the smoke mode: one round and every check.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A failed check prints it with "correct": false and
exits 1; without the program's sources the command exits 1 and prints none.
"""
from __future__ import annotations

import os
import sys

# BLAS must be pinned before numpy loads it; the benchmark is one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TRACE_ROUNDS = 4  # every stage untraced, traced, untraced, traced

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dataset_images_per_s": "images/s",
    "train_images_per_s": "image-epochs/s",
    "classify_elements_per_s": "elements/s",
    "refine_mp_elements_per_s": "elements/s",
    "refine_cnn_elements_per_s": "elements/s",
    "study_s": "s",
    "study_dofs": "DoFs",
    "vem_dofs_per_s": "DoFs/s",
    "quality_elements_per_s": "elements/s",
}


def process_age() -> float:
    """Seconds since this process started (Linux clock-tick resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_program():
    """Import polyrefine from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import polyrefine
    except ImportError as exc:
        sys.exit(f"error: cannot import polyrefine from {ROOT / 'src'}: {exc}")
    if Path(polyrefine.__file__).resolve().parent != ROOT / "src" / "polyrefine":
        sys.exit(f"error: polyrefine imported from {polyrefine.__file__}, not from this checkout")


def run_round(stages, times=None) -> dict:
    """Every item of every stage once. With `times`, the reference job runs
    before each stage and after the last, and times[metric] gets the items'
    times and the job's times before and after the stage."""
    outputs = {}
    previous = None
    for stage in stages:
        if times is not None:
            previous = _reference(times, previous, stage.metric)
        outs = []
        for i, item in enumerate(stage.items):
            t0 = time.perf_counter()
            outs.append(item())
            if times is not None:
                times[stage.metric]["items"][i].append(time.perf_counter() - t0)
        outputs[stage.metric] = outs
    if times is not None:
        _reference(times, previous, None)
    return outputs


def _reference(times, ended: str | None, starting: str | None) -> str | None:
    """The reference job between two stages: its time is the `after` time
    of the stage that ended and the `before` time of the stage that starts."""
    t0 = time.perf_counter()
    reference.job()
    t = time.perf_counter() - t0
    if ended is not None:
        times[ended]["after"].append(t)
    if starting is not None:
        times[starting]["before"].append(t)
    return starting


def measure(stages, seconds: float) -> tuple[dict, dict, int]:
    """Whole rounds until the next one would end after `seconds`; every
    repetition of an item must give the first round's output."""
    times = {s.metric: {"before": [], "after": [], "items": [[] for _ in s.items]} for s in stages}
    start = time.perf_counter()
    first = run_round(stages, times)
    rounds = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
        later = run_round(stages, times)
        for stage in stages:
            checks.require(
                stage.fingerprint(later[stage.metric]) == stage.fingerprint(first[stage.metric]),
                f"{stage.metric}: a repetition gave a different output",
            )
        rounds += 1
    return first, times, rounds


def stage_seconds(stage_times, scaled: bool) -> float:
    """A stage's time per round: the sum over its items of each item's mean
    time over the rounds, so that every item is a sample of the machine's
    speed. Scaled, each item time is first divided by the mean of the
    reference job's times just before and just after the stage in the same
    round, and the sum is expressed at the job's nominal time. A mean, not a
    median: the machine switches between speed states that last several
    rounds, and a mean moves smoothly with the share of rounds in each state
    where a median jumps from one state to the other."""
    items = stage_times["items"]
    if not scaled:
        return sum(statistics.fmean(t) for t in items)
    ref = 0.5 * (np.asarray(stage_times["before"]) + np.asarray(stage_times["after"]))
    return reference.NOMINAL_SECONDS * sum(float(np.mean(np.asarray(t) / ref)) for t in items)


def end_to_end(pipeline, first: dict, times: dict, setup_s: float) -> tuple[dict, dict]:
    """The metrics at the reference speed, and as measured. The cold set-up
    is scaled by the median of the first round's reference jobs, the ones
    closest to it in time: the job cannot run before numpy is imported."""
    speed = reference.NOMINAL_SECONDS / statistics.median(
        [t for stage_times in times.values() for t in stage_times["before"]]
    )
    first_round = [stage_times["before"][0] for stage_times in times.values()]
    first_round.append(times[pipeline.stages[-1].metric]["after"][0])
    setup_speed = reference.NOMINAL_SECONDS / statistics.median(first_round)
    values = {"setup_s": setup_s * setup_speed}
    measured = {"setup_s": setup_s, "reference_speed": speed, "setup_reference_speed": setup_speed}
    for stage in pipeline.stages:
        for out, scaled in ((values, True), (measured, False)):
            seconds = stage_seconds(times[stage.metric], scaled)
            out[stage.metric] = stage.work(first[stage.metric]) / seconds if stage.rate else seconds
    values["study_dofs"] = measured["study_dofs"] = pipeline.study_dofs
    values["peak_rss_mb"] = measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, measured


def traced(stages, tracer) -> tuple[dict, float]:
    """Every stage runs untraced and then traced, back to back, twice over;
    the tracer keeps the spans of the first traced pass. Pairing each stage
    with itself keeps the machine's drift out of the overhead."""
    wall = {False: 0.0, True: 0.0}
    first = {}
    for rep in range(2):
        for stage in stages:
            for on in (False, True):
                t0 = time.perf_counter()
                if on:
                    with tracer if rep == 0 else type(tracer)():
                        run_round([stage])
                else:
                    first.update(run_round([stage]))
                wall[on] += time.perf_counter() - t0
    return first, 100.0 * (wall[True] / wall[False] - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("uniform", "adaptive", "training"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import layertrace
    import pipeline

    net = pipeline.load_classifier()
    pipe = pipeline.build(args.workload, args.seed, net)
    setup_s = process_age()

    if args.trace:
        tracer = layertrace.Tracer()
        first, overhead = traced(pipe.stages, tracer)
        rounds, times = TRACE_ROUNDS, {}
    else:
        first, times, rounds = measure(pipe.stages, args.seconds)

    correct = True
    try:
        pipe.check(first)
        pipeline.common_checks(net)
    except checks.CheckError as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, (unit, _, _) in layertrace.PER_LAYER.items()}
        units["trace.overhead_pct"] = "%"
        values = dict(tracer.per_layer(), **{"trace.overhead_pct": overhead})
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        raw = {}
    else:
        metrics, raw = end_to_end(pipe, first, times, setup_s)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for name, m in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if name in raw and raw[name] != m["value"] else ""
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{measured}")
    if raw:
        print(f"reference speed {raw['reference_speed']:.4f} over the run, {raw['setup_reference_speed']:.4f} "
              "in the first round (measured figures are at these speeds)")
    print(f"rounds {rounds}; checks {'passed' if correct else 'FAILED'}")
    result = {
        "correct": correct,
        "attempted": rounds * len(pipe.stages),
        "failed": 0,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(dict(result, measured=raw, times=times), indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
