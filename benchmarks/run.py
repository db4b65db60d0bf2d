"""Stage-by-stage benchmark of the crosstraj pipeline.

    python3 benchmarks/run.py --workload cost_default --seed 1 --seconds 10 --trace 0

Runs one workload in this process by calling crosstraj.cli.main stage after
stage from the root of a checkout, checks the outputs, and prints one JSON
object as its last line: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The load is a closed loop with one caller.
benchmarks/README.md explains the workloads and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CITIES = ("source", "target")
SETUP_REPEATS = 3
# evaluate takes 0.1 to 0.3 s a call; an untraced run repeats it until it
# has run for this share of --seconds
EVALUATE_SHARE = 0.3
DIJKSTRA_SAMPLE = 16

END_TO_END = (
    ("setup_s", "s"),
    ("cost_steps_per_s", "steps/s"),
    ("cost_rank_acc", "fraction"),
    ("synth_trips_per_s", "trips/s"),
    ("features_segments_per_s", "segments/s"),
    ("pref_trip_epochs_per_s", "trip.epochs/s"),
    ("generate_demands_per_s", "demands/s"),
    ("evaluate_pairs_per_s", "pairs/s"),
    ("edr", "ratio"),
)
# Printed and recorded, but left out of the result: a histogram JSD over a
# few hundred trips is mostly sampling noise, and it spreads by 0.3 to 0.5 of
# its median from one seed's cities to the next.
REPORTED_ONLY = (("distance_jsd", "bits"), ("locfreq_jsd", "bits"))


@dataclass(frozen=True)
class Workload:
    """Config overrides shared by every stage, and which stages are timed.

    kind "cost" times train-cost on cities built in set-up; kind "route"
    times the city stages and train-pref, generate and evaluate, with a
    short train-cost in between as set-up.
    """

    kind: str
    sets: tuple[str, ...]
    cost_epochs: int
    pref_epochs: int

    def tail(self) -> list[str]:
        keys = self.sets + (f"cost.epochs={self.cost_epochs}",
                            f"pref.epochs={self.pref_epochs}")
        return [arg for key in keys for arg in ("--set", key)]


TWINS_16 = ("synth.rows=16", "synth.cols=16", "synth.n_trips=1200")
WORKLOADS = {
    # run-all defaults: 4 clusters, 3 per batch, about 135-segment batches
    "cost_default": Workload("cost", (), cost_epochs=5, pref_epochs=1),
    # criterion 7's sizes: about 2 segments and at most 1 edge per batch
    "cost_tiny_batch": Workload("cost", TWINS_16 + ("partition.k_clusters=240", "cost.k=1"),
                                cost_epochs=1, pref_epochs=1),
    # a 40% holdout of 700 trips gives evaluate 280 pairs
    "route": Workload("route", ("synth.rows=16", "synth.cols=16", "synth.n_trips=700",
                                "synth.holdout_frac=0.4"), cost_epochs=1, pref_epochs=2),
}
SMALL = ("synth.rows=4", "synth.cols=4", "synth.n_trips=60")
SMOKE = {
    "cost_default": Workload("cost", SMALL, cost_epochs=1, pref_epochs=1),
    "cost_tiny_batch": Workload("cost", SMALL + ("partition.k_clusters=12", "cost.k=1"),
                                cost_epochs=1, pref_epochs=1),
    "route": Workload("route", SMALL + ("synth.holdout_frac=0.4",),
                      cost_epochs=1, pref_epochs=1),
}

# files each stage writes, relative to the work directory
OUTPUTS = {
    "synth-city": ("{city}/network.json", "{city}/trajectories.txt", "{city}/holdout.txt",
                   "{city}/labels.csv", "{city}/demands.csv"),
    "features": ("{city}/features.csv",),
    "partition": ("{city}/partition.csv",),
    "train-cost": ("cost_model.json", "cost_losses.csv"),
    "train-pref": ("preference.json", "pref_losses.csv"),
    "generate": ("generated.txt", "infeasible.csv"),
    "evaluate": ("report.json", "pair_metrics.csv", "histograms.csv"),
}
RECORDED_ARTIFACTS = ("cost_model.json", "preference.json", "generated.txt")


class StageFailed(RuntimeError):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Pipeline:
    """Calls crosstraj.cli.main stage by stage in one work directory.

    Each call's wall time and output digests are kept per stage (and city);
    a stage that does not return 0 ends the run.
    """

    def __init__(self, main, workdir: Path, seed: int, threads: int, workload: Workload):
        self.main = main
        self.workdir = workdir
        self.workload = workload
        self.tail = ["--workdir", str(workdir), "--threads", str(threads)] + workload.tail()
        # The seed picks the cities and their trips. The program's own seeds
        # (partition, model init, batch sampling) stay at their defaults, so a
        # quality metric varies with the cities and not with a lucky init.
        for city in CITIES:
            digest = hashlib.sha256(f"{seed}:{city}".encode()).digest()
            self.tail += ["--set", f"synth.{city}_seed={int.from_bytes(digest[:4], 'big') >> 1}"]
        self.tracer = None
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        self.calls = 0

    def run(self, command: str, city: str | None = None) -> float:
        argv = [command] + (["--city", city] if city else []) + self.tail
        span = (self.tracer.span(f"cli.{command.replace('-', '_')}") if self.tracer
                else nullcontext())
        with redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            with span:
                rc = self.main(argv)
            wall = perf_counter() - t0
        self.calls += 1
        if rc != 0:
            raise StageFailed(f"`crosstraj {' '.join(argv)}` exited with {rc}")
        key = f"{command}:{city}" if city else command
        self.walls[key].append(wall)
        self.digests[key].append(tuple(sha256(self.workdir / f.format(city=city))
                                       for f in OUTPUTS[command]))
        return wall

    def build_cities(self) -> float:
        return sum(self.run(cmd, city) for city in CITIES
                   for cmd in ("synth-city", "features", "partition"))

    def after_cities(self) -> float:
        return sum(self.run(cmd) for cmd in ("train-pref", "generate", "evaluate"))


# ---------------------------------------------------------------------------
# workload flows


def run_untraced(p: Pipeline, w: Workload, seconds: float) -> list[float]:
    """Untraced run in SETUP_REPEATS cycles; returns the set-up wall times.

    Each cycle sets up again and runs its share of every stage, so each
    stage's samples spread over the whole run rather than one stretch of it:
    the machine's speed drifts over seconds, and a rate pooled over the whole
    run drifts less.
    """
    setup: list[float] = []
    timed = after = 0.0

    def top_up_evaluate(share: float) -> float:
        spent = 0.0
        while sum(p.walls["evaluate"]) < seconds * EVALUATE_SHARE * share:
            spent += p.run("evaluate")
        return spent

    for cycle in range(1, SETUP_REPEATS + 1):
        share = cycle / SETUP_REPEATS
        if w.kind == "cost":
            setup.append(p.build_cities())
            while timed < seconds * share:
                timed += p.run("train-cost")
            # the stages after train-cost run at least once a cycle, and for
            # a third of the timed budget in all
            after += p.after_cities() + top_up_evaluate(share)
            while after < seconds / 3 * share:
                after += p.after_cities()
        else:
            timed += p.build_cities()
            setup.append(p.run("train-cost"))
            timed += p.after_cities() + top_up_evaluate(share)
    while timed < seconds:
        timed += p.build_cities() + p.after_cities()
    return setup


def run_traced(p: Pipeline, w: Workload, tracer, events) -> tuple[list[float], dict]:
    """A warm-up pass with the set-up, one untraced pass of the timed region,
    then one traced pass.

    The first pass in a process runs cold, so the untraced pass that the
    tracing overhead is measured against comes second. Returns the set-up
    wall times and what the traced pass measured.
    """
    if w.kind == "cost":
        setup = [p.build_cities()]
        p.run("train-cost")
        untraced = p.run("train-cost")
    else:
        p.build_cities()
        setup = [p.run("train-cost")]
        p.after_cities()
        untraced = p.build_cities() + p.after_cities()
    before = dict(events.drain())
    tracer.install_pipeline()
    p.tracer = tracer
    try:
        if w.kind == "cost":
            traced = p.run("train-cost")
        else:
            traced = p.build_cities() + p.after_cities()
    finally:
        p.tracer = None
        tracer.uninstall()
    region_events = {k: v - before.get(k, 0) for k, v in events.drain().items()}
    top_level = sum(s[3] - s[2] for s in tracer.spans if s[4] < 0 and s[1].startswith("cli."))
    return setup, {"untraced_s": untraced, "traced_s": traced, "top_level_s": top_level,
                   "events": region_events}


# ---------------------------------------------------------------------------
# output checks


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_determinism(p: Pipeline, checks: Checks) -> None:
    """Repeated calls of a stage on the same inputs must write the same bytes."""
    for key, digests in p.digests.items():
        for d in digests[1:]:
            checks.check(d == digests[0], f"{key} rewrote different bytes")


def check_losses(wd: Path, checks: Checks) -> None:
    for name in ("cost_losses.csv", "pref_losses.csv"):
        path = wd / name
        if not path.exists():
            continue
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        finite = all(math.isfinite(float(x)) for row in rows for x in row.split(",")[1:])
        checks.check(bool(rows) and finite, f"{name} has a non-finite loss")


def infeasible_ids(wd: Path) -> set[int]:
    rows = (wd / "infeasible.csv").read_text(encoding="utf-8").splitlines()[1:]
    return {int(r.split(",")[0]) for r in rows if r}


def check_generated(wd: Path, seed: int, checks: Checks) -> None:
    """Generated trips are walks from their demand's origin to its destination
    in its time slice, and a seeded sample of them is optimal."""
    import numpy as np

    from crosstraj.costmodel import build_city_graph, load_cost_model
    from crosstraj.network import (check_consecutive, load_demands, load_network,
                                   load_trajectories)
    from crosstraj.preference import costs_for_slices, load_preference_model, preference_values
    from crosstraj.routing import dijkstra_node_weighted
    from crosstraj.space_syntax import load_features

    net = load_network(wd / "target" / "network.json")
    demands = load_demands(wd / "target" / "demands.csv")
    generated = {t.traj_id: t for t in load_trajectories(wd / "generated.txt")}
    skipped = infeasible_ids(wd)
    feasible = [d for d in demands if d.od_id not in skipped]
    checks.check(len(generated) == len(feasible),
                 f"{len(generated)} trajectories for {len(feasible)} feasible demands")
    for d in feasible:
        t = generated.get(d.od_id)
        checks.check(t is not None and check_consecutive(net, t),
                     f"trajectory {d.od_id} is not a walk on the network")
        checks.check(t is not None and t.segments[0] == d.origin
                     and t.segments[-1] == d.destination and t.time_slice == d.time_slice,
                     f"trajectory {d.od_id} does not serve its demand")

    rng = np.random.default_rng(seed)
    sample = [feasible[i] for i in sorted(rng.choice(len(feasible),
                                                     min(DIJKSTRA_SAMPLE, len(feasible)),
                                                     replace=False))]
    model = load_cost_model(wd / "cost_model.json")
    pref, _ = load_preference_model(wd / "preference.json")
    graph = build_city_graph(net, load_features(wd / "target" / "features.csv"), model.config)
    costs = costs_for_slices(model, graph, (d.time_slice for d in sample))
    for d in sample:
        w = preference_values(pref.params, *costs[d.time_slice]).data
        found = dijkstra_node_weighted(net.neighbors, w, d.origin, d.destination)
        path_cost = 0.0
        for s in generated[d.od_id].segments:  # same order of additions as the search
            path_cost += float(w[s])
        checks.check(found is not None and math.isclose(path_cost, found[1], rel_tol=1e-12),
                     f"trajectory {d.od_id} costs {path_cost!r}, not the optimum")


def rank_accuracy(wd: Path) -> float:
    """Pairwise ordering accuracy of the target city's predicted travel times
    against the planted ones, over every time slice (criterion 8's measure)."""
    import numpy as np

    from crosstraj.costmodel import build_city_graph, load_cost_model, predict_cost_table
    from crosstraj.network import load_network
    from crosstraj.space_syntax import load_features
    from crosstraj.synth import planted_cost_table

    model = load_cost_model(wd / "cost_model.json")
    net = load_network(wd / "target" / "network.json")
    graph = build_city_graph(net, load_features(wd / "target" / "features.csv"), model.config)
    pred = predict_cost_table(model, graph)[:, :, 0]
    oracle = planted_cost_table(net)
    good = total = 0
    for t in range(pred.shape[1]):
        do = oracle[:, t][:, None] - oracle[:, t][None, :]
        dp = pred[:, t][:, None] - pred[:, t][None, :]
        mask = np.triu(np.abs(do) > 1e-9, k=1)
        good += int(((do > 0) == (dp > 0))[mask].sum())
        total += int(mask.sum())
    return good / total


# ---------------------------------------------------------------------------
# metrics


def lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def training_trips(wd: Path) -> int:
    """Source trips that train-pref keeps after preprocessing."""
    from crosstraj.network import load_trajectories, preprocess_trajectories

    return len(preprocess_trajectories(load_trajectories(wd / "source" / "trajectories.txt")))


def rate(calls: list[tuple[float, float]]) -> float:
    """Summed work ÷ summed wall time over (work, wall) pairs, one per call.

    A stage runs only a few times in a run, and the machine's speed wanders
    from one call to the next; the pooled rate averages over all of them,
    where a median of three or four calls keeps one call's noise.
    """
    return sum(work for work, _ in calls) / sum(wall for _, wall in calls)


def stage_rates(p: Pipeline) -> dict[str, float]:
    """Throughput of each stage that ran, pooled over its calls."""
    from crosstraj.network import load_network

    wd = p.workdir

    def calls(key: str, work: float) -> list[tuple[float, float]]:
        return [(work, wall) for wall in p.walls[key]]

    synth, feats = [], []
    for city in CITIES:
        trips = lines(wd / city / "trajectories.txt") + lines(wd / city / "holdout.txt")
        n = load_network(wd / city / "network.json").n
        synth += calls(f"synth-city:{city}", trips)
        feats += [(n, f + q) for f, q in zip(p.walls[f"features:{city}"],
                                             p.walls[f"partition:{city}"])]
    return {
        "synth_trips_per_s": rate(synth),
        "features_segments_per_s": rate(feats),
        "pref_trip_epochs_per_s": rate(calls("train-pref",
                                             training_trips(wd) * p.workload.pref_epochs)),
        "generate_demands_per_s": rate(calls("generate", lines(wd / "target" / "demands.csv") - 1)),
        "evaluate_pairs_per_s": rate(calls("evaluate", lines(wd / "pair_metrics.csv") - 1)),
    }


def cost_steps(p: Pipeline) -> int:
    """Train steps in one train-cost call: epochs x ceil(clusters / per batch)."""
    from crosstraj.config import apply_overrides, default_config

    w = p.workload
    per_batch = apply_overrides(default_config(), list(w.sets))["cost"]["k"]
    rows = (p.workdir / "source" / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    clusters = len({r.split(",")[1] for r in rows if r})
    return w.cost_epochs * max(1, math.ceil(clusters / per_batch))


# ---------------------------------------------------------------------------
# record


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine(eval_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "evaluate_threads": eval_threads}


def config_record(name: str, w: Workload, smoke: bool) -> dict:
    cfg = {"workload": name, "smoke": smoke, "kind": w.kind, "sets": list(w.sets),
           "cost_epochs": w.cost_epochs, "pref_epochs": w.pref_epochs,
           "setup_repeats": SETUP_REPEATS, "evaluate_share": EVALUATE_SHARE}
    cfg["hash"] = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    return cfg


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="minimum wall time of the timed region in an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def count_ops(p: Pipeline, checks: Checks, events: dict[str, int]) -> tuple[int, int]:
    """(attempted, failed) over stage calls, demands, trajectory-epochs and
    output checks. Infeasible demands and skipped trajectories fail."""
    wd = p.workdir
    attempted = p.calls + checks.attempted
    failed = len(checks.failures) + events.get("skipped_trajectories", 0)
    if "train-pref" in p.walls:
        attempted += training_trips(wd) * p.workload.pref_epochs * len(p.walls["train-pref"])
    if "generate" in p.walls:
        calls = len(p.walls["generate"])
        attempted += calls * (lines(wd / "target" / "demands.csv") - 1)
        failed += calls * len(infeasible_ids(wd))
    return attempted, failed


def end_to_end(p: Pipeline, setup: list[float], import_s: float) -> dict[str, float]:
    wd = p.workdir
    steps = cost_steps(p)
    report = json.loads((wd / "report.json").read_text(encoding="utf-8"))
    return {
        "setup_s": import_s + statistics.median(setup),
        "cost_steps_per_s": rate([(steps, wall) for wall in p.walls["train-cost"]]),
        "cost_rank_acc": rank_accuracy(wd),
        **stage_rates(p),
        **{name: float(report[name]) for name in ("edr",) + tuple(n for n, _ in REPORTED_ONLY)},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crosstraj" / "cli.py").is_file():
        print(f"crosstraj sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    from crosstraj.cli import main as cli_main
    import_s = perf_counter() - t0
    import tracer as tracing

    w = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    threads = os.cpu_count() or 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    wd = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    p = Pipeline(cli_main, wd, args.seed, threads, w)
    tracer = tracing.Tracer()
    checks = Checks()
    try:
        with tracing.EventCounter() as events:
            if args.trace:
                setup, traced = run_traced(p, w, tracer, events)
            else:
                setup = run_untraced(p, w, args.seconds)
            check_determinism(p, checks)
            check_losses(wd, checks)
            if "generate" in p.walls:
                check_generated(wd, args.seed, checks)
            if args.trace:
                infeasible = len(infeasible_ids(wd)) if "generate" in p.walls else 0
                metrics = tracing.layer_metrics(
                    tracer.spans, traced["events"], infeasible, traced["traced_s"],
                    traced["top_level_s"], traced["traced_s"] / traced["untraced_s"] - 1.0)
                units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            else:
                metrics = end_to_end(p, setup, import_s)
                units = dict(END_TO_END + REPORTED_ONLY)
        counts = dict(events.counts)
        attempted, failed = count_ops(p, checks, counts)
        record = {
            "workload": config_record(args.workload, w, args.smoke), "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "machine": machine(threads),
            "import_s": import_s, "setup_walls_s": setup, "stage_walls_s": dict(p.walls),
            "events": counts, "check_failures": checks.failures[:20],
            "attempted": attempted, "failed": failed, "failed_ops_frac": failed / attempted,
            "artifacts_sha256": {name: sha256(wd / name) for name in RECORDED_ARTIFACTS
                                 if (wd / name).exists()},
            "metrics": metrics,
        }
        if args.trace:
            record["traced_pass"] = {k: v for k, v in traced.items() if k != "events"}
            with gzip.open(out_dir / f"{tag}-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
                for span in sorted(tracer.spans):
                    fh.write(json.dumps(span) + "\n")
        (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
    except StageFailed as exc:
        print(f"stage failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:44s} {value:>16.6g} {units[name]}")
    print(f"{'failed_ops_frac':44s} {failed / attempted:>16.6g} fraction")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}")
    print(f"record: {out_dir / (tag + '.json')}")
    gated = {name for name, _ in END_TO_END} if not args.trace else set(metrics)
    print(json.dumps({
        "correct": not checks.failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
