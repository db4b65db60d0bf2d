"""Span tracing and event counting for the pipeline benchmark, from outside.

Everything the benchmark observes inside the program goes through this
module: it wraps the layers' public functions where their callers look them
up, records one span per call, counts the program's warnings by kind, and
turns spans and counts into the per-layer metrics. It changes no program
code, so a later change that gives the program its own telemetry can replace
this module without touching the workloads.

A span is (id, name, start, end, parent id, thread id, meta). Spans stay in
memory until the run ends; self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import warnings
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ENCODER_LAYERS = 6

# Autodiff primitives: each builds exactly one graph node, so their call
# count is the forward op count. Composites (linear, bce_with_logits) call
# these and are not counted as ops.
PRIMITIVES = ("add", "sub", "mul", "matmul", "concat", "getitem", "rows", "group_sum",
              "reshape", "tsum", "tmean", "square", "exp", "log", "sigmoid", "softplus",
              "relu", "leaky_relu", "neighborhood_softmax", "cosine_similarity",
              "l2_normalize", "grad_reverse")
REPORTED_OPS = ("matmul", "rows", "group_sum", "neighborhood_softmax", "concat", "add",
                "mul", "softplus", "leaky_relu", "cosine_similarity")

LOAD_KINDS = ("network", "trajectories", "cost_labels", "demands", "features",
              "partition", "cost_model", "preference_model")
SAVE_KINDS = ("network", "trajectories", "cost_labels", "demands", "features",
              "partition", "cost_model", "loss_history", "preference_model",
              "preference_history", "infeasible", "report", "pair_metrics", "histograms")
CLI_STAGES = ("synth_city", "features", "partition", "train_cost", "train_pref",
              "generate", "evaluate")

# warning text -> counter; the program emits these with warnings.warn only
WARNING_KINDS = (
    (re.compile(r"batch has no labeled segments"), "unlabeled_batches"),
    (re.compile(r"rank loss skipped"), "rank_skipped"),
    (re.compile(r"zero-norm latent"), "zero_norm_latents"),
    (re.compile(r"(\d+) trajectories skipped"), "skipped_trajectories"),
)


def _catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = [("autodiff.backward_s", "s", "lower"),
            ("autodiff.adam_step_s", "s", "lower"),
            ("autodiff.forward_ops_per_step", "ops/step", "lower")]
    for op in REPORTED_OPS:
        rows += [(f"autodiff.op.{op}.s", "s", "lower"),
                 (f"autodiff.op.{op}.calls", "count", "lower")]
    rows += [("encoder.embed_inputs_s", "s", "lower")]
    rows += [(f"encoder.sagat_layer{l}_s", "s", "lower") for l in range(ENCODER_LAYERS)]
    rows += [("encoder.attention_weights_s", "s", "lower"),
             ("encoder.subgraph_inputs_s", "s", "lower"),
             ("encoder.batch_segments_mean", "segments", "higher"),
             ("encoder.batch_edges_mean", "edges", "higher"),
             ("costmodel.train_step_ms.p50", "ms", "lower"),
             ("costmodel.train_step_ms.p99", "ms", "lower"),
             ("costmodel.train_step_ms.count", "count", "higher"),
             ("costmodel.forward_s", "s", "lower"),
             ("costmodel.encode_latents_s", "s", "lower"),
             ("costmodel.losses_s", "s", "lower"),
             ("costmodel.build_city_graph_s", "s", "lower"),
             ("costmodel.infer_city_s", "s", "lower"),
             ("costmodel.unlabeled_batches", "count", "lower"),
             ("costmodel.rank_skipped", "count", "lower"),
             ("costmodel.zero_norm_latents", "count", "lower"),
             ("partition.partition_s", "s", "lower"),
             ("partition.sample_batch_s", "s", "lower"),
             ("preference.epoch_ms.p50", "ms", "lower"),
             ("preference.epoch_ms.p99", "ms", "lower"),
             ("preference.preference_values_s", "s", "lower"),
             ("preference.loss_s", "s", "lower"),
             ("preference.costs_for_slices_s", "s", "lower"),
             ("preference.skipped_trajectories", "count", "lower"),
             ("preference.infeasible_demands", "count", "lower"),
             ("routing.dijkstra_calls.synth", "count", "lower"),
             ("routing.dijkstra_calls.pref", "count", "lower"),
             ("routing.dijkstra_calls.generate", "count", "lower"),
             ("routing.dijkstra_s", "s", "lower"),
             ("routing.dijkstra_us.p50", "us", "lower"),
             ("routing.dijkstra_us.p99", "us", "lower"),
             ("space_syntax.bfs_calls", "count", "lower"),
             ("space_syntax.bfs_s", "s", "lower"),
             ("space_syntax.total_depth_s", "s", "lower"),
             ("space_syntax.integration_s", "s", "lower"),
             ("space_syntax.choice_s", "s", "lower"),
             ("space_syntax.sample_canonical_paths_s", "s", "lower"),
             ("space_syntax.relation_matrix_s", "s", "lower"),
             ("synth.synth_city_s", "s", "lower"),
             ("synth.planted_cost_table_s", "s", "lower"),
             ("metrics.hausdorff_s", "s", "lower"),
             ("metrics.dtw_s", "s", "lower"),
             ("metrics.edt_s", "s", "lower"),
             ("metrics.edr_s", "s", "lower"),
             ("metrics.pairs", "count", "higher"),
             ("network.load_s", "s", "lower"),
             ("network.save_s", "s", "lower")]
    rows += [(f"network.load_s.{k}", "s", "lower") for k in LOAD_KINDS]
    rows += [(f"network.save_s.{k}", "s", "lower") for k in SAVE_KINDS]
    rows += [(f"cli.{stage}_s", "s", "lower") for stage in CLI_STAGES]
    rows += [("trace.overhead_frac", "ratio", "lower"),
             ("trace.coverage", "ratio", "higher")]
    return rows


PER_LAYER = _catalogue()


# ---------------------------------------------------------------------------
# event counting


class EventCounter:
    """Records every warning the program emits, bypassing Python's
    once-per-location filter, and counts them by kind."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self._ctx = None
        self._log: list = []

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._log = self._ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self.drain()
        return self._ctx.__exit__(*exc)

    def drain(self) -> dict[str, int]:
        """Fold the warnings recorded so far into the counts."""
        for w in self._log:
            text = str(w.message)
            for pattern, kind in WARNING_KINDS:
                m = pattern.search(text)
                if m:
                    self.counts[kind] += int(m.group(1)) if m.groups() else 1
                    break
            else:
                self.counts["other"] += 1
        self._log.clear()
        return self.counts


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Keeps spans in memory; wraps functions in place and restores them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), None))

    def _wrapper(self, fn, name, name_of=None, meta_of=None):
        ids, spans, stack_of = self._ids, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name_of(args) if name_of else name, t0, t1, parent,
                              threading.get_ident(),
                              meta_of(result) if meta_of and result is not None else None))

        return traced

    def wrap(self, owner, attr: str, name: str, name_of=None, meta_of=None) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, name_of, meta_of))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install_pipeline(self) -> None:
        """Wrap each layer's public functions at the site its callers use."""
        from crosstraj import (autodiff, cli, costmodel, encoder, metrics, preference,
                               space_syntax, synth)

        w = self.wrap
        w(cli, "synth_city", "synth.synth_city")
        w(synth, "planted_cost_table", "synth.planted_cost_table")
        w(synth, "dijkstra_node_weighted", "routing.dijkstra@synth")
        w(preference, "dijkstra_node_weighted", "routing.dijkstra@preference")
        for fn in ("bfs_depths", "total_depth", "integration", "choice", "relation_matrix"):
            w(space_syntax, fn, f"space_syntax.{fn}")
        w(costmodel, "sample_canonical_paths", "space_syntax.sample_canonical_paths")
        w(cli, "partition", "partition.partition")
        w(costmodel, "sample_batch", "partition.sample_batch")

        w(costmodel, "encode", "encoder.encode")
        w(encoder, "embed_inputs", "encoder.embed_inputs")
        w(encoder, "sagat_layer", "encoder.sagat_layer",
          name_of=lambda args: f"encoder.sagat_layer{args[1]}")
        w(encoder, "attention_weights", "encoder.attention_weights")
        w(encoder.CityGraph, "subgraph_inputs", "encoder.subgraph_inputs",
          meta_of=lambda r: (r.n, len(r.edge_src)))
        for op in PRIMITIVES:
            w(autodiff, op, f"autodiff.op.{op}")
        w(autodiff, "bce_with_logits", "autodiff.bce_with_logits")
        w(autodiff.Tensor, "backward", "autodiff.backward")
        w(autodiff.Adam, "step", "autodiff.adam_step")

        for fn in ("train_step", "encode_latents", "loss_mse", "loss_rank", "loss_orth"):
            w(costmodel, fn, f"costmodel.{fn}")
        for mod in (cli, costmodel, preference):
            w(mod, "build_city_graph", "costmodel.build_city_graph")
        for mod in (costmodel, preference):
            w(mod, "infer_city", "costmodel.infer_city")

        w(cli, "train_preference", "preference.train_preference")
        w(preference, "preference_loss", "preference.preference_loss")
        w(preference, "preference_loss_from_p", "preference.loss")
        w(preference, "preference_values", "preference.preference_values")
        for mod in (cli, preference):
            w(mod, "costs_for_slices", "preference.costs_for_slices")
        w(preference, "generate_paths", "preference.generate_paths")

        for fn in ("hausdorff", "dtw", "edt", "edr"):
            w(metrics, fn, f"metrics.{fn}")
        for attr in sorted(vars(cli)):
            verb, _, kind = attr.partition("_")
            if verb in ("load", "save") and attr != "load_config" and callable(getattr(cli, attr)):
                w(cli, attr, f"network.{verb}.{kind}")


# ---------------------------------------------------------------------------
# per-layer metrics


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[tuple], events: dict[str, int], infeasible: int,
                  region_s: float, top_level_s: float, overhead: float) -> dict[str, float]:
    """Per-layer values from one traced pass, keyed as in PER_LAYER.

    Times are seconds of span duration summed over every call; autodiff op
    times are self times. region_s is the traced pass's wall time and
    top_level_s the part of it that top-level spans cover.
    """
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, _, _, _ in spans:
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[sid]
        calls[name] += 1

    def has_ancestor(span, name) -> bool:
        parent = span[4]
        while parent >= 0:
            span = by_id[parent]
            if span[1] == name:
                return True
            parent = span[4]
        return False

    # which train step (if any) each span sits under
    step_of: dict[int, int] = {}
    for s in sorted(spans, key=lambda s: s[0]):
        if s[1] == "costmodel.train_step":
            step_of[s[0]] = s[0]
        elif s[4] >= 0 and s[4] in step_of:
            step_of[s[0]] = step_of[s[4]]
    steps = [s for s in spans if s[1] == "costmodel.train_step"]
    step_ids = {s[0] for s in steps}
    step_ops = sum(1 for s in spans if s[1].startswith("autodiff.op.") and s[0] in step_of)
    # forward = the step minus its own backward pass and optimizer update
    forward = sum(s[3] - s[2] for s in steps) - sum(
        s[3] - s[2] for s in spans
        if s[4] in step_ids and s[1] in ("autodiff.backward", "autodiff.adam_step"))

    batches = [s[6] for s in spans
               if s[1] == "encoder.subgraph_inputs" and s[6] is not None
               and not has_ancestor(s, "costmodel.infer_city")]
    dijkstra = [s for s in spans if s[1].startswith("routing.dijkstra@")]
    by_caller = defaultdict(int)
    for s in dijkstra:
        if s[1].endswith("@synth"):
            by_caller["synth"] += 1
        elif has_ancestor(s, "preference.generate_paths"):
            by_caller["generate"] += 1
        else:
            by_caller["pref"] += 1

    # an epoch runs from one preference_loss call to the next, or to the end
    # of its train_preference call
    epoch_ms: list[float] = []
    for run in (s for s in spans if s[1] == "preference.train_preference"):
        starts = sorted(s[2] for s in spans
                        if s[1] == "preference.preference_loss" and run[2] <= s[2] <= run[3])
        ends = starts[1:] + [run[3]]
        epoch_ms += [(b - a) * 1e3 for a, b in zip(starts, ends)]

    out: dict[str, float] = {
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.adam_step_s": total["autodiff.adam_step"],
        "autodiff.forward_ops_per_step": step_ops / len(steps) if steps else 0.0,
    }
    for op in REPORTED_OPS:
        out[f"autodiff.op.{op}.s"] = self_s[f"autodiff.op.{op}"]
        out[f"autodiff.op.{op}.calls"] = calls[f"autodiff.op.{op}"]
    out["encoder.embed_inputs_s"] = total["encoder.embed_inputs"]
    for l in range(ENCODER_LAYERS):
        out[f"encoder.sagat_layer{l}_s"] = total[f"encoder.sagat_layer{l}"]
    train_ms = [(s[3] - s[2]) * 1e3 for s in steps]
    out.update({
        "encoder.attention_weights_s": total["encoder.attention_weights"],
        "encoder.subgraph_inputs_s": total["encoder.subgraph_inputs"],
        "encoder.batch_segments_mean": float(np.mean([b[0] for b in batches])) if batches else 0.0,
        "encoder.batch_edges_mean": float(np.mean([b[1] for b in batches])) if batches else 0.0,
        "costmodel.train_step_ms.p50": _pct(train_ms, 50),
        "costmodel.train_step_ms.p99": _pct(train_ms, 99),
        "costmodel.train_step_ms.count": len(train_ms),
        "costmodel.forward_s": forward,
        "costmodel.encode_latents_s": total["costmodel.encode_latents"],
        "costmodel.losses_s": sum(total[n] for n in (
            "costmodel.loss_mse", "costmodel.loss_rank", "costmodel.loss_orth",
            "autodiff.bce_with_logits")),
        "costmodel.build_city_graph_s": total["costmodel.build_city_graph"],
        "costmodel.infer_city_s": total["costmodel.infer_city"],
        "costmodel.unlabeled_batches": events.get("unlabeled_batches", 0),
        "costmodel.rank_skipped": events.get("rank_skipped", 0),
        "costmodel.zero_norm_latents": events.get("zero_norm_latents", 0),
        "partition.partition_s": total["partition.partition"],
        "partition.sample_batch_s": total["partition.sample_batch"],
        "preference.epoch_ms.p50": _pct(epoch_ms, 50),
        "preference.epoch_ms.p99": _pct(epoch_ms, 99),
        "preference.preference_values_s": total["preference.preference_values"],
        "preference.loss_s": total["preference.loss"],
        "preference.costs_for_slices_s": total["preference.costs_for_slices"],
        "preference.skipped_trajectories": events.get("skipped_trajectories", 0),
        "preference.infeasible_demands": infeasible,
        "routing.dijkstra_calls.synth": by_caller["synth"],
        "routing.dijkstra_calls.pref": by_caller["pref"],
        "routing.dijkstra_calls.generate": by_caller["generate"],
        "routing.dijkstra_s": sum(s[3] - s[2] for s in dijkstra),
        "routing.dijkstra_us.p50": _pct([(s[3] - s[2]) * 1e6 for s in dijkstra], 50),
        "routing.dijkstra_us.p99": _pct([(s[3] - s[2]) * 1e6 for s in dijkstra], 99),
        "space_syntax.bfs_calls": calls["space_syntax.bfs_depths"],
        "space_syntax.bfs_s": total["space_syntax.bfs_depths"],
    })
    for fn in ("total_depth", "integration", "choice", "sample_canonical_paths",
               "relation_matrix"):
        out[f"space_syntax.{fn}_s"] = total[f"space_syntax.{fn}"]
    out["synth.synth_city_s"] = total["synth.synth_city"]
    out["synth.planted_cost_table_s"] = total["synth.planted_cost_table"]
    for fn in ("hausdorff", "dtw", "edt", "edr"):
        out[f"metrics.{fn}_s"] = total[f"metrics.{fn}"]
    out["metrics.pairs"] = calls["metrics.hausdorff"]
    for verb, kinds in (("load", LOAD_KINDS), ("save", SAVE_KINDS)):
        out[f"network.{verb}_s"] = sum(v for k, v in total.items()
                                       if k.startswith(f"network.{verb}."))
        for kind in kinds:
            out[f"network.{verb}_s.{kind}"] = total[f"network.{verb}.{kind}"]
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = total[f"cli.{stage}"]
    out["trace.overhead_frac"] = overhead
    out["trace.coverage"] = top_level_s / region_s if region_s > 0 else 0.0
    return out
