"""The traced layer boundaries and the per-layer metrics derived from them.

Every boundary reports, per traced job: `calls`, `busy_s` (time inside its
spans), `self_s` (busy time minus time in traced children) and `time_share`
(self time over the traced job's wall time). Boundaries with a FLOP count
from the cost model also report achieved `gflops` (own FLOPs over self time)
and `flops_share` (own FLOPs over all counted FLOPs). The memory blocks add
computed bytes per call and the bandwidth that implies; file boundaries add
MB/s of payload.
"""

from __future__ import annotations

import statistics

import costs
from spans import Boundary


def _b(name, module, attr, cost=None):
    return Boundary(name, ((f"dfsmn.{module}", attr),), cost)


BOUNDARIES = (
    _b("tensor.seeded_normal", "tensor", "seeded_normal"),
    _b("network.build_network", "network", "build_network"),
    _b("model_io.load_model", "model_io", "load_model", costs.model_bytes_loaded),
    _b("model_io.save_model", "model_io", "save_model", costs.model_bytes_saved),
    _b("features.load_dataset", "features", "load_dataset", costs.dataset_bytes),
    _b("network.forward", "network", "forward", costs.network_forward),
    _b("network.backward", "network", "backward", costs.network_backward),
    _b("network.zeros_like_params", "network", "zeros_like_params"),
    # self time of the whole-layer forward is its output transform
    _b("layers.output", "layers", "dfsmn_layer_forward", costs.layer_output),
    _b("layers.project", "layers", "project", costs.project),
    _b("layers.memory_block", "layers", "memory_block", costs.memory_block),
    _b("layers.fc_forward", "layers", "fc_layer_forward", costs.fc_forward),
    _b("layers.layer_backward", "layers", "layer_backward", costs.layer_backward),
    _b("layers.memory_block_backward", "layers", "memory_block_backward",
       costs.memory_block_backward),
    _b("layers.fc_backward", "layers", "fc_layer_backward", costs.fc_backward),
    _b("trainer.train", "trainer", "train"),
    _b("trainer.evaluate_mse", "trainer", "evaluate_mse"),
    _b("trainer.multitask_mse", "trainer", "multitask_mse"),
    _b("trainer.accumulate_grads", "trainer", "accumulate_grads"),
    _b("trainer.sgd_step", "trainer", "sgd_step"),
    Boundary("metrics.scoring", tuple(("dfsmn.metrics", f) for f in
                                      ("total_mse", "mcd", "f0_rmse", "bapd", "uv_error"))),
)

FLOP_BOUNDARIES = ("network.forward", "network.backward", "layers.output",
                   "layers.project", "layers.memory_block", "layers.fc_forward",
                   "layers.layer_backward", "layers.memory_block_backward",
                   "layers.fc_backward")
BYTE_BOUNDARIES = ("layers.memory_block", "layers.memory_block_backward")
FILE_BOUNDARIES = ("model_io.load_model", "model_io.save_model", "features.load_dataset")
JOB_SPAN = "job"


def metric_units() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for b in BOUNDARIES:
        out += [(f"{b.name}.calls", "count"), (f"{b.name}.busy_s", "s"),
                (f"{b.name}.self_s", "s"), (f"{b.name}.time_share", "ratio")]
        if b.name in FLOP_BOUNDARIES:
            out += [(f"{b.name}.gflops", "GFLOP/s"), (f"{b.name}.flops_share", "ratio")]
        if b.name in BYTE_BOUNDARIES:
            out += [(f"{b.name}.bytes_per_call", "B"), (f"{b.name}.gb_per_s", "GB/s")]
        if b.name in FILE_BOUNDARIES:
            out += [(f"{b.name}.mb_per_s", "MB/s")]
    out += [("job.wall_s", "s"), ("job.untraced_s", "s"),
            ("tracing.overhead", "ratio"), ("tracing.spans", "count")]
    return out


def _div(a, b):
    return a / b if b else 0.0


def per_layer_metrics(stats: dict, n_spans: int, traced_walls: list,
                      untraced_walls: list) -> dict:
    """Per traced job averages of every boundary's numbers."""
    n = len(traced_walls)
    wall_ns = stats[JOB_SPAN].busy_ns
    total_flops = sum(st.flops for st in stats.values())
    values = {}
    for b in BOUNDARIES:
        st = stats.get(b.name)
        calls, busy, own, flops, nbytes = ((st.calls, st.busy_ns, st.self_ns, st.flops,
                                            st.bytes) if st else (0, 0, 0, 0, 0))
        values[f"{b.name}.calls"] = calls / n
        values[f"{b.name}.busy_s"] = busy / n / 1e9
        values[f"{b.name}.self_s"] = own / n / 1e9
        values[f"{b.name}.time_share"] = _div(own, wall_ns)
        if b.name in FLOP_BOUNDARIES:
            values[f"{b.name}.gflops"] = _div(flops, own)        # flop/ns = GFLOP/s
            values[f"{b.name}.flops_share"] = _div(flops, total_flops)
        if b.name in BYTE_BOUNDARIES:
            values[f"{b.name}.bytes_per_call"] = _div(nbytes, calls)
            values[f"{b.name}.gb_per_s"] = _div(nbytes, own)
        if b.name in FILE_BOUNDARIES:
            values[f"{b.name}.mb_per_s"] = _div(nbytes / 1e6, busy / 1e9)
    values["job.wall_s"] = wall_ns / n / 1e9
    values["job.untraced_s"] = stats[JOB_SPAN].self_ns / n / 1e9
    values["tracing.overhead"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    values["tracing.spans"] = (n_spans - n) / n
    return values


def self_time_balance(tracer, stats: dict) -> tuple:
    """(sum of all spans' self ns, total ns of root spans): equal when every
    span closed and the self-time arithmetic holds."""
    return sum(st.self_ns for st in stats.values()), tracer.root_ns()
