"""In-memory span tracer for the traced benchmark run.

The tracer replaces functions at the name their caller looks them up
(``ts3d.train.load_frame``, ``ts3d.ops.make_node``) and methods on their
class (``MHSA.forward``) and records one span per call. Nothing under
``src/`` is modified; the replacements live only in the process that
installs them, which is a benchmark worker process of its own.

Spans belong to one of two families: module spans (dataset, backbone,
decoder, ...) and op spans (``ops.<op>.fwd`` / ``ops.<op>.bwd``). A span's
self time is its duration minus the time covered by its nearest descendants
of the same family, so a module's self time still contains the autodiff ops
it runs, and the ``ops.*`` metrics break the same time down by operator.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# Autodiff ops whose forward, backward, call count and output bytes are reported.
TRACED_OPS = ("conv2d", "correlation_volume", "bilinear_sample", "matmul", "softmax",
              "narrow", "reshape", "concat", "channel_norm", "upsample2x")

# Self-time metric -> span name. Every metric is reported per step or per frame.
TIME_METRICS = {
    "dataset.load_frame_ms": "dataset.load_frame",
    "augment.ms": "augment",
    "backbone.fwd_ms": "backbone.fwd",
    "spfpn.cost_volumes_ms": "spfpn.cost_volumes",
    "spfpn.aggregate_ms": "spfpn.aggregate",
    "disphead.fwd_ms": "disphead.fwd",
    "decoder.query_pe_ms": "decoder.query_pe",
    "decoder.mhsa_ms": "decoder.mhsa",
    "decoder.cross_ms": "decoder.cross",
    "decoder.ffn_ms": "decoder.ffn",
    "model.loss_ms": "model.loss",
    "tensor.backward_ms": "tensor.backward",
    "optim.step_ms": "optim.step",
    "checkpoint.save_ms": "checkpoint.save",
    "detect.decode_ms": "detect.decode",
    "detect.nms_ms": "detect.nms",
    "kitti_io.write_label_ms": "kitti_io.write_label",
    "evalkit.ap_ms": "evalkit.ap",
    "synth.scene_ms": "synth.scene",
    "kitti_io.write_ppm_ms": "kitti_io.write_ppm",
    "disphead.block_match_ms": "disphead.block_match",
}
for _op in TRACED_OPS:
    TIME_METRICS[f"ops.{_op}.fwd_ms"] = f"ops.{_op}.fwd"
    TIME_METRICS[f"ops.{_op}.bwd_ms"] = f"ops.{_op}.bwd"

# Count metric -> counter name, reported per step or per frame.
COUNT_METRICS = {
    "dataset.load_frame.calls": "dataset.load_frame",
    "tensor.graph_nodes": "graph_nodes",
    "tensor.graph_bytes": "graph_bytes",
    "detect.candidates": "candidates",
    "evalkit.iou_calls": "iou_calls",
}
for _op in TRACED_OPS:
    COUNT_METRICS[f"ops.{_op}.calls"] = f"ops.{_op}.calls"
    COUNT_METRICS[f"ops.{_op}.out_bytes"] = f"ops.{_op}.out_bytes"

# Ratio metric -> (numerator counter, denominator counter).
RATIO_METRICS = {
    "detect.nms_keep_ratio": ("nms_kept", "candidates"),
    "pseudogt.valid_frac": ("valid_px", "matched_px"),
}


class Tracer:
    """Records (name, start, end, parent) spans and named counters."""

    def __init__(self):
        # [name, start, end, parent, same-family parent]; parents are indices
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list = []
        self._open_family = {"module": [], "op": []}

    # -- spans ---------------------------------------------------------

    def call(self, name: str, family: str, fn, args, kwargs):
        stack = self._open_family[family]
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._open[-1] if self._open else -1,
                           stack[-1] if stack else -1])
        self._open.append(idx)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            span = self.spans[idx]
            span[1], span[2] = start, end
            self._open.pop()
            stack.pop()

    def spanned(self, fn, name: str, family: str = "module", after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, family, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, _, fparent in self.spans:
            if fparent >= 0:
                covered[fparent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            out[name] += (end - start) - cov
        return out

    # -- installation ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, family: str = "module", after=None):
        setattr(owner, attr, self.spanned(getattr(owner, attr), name, family, after))

    def count_calls(self, owner, attr: str, key: str) -> None:
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer of ``ts3d``."""
        import ts3d.dataset
        import ts3d.detect
        import ts3d.evalkit
        import ts3d.model
        import ts3d.ops
        import ts3d.tensor
        import ts3d.train
        from ts3d.backbone import Backbone
        from ts3d.decoder import FFN, MHSA, GridQuery, MSDeformCA
        from ts3d.disphead import DisparityHead
        from ts3d.spfpn import SPFPN

        count = self.counts

        def after_load_frame(result, args):
            count["dataset.load_frame"] += 1

        def after_nms(kept, args):
            count["candidates"] += len(args[0])
            count["nms_kept"] += len(kept)

        def after_block_match(result, args):
            count["valid_px"] += int(result[1].sum())
            count["matched_px"] += result[1].size

        self.wrap(ts3d.train, "load_frame", "dataset.load_frame", after=after_load_frame)
        self.wrap(ts3d.train, "augment", "augment")
        self.wrap(ts3d.train, "save_checkpoint", "checkpoint.save")
        self.wrap(ts3d.train, "write_kitti_label", "kitti_io.write_label")
        self.wrap(ts3d.train.AdamW, "step", "optim.step")
        self.wrap(ts3d.dataset, "synth_scene", "synth.scene")
        self.wrap(ts3d.dataset, "write_ppm", "kitti_io.write_ppm")
        self.wrap(ts3d.dataset, "write_kitti_label", "kitti_io.write_label")
        self.wrap(ts3d.dataset, "block_match_stereo", "disphead.block_match",
                  after=after_block_match)
        self.wrap(Backbone, "forward", "backbone.fwd")
        self.wrap(SPFPN, "build_cost_volumes", "spfpn.cost_volumes")
        self.wrap(SPFPN, "aggregate", "spfpn.aggregate")
        self.wrap(SPFPN, "project_scales", "spfpn.aggregate")
        self.wrap(DisparityHead, "forward", "disphead.fwd")
        self.wrap(ts3d.model, "softargmax", "disphead.fwd")
        self.wrap(GridQuery, "forward", "decoder.query_pe")
        self.wrap(ts3d.model.TS3D, "positional_encoding", "decoder.query_pe")
        self.wrap(MHSA, "forward", "decoder.mhsa")
        self.wrap(MSDeformCA, "forward", "decoder.cross")
        self.wrap(FFN, "forward", "decoder.ffn")
        self.wrap(ts3d.model.TS3D, "compute_loss", "model.loss")
        self.wrap(ts3d.model, "decode_detections", "detect.decode")
        self.wrap(ts3d.detect, "nms_2d", "detect.nms", after=after_nms)
        self.wrap(ts3d.tensor.Tensor, "backward", "tensor.backward")
        self.wrap(ts3d.evalkit, "average_precision", "evalkit.ap")
        self.count_calls(ts3d.evalkit, "bev_iou", "iou_calls")
        self.count_calls(ts3d.evalkit, "iou_3d", "iou_calls")
        for op in TRACED_OPS:
            self.wrap(ts3d.ops, op, f"ops.{op}.fwd", family="op")

        make_node = ts3d.ops.make_node

        def traced_make_node(data, parents, op, backward_builder):
            builder = backward_builder
            if op in TRACED_OPS:
                def builder():
                    return self.spanned(backward_builder(), f"ops.{op}.bwd", family="op")
            out = make_node(data, parents, op, builder)
            count[f"ops.{op}.calls"] += 1
            count[f"ops.{op}.out_bytes"] += out.data.nbytes
            if out._backward_fn is not None:
                count["graph_nodes"] += 1
                count["graph_bytes"] += out.data.nbytes
            return out

        ts3d.ops.make_node = traced_make_node

    # -- results ---------------------------------------------------------

    def layer_metrics(self, items: int) -> dict:
        """Every per-layer metric, normalised per step or frame (``items``)."""
        selfs = self.self_times()
        out = {}
        for metric, span in TIME_METRICS.items():
            out[metric] = {"value": 1000.0 * selfs[span] / items, "unit": "ms"}
        for metric, key in COUNT_METRICS.items():
            unit = "bytes" if key.endswith("bytes") else "count"
            out[metric] = {"value": self.counts[key] / items, "unit": unit}
        for metric, (num, den) in RATIO_METRICS.items():
            value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            out[metric] = {"value": value, "unit": "ratio"}
        return out

    def write_spans(self, path) -> None:
        """Tab-separated name, start, end (seconds) and parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
