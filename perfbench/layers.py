"""Which mrcompress functions the traced run wraps, and the per-layer
metrics computed from their spans.

Each function is wrapped where its callers look it up, so a function
imported by name into two modules is wrapped in both. Span names are
``<layer>.<step>``; the metric names below are fixed for later changes.
"""

import math

from tracing import self_times

def install(tracer):
    from mrcompress import cli, codec, container, metrics, pipeline, roi, uncertainty
    from mrcompress.codec import entropy, interp, lorenzo
    from mrcompress.codec.blob import CompressedBlob

    w = tracer.wrap
    w(cli, "read_raw_volume", "grid.read_raw")
    w(cli, "write_raw_volume", "grid.write_raw")
    w(roi, "upsample2x", "grid.upsample2x")

    w(cli, "select_roi", "roi.select_roi")
    w(cli, "build_adaptive", "roi.build_adaptive")
    w(cli, "reconstruct_uniform", "roi.reconstruct_uniform")

    for mod in (pipeline, container):
        w(mod, "linear_merge", "layout.merge")
        w(mod, "stack_merge", "layout.merge")
    w(pipeline, "pad_linear", "layout.pad", count=lambda a, k, r: {
        "cells": a[0].values.size, "added": r.values.size - a[0].values.size})
    w(pipeline, "unpad", "layout.unpad")
    w(pipeline, "unmerge", "layout.unmerge")

    w(pipeline, "compress", "codec.compress")
    w(pipeline, "decompress", "codec.decompress", count=lambda a, k, r: {
        "coded": int(a[0].codec_name != "stored")})
    w(codec, "interp_compress", "interp.encode")
    w(codec, "interp_decompress", "interp.decode")
    w(codec, "block_compress", "lorenzo.encode")
    w(codec, "block_decompress", "lorenzo.decode")

    for mod in (interp, lorenzo):
        w(mod, "quantize_array", "quantize", count=lambda a, k, r: {
            "values": r[0].size, "literals": r[2].size})
        w(mod, "entropy_encode", "entropy.encode")
        w(mod, "entropy_decode", "entropy.decode")
    w(entropy, "build_table", "entropy.build_table", count=lambda a, k, r: {"symbols": r.n_symbols})
    w(entropy, "pack_codes", "entropy.pack", mem=True, count=lambda a, k, r: {"bits": 8 * len(r)})
    w(entropy, "unpack_codes", "entropy.unpack", mem=True)

    w(CompressedBlob, "to_bytes", "blob.to_bytes")
    w(CompressedBlob, "from_bytes", "blob.from_bytes")

    w(pipeline, "plan_sampling", "post.plan", count=lambda a, k, r: {
        "cells": math.prod(a[0]), "sampled": len(r.origins) * math.prod(r.edges)})
    w(pipeline, "select_intensity", "post.select_intensity")
    w(pipeline, "apply_postprocess", "post.apply")

    w(cli, "compress_level", "pipeline.compress_level")
    w(cli, "decompress_level", "pipeline.decompress_level")
    w(cli, "level_sample_pairs", "pipeline.level_sample_pairs")
    w(pipeline, "compress_volume", "pipeline.compress_volume")
    w(pipeline, "decompress_volume", "pipeline.decompress_volume")

    for mod in (cli, container):
        w(mod, "encode_container", "container.encode", count=lambda a, k, r: {"bytes": len(r)})
    w(container, "decode_container", "container.decode")

    for mod in (cli, uncertainty):
        w(mod, "sample_errors", "uncertainty.sample_errors")
        w(mod, "fit_model", "uncertainty.fit_model")
        w(mod, "probability_field", "uncertainty.probability_field")
    for mod in (cli, metrics):
        w(mod, "psnr", "metrics.psnr")
        w(mod, "ssim", "metrics.ssim")


def _total(name):
    return lambda it: sum(s.end - s.start for s in it.spans if s.name == name)


def _self(name):
    return lambda it: sum(it.own[s.id] for s in it.spans if s.name == name)


def _calls(name):
    return lambda it: sum(1 for s in it.spans if s.name == name)


def _sum(name, key, op=None):
    return lambda it: sum(s.counts[key] for s in it.spans if s.name == name and op in (None, s.op))


def _max(name, key):
    return lambda it: max((s.counts[key] for s in it.spans if s.name == name), default=0.0)


def _ratio(name, num, den):
    def f(it):
        d = _sum(name, den)(it)
        return _sum(name, num)(it) / d if d else 0.0
    return f


def _ctx(key):
    return lambda it: it.ctx[key]


# (metric, reducer over the spans of one traced iteration); units are in BENCHMARK.json
PER_LAYER = [
    ("grid.read_raw_s", _total("grid.read_raw")),
    ("grid.write_raw_s", _total("grid.write_raw")),
    ("grid.upsample2x_s", _total("grid.upsample2x")),
    ("grid.upsample2x_calls", _calls("grid.upsample2x")),
    ("roi.select_roi_s", _total("roi.select_roi")),
    ("roi.build_adaptive_s", _total("roi.build_adaptive")),
    ("roi.reconstruct_uniform_self_s", _self("roi.reconstruct_uniform")),
    ("layout.merge_s", _total("layout.merge")),
    ("layout.pad_s", _total("layout.pad")),
    ("layout.unpad_s", _total("layout.unpad")),
    ("layout.unmerge_s", _total("layout.unmerge")),
    ("layout.pad_cells_frac", _ratio("layout.pad", "added", "cells")),
    ("interp.encode_self_s", _self("interp.encode")),
    ("interp.decode_self_s", _self("interp.decode")),
    ("lorenzo.encode_self_s", _self("lorenzo.encode")),
    ("lorenzo.decode_self_s", _self("lorenzo.decode")),
    ("quantize.s", _total("quantize")),
    ("quantize.calls", _calls("quantize")),
    ("quantize.literal_rate", _ratio("quantize", "literals", "values")),
    ("entropy.build_table_s", _total("entropy.build_table")),
    ("entropy.pack_s", _total("entropy.pack")),
    ("entropy.unpack_s", _total("entropy.unpack")),
    ("entropy.encode_self_s", _self("entropy.encode")),
    ("entropy.decode_self_s", _self("entropy.decode")),
    ("entropy.coded_bits", _sum("entropy.pack", "bits")),
    ("entropy.table_symbols", _sum("entropy.build_table", "symbols")),
    ("entropy.pack_peak_MB", _max("entropy.pack", "peak_MB")),
    ("entropy.unpack_peak_MB", _max("entropy.unpack", "peak_MB")),
    ("blob.to_bytes_calls", _calls("blob.to_bytes")),
    ("blob.from_bytes_s", _total("blob.from_bytes")),
    ("post.plan_s", _total("post.plan")),
    ("post.select_intensity_s", _total("post.select_intensity")),
    ("post.apply_s", _total("post.apply")),
    ("post.apply_calls", _calls("post.apply")),
    ("post.sample_cells_frac", _ratio("post.plan", "sampled", "cells")),
    ("pipeline.compress_level_self_s", _self("pipeline.compress_level")),
    ("pipeline.decompress_level_self_s", _self("pipeline.decompress_level")),
    ("pipeline.level_sample_pairs_s", _total("pipeline.level_sample_pairs")),
    ("pipeline.codec_decodes_per_level", lambda it: _sum("codec.decompress", "coded")(it) / it.ctx["levels"]),
    ("container.encode_s", _total("container.encode")),
    ("container.decode_s", _total("container.decode")),
    ("container.bytes", _sum("container.encode", "bytes", op="compress")),
    ("container.sample_bytes_frac", _ctx("sample_bytes_frac")),
    ("uncertainty.sample_errors_s", _total("uncertainty.sample_errors")),
    ("uncertainty.fit_model_s", _total("uncertainty.fit_model")),
    ("uncertainty.probability_field_s", _total("uncertainty.probability_field")),
    ("metrics.psnr_s", _total("metrics.psnr")),
    ("metrics.ssim_s", _total("metrics.ssim")),
]


class TracedIteration:
    """The spans of one traced iteration with their self times."""

    def __init__(self, spans, ctx):
        self.spans = spans
        self.own = self_times(spans)
        self.ctx = ctx


def layer_metrics(it):
    return {name: float(fn(it)) for name, fn in PER_LAYER}
