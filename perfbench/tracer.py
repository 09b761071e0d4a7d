"""Span recorder for the traced run of the chanimg benchmark.

Run as a script, it executes one chanimg CLI stage in-process through
``chanimg.cli.run``, with the public functions of each layer wrapped where
the program looks them up (``chanimg.cli``, ``chanimg.io``, ``chanimg.stats``
and ``chanimg.genmodel.wgan`` module globals, and class methods).  Spans and
counters stay in memory and are written as one JSON file when the stage ends:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json -- \
        --seed 7 gen-data --links 5000 --out data.jsonl

The exit code is the stage's.  A wrap target that no longer exists is listed
under "absent" and skipped.  Importing this module imports nothing from
chanimg: the span arithmetic is shared with run.py and the tests.
"""

import functools
import importlib
import json
import os
import sys
import time

STAGES = ("gen-data", "fit-codec", "encode", "train", "sample", "decode", "eval", "report")

# (span name, module, attribute path).  One layer may be wrapped at several
# lookup sites; a call passes through exactly one of them.
TARGETS = (
    ("surrogate.generate_dataset", "chanimg.cli", "generate_dataset"),
    ("codec.fit_codec", "chanimg.cli", "fit_codec"),
    ("codec.encode", "chanimg.codec", "DatasetEncoder.__init__"),
    ("codec.encode", "chanimg.codec", "DatasetEncoder.encode_all"),
    ("codec.decode", "chanimg.codec", "ChannelImageCodec.decode"),
    ("codec.encode_link", "chanimg.codec", "ChannelImageCodec.encode_link"),
    ("genmodel.wgan.train_wgan_gp", "chanimg.cli", "train_wgan_gp"),
    ("genmodel.wgan.critic_loss_and_grads", "chanimg.genmodel.wgan", "critic_loss_and_grads"),
    ("genmodel.wgan.generator_loss_and_grads", "chanimg.genmodel.wgan",
     "generator_loss_and_grads"),
    ("genmodel.wgan.generator_forward", "chanimg.genmodel.wgan", "generator_forward"),
    ("genmodel.nn.adam_step", "chanimg.genmodel.wgan", "adam_step"),
    ("genmodel.wgan.sample", "chanimg.cli", "wgan_sample"),
    ("genmodel.resampler.sample", "chanimg.genmodel.resampler", "EmpiricalResampler.sample"),
    ("stats.compare_datasets", "chanimg.cli", "compare_datasets"),
    ("stats.rms_spread", "chanimg.stats", "rms_spread"),
    ("stats.relative_zenith_pdf", "chanimg.stats", "relative_zenith_pdf"),
    ("stats.link_state_prob", "chanimg.stats", "link_state_prob"),
    ("stats.ks_statistic", "chanimg.stats", "ks_statistic"),
    ("io.read_dataset", "chanimg.io", "read_dataset"),
    ("io.write_dataset", "chanimg.io", "write_dataset"),
    ("io.read_images", "chanimg.io", "read_images"),
    ("io.write_images", "chanimg.io", "write_images"),
    ("io.read_checkpoint", "chanimg.io", "read_model_checkpoint"),
    ("io.write_checkpoint", "chanimg.io", "write_wgan_checkpoint"),
    ("io.write_checkpoint", "chanimg.io", "write_resampler_checkpoint"),
    ("io.read_codec", "chanimg.io", "read_codec"),
    ("io.write_codec", "chanimg.io", "write_codec"),
)

SPAN_NAMES = tuple(f"cli.{s}" for s in STAGES) + tuple(dict.fromkeys(t[0] for t in TARGETS))


def layer_times(spans):
    """{name: (calls, self seconds)} from [name, parent index, start, end] spans.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because one thread records them.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, _, start, end) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - covered[i])
    return out


def _mlp_macs(sizes):
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def critic_step_flops(critic_sizes, embed_sizes, batch):
    """Matrix-multiply FLOPs of one critic_loss_and_grads call (computed).

    Per dense layer and row, a product costs 2*in*out.  The critic runs a
    forward (2B rows) and a backward with weight and input products (2B)
    for the Wasserstein part; the penalty adds a forward, an input-gradient
    pass, a tangent pass and a four-product backward over B rows: 26*B*MACs.
    The condition embedding runs one forward and one backward: 6*B*MACs.
    Activations and the Adam update are elementwise and left out.
    """
    return batch * (26 * _mlp_macs(critic_sizes) + 6 * _mlp_macs(embed_sizes))


class Tracer:
    """Spans and counters of one process; wraps functions in place."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counters = {}
        self.absent = []
        self.codecs = []
        self._stack = []

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, 0.0, 0.0])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][2:] = [start, end]

    def wrap(self, module_name, path, name, hook=None):
        """Replace module_name.path by a spanning wrapper; False if absent."""
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}:{path}")
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        return True

    def harvest_codecs(self):
        """Counters the codec objects returned by io.read_codec kept."""
        for codec in self.codecs:
            stats = getattr(codec, "stats", None) or {}
            self.count("codec.stats.delay_floored", int(stats.get("delay_floored", 0)))
            self.count("codec.stats.pathloss_floored", int(stats.get("pathloss_floored", 0)))
            scaler = getattr(codec, "scaler", None)
            self.count("codec.scaler.n_clipped", int(getattr(scaler, "n_clipped", 0)))
        self.codecs.clear()

    def dump(self, path, rc):
        doc = {"rc": rc, "spans": self.spans, "counters": self.counters,
               "absent": self.absent}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- hooks: counters read from what the wrapped call received or returned -------


def _file_bytes(name):
    def hook(tracer, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        if path is not None and os.path.exists(path):
            tracer.count(f"{name}.bytes", os.path.getsize(path))
    return hook


def _read_dataset(tracer, args, kwargs, result):
    _file_bytes("io.read_dataset")(tracer, args, kwargs, result)
    tracer.count("io.read_dataset.links", len(result))
    tracer.count("io.read_dataset.paths", sum(len(lk.paths) for lk in result))


def _decode(tracer, args, kwargs, result):
    tracer.count("codec.decode.paths", len(getattr(result, "paths", ())))


def _read_codec(tracer, args, kwargs, result):
    tracer.codecs.append(result)


def _critic_step(tracer, args, kwargs, result):
    netp, real = args[0], args[1]
    try:
        flops = critic_step_flops(netp.critic.sizes, netp.critic_embed.sizes, len(real))
    except AttributeError:
        return
    tracer.count("genmodel.wgan.critic_loss_and_grads.flops", flops)


HOOKS = {
    "io.read_dataset": _read_dataset,
    "io.write_dataset": _file_bytes("io.write_dataset"),
    "io.read_checkpoint": _file_bytes("io.read_checkpoint"),
    "io.write_checkpoint": _file_bytes("io.write_checkpoint"),
    "io.read_codec": _read_codec,
    "codec.decode": _decode,
    "genmodel.wgan.critic_loss_and_grads": _critic_step,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 4 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <chanimg arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[1], argv[3:]
    tracer = Tracer()
    for name, module, path in TARGETS:
        tracer.wrap(module, path, name, HOOKS.get(name))
    try:
        from chanimg.core import MAX_PATHS
    except ImportError:
        MAX_PATHS = 25
    tracer.counters["codec.max_paths"] = MAX_PATHS
    cli = importlib.import_module("chanimg.cli")
    command = next((a for a in cli_argv if a in STAGES), "unknown")
    rc = tracer.call(f"cli.{command}", cli.run, cli_argv)
    tracer.harvest_codecs()
    tracer.dump(out, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main())
