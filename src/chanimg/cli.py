"""Batch command-line surface.

Subcommands compose into the full experiment:

    gen-data -> fit-codec -> encode -> train -> sample -> decode -> eval

plus `report`, a per-link encode/decode round-trip fidelity check.  Every
run is a deterministic function of its inputs and --seed; all randomness
flows through named streams of the seed (tx, rx, link, split, padding,
init, batching, noise, gp, noise-gen, sampling, resampler).  Errors print
one machine-parsable line to stderr and map to distinct exit codes:

    2 usage, 3 malformed file, 4 format version mismatch,
    5 invalid data/geometry/config, 6 training diverged, 1 unexpected

Each stage imports the modules it runs when it starts, so a stage loads
only those: gen-data loads no codec, networks or statistics.  The process
entry point, main(), ends a stage with os._exit once stdout and stderr are
flushed, skipping the interpreter's teardown (see main for what that
skips); run() is the same stage with a normal return, for library callers.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import _lazy_exports, io
from .core import MATRIX_SHAPE, PATH_FIELDS
from .errors import (
    ChanimgError,
    DataError,
    FormatError,
    GeometryError,
    TrainingDivergedError,
    UsageError,
    VersionError,
)

EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_BAD_FILE = 3
EXIT_VERSION = 4
EXIT_BAD_DATA = 5
EXIT_DIVERGED = 6
# (error class, kind, exit code) of each error a stage may raise; the first match wins
EXIT_CODES = (
    (UsageError, "usage", EXIT_USAGE),
    (TrainingDivergedError, "diverged", EXIT_DIVERGED),
    (VersionError, "version", EXIT_VERSION),
    (FormatError, "format", EXIT_BAD_FILE),
    # a count so large that an array of it cannot be allocated
    ((DataError, GeometryError, MemoryError), "data", EXIT_BAD_DATA),
    (OSError, "io", EXIT_BAD_FILE),
    (ChanimgError, "other", EXIT_UNEXPECTED),
)

# The layer functions the stages call, imported on first use (PEP 562).
# Each is looked up on this module when a stage calls it, so a caller may
# wrap it here, as perfbench's tracer does.
__getattr__ = _layer = _lazy_exports(globals(), {
    "generate_dataset": (".surrogate", "generate_dataset"),
    "fit_codec": (".codec", "fit_codec"),
    "train_wgan_gp": (".genmodel.wgan", "train_wgan_gp"),
    "wgan_sample": (".genmodel.wgan", "sample"),
    "compare_datasets": (".stats", "compare_datasets"),
})


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, so each prints one line.

    Its subparsers are of this class too; -h still prints help and exits 0.
    """

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chanimg",
        description="channel-image pipeline: surrogate data, codec, generative models, eval")
    parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a surrogate link dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--links", type=int, default=5000,
                   help="approximate dataset size (rounded up to the tx/rx grid, then cut)")
    p.add_argument("--num-tx", type=int, default=10)
    p.add_argument("--heights", type=str, default=None,
                   help="comma-separated receiver heights in m (default: the surrogate's)")
    p.add_argument("--area", type=str, default="500,500", help="width,depth in meters")
    p.add_argument("--freq", type=float, default=12e9)
    p.add_argument("--los-probability", type=float, default=None,
                   help="override the distance/height LOS model with a fixed probability")

    p = sub.add_parser("fit-codec", help="fit virtual-path ranges and the feature scaler")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("encode", help="encode a dataset into 8x25 channel matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="decode channel matrices back into a link dataset")
    p.add_argument("--images", required=True, help="CHIM file of channel matrices")
    p.add_argument("--codec", required=True)
    p.add_argument("--geometry-from", required=True,
                   help="dataset supplying tx/rx/freq: matrix i pairs with link i")
    p.add_argument("--out", required=True)

    # only the options given are set: each backend's defaults are its library's
    p = sub.add_parser("train", help="train a generative backend on channel matrices",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--images", required=True, help="CHIM file of channel matrices")
    p.add_argument("--backend", choices=("wgan-gp", "resampler"), default="wgan-gp")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="training log CSV (wgan-gp only)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--gp-lambda", type=float)
    p.add_argument("--critic-steps", type=int)
    p.add_argument("--noise-dim", type=int)
    p.add_argument("--hidden", help="comma-separated hidden widths")
    p.add_argument("--output-init", choices=("fan_in", "data_moments"),
                   help="start the generator output layer at data statistics")
    p.add_argument("--dtype", choices=("float64", "float32"),
                   help="training arithmetic (checkpoints are always float64)")
    p.add_argument("--k", type=int, help="resampler neighborhood size")

    p = sub.add_parser("sample", help="sample channel matrices at the conditions of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--conditions-from", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compare a decoded model dataset against source data")
    p.add_argument("--model", required=True, help="decoded model dataset (JSONL)")
    p.add_argument("--data", required=True, help="reference dataset (JSONL)")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("report", help="per-link encode/decode round-trip fidelity report")
    p.add_argument("--data", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--out", required=True)
    return parser


# -- subcommand bodies --------------------------------------------------------------


def _number_list(text: str, flag: str, kind=float, count=None) -> tuple:
    """Parse a comma-separated option value; UsageError when it does not parse."""
    try:
        values = tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"{flag} takes {count} comma-separated numbers, got {text!r}")
    return values


def _cmd_gen_data(args) -> int:
    from .surrogate import DEFAULT_HEIGHTS, SurrogateConfig

    heights = DEFAULT_HEIGHTS if args.heights is None else _number_list(args.heights, "--heights")
    w, d = _number_list(args.area, "--area", count=2)
    if args.links <= 0 or args.num_tx <= 0:
        raise DataError("--links and --num-tx must be positive")
    per_height = -(-args.links // (args.num_tx * len(heights)))  # ceil
    cfg = SurrogateConfig(
        num_tx=args.num_tx, num_rx_per_height=per_height, heights=heights,
        area=(w, d), carrier_freq=args.freq, seed=args.seed,
        los_probability=args.los_probability)
    table = _layer("generate_dataset")(cfg).take(slice(0, args.links))
    io.write_table(args.out, table, seed=args.seed)
    print(f"wrote {len(table)} links to {args.out}")
    return 0


def _cmd_fit_codec(args) -> int:
    table = io.read_table(args.data)
    codec = _layer("fit_codec")(table)
    io.write_codec(args.out, codec, seed=args.seed)
    print(f"fitted codec on {len(table)} links -> {args.out}")
    return 0


def _cmd_encode(args) -> int:
    from .rng import substream

    table = io.read_table(args.data)
    codec = io.read_codec(args.codec)
    matrices = np.empty((len(table), *MATRIX_SHAPE), dtype=np.float32)
    _, conds = codec.encode(table, substream(args.seed, "padding"), out=matrices)
    io.write_images(args.out, matrices, conds, seed=args.seed)
    print(f"encoded {len(matrices)} matrices -> {args.out}")
    return 0


def _cmd_decode(args) -> int:
    matrices, conditions = io.read_images(args.images)
    codec = io.read_codec(args.codec)
    table = io.read_table(args.geometry_from)
    if len(matrices) != len(table):
        raise DataError(f"{len(matrices)} matrices for {len(table)} geometry links: "
                        "decode takes one matrix per link")
    # matrix i was drawn at link i's condition: both are closed forms of its coordinates
    geometry = table.conditions
    moved = (conditions != geometry).any(axis=1)
    if moved.any():
        i = int(np.argmax(moved))
        raise DataError(f"matrix {i} holds condition (dist2d, height) = "
                        f"{tuple(conditions[i].tolist())}, but geometry link {i} "
                        f"has {tuple(geometry[i].tolist())}")
    decoded = codec.decode(matrices, table)
    io.write_table(args.out, decoded, seed=args.seed)
    print(f"decoded {len(decoded)} links -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    # the options given besides the files and the backend: the resampler
    # reads only k, and wgan-gp every other one
    given = {name: value for name, value in vars(args).items()
             if name not in ("seed", "command", "images", "backend", "out")}
    foreign = [name for name in given if (name == "k") != (args.backend == "resampler")]
    if foreign:
        flags = ", ".join("--" + name.replace("_", "-") for name in foreign)
        raise UsageError(f"--backend {args.backend} takes no {flags}")
    matrices, conds = io.read_images(args.images)
    if args.backend == "resampler":
        from .genmodel.resampler import EmpiricalResampler

        model = EmpiricalResampler(matrices, conds, **given)
        io.write_resampler_checkpoint(args.out, model, seed=args.seed)
        print(f"stored resampler over {len(matrices)} matrices -> {args.out}")
        return 0
    from .genmodel.wgan import WganGpHyperparams

    log_path = given.pop("log", None)
    if "hidden" in given:
        given["hidden"] = _number_list(given["hidden"], "--hidden", kind=int)
    netp, log = _layer("train_wgan_gp")(matrices, conds, WganGpHyperparams(**given), args.seed)
    counts = log.param_counts
    # the log first: a log path that cannot be written leaves no checkpoint
    if log_path is not None:
        io.write_report_csv(log_path, "training-log", args.seed, log.COLUMNS, log.rows,
                            generator_params=counts["generator"],
                            critic_params=counts["critic"])
    io.write_wgan_checkpoint(args.out, netp, seed=args.seed)
    print(f"trained wgan-gp ({counts['generator']} generator / {counts['critic']} critic "
          f"parameters, {len(log.rows)} critic steps) -> {args.out}")
    return 0


def _cmd_sample(args) -> int:
    backend, model = io.read_model_checkpoint(args.model)
    conds = io.read_table(args.conditions_from).conditions
    # filled block by block in the CHIM payload's dtype, so no float64 copy is held
    matrices = np.empty((len(conds), *MATRIX_SHAPE), dtype=np.float32)
    if backend == "wgan-gp":
        _layer("wgan_sample")(model, conds, len(conds), args.seed, out=matrices)
    else:
        model.sample(conds, len(conds), args.seed, out=matrices)
    io.write_images(args.out, matrices, conds, seed=args.seed)
    print(f"sampled {len(matrices)} matrices -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from .stats import METRICS

    model = io.read_table(args.model)
    data = io.read_table(args.data)
    # np.unique's sort and mask, without the numpy.ma modules np.unique imports
    heights = np.sort(data.height)
    first = np.ones(len(heights), dtype=bool)
    np.not_equal(heights[1:], heights[:-1], out=first[1:])
    report = _layer("compare_datasets")(model, data, heights[first].tolist())
    outdir = Path(args.outdir)

    ks_rows = [[h, m, entry[m]] for h, entry in report.items() for m in METRICS]
    io.write_report_csv(outdir / "ks.csv", "ks", args.seed,
                        ["height", "metric", "value"], ks_rows)

    ls_rows = []
    for h, entry in report.items():
        for side in ("model", "data"):
            lsp = entry[f"link_state_{side}"]
            for j in np.flatnonzero(lsp.occupied):
                ls_rows.append([h, side, lsp.bin_edges[j], lsp.bin_edges[j + 1],
                                int(lsp.counts[j]), lsp.p_los[j], lsp.p_outage[j]])
    io.write_report_csv(outdir / "los_prob.csv", "los-prob", args.seed,
                        ["height", "side", "bin_lo", "bin_hi", "n", "p_los", "p_outage"],
                        ls_rows)

    for ang in ("zod", "zoa"):
        rows = []
        for h, entry in report.items():
            for side in ("model", "data"):
                pdf = entry[f"zenith_pdf_{ang}_{side}"]
                for j, i in zip(*np.nonzero(pdf.density.T)):  # by distance, then angle
                    rows.append([h, side, pdf.dist_edges[j], pdf.angle_edges[i],
                                 pdf.density[i, j]])
        io.write_report_csv(outdir / f"zenith_pdf_{ang}.csv", f"zenith-pdf-{ang}",
                            args.seed,
                            ["height", "side", "dist_bin_lo", "angle_bin_lo", "density"],
                            rows)
    print(f"wrote evaluation reports to {outdir}")
    return 0


def _cmd_report(args) -> int:
    from .rng import substream

    table = io.read_table(args.data)
    codec = io.read_codec(args.codec)
    header = ["link", "state_ok", "n_paths_ok", "virtual_survivors",
              *(f"err_{f}" for f in PATH_FIELDS)]
    worst = np.zeros(len(PATH_FIELDS))

    def rows():
        # one padding block of links at a time: encode, decode, compare, so
        # no (N, 8, 25) stack or whole decoded table is held
        for links, matrices in codec.encode_blocks(table, substream(args.seed, "padding")):
            real = table.take(links)
            decoded = codec.decode(matrices, real)
            state_ok = (decoded.state == real.state).astype(int).tolist()
            n_ok = decoded.counts == real.counts
            survivors = np.maximum(decoded.counts - real.counts, 0).tolist()
            # per-feature max over the real paths of each link whose count
            # decodes; NaN for the others
            same = n_ok & (real.counts > 0)
            want = real.take(same)
            diff = np.abs(decoded.take(same).paths - want.paths)
            errs = np.full((len(real), len(worst)), np.nan)
            errs[same] = np.maximum.reduceat(diff, want.offsets[:-1])
            np.fmax(worst, np.fmax.reduce(errs, axis=0, initial=0.0), out=worst)
            for i in range(len(real)):
                yield [links.start + i, state_ok[i], int(n_ok[i]), survivors[i], *errs[i]]

    io.write_report_csv(args.out, "roundtrip", args.seed, header, rows())
    print("round-trip worst-case errors "
          "(pathloss dB, delay s, aod, zod, aoa, zoa, phase deg): "
          + " ".join(f"{v:.3e}" for v in worst))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "fit-codec": _cmd_fit_codec,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    """Parse and execute one subcommand; returns the process exit code."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # -h printed help
            return int(exc.code) if exc.code else 0
        if args.seed < 0:  # SeedSequence takes no negative entropy
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ChanimgError, OSError, MemoryError) as exc:
        kind, code = next((k, c) for cls, k, c in EXIT_CODES if isinstance(exc, cls))
        print(f"chanimg: error kind={kind} exit={code} msg={exc}", file=sys.stderr)
        return code


def main():
    """Entry point of `python -m chanimg.cli` and the `chanimg` script.

    Runs run(), flushes stdout and stderr, then ends the process with
    os._exit, skipping the interpreter's teardown: module cleanup, the last
    garbage collections and freeing every object, tens of ms of CPU a stage.
    Nothing that teardown would do is needed:

    - every artifact is closed and renamed into place before run()
      returns (io._replacing);
    - RowBlocks joins its worker thread when its with block ends, so no
      thread is left for threading's shutdown join;
    - chanimg registers no atexit callback; those of other modules do not
      run, nor do object finalizers, and a ResourceWarning that teardown
      would raise is not raised;
    - C-level frees, such as OpenBLAS's buffers, are left to the kernel.

    An exception that escapes run() propagates with the normal shutdown
    (traceback, exit 1).  A flush that fails, such as on a pipe whose reader
    has gone, falls back to sys.exit, so CPython reports it as it would
    (exit 120).
    """
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed pipe, a full disk, a stream that is None
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
