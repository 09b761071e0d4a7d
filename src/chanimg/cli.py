"""Batch command-line surface.

Subcommands compose into the full experiment:

    gen-data -> fit-codec -> encode -> train -> sample -> decode -> eval

plus `report`, a per-link encode/decode round-trip fidelity check.  Every
run is a deterministic function of its inputs and --seed; all randomness
flows through named substreams (data, padding, init, batching, noise,
sampling).  Errors print one machine-parsable line to stderr and map to
distinct exit codes:

    2 usage, 3 malformed file, 4 format version mismatch,
    5 invalid data/geometry/config, 6 training diverged, 1 unexpected
"""

import argparse
import sys

import numpy as np

from . import io
from .codec import MATRIX_SHAPE, fit_codec
from .errors import (
    ChanimgError,
    DataError,
    FormatError,
    GeometryError,
    TrainingDivergedError,
    UsageError,
    VersionError,
)
from .genmodel import (
    ArrayBatches,
    EmpiricalResampler,
    WganGpHyperparams,
    sample as wgan_sample,
    train_wgan_gp,
)
from .rng import substream
from .stats import RMS_FEATURES, compare_datasets
from .surrogate import DEFAULT_HEIGHTS, SurrogateConfig, generate_dataset

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
    ((DataError, GeometryError), "data", EXIT_BAD_DATA),
    (OSError, "io", EXIT_BAD_FILE),
    (ChanimgError, "other", EXIT_UNEXPECTED),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanimg",
        description="channel-image pipeline: surrogate data, codec, generative models, eval")
    parser.add_argument("--seed", type=int, default=0, help="global seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a surrogate link dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--links", type=int, default=5000,
                   help="approximate dataset size (rounded up to the tx/rx grid, then cut)")
    p.add_argument("--num-tx", type=int, default=10)
    p.add_argument("--heights", type=str, default=",".join(str(h) for h in DEFAULT_HEIGHTS))
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
    p.add_argument("--realizations", type=int, default=1,
                   help="virtual-padding realizations per link (data augmentation)")

    p = sub.add_parser("decode", help="decode channel matrices back into a link dataset")
    p.add_argument("--images", required=True, help="CHIM file of channel matrices")
    p.add_argument("--codec", required=True)
    p.add_argument("--geometry-from", required=True,
                   help="dataset supplying tx/rx/freq; matrix i pairs with link i %% n_links")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a generative backend on channel matrices")
    p.add_argument("--images", required=True, help="CHIM file of channel matrices")
    p.add_argument("--backend", choices=("wgan-gp", "resampler"), default="wgan-gp")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="training log CSV (wgan-gp)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--beta1", type=float, default=0.5)
    p.add_argument("--beta2", type=float, default=0.9)
    p.add_argument("--gp-lambda", type=float, default=10.0)
    p.add_argument("--critic-steps", type=int, default=5)
    p.add_argument("--noise-dim", type=int, default=64)
    p.add_argument("--hidden", type=str, default="256,256")
    p.add_argument("--output-gain", type=float, default=1.0)
    p.add_argument("--output-init", choices=("fan_in", "data_mean", "data_moments"),
                   default="fan_in",
                   help="start the generator output layer at data statistics")
    p.add_argument("--dtype", choices=("float64", "float32"), default="float64",
                   help="training arithmetic (checkpoints are always float64)")
    p.add_argument("--k", type=int, default=50, help="resampler neighborhood size")

    p = sub.add_parser("sample", help="sample channel matrices at the conditions of a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--conditions-from", required=True)
    p.add_argument("--per-cond", type=int, default=1, help="matrices per condition (>= 1)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compare a decoded model dataset against source data")
    p.add_argument("--model", required=True, help="decoded model dataset (JSONL)")
    p.add_argument("--data", required=True, help="reference dataset (JSONL)")
    p.add_argument("--outdir", required=True)
    p.add_argument("--dist-bin-width", type=float, default=25.0)
    p.add_argument("--angle-bin-width", type=float, default=2.0)

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
    heights = _number_list(args.heights, "--heights")
    w, d = _number_list(args.area, "--area", count=2)
    if args.links <= 0 or args.num_tx <= 0:
        raise DataError("--links and --num-tx must be positive")
    per_height = -(-args.links // (args.num_tx * len(heights)))  # ceil
    cfg = SurrogateConfig(
        num_tx=args.num_tx, num_rx_per_height=per_height, heights=heights,
        area=(w, d), carrier_freq=args.freq, seed=args.seed,
        los_probability=args.los_probability)
    table = generate_dataset(cfg).take(slice(0, args.links))
    io.write_table(args.out, table, seed=args.seed)
    print(f"wrote {len(table)} links to {args.out}")
    return 0


def _cmd_fit_codec(args) -> int:
    table = io.read_table(args.data)
    codec = fit_codec(table, substream(args.seed, "padding"))
    io.write_codec(args.out, codec, seed=args.seed)
    print(f"fitted codec on {len(table)} links -> {args.out}")
    return 0


def _cmd_encode(args) -> int:
    table = io.read_table(args.data)
    codec = io.read_codec(args.codec)
    if args.realizations < 1:
        raise DataError("--realizations must be >= 1")
    rng = substream(args.seed, "padding")
    n = len(table)
    matrices = np.empty((args.realizations * n, *MATRIX_SHAPE), dtype=np.float32)
    for r in range(args.realizations):
        # unpacking straight into the float32 output drops each float64
        # block before the next realization is drawn
        matrices[r * n:(r + 1) * n], conds = codec.encode(table, rng)
    io.write_images(args.out, matrices, np.tile(conds, (args.realizations, 1)), seed=args.seed)
    print(f"encoded {len(matrices)} matrices ({args.realizations} realization(s) "
          f"of {n} links) -> {args.out}")
    return 0


def _cmd_decode(args) -> int:
    matrices, _ = io.read_images(args.images)
    codec = io.read_codec(args.codec)
    table = io.read_table(args.geometry_from)
    n = len(table)
    if len(matrices) % n:
        raise DataError(f"{len(matrices)} matrices do not repeat {n} geometry links")
    decoded = codec.decode(matrices, table.take(np.arange(len(matrices)) % n))
    io.write_table(args.out, decoded, seed=args.seed)
    print(f"decoded {len(decoded)} links -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    matrices, conds = io.read_images(args.images)
    if args.backend == "resampler":
        model = EmpiricalResampler(matrices.astype(np.float64), conds, k=args.k)
        io.write_resampler_checkpoint(args.out, model, seed=args.seed)
        print(f"stored resampler over {len(matrices)} matrices -> {args.out}")
        return 0
    hyper = WganGpHyperparams(
        learning_rate=args.lr, adam_beta1=args.beta1, adam_beta2=args.beta2,
        epochs=args.epochs, batch_size=args.batch_size, gp_lambda=args.gp_lambda,
        critic_steps_per_gen_step=args.critic_steps, noise_dim=args.noise_dim,
        hidden=_number_list(args.hidden, "--hidden", kind=int),
        generator_output_gain=args.output_gain,
        output_init=args.output_init, dtype=args.dtype)
    netp, log = train_wgan_gp(ArrayBatches(matrices, conds, hyper.batch_size),
                              hyper, args.seed)
    io.write_wgan_checkpoint(args.out, netp, seed=args.seed)
    if args.log:
        io.write_training_log(args.log, log, seed=args.seed)
    counts = log.param_counts
    print(f"trained wgan-gp ({counts['generator']} generator / {counts['critic']} critic "
          f"parameters, {log.steps[-1] if log.steps else 0} critic steps) -> {args.out}")
    return 0


def _cmd_sample(args) -> int:
    if args.per_cond < 1:
        raise DataError("--per-cond must be >= 1")
    backend, model = io.read_model_checkpoint(args.model)
    table = io.read_table(args.conditions_from)
    conds = np.tile(np.column_stack([table.dist2d, table.height]), (args.per_cond, 1))
    if backend == "wgan-gp":
        matrices = wgan_sample(model, conds, len(conds), args.seed)
    else:
        matrices = model.sample(conds, len(conds), args.seed)
    io.write_images(args.out, matrices, conds, seed=args.seed)
    print(f"sampled {len(matrices)} matrices ({args.per_cond} per condition) -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = io.read_table(args.model)
    data = io.read_table(args.data)
    report = compare_datasets(model, data, np.unique(data.height).tolist(),
                              dist_bin_width=args.dist_bin_width,
                              angle_bin_width=args.angle_bin_width)
    outdir = args.outdir

    metrics = (*(f"ks_{f}" for f in ("pathloss", "delay")),
               *(f"ks_uniform_{f}" for f in ("aoa", "aod", "phase")),
               *(f"ks_rms_{f}" for f in RMS_FEATURES), "max_los_prob_gap")
    ks_rows = [[h, m, entry[m]] for h, entry in report.items() for m in metrics]
    io.write_report_csv(f"{outdir}/ks.csv", "ks", args.seed,
                        ["height", "metric", "value"], ks_rows)

    ls_rows = []
    for h, entry in report.items():
        for side in ("model", "data"):
            lsp = entry[f"link_state_{side}"]
            for j in np.flatnonzero(lsp.occupied):
                ls_rows.append([h, side, lsp.bin_edges[j], lsp.bin_edges[j + 1],
                                int(lsp.counts[j]), lsp.p_los[j], lsp.p_outage[j]])
    io.write_report_csv(f"{outdir}/los_prob.csv", "los-prob", args.seed,
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
        io.write_report_csv(f"{outdir}/zenith_pdf_{ang}.csv", f"zenith-pdf-{ang}",
                            args.seed,
                            ["height", "side", "dist_bin_lo", "angle_bin_lo", "density"],
                            rows)
    print(f"wrote evaluation reports to {outdir}")
    return 0


def _cmd_report(args) -> int:
    table = io.read_table(args.data)
    codec = io.read_codec(args.codec)
    header = ["link", "state_ok", "n_paths_ok", "virtual_survivors",
              "err_pathloss", "err_delay", "err_aod", "err_zod", "err_aoa",
              "err_zoa", "err_phase"]
    matrices, _ = codec.encode(table, substream(args.seed, "padding"))
    decoded = codec.decode(matrices, table)
    state_ok = (decoded.state == table.state).astype(int).tolist()
    n_ok = decoded.counts == table.counts
    survivors = np.maximum(decoded.counts - table.counts, 0).tolist()
    # per-feature max over the real paths (one block, in place), NaN where the counts differ
    diff = decoded.paths - table.paths
    np.abs(diff, out=diff)
    diff[~table.valid] = -np.inf
    errs = diff.max(axis=1)
    errs[~(n_ok & (table.counts > 0))] = np.nan
    worst = np.fmax.reduce(errs, axis=0, initial=0.0)
    rows = [[i, state_ok[i], int(n_ok[i]), survivors[i], *errs[i]] for i in range(len(table))]
    io.write_report_csv(args.out, "roundtrip", args.seed, header, rows)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ChanimgError, OSError) as exc:
        kind, code = next((k, c) for cls, k, c in EXIT_CODES if isinstance(exc, cls))
        print(f"chanimg: error kind={kind} exit={code} msg={exc}", file=sys.stderr)
        return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
