"""Benchmark of the chanimg CLI pipeline on the fixed 5,000-link surrogate.

    python3 perfbench/run.py --workload prep --seed 7 --seconds 20 --trace 0

One benchmark process runs each CLI stage as its own subprocess, one at a time
(a closed loop with one client), and repeats the workload's stage sequence
until --seconds have passed.  Wall time is taken around each child and peak
RSS and CPU time come from its os.wait4 rusage.  BLAS is pinned to one
thread.  End-to-end timings are scaled to reference seconds by a calibration
job that runs alongside the set-up samples (see CAL_REF_S).  Seeds follow
the README: --seed for data, codec and training, --seed + 1 for sample,
decode, eval and report, and --seed + 2 for the held-out dataset.  Inputs
that a workload does not measure are made untimed before the loop; the
program sees only the generated files.

Workloads (see README.md in this directory for the layer map):
  prep   gen-data -> fit-codec -> encode
  train  train --backend wgan-gp, 2 epochs, other CLI defaults
  synth  train(resampler) -> sample -> decode -> eval, sample -> decode of
         a small WGAN checkpoint, and report

Every stage must exit 0 and pass its output check, and every artifact's
SHA-256 must repeat across repetitions; a miss counts as a failed op and
prints FAIL.  With --trace 0 the last line holds the end-to-end metrics;
with --trace 1 each repetition is run once untraced and once through
tracer.py, and the last line holds the per-layer metrics.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

N_LINKS = 5000
BATCH = 256  # CLI default
TRAIN_EPOCHS = 2
TRAIN_STEPS = TRAIN_EPOCHS * (N_LINKS // BATCH)  # critic steps; the last partial batch is dropped
BLAS_THREADS = 1
HOST_SAMPLES = 3  # at the start and at the end; one more before each stage
RUN_DEADLINE_S = 165.0

# Host-speed calibration.  The host is shared and its speed drifts by 20-25%
# between periods minutes apart.  A fixed job that does not import chanimg is
# spawned at the same points as the set-up samples.  Its median wall over the
# run, divided by CAL_REF_S (its median on the reference host, see
# README.md), is the run's slowdown.  Set-up time and the timings of the
# interpreter-bound workloads are reported in reference seconds: raw time
# divided by the slowdown.  train's float64 matrix products did not drift with
# this job, nor with a BLAS-bound one; scaling them only added the job's own
# noise, so train's timings are reported raw.
CALIBRATION_JOB = """
import numpy as np
n = sum(i * i % 7 for i in range(400000))
a = np.full((300, 300), 1.0 / 300)
for _ in range(20):
    a = a @ a
"""
CAL_REF_S = 0.19
SCALED_WORKLOADS = ("prep", "synth")

# Output checks.  Over 40 seeds the resampler read KS 0.018-0.055 against
# held-out data, so the limit leaves a margin of about 2x; round-trip errors
# are float64 rounding today.
KS_LIMIT = 0.1
ROUNDTRIP_TOL = {"err_pathloss": 1e-6, "err_delay": 1e-12, "err_aod": 1e-6, "err_zod": 1e-6,
                 "err_aoa": 1e-6, "err_zoa": 1e-6, "err_phase": 1e-6}

WORKLOADS = ("prep", "train", "synth")
ITEMS = {"prep": N_LINKS, "train": TRAIN_STEPS * BATCH, "synth": N_LINKS}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_frac", "frac"),
    ("links_per_ref_s", "1/s"),
    ("cpu_ref_ms_per_link", "ms"),
)

# Stage-group rates: metric -> (workload, op labels, work units per repetition).
GROUPS = {
    "prep_links_per_s": ("prep", ("gen-data", "fit-codec", "encode"), N_LINKS),
    "train_steps_per_s": ("train", ("train",), TRAIN_STEPS),
    "synth_res_links_per_s": ("synth", ("train_res", "sample_res", "decode_res"), N_LINKS),
    "synth_wgan_links_per_s": ("synth", ("sample_wgan", "decode_wgan"), N_LINKS),
    "eval_links_per_s": ("synth", ("eval",), N_LINKS),
    "report_links_per_s": ("synth", ("report",), N_LINKS),
}

ARTIFACTS = ("data.jsonl", "codec.json", "images.chim", "model.ckpt", "train_log.csv",
             "res.ckpt", "samples_res.chim", "decoded_res.jsonl", "eval",
             "samples_wgan.chim", "decoded_wgan.jsonl", "roundtrip.csv")

PER_LAYER = (
    tuple(m for name in tracer.SPAN_NAMES
          for m in ((f"{name}.calls", "count"), (f"{name}.self_s", "s")))
    + tuple((name, "1/s") for name in GROUPS)
    + (("ks_pathloss_max", "ks"), ("ks_delay_max", "ks"), ("failed_ops_frac", "frac"),
       ("report.worst_err_pathloss", "dB"), ("report.worst_err_delay", "s"),
       ("io.read_dataset.bytes", "B"), ("io.write_dataset.bytes", "B"),
       ("io.read_checkpoint.bytes", "B"), ("io.write_checkpoint.bytes", "B"),
       ("codec.decode.virtual_survivor_frac", "frac"),
       ("codec.decode.virtual_survivor_frac_res", "frac"),
       ("codec.stats.delay_floored", "count"), ("codec.stats.pathloss_floored", "count"),
       ("codec.scaler.n_clipped", "count"), ("stats.warnings", "count"),
       ("genmodel.wgan.critic_loss_and_grads.flops_computed", "flop"),
       ("genmodel.wgan.critic_loss_and_grads.gflop_per_s", "GFLOP/s"),
       ("trace.overhead_s", "s"), ("trace.overhead_frac", "frac"),
       ("trace.absent_targets", "count"))
    + tuple((f"artifact.{a.replace('.', '_')}.bytes", "B") for a in ARTIFACTS)
)

ENV_PROBE = """
import json, numpy, chanimg.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


@dataclass
class Op:
    """One CLI stage invocation and what it must produce."""

    label: str
    argv: list
    outputs: list
    check: object = None  # callable(op) -> (problem or None, values)


@dataclass
class Rep:
    """Measurements of one pass over a workload's ops."""

    wall: dict = field(default_factory=dict)
    rss_mb: dict = field(default_factory=dict)
    cpu_s: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    warnings: int = 0
    traces: dict = field(default_factory=dict)


# -- output checks ------------------------------------------------------------------


def _data_rows(path):
    """Non-comment CSV/JSONL lines after the header comment."""
    with open(path, newline="") as fh:
        return [line for line in fh if line.strip() and not line.startswith("#")]


def check_links(op):
    n = len(_data_rows(op.outputs[0]))
    return (None if n == N_LINKS else f"{n} links, expected {N_LINKS}"), {}


def check_train_log(op):
    n = len(_data_rows(op.outputs[1])) - 1  # CSV header row
    return (None if n == TRAIN_STEPS else f"{n} critic steps, expected {TRAIN_STEPS}"), {}


def check_ks(op):
    path = Path(op.outputs[0]) / "ks.csv"
    if not path.is_file():
        return "ks.csv missing", {}
    ks = {"ks_pathloss": [], "ks_delay": []}
    try:
        for row in csv.DictReader(_data_rows(path)):
            if row["metric"] in ks:
                ks[row["metric"]].append(float(row["value"]))
    except (KeyError, ValueError) as exc:
        return f"ks.csv does not parse: {exc}", {}
    if not all(ks.values()):
        return "ks.csv lacks ks_pathloss or ks_delay rows", {}
    values = {f"{k}_max": max(v) for k, v in ks.items()}
    bad = [f"{k}={v:.4f}" for k, v in values.items() if not v <= KS_LIMIT]
    return (f"KS above {KS_LIMIT}: {' '.join(bad)}" if bad else None), values


def check_roundtrip(op):
    rows = list(csv.DictReader(_data_rows(op.outputs[0])))
    if len(rows) != N_LINKS:
        return f"{len(rows)} report rows, expected {N_LINKS}", {}
    try:
        bad_state = sum(row["state_ok"] != "1" or row["n_paths_ok"] != "1" for row in rows)
        worst = {col: max((float(row[col]) for row in rows if row[col] != "nan"), default=0.0)
                 for col in ROUNDTRIP_TOL}
    except (KeyError, ValueError) as exc:
        return f"roundtrip.csv does not parse: {exc}", {}
    problems = [f"{bad_state} links with state_ok or n_paths_ok != 1"] if bad_state else []
    problems += [f"{col}={v:.3e} > {ROUNDTRIP_TOL[col]:g}"
                 for col, v in worst.items() if not v <= ROUNDTRIP_TOL[col]]
    values = {"report.worst_err_pathloss": worst["err_pathloss"],
              "report.worst_err_delay": worst["err_delay"]}
    return ("; ".join(problems) or None), values


# -- workloads ----------------------------------------------------------------------


def plan(workload, seed, inp, out):
    """(untimed set-up ops, measured ops); measured outputs go under out."""
    s, t, h = str(seed), str(seed + 1), str(seed + 2)
    n = str(N_LINKS)
    data, held, codec = inp / "data.jsonl", inp / "heldout.jsonl", inp / "codec.json"
    images, wgan = inp / "images.chim", inp / "wgan.ckpt"

    def op(label, argv, outputs, check=None):
        return Op(label, [str(a) for a in argv], [str(p) for p in outputs], check)

    if workload == "prep":
        o_data, o_codec, o_images = out / "data.jsonl", out / "codec.json", out / "images.chim"
        return [], [
            op("gen-data", ["--seed", s, "gen-data", "--links", n, "--out", o_data],
               [o_data], check_links),
            op("fit-codec", ["--seed", s, "fit-codec", "--data", o_data, "--out", o_codec],
               [o_codec]),
            op("encode", ["--seed", s, "encode", "--data", o_data, "--codec", o_codec,
                          "--out", o_images], [o_images]),
        ]

    setup = [
        op("setup:gen-data", ["--seed", s, "gen-data", "--links", n, "--out", data], [data]),
        op("setup:fit-codec", ["--seed", s, "fit-codec", "--data", data, "--out", codec],
           [codec]),
        op("setup:encode", ["--seed", s, "encode", "--data", data, "--codec", codec,
                            "--out", images], [images]),
    ]
    if workload == "train":
        model, log = out / "model.ckpt", out / "train_log.csv"
        return setup, [
            op("train", ["--seed", s, "train", "--images", images, "--backend", "wgan-gp",
                         "--epochs", TRAIN_EPOCHS, "--out", model, "--log", log],
               [model, log], check_train_log),
        ]

    setup += [
        op("setup:gen-heldout", ["--seed", h, "gen-data", "--links", n, "--out", held], [held]),
        op("setup:train-wgan", ["--seed", s, "train", "--images", images, "--backend",
                                "wgan-gp", "--epochs", 1, "--out", wgan], [wgan]),
    ]
    res, s_res, d_res = out / "res.ckpt", out / "samples_res.chim", out / "decoded_res.jsonl"
    s_wgan, d_wgan = out / "samples_wgan.chim", out / "decoded_wgan.jsonl"
    reports, roundtrip = out / "eval", out / "roundtrip.csv"
    return setup, [
        op("train_res", ["--seed", s, "train", "--images", images, "--backend", "resampler",
                         "--out", res], [res]),
        op("sample_res", ["--seed", t, "sample", "--model", res, "--conditions-from", held,
                          "--out", s_res], [s_res]),
        op("decode_res", ["--seed", t, "decode", "--images", s_res, "--codec", codec,
                          "--geometry-from", held, "--out", d_res], [d_res], check_links),
        op("eval", ["--seed", t, "eval", "--model", d_res, "--data", held,
                    "--outdir", reports], [reports], check_ks),
        op("sample_wgan", ["--seed", t, "sample", "--model", wgan, "--conditions-from", data,
                           "--out", s_wgan], [s_wgan]),
        op("decode_wgan", ["--seed", t, "decode", "--images", s_wgan, "--codec", codec,
                           "--geometry-from", data, "--out", d_wgan], [d_wgan], check_links),
        op("report", ["--seed", t, "report", "--data", data, "--codec", codec,
                      "--out", roundtrip], [roundtrip], check_roundtrip),
    ]


# -- running ------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def digest(path):
    """{relative name: sha256} of a file, or of every file under a directory."""
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out = {}
    for f in files:
        h = hashlib.sha256()
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[str(f.relative_to(path.parent))] = h.hexdigest()
    return out


def size_of(path):
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


class Bench:
    """One benchmark run: ops attempted and failed, reference digests."""

    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.setup_walls = []
        self.cal_walls = []
        self.logs = WORK / "logs"

    def spawn(self, cmd, name):
        """(exit code, wall s, rusage) of one child; killed at the deadline."""
        stdout, stderr = self.logs / f"{name}.out", self.logs / f"{name}.err"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            done = threading.Event()
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                       lambda: done.is_set() or proc.kill())
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                done.set()
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage

    def fail(self, label, why):
        self.failed += 1
        print(f"FAIL {label}: {why}", flush=True)

    def run_op(self, op, rep, tag, spans=None):
        """Run one op, check it, record it in rep; True when it passed."""
        self.attempted += 1
        for p in op.outputs:
            if Path(p).is_dir():
                shutil.rmtree(p)
            elif Path(p).exists():
                os.remove(p)
        if spans is None:
            cmd = [sys.executable, "-m", "chanimg.cli", *op.argv]
        else:
            cmd = [sys.executable, str(Path(tracer.__file__)), "--spans", str(spans),
                   "--", *op.argv]
        name = op.label.replace(":", "-")
        rc, wall, usage = self.spawn(cmd, name)
        rep.wall[op.label] = wall
        rep.rss_mb[op.label] = usage.ru_maxrss / 1024.0
        rep.cpu_s[op.label] = usage.ru_utime + usage.ru_stime
        stderr = (self.logs / f"{name}.err").read_text(errors="replace")
        rep.warnings += sum("Warning" in line for line in stderr.splitlines())

        problem = None
        if rc != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            problem = f"exit {rc}: {last[0][:200]}"
        elif not all(Path(p).exists() and size_of(p) > 0 for p in op.outputs):
            problem = "missing or empty output"
        elif op.check is not None:
            problem, values = op.check(op)
            rep.values.update(values)
        if problem is None:
            digests = {}
            for p in op.outputs:
                digests.update(digest(p))
                rep.sizes[Path(p).name] = size_of(p)
            ref = self.reference.setdefault(op.label, digests)
            if ref != digests:
                problem = f"outputs differ from the first repetition ({sorted(digests)})"
        if spans is not None and problem is None:
            doc = json.loads(Path(spans).read_text())
            rep.traces[op.label] = doc
        status = "ok" if problem is None else "FAIL"
        print(f"  {tag:<10} {op.label:<18} {wall:7.3f} s {rep.rss_mb[op.label]:7.1f} MB "
              f"cpu {rep.cpu_s[op.label]:7.3f} s  {status}", flush=True)
        if problem is not None:
            self.fail(op.label, problem)
        return problem is None

    def sample_host(self):
        """Time one fresh import of chanimg.cli and one calibration job."""
        for code, walls, name in (("import chanimg.cli", self.setup_walls, "setup"),
                                  (CALIBRATION_JOB, self.cal_walls, "calibration")):
            rc, wall, _ = self.spawn([sys.executable, "-c", code], name)
            if rc == 0:
                walls.append(wall)

    def run_rep(self, ops, tag, traced=False):
        rep = Rep()
        for op in ops:
            spans = None
            if traced:
                spans = WORK / "spans" / f"{op.label}.json"
            else:
                # spread the host samples over the run: the host's speed
                # drifts over seconds, so back-to-back samples share one phase
                self.sample_host()
            if not self.run_op(op, rep, tag, spans):
                break
        return rep

    def time_left(self, estimate):
        return time.monotonic() + estimate < self.deadline


def probe_env(bench):
    rc, _, _ = bench.spawn([sys.executable, "-c", ENV_PROBE], "env-probe")
    probe = {}
    if rc == 0:
        probe = json.loads((bench.logs / "env-probe.out").read_text())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": probe.get("numpy", "unknown"),
        "blas": probe.get("blas", "unknown"),
        "blas_threads": BLAS_THREADS,
        "seeds": {"data": bench.seed, "sample": bench.seed + 1, "heldout": bench.seed + 2},
        "links": N_LINKS,
    }, rc == 0


def _median(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def group_rates(rep, workload):
    out = {}
    for metric, (wl, labels, units) in GROUPS.items():
        if wl == workload and all(lab in rep.wall for lab in labels):
            out[metric] = units / sum(rep.wall[lab] for lab in labels)
    return out


def end_to_end(reps, workload, bench):
    """End-to-end metrics; times are divided by the host slowdown (see CAL_REF_S)."""
    items = ITEMS[workload]
    full = [r for r in reps if r.wall]
    setup_slowdown = _median(bench.cal_walls) / CAL_REF_S or 1.0
    slowdown = setup_slowdown if workload in SCALED_WORKLOADS else 1.0
    raw = {
        "setup_s": _median(bench.setup_walls),
        "links_per_s": _median([items / sum(r.wall.values()) for r in full]),
        "cpu_ms_per_link": _median([1000.0 * sum(r.cpu_s.values()) / items for r in full]),
    }
    print(f"host slowdown {setup_slowdown:.4f} (median of {len(bench.cal_walls)} calibration "
          f"jobs over {CAL_REF_S} s), applied to stages {slowdown:.4f}; raw: "
          + " ".join(f"{k} {v:.5g}" for k, v in raw.items()), flush=True)
    return {
        "setup_s": raw["setup_s"] / setup_slowdown,
        "peak_rss_mb": _median([max(r.rss_mb.values()) for r in full]),
        "ok_ops_frac": 1.0 - bench.failed / max(bench.attempted, 1),
        "links_per_ref_s": raw["links_per_s"] * slowdown,
        "cpu_ref_ms_per_link": raw["cpu_ms_per_link"] / slowdown,
    }


def layer_metrics(untraced, traced, workload):
    """Per-layer metrics of one untraced/traced pair of repetitions.

    Layers and stages that the workload does not run read 0.
    """
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    times = {}
    counters = {}
    absent = 0
    for doc in traced.traces.values():
        for name, (calls, self_s) in tracer.layer_times(doc["spans"]).items():
            c, s = times.get(name, (0, 0.0))
            times[name] = (c + calls, s + self_s)
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        absent = max(absent, len(doc["absent"]))
    for name in tracer.SPAN_NAMES:
        calls, self_s = times.get(name, (0, 0.0))
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    m.update(untraced.values)
    m.update(group_rates(untraced, workload))
    for key in ("io.read_dataset.bytes", "io.write_dataset.bytes",
                "io.read_checkpoint.bytes", "io.write_checkpoint.bytes",
                "codec.stats.delay_floored", "codec.stats.pathloss_floored",
                "codec.scaler.n_clipped"):
        m[key] = counters.get(key, 0)
    m["stats.warnings"] = untraced.warnings

    for label, key in (("decode_wgan", "codec.decode.virtual_survivor_frac"),
                       ("decode_res", "codec.decode.virtual_survivor_frac_res")):
        doc = traced.traces.get(label)
        m[key] = virtual_survivor_frac(doc) if doc else 0.0

    flops = counters.get("genmodel.wgan.critic_loss_and_grads.flops", 0)
    calls, busy = times.get("genmodel.wgan.critic_loss_and_grads", (0, 0.0))
    m["genmodel.wgan.critic_loss_and_grads.flops_computed"] = flops / calls if calls else 0
    m["genmodel.wgan.critic_loss_and_grads.gflop_per_s"] = flops / busy / 1e9 if busy else 0.0

    base = sum(untraced.wall.values())
    m["trace.overhead_s"] = sum(traced.wall.values()) - base
    m["trace.overhead_frac"] = m["trace.overhead_s"] / base if base else 0.0
    m["trace.absent_targets"] = absent
    for a in ARTIFACTS:
        m[f"artifact.{a.replace('.', '_')}.bytes"] = untraced.sizes.get(a, 0)
    return m


def virtual_survivor_frac(doc):
    """Share of the virtual columns that decode kept, for one decode stage.

    Source paths per link come from the geometry dataset the stage read;
    every column beyond them is virtual.
    """
    c = doc["counters"]
    links = c.get("io.read_dataset.links", 0)
    calls = tracer.layer_times(doc["spans"]).get("codec.decode", (0, 0.0))[0]
    if not links or not calls:
        return 0.0
    source = c.get("io.read_dataset.paths", 0) / links
    decoded = c.get("codec.decode.paths", 0) / calls
    return (decoded - source) / (c["codec.max_paths"] - source)


def print_stage_table(reps, workload, bench):
    """The stage-level metrics by name and unit; n/a where the workload lacks them."""
    rates = [group_rates(r, workload) for r in reps]
    values = {k: _median([r.get(k) for r in rates]) for k in GROUPS}
    merged = {}
    for r in reps:
        merged.update(r.values)
    print("stage metrics (median over repetitions):")
    for name in GROUPS:
        shown = f"{values[name]:.4f}" if GROUPS[name][0] == workload else "n/a"
        print(f"  {name:<26} {shown:>12} 1/s")
    for name in ("ks_pathloss_max", "ks_delay_max"):
        shown = f"{merged[name]:.5f}" if name in merged else "n/a"
        print(f"  {name:<26} {shown:>12} ks")
    print(f"  {'failed_ops_frac':<26} {bench.failed / max(bench.attempted, 1):>12.4f} frac")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chanimg" / "cli.py").is_file():
        print(f"perfbench: no chanimg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.seed, time.monotonic() + RUN_DEADLINE_S)
    shutil.rmtree(WORK, ignore_errors=True)
    for d in ("logs", "inputs", "out", "traced", "spans"):
        (WORK / d).mkdir(parents=True)

    env, env_ok = probe_env(bench)  # also compiles bytecode before set-up is timed
    print("env " + json.dumps(env), flush=True)
    if not env_ok:
        bench.attempted += 1
        bench.fail("env-probe", "cannot import chanimg.cli")
    for _ in range(HOST_SAMPLES):
        bench.sample_host()

    setup_ops, ops = plan(args.workload, args.seed, WORK / "inputs", WORK / "out")
    _, traced_ops = plan(args.workload, args.seed, WORK / "inputs", WORK / "traced")
    bench.run_rep(setup_ops, "set-up")
    ready = not bench.failed

    reps, pairs = [], []
    start = time.monotonic()
    while ready:
        rep = bench.run_rep(ops, f"rep {len(reps)}")
        reps.append(rep)
        if args.trace and not bench.failed:
            pairs.append((rep, bench.run_rep(traced_ops, f"traced {len(pairs)}", traced=True)))
        elapsed = time.monotonic() - start
        if bench.failed or elapsed >= args.seconds or not bench.time_left(
                elapsed / len(reps)):
            break

    print_stage_table(reps, args.workload, bench)
    if args.trace:
        per_pair = [layer_metrics(u, t, args.workload) for u, t in pairs] or [
            layer_metrics(Rep(), Rep(), args.workload)]
        metrics = {name: (_median([m[name] for m in per_pair]), unit)
                   for name, unit in PER_LAYER}
        metrics["failed_ops_frac"] = (bench.failed / max(bench.attempted, 1), "frac")
        absent = sorted({a for _, t in pairs for doc in t.traces.values()
                         for a in doc["absent"]})
        if absent:
            print("absent wrap targets: " + ", ".join(absent))
        print("per-layer self time (s, traced):")
        for name in tracer.SPAN_NAMES:
            print(f"  {name:<42} {metrics[name + '.calls'][0]:>8} calls "
                  f"{metrics[name + '.self_s'][0]:9.4f} s")
    else:
        for _ in range(HOST_SAMPLES):
            bench.sample_host()
        e2e = end_to_end(reps, args.workload, bench)
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}

    if bench.failed == 0:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
