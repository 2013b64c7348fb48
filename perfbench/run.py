"""mrcompress benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-roi --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed. The run generates its inputs from the seed
(timed as ``setup_s``), then starts ``worker.py`` in a fresh process with
the thread settings pinned, which repeats the workload's ops for
``--seconds`` and checks their outputs. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; the lines before it
are a readable report. Metric names and units come from BENCHMARK.json.
Times are reference CPU seconds (see ``calibrate.py``); the report prints
raw wall times too.
"""

import os

# pinned before numpy loads, here and in the worker that inherits them
THREAD_ENV = {
    "MRC_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import fields  # noqa: E402
from calibrate import Calibration, cpu_times  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 9
RUN_LIMIT_S = 170  # the whole run, setup included, ends within this


def _setup_cli_roi(workdir, seed):
    n = fields.EDGE["cli-roi"]
    fields.sum_of_gaussians((n, n, n), 12, seed).astype("<f4").tofile(workdir / "field.f32")


def _setup_volume(name):
    def setup(workdir, seed):
        n = fields.EDGE[name]
        np.save(workdir / "field.npy", fields.smooth_field((n, n, n), seed, 1e-3))
    return setup


SETUPS = {
    "cli-roi": _setup_cli_roi,
    "volume-interp": _setup_volume("volume-interp"),
    "volume-block": _setup_volume("volume-block"),
}


def environment():
    src = ROOT / "src"
    loc = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "src_loc": loc,
    }


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()

    if not (ROOT / "src" / "mrcompress" / "__init__.py").is_file():
        fail(f"no mrcompress sources under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup, setup_cpu = [], []
        cal = Calibration()
        for _ in range(SETUP_REPEATS):
            cal.sample()
            c0 = cpu_times()
            t0 = perf_counter()
            SETUPS[args.workload](workdir, args.seed)
            setup.append(perf_counter() - t0)
            setup_cpu.append([b - a for a, b in zip(c0, cpu_times())])
        result = run_worker(args, workdir, RUN_LIMIT_S - (perf_counter() - t_start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    setup_s = statistics.median(cal.seconds(u, k) for u, k in setup_cpu)
    print(f"setup: {SETUP_REPEATS} repeats, median {statistics.median(setup):.4f} s wall, "
          f"{setup_s:.4f} reference CPU s")
    for where, c in (("setup", cal.summary()), ("worker", result["calibration"])):
        print(f"calibration ({where}): {c['samples']} samples, median cpu work {c['cpu_median_s']:.4f} s, "
              f"fault work {c['fault_median_s']:.4f} s; factors user {c['user_factor']:.4f} "
              f"kernel {c['kernel_factor']:.4f}")
    for op, samples in result["op_samples"].items():
        _, wall, user, system = (statistics.median(x) for x in zip(*samples))
        print(f"op {op}: n={len(samples)} medians: wall {wall:.4f} s, cpu user {user:.3f} s "
              f"system {system:.3f} s (timed after {result['warmup']} warm-up iteration)")
    for err in result["errors"]:
        print("FAILED " + err)
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / attempted:.4g} ratio ({failed} of {attempted} ops)")

    correct = failed == 0
    values = {}
    if correct:
        if args.trace:
            values = result["per_layer"]
            print("spans of the last traced iteration (calls, total s, self s):")
            for name, (calls, total, own) in sorted(result["spans"].items()):
                print(f"  {name:36s} {calls:6d} {total:10.4f} {own:10.4f}")
            print("codec decodes per level, by op: " + json.dumps(result["codec_decodes_per_level_by_op"]))
        else:
            values = dict(result["end_to_end"], setup_s=setup_s)
            print("from raw wall times: " + " ".join(f"{k}={v:.6g}" for k, v in result["raw_end_to_end"].items()))
        if set(values) != set(units):
            fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
        for name in units:
            print(f"{name} = {values[name]:.6g} {units[name]}")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units if k in values},
    }
    print(json.dumps(out))
    return 0 if correct else 1


def run_worker(args, workdir, budget):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result_path = workdir / "result.json"
    log_path = workdir / "worker.log"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--workdir", str(workdir), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
    if rc != 0 or not result_path.is_file():
        sys.stderr.write(log_path.read_text()[-4000:])
        fail("worker timed out" if rc is None else f"worker exited with code {rc}")
    return json.loads(result_path.read_text())


if __name__ == "__main__":
    sys.exit(main())
