#!/usr/bin/env python3
"""End-to-end benchmark of the Maxwell QPINN reproduction, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload qpinn-paper-g8 --seed 1 \
        --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload once traced (spans around each layer's public entry
points) and once untraced, and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full report (environment,
execution path, checks, sample counts) and, when traced, the spans go to
``.perfbench/`` under the repository root.  ``--toy`` shrinks every
workload to seconds (see ``selftest.py``); ``--record-expected``
rewrites ``expected.json``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 2  # extra cold processes; setup_s is the median of 3


def _hermetic_env() -> None:
    """Drop the program's size/cache overrides; pin BLAS to one thread.

    On a small shared box two BLAS threads contend with the interpreter
    thread and with neighbours: measured on 2 cores, one thread ran the
    QPINN epoch as fast on average and spread 4% across runs, two threads
    20%.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny sizes for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--record-expected", action="store_true",
                   help="re-record expected.json (l2_final per init seed)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    _hermetic_env()
    sys.path.insert(0, str(ROOT / "src"))

    import bench  # noqa: E402  (after the BLAS thread cap)

    if args.record_expected:
        return record_expected(bench)
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: --workload must be one of "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = bench.WORKLOADS[args.workload]
    if args.toy:
        spec = spec.toy()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(bench, spec, args.seed,
                                                     workdir)}))
            return 0
        report = run(bench, spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(bench, report, args)
    return 0


# ----------------------------------------------------------------------
def setup_probe(bench, spec, seed, workdir) -> float:
    """Cold set-up in this process: imports to the first epoch / warmup."""
    init_seed = seed % bench.INIT_SEEDS
    if spec.kind == "serve":
        bench.serve_setup(spec, init_seed, workdir)
        return time.perf_counter() - _T0
    ref = bench.make_reference(spec, None)
    run = bench.train_once(spec, init_seed, ref, workdir, stop_after=1)
    return run.epoch_ends[0] - _T0


def probe_setups(spec, args) -> list:
    """Set-up time of ``SETUP_PROBES`` fresh processes, run one by one."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", spec.name, "--seed", str(args.seed),
           "--setup-probe"] + (["--toy"] if args.toy else [])
    values = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=150)
        except subprocess.TimeoutExpired:
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            values.append(float(json.loads(lines[-1])["setup_s"]))
    return values


def check_expected(checks, spec, init_seed, l2, toy) -> None:
    """``l2_final`` must reproduce expected.json (not at toy sizes)."""
    if toy:
        return
    data = json.loads(EXPECTED.read_text())
    want, tol = data["l2_final"][spec.name][init_seed], data["l2_rel_tol"]
    checks.check(abs(l2 - want) <= tol * abs(want),
                 f"l2_final {l2!r} != recorded {want!r} (rel tol {tol})")


def _quantiles(values):
    import numpy as np

    a = np.asarray(values, dtype=float) * 1e3
    return float(np.percentile(a, 50)), float(np.percentile(a, 95))


# ----------------------------------------------------------------------
def run(bench, spec, args, workdir) -> dict:
    init_seed = args.seed % bench.INIT_SEEDS
    checks = bench.Checks()
    report = {"workload": spec.name, "seed": args.seed,
              "init_seed": init_seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "sizes": vars(spec)}
    runner = measure_training if spec.kind == "train" else measure_serving
    runner(bench, spec, args, workdir, init_seed, checks, report)
    if not args.trace:
        probes = probe_setups(spec, args)
        checks.check(len(probes) == SETUP_PROBES, "a set-up probe failed")
        values = [report["setup_main_s"]] + probes
        report["setup_samples_s"] = values
        report["metrics"]["setup_s"] = statistics.median(values)
    report["checks"] = {"attempted": checks.attempted,
                        "failed": checks.failed,
                        "failures": checks.failures[:20]}
    report["environment"] = environment(bench)
    return report


def measure_training(bench, spec, args, workdir, init_seed, checks,
                     report):
    import numpy as np

    from tracing import Recorder

    rec = probe = None
    if args.trace:
        rec = Recorder()
        bench.install_layer_spans(rec)
    try:
        ref = bench.make_reference(spec, rec)
        if rec is None:
            probe = bench.RowsProbe(ref)
        out = bench.run_training(spec, init_seed, args.seconds, workdir,
                                 checks, ref, rec, probe)
    finally:
        if rec is not None:
            rec.restore()
    runs, walls = out["runs"], out["walls"]
    first = runs[0]
    report["execution_path"] = first.path
    report["trainings"] = len(runs)
    report["warm_epochs"] = len(walls)
    report["loss_history"] = first.losses
    if not args.trace:
        l2 = bench.final_l2(first.model, ref, checks, trainer_last=(
            first.l2_history[-1] if first.l2_history else None))
        check_expected(checks, spec, init_seed, l2, args.toy)
        p50, p95 = _quantiles(walls)
        report["setup_main_s"] = first.epoch_ends[0] - _T0
        report["metrics"] = {
            "epoch_s": float(np.mean(walls)),
            "l2_final": l2,
            "peak_rss_mb": _peak_rss_mb(),
            "predict_rows_per_s": probe.rows / sum(probe.times),
            "latency_ms.p50": p50,
            "latency_ms.p95": p95,
        }
        report["latency_samples"] = len(walls)
        report["predict_samples"] = len(probe.times)
        report["predict_times_s"] = probe.times
        report["epoch_walls_s"] = walls
        return
    # traced: one untraced training of the same seed is the overhead
    # baseline and must reproduce the traced loss history bitwise
    base = bench.run_training(spec, init_seed, 0.0, workdir, checks, ref)
    checks.check(base["runs"][0].losses == first.losses,
                 "traced loss history differs from the untraced one")
    clock = first.clock
    extra = {"setup.first_epoch_s": clock.first_epoch_s,
             "trace.overhead": float(np.mean(walls) / np.mean(base["walls"]))}
    if len(clock.plan_info) > 1:
        extra["torq.plan_cache.hit_ratio"] = bench.hit_ratio(
            clock.plan_info[0], clock.plan_info[-1])
    if len(clock.step_info) > 1:
        extra["autodiff.tape.hit_ratio"] = bench.hit_ratio(
            clock.step_info[0], clock.step_info[-1])
    unit_ids = [u for r in runs for u in r.clock.unit_ids]
    report["metrics"] = bench.layer_metrics(rec, unit_ids, extra)
    _dump_spans(rec, args)


def measure_serving(bench, spec, args, workdir, init_seed, checks,
                    report):
    import numpy as np

    from repro.torq.compile import plan_cache_info
    from tracing import Recorder

    rec = None
    if args.trace:
        rec = Recorder()
        bench.install_layer_spans(rec)
    try:
        ref, model, path, frozen = bench.serve_setup(spec, init_seed,
                                                     workdir, rec)
        setup_end = time.perf_counter()
        schedule = bench.request_schedule(args.seed, spec)
        info0, plan0 = frozen.cache_info(), plan_cache_info()
        loop = bench.serve_loop(frozen, schedule, args.seconds, checks, rec)
        info1, plan1 = frozen.cache_info(), plan_cache_info()
    finally:
        if rec is not None:
            rec.restore()
    report["execution_path"] = {
        "path": "compiled forward-only tape" if info1.get("tape")
        and not info1["tape"]["disabled"] else "define-by-run",
        "tape_cache_info": {k: v for k, v in info1.get("tape", {}).items()
                            if k != "schedule"},
        "plan_cache_info": plan1,
    }
    report["requests"] = len(loop["lat"])
    report["passes"] = len(loop["pass_walls"])
    if args.trace:
        base = bench.serve_loop(frozen, schedule, args.seconds / 4, checks)
        extra = {
            "trace.overhead": float(np.mean(loop["pass_walls"])
                                    / np.mean(base["pass_walls"])),
            "serve.predict.row_us": 1e6 * sum(
                s.duration for s in rec.spans if s.name == "serve.predict"
            ) / loop["rows"],
            "serve.pad_ratio": (info1["padded_rows"] - info0["padded_rows"])
            / max(1, info1["rows"] - info0["rows"]),
            "autodiff.tape.hit_ratio": bench.hit_ratio(
                info0["tape"], info1["tape"]) if "tape" in info1 else 0.0,
            "torq.plan_cache.hit_ratio": bench.hit_ratio(plan0, plan1),
            "serve.arena_bytes": info1["arena_bytes"],
        }
        warm = loop["outs"]
        frozen.unpin()
        del frozen
        extra["serve.cold_mismatch_rows"] = bench.cold_mismatch_rows(
            path, schedule, warm)
        report["metrics"] = bench.layer_metrics(rec, loop["unit_ids"], extra)
        _dump_spans(rec, args)
        return

    report["live_check"] = bench.check_live(model, frozen, schedule,
                                            loop["outs"], args.seed, checks)
    l2 = bench.served_l2(frozen, ref)
    check_expected(checks, spec, init_seed, l2, args.toy)
    p50, p95 = _quantiles(loop["lat"])
    report["setup_main_s"] = setup_end - _T0
    report["latency_samples"] = len(loop["lat"])
    report["metrics"] = {
        "epoch_s": float(np.mean(loop["pass_walls"])),
        "l2_final": l2,
        "peak_rss_mb": _peak_rss_mb(),
        "predict_rows_per_s": loop["rows"] / loop["busy"],
        "latency_ms.p50": p50,
        "latency_ms.p95": p95,
    }


def _peak_rss_mb() -> float:
    from repro.obs.envinfo import peak_rss_bytes

    return peak_rss_bytes() / 2 ** 20


def _dump_spans(rec, args) -> None:
    rec.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")


# ----------------------------------------------------------------------
def _blas_threads():
    """OpenBLAS's live thread count, read through ctypes (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                    and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(bench) -> dict:
    import importlib.util

    from repro.obs.envinfo import environment_info

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    env = environment_info()
    env.update({
        "commit": commit,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_present": importlib.util.find_spec("numba") is not None,
    })
    return env


def emit(bench, report, args) -> None:
    """Write the full report, print every metric, then the result line."""
    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=2,
                                                 default=str))
    metrics = report["metrics"]
    for key, unit in units.items():
        print(f"{key:30s} {metrics[key]:>16.6g} {unit}")
    checks = report["checks"]
    for failure in checks["failures"]:
        print(f"check failed: {failure}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))


def record_expected(bench) -> int:
    """Measure l2_final of every workload for every init seed."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    table = {}
    try:
        for name, spec in bench.WORKLOADS.items():
            table[name] = []
            for init_seed in range(bench.INIT_SEEDS):
                checks = bench.Checks()
                if spec.kind == "train":
                    ref = bench.make_reference(spec, None)
                    run = bench.train_once(spec, init_seed, ref, workdir)
                    l2 = bench.final_l2(run.model, ref, checks)
                else:
                    ref, _, _, frozen = bench.serve_setup(spec, init_seed,
                                                          workdir)
                    l2 = bench.served_l2(frozen, ref)
                table[name].append(l2)
                print(name, init_seed, l2, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps({
        "about": "l2_final per workload and model init seed (seed % "
                 f"{bench.INIT_SEEDS}); a run must reproduce it to l2_rel_tol",
        "source_sha256": _source_digest(),
        "l2_rel_tol": 1e-7,
        "l2_final": table,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
