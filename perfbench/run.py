"""Benchmark of the resolve pipeline.

    python3 perfbench/run.py --workload text_heavy --seed 1 --seconds 10 --trace 0

Run from the repository root.  The timed operation is one ``resolve`` of
the workload's base corpus, from Parquet to collected clusters.  A run
repeats a *cycle* ``CYCLES`` times: start a local Ray session, generate the
workload from the seed (``perfbench/workloads.py``) and write its Parquet,
warm up the Ray workers and run one untimed ``resolve`` (a session's first
is the slowest), time operations (at least one) until the cycles so far
have spent their share of ``--seconds``, stop Ray.  ``setup_s`` is the
median set-up of the cycles, first ``resolve`` included.  ``wall_s`` is the
fastest timed operation of the run: the host's other tenants take the
shared CPUs in bursts of seconds to minutes, which slows whole operations,
so the median of a run swings with them while the fastest stays put (the
median goes to standard error).  Every operation's clusters,
the first's too, are scored against the gold; a failed check or an
exception counts as a failed operation.  Each cycle also times the drift
control ``calib_s`` (``checks.calibrate``, no engine code): it goes to
standard error and, in a traced run, into the metrics.  It is kept out of
the bounded end-to-end metrics because its own spread is the box's drift.

With ``--trace 1`` a single cycle runs, followed by the traced run
(``perfbench/spans.py``): the stages one at a time, the incremental add and
retract of the workload's delta, and the in-process kernel pass.  It
writes the spans to ``.bench_work/traces/`` and prints the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import ray  # noqa: E402
import ray.data  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

# modules that import the engine (kernels, spans, the pipelines) are imported
# where they are used, after engine_available() has checked for it

OBJECT_STORE_BYTES = 256 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<micros>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = 70
RUN_LIMIT_S = 170
# Ray sessions per run: set-up is timed once per session and a session's
# speed varies, so a run spreads its operations over two sessions; a third
# would cost a set-up (~15 s) for no more operations
CYCLES = 2


def log(*parts) -> None:
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def engine_available() -> bool:
    if not os.path.isdir(os.path.join(ROOT, "email_address_parser_ray")):
        return False
    sys.path.insert(0, ROOT)
    try:
        import email_address_parser_ray.pipelines.resolve  # noqa: F401
    except ImportError:
        return False
    return True


# --- process bookkeeping --------------------------------------------------


def _alive(pids):
    table = checks.process_table()
    return [p for p in pids if p in table and table[p][1] not in "ZX"]


def start_ray(cpus: int) -> None:
    # Ray workers import the engine from this checkout
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths if p and p != ROOT])
    kwargs = dict(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
    )
    temp = os.path.join(WORK, "ray")
    if len(temp) + RAY_SOCKET_SUFFIX <= 107:
        kwargs["_temp_dir"] = temp
    else:
        log("checkout path too long for Ray sockets; Ray uses its default temp dir")
    ray.init(**kwargs)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    pids = checks.descendants(checks.process_table(), os.getpid())
    ray.shutdown()
    deadline = time.time() + 30
    while _alive(pids) and time.time() < deadline:
        time.sleep(0.1)
    for p in _alive(pids):
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    while _alive(pids):
        time.sleep(0.05)


def _import_engine(seconds: float) -> None:
    import email_address_parser_ray.pipelines.resolve  # noqa: F401
    import ray.data  # noqa: F401

    time.sleep(seconds)  # hold this worker so the next task lands on another


def warm_workers() -> None:
    """Import the engine in every task worker of the session: a first
    operation in a fresh session otherwise pays these imports."""
    task = ray.remote(num_cpus=1)(_import_engine)
    cpus = int(ray.cluster_resources().get("CPU", 1))
    ray.get([task.remote(0.2) for _ in range(cpus)])


# --- the timed operations -------------------------------------------------


def timed_resolve(inputs):
    """The timed operation: ``resolve`` of the base, clusters collected."""
    from email_address_parser_ray.pipelines.resolve import resolve

    gc.collect()  # the previous operation's garbage is not this one's cost
    t0 = time.perf_counter()
    clusters = checks.collect(resolve(inputs.base_dir)["clusters"])
    return time.perf_counter() - t0, clusters


# --- one run ---------------------------------------------------------------


class RunTimeout(BaseException):
    """Raised by the alarm; not an ``Exception``, so the per-operation
    handler cannot swallow it."""


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def run(args) -> dict:
    import spans

    w = workloads.scaled(workloads.WORKLOADS[args.workload], args.scale)
    run_id = f"{args.workload}-s{args.seed}-{int(time.time())}-{os.getpid()}"
    data_dir = os.path.join(WORK, run_id)
    setups, walls, calibs, peaks, f1s = [], [], [], [], []
    attempted = failed = 0
    spent = 0.0  # seconds of timed operations, over all cycles
    share = args.seconds / CYCLES  # timed seconds per cycle
    # a traced run needs only a reference wall_s, so it keeps to one cycle
    cycles = 1 if args.trace else CYCLES

    def operation(inputs) -> float:
        """One resolve, checked against the gold: its seconds, or NaN."""
        nonlocal attempted, failed
        attempted += 1
        try:
            dt, clusters = timed_resolve(inputs)
            f1s.append(checks.pair_f1(checks.cluster_map(clusters), inputs.base_surfaces))
            if f1s[-1] >= checks.F1_FLOOR:
                return dt
        except Exception:
            traceback.print_exc()
        failed += 1
        return float("nan")

    try:
        for cycle in range(cycles):
            t0 = time.perf_counter()
            start_ray(args.cpus)
            inputs = workloads.build(w, args.seed, data_dir)
            warm_workers()
            # a session's first resolve is slower (Ray Data starts its own
            # actors and imports with it), so it is set-up, not timed
            first = operation(inputs)
            setups.append(time.perf_counter() - t0)
            calibs.append(checks.calibrate())
            ops = 0
            with checks.RssSampler() as rss:
                # at least one operation per session; a session whose
                # operations ran long leaves the later ones less time
                while not ops or spent < share * (cycle + 1):
                    ops += 1
                    t = time.perf_counter()
                    dt = operation(inputs)
                    spent += time.perf_counter() - t
                    if not math.isnan(dt):
                        walls.append(dt)
            peaks.append(rss.peak_bytes)
            log(f"cycle {cycle}: setup {setups[-1]:.2f} s (first resolve {first:.2f} s), "
                f"calib {calibs[-1]:.4f} s, operations so far {walls}")
            if cycle == cycles - 1:
                recall = extraction_recall(inputs)
                attempted += 1
                failed += recall < checks.RECALL_FLOOR
                if args.trace:
                    attempted += 1
                    tr = spans.Tracer(run_id)
                    failed += not traced(tr, inputs)
                    layer = spans.layer_metrics(tr, inputs.base_table.num_rows, min(walls))
                    path = os.path.join(WORK, "traces", f"{run_id}.json")
                    tr.write(path)
                    log("spans written to", path)
                    for name, t in tr.layers().items():
                        log(f"{name:12s} wall {t['wall_s']:8.3f} s  self {t['self_s']:8.4f} s")
            stop_ray()
    finally:
        if ray.is_initialized():
            stop_ray()
        shutil.rmtree(data_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    correct = failed == 0
    if args.trace:
        metrics = dict(layer)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        metrics["calib_s"] = (statistics.median(calibs), "s")
    else:
        wall = min(walls)
        log(f"operations {len(walls)}, fastest {wall:.3f} s, median {statistics.median(walls):.3f} s")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "turns_per_s": (inputs.base_table.num_rows / wall, "1/s"),
            "pair_f1": (min(f1s), "ratio"),
            "mention_recall": (recall, "ratio"),
            "peak_rss_mb": (statistics.median(peaks) / 2**20, "MB"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def extraction_recall(inputs) -> float:
    """Mention recall of the extraction kernel the pipeline maps over the
    base; the traced run checks the pipeline's own mentions as well."""
    import kernels

    return checks.mention_recall(kernels.extract(inputs.base_table), inputs.base_gold)


def traced(tr, inputs) -> bool:
    """The traced run, checked against the kernel pass and the timed path."""
    import spans

    out = spans.traced_run(tr, inputs)
    recall = checks.mention_recall(checks.collect(out["mentions"]), inputs.base_gold)
    ok = {
        "traced mention recall": recall >= checks.RECALL_FLOOR,
        "traced clusters equal kernel pass": checks.same_clusters(out["clusters"], out["kernel"].clusters),
        "traced add equals full recompute": checks.same_clusters(out["add_clusters"], out["full_kernel"].clusters),
        "traced retract equals traced base": checks.same_clusters(out["retract_clusters"], out["clusters"]),
    }
    for name, good in ok.items():
        if not good:
            log("check failed:", name)
    return all(ok.values())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--cpus", type=int, default=2, help="logical CPUs of the Ray session")
    p.add_argument("--scale", type=float, default=1.0, help="multiplies corpus sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not engine_available():
        log("the engine package email_address_parser_ray is not importable from", ROOT)
        return 2
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args)
    except (Exception, RunTimeout):
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
