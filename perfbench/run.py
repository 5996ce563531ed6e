"""Benchmark of the KG engine: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run starts one Ray session sized to
``nproc``, makes the workload's inputs from ``--seed``, runs one untimed
warm-up iteration, then timed iterations for about ``--seconds`` (at
least two; no iteration starts that would likely end past the limit),
checks every output against a reference, and prints one JSON object as
the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
a separate traced run. A detail line with the box facts, input sizes and
sample counts precedes the result. The exit code is 0 only when every
operation and every check passed. Spans of a traced run are written to
``.perfbench/`` in the checkout. See ``perfbench/NOTES.md``.

The measurement runs in a child process of this one. A child that ends
before its Ray session came up is started again, up to
``RAY_START_ATTEMPTS`` times: now and then Ray's head node does not
register within Ray's 30 s wait, and Ray's core worker then ends the
process with no Python exception to catch.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ITERATIONS = 2
RAY_START_ATTEMPTS = 3
# a run must end within 180 s; a child still running at this deadline is
# stopped and the run fails
DEADLINE_S = 170
# set in the child's environment: Ray's temp dir ("" for Ray's default),
# and how many children before it ended before Ray came up
CHILD_ENV = "PERFBENCH_RAY_TEMP_DIR"
FAILED_STARTS_ENV = "PERFBENCH_FAILED_STARTS"
# printed by the child once Ray is up; not passed on
RAY_UP = "perfbench: ray session up"
# Ray binds Unix sockets at <temp dir>/session_<YYYY-MM-DD_HH-MM-SS_ffffff>_
# <pid>/sockets/plasma_store, which must fit in 107 bytes; the part after the
# temp dir takes at most 9 + 27 + 7 (pid) + 9 + 12 bytes
SOCKET_SUFFIX_LEN = 64
SETUP_REPEATS = 3
RECONCILE_TOLERANCE = 0.10
# cascade reports its ratio too, but its replay hands the mining exchange
# back to Ray and its UDF total is under a second, so it is not gated
RECONCILED = ("headline",)


def _nproc() -> int:
    """What coreutils ``nproc`` prints: usable CPUs, capped by OpenMP's
    thread settings."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def _box_facts(num_cpus: int, seed: int) -> dict:
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": _nproc(), "os_cpu_count": os.cpu_count(),
            "mem_total_mb": mem_kb // 1024, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "python": platform.python_version(),
            "commit": commit, "seed": seed, "ray_num_cpus": num_cpus}


class RssSampler:
    """Peak of the summed resident set of this process and its Ray workers,
    sampled every 200 ms on a background thread."""

    def __init__(self) -> None:
        import psutil  # bundled with Ray; importable once ray is imported

        self._me = psutil.Process()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.peak = 0

    def _sample(self) -> int:
        import psutil

        total = self._me.memory_info().rss
        for p in self._me.children(recursive=True):
            try:
                if p.cmdline()[:1] and p.cmdline()[0].startswith("ray::"):
                    total += p.memory_info().rss
            except (psutil.NoSuchProcess, psutil.AccessDenied):
                pass
        return total

    def _run(self) -> None:
        while not self._stop.wait(0.2):
            self.peak = max(self.peak, self._sample())

    def __enter__(self) -> RssSampler:
        self.peak = self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _stop_children() -> None:
    """Stop the Ray session and wait until every process it started ended.
    A zombie has ended: Ray workers whose raylet exited are re-parented to
    the supervising process, which reaps them."""
    import psutil
    import ray

    def wait(procs: list, timeout: float) -> list:
        t_end = time.monotonic() + timeout
        while procs and time.monotonic() < t_end:
            _, procs = psutil.wait_procs(procs, timeout=0.2)
            procs = [p for p in procs if _status(p) not in (None, psutil.STATUS_ZOMBIE)]
        return procs

    t0 = time.perf_counter()
    children = psutil.Process().children(recursive=True)
    ray.shutdown()
    alive = wait(children, 20)
    for p in alive:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    wait(alive, 10)
    print(f"perfbench: Ray stopped in {time.perf_counter() - t0:.1f} s; "
          f"{len(alive)} process(es) had to be killed", file=sys.stderr)


def _status(p) -> str | None:
    import psutil

    try:
        return p.status()
    except psutil.NoSuchProcess:
        return None


def _ray_temp_dir(attempt: int) -> str | None:
    """Ray's session directory inside the checkout, or None (Ray's default)
    when the checkout path is too long for Ray's Unix sockets."""
    d = os.path.join(ROOT, ".perfbench", f"r{os.getpid()}-{attempt}")
    return d if len(d.encode()) + SOCKET_SUFFIX_LEN <= 107 else None


def _supervise(argv: list[str]) -> int:
    """Run the measurement in a child process and pass on its standard
    output; start it again when it ended before its Ray session came up.
    Ray processes a dead child left behind are stopped here."""
    # orphaned descendants of the child are re-parented to this process
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    deadline = time.monotonic() + DEADLINE_S
    for failed in range(RAY_START_ATTEMPTS):
        temp_dir = _ray_temp_dir(failed)
        env = os.environ | {CHILD_ENV: temp_dir or "", FAILED_STARTS_ENV: str(failed)}
        child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                                 env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            out, _ = child.communicate()
            print(f"perfbench: the run passed {DEADLINE_S} s and was stopped", file=sys.stderr)
        _stop_orphans()
        lines = out.splitlines()
        if child.returncode != 0:
            _print_ray_logs(temp_dir)
        if temp_dir:
            shutil.rmtree(temp_dir, ignore_errors=True)
        if (RAY_UP in lines or failed + 1 == RAY_START_ATTEMPTS
                or time.monotonic() >= deadline):
            sys.stdout.write("".join(f"{line}\n" for line in lines if line != RAY_UP))
            return 0 if child.returncode == 0 else 1
        print(f"perfbench: the run ended with code {child.returncode} before its Ray "
              "session came up; starting it again", file=sys.stderr)
    raise AssertionError("unreachable")


def _stop_orphans() -> None:
    """Terminate this process's remaining children (Ray processes a dead
    child left behind) and wait until each has ended."""
    def children() -> list[int]:
        pids = []
        for d in os.listdir("/proc"):
            try:
                with open(f"/proc/{d}/stat") as f:
                    # the field after the parenthesised command is the state,
                    # then the parent pid
                    if int(f.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                        pids.append(int(d))
            except (OSError, ValueError, IndexError):
                pass
        return pids

    def running(pid: int) -> bool:
        try:
            return os.waitpid(pid, os.WNOHANG) == (0, 0)
        except ChildProcessError:
            return False

    pids = children()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        t_end = time.monotonic() + 10
        while pids and time.monotonic() < t_end:
            pids = [pid for pid in pids if running(pid)]
            time.sleep(0.1)
        if not pids:
            break
    if pids:
        print(f"perfbench: {len(pids)} orphaned process(es) could not be stopped", file=sys.stderr)


def _print_ray_logs(temp_dir: str | None) -> None:
    """Free memory, free shared memory and the tails of the raylet log and
    of the child's own Ray log (``python-core-driver-*``) of a run that
    failed."""
    if not temp_dir:
        return
    with open("/proc/meminfo") as f:
        mem = {k: v.strip() for k, v in (line.split(":", 1) for line in f)}
    shm = shutil.disk_usage("/dev/shm") if os.path.isdir("/dev/shm") else None
    print(f"perfbench: MemAvailable {mem.get('MemAvailable')}, /dev/shm free "
          f"{shm.free >> 20 if shm else '-'} MiB", file=sys.stderr)
    logs = os.path.join(temp_dir, "session_latest", "logs")
    names = sorted(os.listdir(logs)) if os.path.isdir(logs) else []
    for name in [n for n in names if n == "raylet.out" or n.startswith("python-core-driver")]:
        with open(os.path.join(logs, name), errors="replace") as f:
            tail = f.readlines()[-12:]
        sys.stderr.write("".join(f"perfbench: {name}| {line}" for line in tail))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("headline", "cascade", "store", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)

    # the program is imported from the checkout; without it there is
    # nothing to measure
    if not os.path.isfile(os.path.join(ROOT, "code_graph_rag_ray", "__init__.py")):
        print(f"perfbench: no code_graph_rag_ray package under {ROOT}", file=sys.stderr)
        return 2
    if CHILD_ENV not in os.environ:
        return _supervise(argv)

    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        return _run(args, WORKLOADS[args.workload], scratch, out_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, workload_cls, scratch: str, out_dir: str) -> int:
    import ray

    num_cpus = _nproc()
    t0 = time.perf_counter()
    # workers import the program from the checkout, wherever the run starts
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 << 20, _temp_dir=os.environ[CHILD_ENV] or None,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    ray_start_s = time.perf_counter() - t0
    print(RAY_UP, flush=True)
    try:
        return _measure(args, workload_cls, scratch, out_dir, num_cpus, ray_start_s)
    finally:
        _stop_children()


def _measure(args, workload_cls, scratch, out_dir, num_cpus, ray_start_s) -> int:
    from code_graph_rag_ray.context import configure_data_context

    configure_data_context()
    w = workload_cls(args.seed, scratch)
    attempted, failures = 0, []

    detail = {"workload": args.workload, "box": _box_facts(num_cpus, args.seed)}
    metrics = {}
    try:
        generate_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            w.generate()
            generate_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        attempted += w.run_once()["ops"]
        warmup_s = time.perf_counter() - t0
    except Exception as e:  # noqa: BLE001 - a failed set-up is a result
        attempted += 1
        failures.append(f"{args.workload}: set-up raised {type(e).__name__}: {e}")
    else:
        setup_s = ray_start_s + statistics.median(generate_s) + warmup_s
        detail["inputs"] = w.sizes()
        detail["setup"] = {"ray_start_s": ray_start_s,
                           "failed_ray_starts": int(os.environ[FAILED_STARTS_ENV]),
                           "generate_s": generate_s, "warmup_s": warmup_s}
        if args.trace:
            metrics, n_ops = _traced(args, w, out_dir, failures, detail)
        else:
            metrics, n_ops = _timed(args, w, failures, detail, setup_s)
        attempted += n_ops
        try:
            checked, bad = w.check()
        except Exception as e:  # noqa: BLE001 - a failed check is a result
            checked, bad = 1, [f"{args.workload}: check raised {type(e).__name__}: {e}"]
        attempted += checked
        failures += bad
    detail["failures"] = failures[:20]
    detail["error_rate"] = len(failures) / attempted
    print(json.dumps({"detail": detail}))
    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def _timed(args, w, failures, detail, setup_s) -> tuple[dict, int]:
    samples: dict[str, list] = {}
    n_ops = 0
    with RssSampler() as rss:
        t_end = time.perf_counter() + args.seconds
        took = 0.0
        # stop before an iteration that would likely end past --seconds
        while (len(samples.get("work_s", ())) < MIN_ITERATIONS
               or time.perf_counter() + took <= t_end):
            t0 = time.perf_counter()
            try:
                s = w.run_once()
            except Exception as e:  # noqa: BLE001 - a failed iteration is a result
                failures.append(f"{args.workload}: iteration raised {type(e).__name__}: {e}")
                n_ops += 1
                break
            took = time.perf_counter() - t0
            n_ops += s.pop("ops")
            for k, v in s.items():
                samples.setdefault(k, []).extend(v if isinstance(v, list) else [v])
    if "work_s" not in samples:
        return {}, n_ops
    from perfbench.workloads import percentile

    summary = {k: {"n": len(v), "p50": statistics.median(v)} | ({"values": v} if len(v) <= 20 else {})
               for k, v in samples.items()}
    for k, v in samples.items():
        # the highest percentile with at least ten samples beyond it
        for q in (99.9, 99, 90):
            if len(v) * (1 - q / 100) >= 10:
                summary[k][f"p{q:g}"] = percentile(v, q)
                break
    work_s = summary["work_s"]["p50"]
    pages = detail["inputs"].get("pages")
    if pages:
        summary["pages_per_s"] = pages / work_s
    detail["samples"] = summary
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "work_s": {"value": work_s, "unit": "s"},
        "peak_rss_mb": {"value": rss.peak / 2**20, "unit": "MB"},
    }
    return {m["name"]: metrics[m["name"]] for m in _spec()["end_to_end"]}, n_ops


def _traced(args, w, out_dir, failures, detail) -> tuple[dict, int]:
    from perfbench.trace import ExecutorStats, Tracer

    tracer = Tracer()
    per_iter: list[dict] = []
    n_ops = 0
    with ExecutorStats() as stats:
        t_end = time.perf_counter() + args.seconds
        while len(per_iter) < 2 or time.perf_counter() < t_end:
            tracer.trace_id = len(per_iter)
            try:
                per_iter.append(w.traced(tracer, stats))
            except Exception as e:  # noqa: BLE001 - a failed iteration is a result
                failures.append(f"{args.workload}: traced iteration raised "
                                f"{type(e).__name__}: {e}")
                n_ops += 1
                break
            n_ops += 1
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    detail["spans"] = os.path.relpath(path, ROOT)
    detail["traced_iterations"] = len(per_iter)
    if not per_iter:
        return {}, n_ops
    metrics = {}
    # a layer the workload does not exercise reports zero work
    for m in _spec()["per_layer"]:
        vals = [it[m["name"]] for it in per_iter if m["name"] in it]
        metrics[m["name"]] = {"value": statistics.median(vals) if vals else 0, "unit": m["unit"]}
    if args.workload in RECONCILED:
        n_ops += 1
        ratio = metrics["trace.reconcile_ratio"]["value"]
        if abs(ratio - 1) > RECONCILE_TOLERANCE:
            failures.append(f"{args.workload}: stage self times sum to {ratio:.3f} x "
                            f"executor.udf_s, outside {RECONCILE_TOLERANCE:.0%}")
    return metrics, n_ops


if __name__ == "__main__":
    sys.exit(main())
