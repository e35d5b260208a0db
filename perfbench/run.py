"""The segreode benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process; see each ``work_*.py``):
``family`` (trivariate Segre chain), ``gauge`` (univariate gauge chain)
and ``cli`` (subprocesses of ``python -m segreode.cli``).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
is timed in fresh interpreters, then whole passes over the seeded job
list run until ``--seconds`` of jobs have run.  ``--trace 1`` runs the
same measured phase, then two traced passes that wrap every layer from
outside (``tracer.py``) and reports the per-layer metrics; the counts of
the two traced passes must agree exactly.  Every job's verdicts are
checked in both modes; ``failed`` counts the jobs that disagree with the
expected verdicts, exit codes or artifact bytes (fail_frac =
failed / attempted).

Times are reported at a reference speed.  On a shared virtual machine
the speed of pure-Python code drifts by up to a third over tens of
seconds, which swamps the differences the benchmark must show.  So a
fixed calibration loop, shaped like the convolution kernel and
independent of segreode, is timed before and after every in-process
job, and the job's times are multiplied by CAL_REF_S over the mean of
the two calibrations: the time the job would take where the loop takes
CAL_REF_S.  Start-up drifts differently from running code, so whatever
runs in a fresh interpreter (the ``cli`` jobs, set-up, the import of
segreode.cli) is calibrated the same way with bare interpreter starts
against INTERP_REF_S.  The unscaled busy time of each pass is in the
run record.

The run record (versions, sizes, the layer-to-metric map) is printed
first; the last line of standard output is the result object.  Spans of
a traced run are written under ``.perfbench/`` in the checkout.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import common
from tracer import KERNELS, SERIES_OPS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = {"family": "work_family", "gauge": "work_gauge", "cli": "work_cli"}
SIZES = ("small", "mid", "large")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
PROBE_TIMEOUT_S = 60
# The reference speed: about the medians, on the 2-vCPU Xeon virtual
# machine the benchmark was written on, of the calibration loop and of a
# bare interpreter start.
CAL_REF_S = 1.0e-3
INTERP_REF_S = 0.05
SAMPLE_PERIOD_S = 0.1

# Series operations no code path of the package calls: their self time
# would read 0 on every run, so only their counts are reported.
UNCALLED = {"series.USeries.exp", "series.TriSeries.invert_unit"}

LAYER_MAP = {
    "kernel.mul3.*, series.TriSeries.{exp,mul,subst_eta}.*, segre.*, hypersurface.*":
        "family rung_large_ms, rung_mid_ms, jobs_per_s, cpu_s; nothing on gauge",
    "kernel.mul1.*, series.USeries.*, gauge.*":
        "gauge rung_*_ms, jobs_per_s, cpu_s; almost nothing on family",
    "segre.solve_phi.calls (2 per family job: reality_check solves again)":
        "family jobs_per_s; cli pipeline latency (rung_large_ms)",
    "cli.import_s, io.*, series.*.add self time":
        "cli job_p50_ms, job_p90_ms, setup_s; family rung_small_ms",
    "series.max_coeff_bits, series.max_den_bits":
        "explain kernel.*.busy_s per pair on every workload",
}


def end_to_end_spec():
    """[(name, unit)] of the untraced run."""
    return ([("setup_s", "s"), ("jobs_per_s", "1/s"), ("cpu_s", "s"),
             ("job_p50_ms", "ms"), ("job_p90_ms", "ms")]
            + [(f"rung_{s}_ms", "ms") for s in SIZES] + [("peak_rss_mb", "MB")])


def per_layer_spec():
    """[(name, unit)] of the traced run."""
    spec = []
    for k in KERNELS:
        spec += [(f"kernel.{k}.calls", "count"), (f"kernel.{k}.pairs", "count"),
                 (f"kernel.{k}.kept_ratio", "ratio"), (f"kernel.{k}.busy_s", "s"),
                 (f"kernel.{k}.operand_bits", "bits")]
    for cls, ops in SERIES_OPS.items():
        for op in ops:
            name = f"series.{cls}.{op}"
            spec += [(f"{name}.calls", "count"), (f"{name}.kernel_pairs", "count")]
            if name not in UNCALLED:
                spec.append((f"{name}.self_s", "s"))
    spec += [("series.max_coeff_bits", "bits"), ("series.max_den_bits", "bits"),
             ("odes.validate_p0.busy_s", "s"), ("odes.tresse_l2.busy_s", "s")]
    for fn in ("solve_phi", "family_residual", "reality_check", "dual_phi_full"):
        spec += [(f"segre.{fn}.calls", "count"), (f"segre.{fn}.busy_s", "s"),
                 (f"segre.{fn}.kernel_pairs", "count")]
    spec += [("segre.build_real.busy_s", "s"), ("segre.extract_real.busy_s", "s"),
             ("hypersurface.build_hypersurface.busy_s", "s")]
    for fn in ("reality_verify", "tangency_check"):
        spec += [(f"hypersurface.{fn}.busy_s", "s"),
                 (f"hypersurface.{fn}.kernel_pairs", "count")]
    for fn in ("formal_fundamental", "poincare_dulac", "gauge_chi_tau",
               "transform_ode_by_gauge", "companion_gauge", "reversion"):
        spec += [(f"gauge.{fn}.busy_s", "s"), (f"gauge.{fn}.kernel_pairs", "count")]
    spec += [(f"gauge.{fn}.busy_s", "s")
             for fn in ("divergence_report", "monodromy_at_infinity", "riccati_check")]
    spec += [("io.dumps_canonical.busy_s", "s"), ("io.dumps_canonical.bytes", "bytes"),
             ("io.ode_from_json.busy_s", "s"), ("io.sha256_of.busy_s", "s"),
             ("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.main.busy_s", "s"),
             ("trace.overhead_ratio", "ratio")]
    return spec


# -- speed calibration ---------------------------------------------------

def _calibration_loop():
    """A fixed piece of pure-Python work shaped like the convolution kernel."""
    terms = {d: (d * 7 % 13 - 6, d * 5 % 11 - 5) for d in range(60)}
    out = {}
    for da, (ar, ai) in terms.items():
        for db, (br, bi) in terms.items():
            d = da + db
            re, im = ar * br - ai * bi, ar * bi + ai * br
            cur = out.get(d)
            if cur is not None:
                re, im = re + cur[0], im + cur[1]
            out[d] = (re, im)
    return out


def calibration():
    """Seconds the calibration loop takes now: the median of five runs.

    The cyclic collector is off while it runs, so that the heap a job
    leaves behind does not slow the loop down.
    """
    times = []
    gc.disable()
    try:
        for _ in range(5):
            t0 = time.perf_counter()
            _calibration_loop()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def interp_start():
    """Seconds a bare fresh interpreter takes to start and exit."""
    return wall_of(["-c", "pass"])


class SpeedSampler:
    """Times the calibration loop every SAMPLE_PERIOD_S while a job runs.

    A job of several seconds can outlast a change of the machine's
    speed, so calibrations at its two ends are not enough.  The loop
    runs from a timer signal, in this thread between bytecodes; the
    time it takes (``spent``) is taken back out of the job's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_factor(calibrations, ref=CAL_REF_S):
    """Multiplier from measured seconds to seconds at the reference speed."""
    return ref / statistics.mean(calibrations)


# -- measurement ---------------------------------------------------------

def run_child(argv):
    """Run a fresh interpreter; raises if it fails.

    The output is captured: waiting on the pipes ends when the child
    exits, where a bare wait with a timeout would poll in steps of up
    to 50 ms and quantize the time.
    """
    return subprocess.run([sys.executable, *argv], env=common.child_env(), cwd=ROOT,
                          check=True, timeout=PROBE_TIMEOUT_S, capture_output=True,
                          text=True)


def wall_of(argv):
    t0 = time.perf_counter()
    run_child(argv)
    return time.perf_counter() - t0


SETUP_CODE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import importlib
wl = importlib.import_module(sys.argv[2])
wl.prepare(wl.inputs(int(sys.argv[3])), Path(sys.argv[4]))
"""
IMPORT_CODE = ("import time; t = time.perf_counter(); import segreode.cli; "
               "print(time.perf_counter() - t)")


def start_scaled(measure):
    """measure() seconds in a fresh interpreter, scaled by bare starts around it."""
    before = interp_start()
    seconds = measure()
    return seconds * speed_factor([before, interp_start()], INTERP_REF_S)


def measure_setup(module, seed):
    """Interpreter start, import and seeded inputs (and files), per fresh run."""
    workdir = OUT / f"setup-{module}"
    argv = ["-c", SETUP_CODE, str(HERE), module, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        times.append(start_scaled(lambda: wall_of(argv)))
    return times


def cpu_now():
    """User plus system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(jobs, in_process, tracer=None):
    """Run every job once, calibrating the machine's speed around each job.

    In-process jobs are calibrated with the calibration loop, before,
    after and (untraced) during the job; jobs that are fresh
    interpreters with a bare interpreter start before and after.
    Returns (busy_s, cpu_s, raw_busy_s, results) with results as
    (id, size, latency_s, problems, sizes).  Busy, CPU and latency cover
    the jobs, not the checks of their outputs, and are at the reference
    speed; raw_busy_s is the unscaled busy time.
    """
    probe, ref = (calibration, CAL_REF_S) if in_process else (interp_start, INTERP_REF_S)
    results = []
    busy = cpu = raw = 0.0
    before = probe()
    for job_id, size, run in jobs:
        if tracer is not None:
            tracer.job = job_id
        sampler = SpeedSampler()
        cpu0, start = cpu_now(), time.perf_counter()
        try:
            with sampler if in_process and tracer is None else nullcontext():
                check = run()
        except Exception as exc:  # a job that raises is a failed job
            check, problems, sizes = None, [f"{type(exc).__name__}: {exc}"], None
        latency = time.perf_counter() - start - sampler.spent
        job_cpu = cpu_now() - cpu0 - sampler.spent
        after = probe()
        factor = speed_factor([before, after, *sampler.samples], ref)
        before = after
        busy += latency * factor
        cpu += job_cpu * factor
        raw += latency
        if check is not None:
            try:
                problems, sizes = check()
            except Exception as exc:
                problems, sizes = [f"check raised {type(exc).__name__}: {exc}"], None
        results.append((job_id, size, latency * factor, problems, sizes))
    return busy, cpu, raw, results


def measured_phase(jobs, seconds, in_process):
    """Whole passes until `seconds` of unscaled job time have run (at least one)."""
    passes = []
    while not passes or sum(p[2] for p in passes) < seconds:
        passes.append(run_pass(jobs, in_process))
    return passes


def end_to_end(passes, setup_times, in_process):
    """(metrics, sample counts) of the untraced run.

    Each job (one datum at one rung) first gets its median latency over
    the passes; p50, p90 and the rung medians are taken over those.  A
    size class mixes data of very different cost, so a median over the
    raw latencies would fall in the gap between two data and jump with
    the noise of either.
    """
    runs = {}
    for job_id, size, latency, _, _ in (r for p in passes for r in p[3]):
        runs.setdefault((job_id, size), []).append(latency * 1e3)
    typical = {key: statistics.median(lat) for key, lat in runs.items()}
    lat_ms = list(typical.values())
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process
                               else resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": statistics.median(len(p[3]) / p[0] for p in passes),
        "cpu_s": statistics.median(p[1] for p in passes),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup_times), "passes": len(passes), "jobs": len(lat_ms)}
    for size in SIZES:
        sized = [v for (_, s), v in typical.items() if s == size]
        metrics[f"rung_{size}_ms"] = statistics.median(sized)
        samples[f"rung_{size}_jobs"] = len(sized)
    return metrics, samples


def probe_medians():
    """cli.interp_s (bare interpreter) and cli.import_s (import segreode.cli)."""
    interp = []
    for _ in range(PROBE_REPEATS):
        before = calibration()
        seconds = interp_start()
        interp.append(seconds * speed_factor([before, calibration()]))
    imp = [start_scaled(lambda: float(run_child(["-c", IMPORT_CODE]).stdout))
           for _ in range(PROBE_REPEATS)]
    return statistics.median(interp), statistics.median(imp)


def traced_pass(wl, jobs, workdir):
    """One pass with every layer wrapped, in-process or in each CLI child.

    Returns (tracer, busy_s, factor, results); factor scales the layer
    times of this pass to the reference speed.
    """
    tracer = Tracer()
    if wl.IN_PROCESS:
        tracer.install()
        try:
            busy, _, raw, results = run_pass(jobs, True, tracer)
        finally:
            tracer.uninstall()
        return tracer, busy, busy / raw, results
    trace_dir = workdir / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    busy, _, raw, results = run_pass(jobs, False)
    for path in sorted(trace_dir.iterdir()):
        child = json.loads(path.read_text())
        tracer.merge(child["summary"], child["spans"])
    return tracer, busy, busy / raw, results


def per_layer(traced, overhead, interp_s, import_s):
    """Per-layer metrics: counts from the first traced pass, times averaged."""
    (t1, _, f1, _), (t2, _, f2, _) = traced
    values = {"series.max_coeff_bits": t1.max_coeff_bits,
              "series.max_den_bits": t1.max_den_bits,
              "io.dumps_canonical.bytes": t1.io_bytes,
              "cli.interp_s": interp_s, "cli.import_s": import_s,
              "trace.overhead_ratio": overhead}
    for which, (calls, pairs, kept, bits) in t1.kernel.items():
        values.update({f"kernel.{which}.calls": calls, f"kernel.{which}.pairs": pairs,
                       f"kernel.{which}.kept_ratio": kept / pairs if pairs else 0.0,
                       f"kernel.{which}.operand_bits": bits})
    metrics = {}
    for name, unit in per_layer_spec():
        if name not in values:
            span, field = name.rsplit(".", 1)
            calls, _, pairs = t1.stats.get(span, (0, 0.0, 0))
            if field in ("busy_s", "self_s"):
                values[name] = sum(t.stats.get(span, (0, 0.0, 0))[1] * f
                                   for t, f in ((t1, f1), (t2, f2))) / 2
            else:
                values[name] = calls if field == "calls" else pairs
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


# -- run record ----------------------------------------------------------

def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_record(args, wl, backend, results, samples, setup_times, passes, failed):
    rungs = {}
    for job_id, size, _, _, sizes in results:
        if sizes is not None:
            rungs.setdefault(size or "other", {}).setdefault(job_id, sizes)
    return {
        "python": platform.python_version(), "backend": backend,
        "nproc": os.cpu_count(), "seed": args.seed, "commit": git_commit(),
        "workload": args.workload, "why": wl.WHY, "trace": args.trace,
        "seconds": args.seconds, "samples": samples, "setup_runs_s": setup_times,
        "passes": [{"jobs": len(p[3]), "busy_s": p[0], "raw_busy_s": p[2]}
                   for p in passes],
        "rungs": rungs, "layer_to_metric": LAYER_MAP,
        "fail_frac": len(failed) / len(results),
        "failures": [f"{r[0]}: {'; '.join(r[3])}" for r in failed[:10]],
    }


def smoke_subset(jobs):
    """The first job of each size class: the cheapest datum of each rung."""
    seen = set()
    return [j for j in jobs if j[1] not in seen and not seen.add(j[1])]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one job per size class (a quick check of the harness)")
    args = p.parse_args(argv)

    if not (SRC / "segreode" / "__init__.py").is_file():
        print(f"error: no segreode sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import segreode

    if segreode.BACKEND_NAME != "python":
        print(f"error: backend is {segreode.BACKEND_NAME!r}; this benchmark measures "
              "the pure-Python kernel", file=sys.stderr)
        return 2

    module = WORKLOADS[args.workload]
    wl = importlib.import_module(module)
    select = smoke_subset if args.smoke else list
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_times = measure_setup(module, args.seed)
    inputs = wl.inputs(args.seed)
    wl.prepare(inputs, workdir)
    passes = measured_phase(select(wl.jobs(inputs, workdir)), args.seconds, wl.IN_PROCESS)
    results = [r for p_ in passes for r in p_[3]]
    metrics, samples = end_to_end(passes, setup_times, wl.IN_PROCESS)
    counts_repeat = True
    if args.trace:
        traced_jobs = select(wl.jobs(inputs, workdir, traced=True))
        traced = [traced_pass(wl, traced_jobs, workdir) for _ in range(2)]
        for i, (tracer, _, _, traced_results) in enumerate(traced, start=1):
            results += traced_results
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}-pass{i}.jsonl")
        counts_repeat = traced[0][0].counts() == traced[1][0].counts()
        if not counts_repeat:
            print("error: two traced passes of one seed counted differently",
                  file=sys.stderr)
        overhead = (traced[0][1] + traced[1][1]) / 2 / statistics.median(
            p_[0] for p_ in passes)
        metrics = per_layer(traced, overhead, *probe_medians())
    else:
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in end_to_end_spec()}

    failed = [r for r in results if r[3]]
    record = run_record(args, wl, segreode.BACKEND_NAME, results, samples,
                        setup_times, passes, failed)
    print(json.dumps({"run_record": record}, indent=1, default=str))
    print(json.dumps({"correct": counts_repeat and not failed,
                      "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
