"""Workload ``cli``: sequential subprocesses of ``python -m segreode.cli``.

Each job is one command a CLI user runs, in a fresh interpreter with
``PYTHONPATH=src``: ``build`` jobs, every ``verify`` subcommand at its
default sizes reading the input files, and ``pipeline --dz 5``.  Each
pass runs the seeded data and the reference data of the default seed;
the reference pipelines' artifacts must match the sha256 hashes in
``golden_pipeline.json``, recorded from the seed code.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from segreode import io as segreode_io
from segreode import segre

import common
from tracer import sizes

NAME = "cli"
WHY = ("what a CLI user pays: interpreter start, import, io and small-series "
       "overhead; lazy-import or I/O changes show only here, and it checks "
       "artifact bytes")
IN_PROCESS = False
HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"
GOLDEN = HERE / "golden_pipeline.json"
TRUNC = 16            # the CLI default truncation (SEGREODE_TRUNC unset)
DZ = 5
TIMEOUT_S = 120
PIPELINE_PASSES = 6   # the six verification reports a valid datum passes


def _data(seed):
    rng = common.rng_for(seed, NAME)
    g = common.gamma(rng)
    m = rng.choice((1, 2, 3))
    return g, {"model": (common.model_literals(g), 4),
               "dense": (common.dense_literals(rng), m)}


def inputs(seed):
    gamma, seeded = _data(seed)
    _, reference = _data(common.DEFAULT_SEED)
    return {"gamma": gamma, "seeded": seeded, "reference": reference}


def prepare(inputs, workdir):
    """Write the seeded ODE files the verify jobs read."""
    for sub in ("inputs", "out", "trace"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    for label, ((a, b, c), m) in inputs["seeded"].items():
        datum = segre.RealStructureData(
            *(segreode_io.parse_coeff_list(x, trunc=TRUNC) for x in (a, b, c)), m=m)
        ode = segre.build_real(datum)
        text = segreode_io.dumps_canonical(segreode_io.ode_to_json(ode))
        (workdir / "inputs" / f"{label}.json").write_text(text)


def _statuses(stdout):
    return [line[1:5] for line in stdout.splitlines() if line.startswith("[")]


def _expect_all_pass(count):
    def check(proc, workdir):
        st = _statuses(proc.stdout)
        ok = proc.returncode == 0 and st == ["PASS"] * count
        return ([] if ok else [f"exit {proc.returncode}, verdicts {st}"]), None
    return check


def _expect_riccati_fails(proc, workdir):
    st = _statuses(proc.stdout)
    ok = proc.returncode == 1 and st == ["FAIL"]
    return ([] if ok else [f"exit {proc.returncode}, verdicts {st}"]), None


def _expect_build(label):
    def check(proc, workdir):
        want = (workdir / "inputs" / f"{label}.json").read_bytes()
        got = workdir / "out" / f"build-{label}.json"
        ok = proc.returncode == 0 and got.read_bytes() == want
        ode = segreode_io.ode_from_json(json.loads(want))
        return ([] if ok else [f"build output differs (exit {proc.returncode})"],
                sizes(ode, trunc=TRUNC))
    return check


def _expect_pipeline(outdir, golden):
    def check(proc, workdir):
        problems = []
        st = _statuses(proc.stdout)
        if proc.returncode != 0 or st.count("PASS") != PIPELINE_PASSES or "FAIL" in st:
            problems.append(f"exit {proc.returncode}, verdicts {st}")
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (workdir / outdir).iterdir()}
        manifest = json.loads((workdir / outdir / "manifest.json").read_text())
        problems += [f"{name}: manifest hash differs from the file"
                     for name, art in manifest["artifacts"].items()
                     if files.get(name) != art["sha256"]]
        if golden is not None:
            problems += [f"{name}: sha256 differs from the recorded artifact"
                         for name in sorted(set(files) | set(golden))
                         if files.get(name) != golden.get(name)]
        phi = segreode_io.phi_from_json(
            json.loads((workdir / outdir / "family.json").read_text()))
        return problems, sizes(phi.phi, truncs=list(phi.truncs))
    return check


def pipeline_outdir(kind, label):
    return f"pl-{kind}-{label}"


def pipeline_argv(literals, m, outdir):
    a, b, c = literals
    return ["pipeline", f"--a={a}", f"--b={b}", f"--c={c}", f"--m={m}",
            f"--dz={DZ}", f"--out-dir={outdir}"]


def specs(inputs):
    """[(job id, size class, argv, check)] for one pass."""
    g, seeded = inputs["gamma"], inputs["seeded"]
    out = []
    for label, ((a, b, c), m) in seeded.items():
        out.append((f"build/{label}", "small",
                    ["build", f"--a={a}", f"--b={b}", f"--c={c}", f"--m={m}",
                     "-o", f"out/build-{label}.json"], _expect_build(label)))
    for label in seeded:
        for check, reports in (("p0", 1), ("tresse", 2), ("reality", 1),
                               ("segre-residual", 1)):
            out.append((f"verify-{check}/{label}", "mid",
                        ["verify", check, "--ode", f"inputs/{label}.json"],
                        _expect_all_pass(reports)))
    out += [
        ("verify-riccati/model", "mid",
         ["verify", "riccati", "--ode", "inputs/model.json", "--p", common.RICCATI_WITNESS],
         _expect_riccati_fails),
        ("verify-monodromy/model", "mid",
         ["verify", "monodromy", "--ode", "inputs/model.json"], _expect_all_pass(1)),
        ("verify-divergence", "mid", ["verify", "divergence", f"--gamma={g}"],
         _expect_all_pass(1)),
        ("verify-gauge", "mid", ["verify", "gauge", f"--gamma={g}"], _expect_all_pass(4)),
        ("verify-tangency", "mid", ["verify", "tangency"], _expect_all_pass(5)),
    ]
    golden = json.loads(GOLDEN.read_text())
    for kind, datasets in (("seeded", seeded), ("reference", inputs["reference"])):
        for label, (literals, m) in datasets.items():
            outdir = pipeline_outdir(kind, label)
            ref = golden.get(label, {}) if kind == "reference" else None
            out.append((f"pipeline/{kind}-{label}", "large",
                        pipeline_argv(literals, m, outdir),
                        _expect_pipeline(outdir, ref)))
    return out


def _job(job_id, argv, check, workdir, trace_file):
    def run():
        env = common.child_env()
        if trace_file is None:
            cmd = [sys.executable, "-m", "segreode.cli", *argv]
        else:
            cmd = [sys.executable, str(CHILD), *argv]
            env["PERFBENCH_TRACE"] = str(trace_file)
            env["PERFBENCH_JOB"] = job_id
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        return lambda: check(proc, workdir)
    return run


def jobs(inputs, workdir, traced=False):
    """One pass; traced jobs run under cli_child.py and leave a trace file each."""
    return [(job_id, size,
             _job(job_id, argv, check, workdir,
                  workdir / "trace" / f"{i:03d}.json" if traced else None))
            for i, (job_id, size, argv, check) in enumerate(specs(inputs))]
