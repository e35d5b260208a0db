"""Record the sha256 of every artifact of the reference pipelines.

The ``cli`` workload checks the reference pipelines (the inputs of the
default seed) against these hashes in every pass.  Run this only on the
code whose artifacts the hashes should pin, from the root of a checkout:

    python3 perfbench/record_golden.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import common

sys.path.insert(0, str(common.SRC))

import work_cli  # noqa: E402  (needs the sources on the path)


def main():
    workdir = Path(__file__).resolve().parent.parent / ".perfbench" / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = work_cli.inputs(common.DEFAULT_SEED)
    golden = {}
    for label, (literals, m) in inputs["reference"].items():
        outdir = work_cli.pipeline_outdir("reference", label)
        subprocess.run([sys.executable, "-m", "segreode.cli",
                        *work_cli.pipeline_argv(literals, m, outdir)],
                       cwd=workdir, env=common.child_env(), check=True,
                       capture_output=True, timeout=work_cli.TIMEOUT_S)
        golden[label] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted((workdir / outdir).iterdir())}
    work_cli.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
