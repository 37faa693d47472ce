"""The CI workflow's own steps, run as tests: each step of
.github/workflows/tests.yml with a ``run:`` script and no ``if:``, except
Install, runs under ``bash -e -c`` from the repository root.  ``PATH``
starts with two shims, ``python`` and ``mirrorcalc`` (the console script
that pyproject.toml names), both running one interpreter, and
``PYTHONPATH`` is ``src``.  The steps behind an ``if:`` run pytest or the
benchmark harness, so they stay out.

Run as a script (on Python 3.11 or later, with PyYAML), the same steps
run on another interpreter:

    python tests/test_workflow.py --python ~/.pyenv/versions/3.10.13/bin/python
"""

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# "module:function", as pip writes the console script
ENTRY_POINT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
    "project"]["scripts"]["mirrorcalc"]


def workflow_steps():
    """[(name, script)] of the steps that run on every interpreter."""
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    return [(step["name"], step["run"]) for job in doc["jobs"].values()
            for step in job["steps"]
            if "run" in step and "if" not in step and step.get("name") != "Install"]


def run_step(script, python):
    """The finished bash -e -c script, with the shims on PATH running
    python; mktemp writes under a directory that is removed afterwards."""
    module, _, func = ENTRY_POINT.partition(":")
    python = shlex.quote(python)
    shims = {"python": f'exec {python} "$@"',
             "mirrorcalc": f'exec {python} -c "import sys; from {module} import {func}; '
                           f'sys.exit({func}())" "$@"'}
    with tempfile.TemporaryDirectory() as tmp:
        bin_dir = Path(tmp, "bin")
        bin_dir.mkdir()
        for name, body in shims.items():
            (bin_dir / name).write_text(f"#!/bin/sh\n{body}\n")
            (bin_dir / name).chmod(0o755)
        env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
                   PYTHONPATH=str(ROOT / "src"), TMPDIR=tmp)
        return subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)


STEPS = workflow_steps()


@pytest.mark.parametrize("script", [script for _, script in STEPS],
                         ids=[name for name, _ in STEPS])
def test_workflow_step(script):
    proc = run_step(script, sys.executable)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run the CI workflow's steps that have "
                                                 "no if: on one interpreter.")
    parser.add_argument("--python", default=sys.executable,
                        help="the interpreter behind the python and mirrorcalc shims")
    args = parser.parse_args(argv)
    version = subprocess.run([args.python, "-VV"], capture_output=True, text=True)
    print(f"{args.python}: {version.stdout.strip()}")
    failed = 0
    for name, script in STEPS:
        start = time.perf_counter()
        proc = run_step(script, args.python)
        print(f"{'pass' if proc.returncode == 0 else 'FAIL'}  "
              f"{time.perf_counter() - start:5.2f} s  {name}")
        if proc.returncode:
            failed += 1
            print(proc.stdout + proc.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
