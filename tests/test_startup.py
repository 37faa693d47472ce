"""What a mirrorcalc process imports: the package and the CLI load no
module they do not use (no dataclasses, no inspect, the verifier and its
algebra only for verify, json only for a JSON writer), and the package's
lazy exports and submodules behave as eager ones."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorcalc

SRC = Path(mirrorcalc.__file__).resolve().parents[1]
HEAVY = ("dataclasses", "inspect", "json", "mirrorcalc.algebra", "mirrorcalc.eulerdata")


def modules_after(code):
    """The names in sys.modules of a fresh interpreter after code runs,
    taken before json is imported to print them."""
    code += ("\nimport sys\nloaded = sorted(sys.modules)"
             "\nimport json\nprint(json.dumps(loaded))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def command(*argv):
    return f"from mirrorcalc.cli import run_command\nassert run_command({list(argv)!r}) == 0"


def test_package_import_loads_no_submodule():
    loaded = modules_after("import mirrorcalc")
    assert "mirrorcalc" in loaded
    assert not [name for name in loaded if name.startswith("mirrorcalc.")]


@pytest.mark.parametrize("code", [
    "import mirrorcalc.cli",
    command("list-critical"),
    command("compute", "--preset", "quintic"),
], ids=["import", "list-critical", "compute"])
def test_cli_paths_load_neither_dataclasses_nor_the_verifier(code):
    loaded = modules_after(code)
    assert "mirrorcalc.pipeline" in loaded
    assert [name for name in HEAVY if name in loaded] == []


@pytest.mark.parametrize("argv", [
    ("list-critical", "--format", "json"),
    ("compute", "--preset", "quintic", "--format", "json"),
], ids=["list-critical", "compute"])
def test_json_format_loads_json(argv):
    loaded = modules_after(command(*argv))
    assert "json" in loaded and "mirrorcalc.algebra" not in loaded


def test_verify_loads_the_verifier_without_dataclasses():
    loaded = modules_after(command("verify", "gluing", "--n", "2", "--bundle", "O(-3)",
                                   "--dmax", "2"))
    assert "mirrorcalc.eulerdata" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_lazy_exports():
    assert set(mirrorcalc.__all__) <= set(dir(mirrorcalc))
    namespace = {}
    exec("from mirrorcalc import *", namespace)
    assert set(mirrorcalc.__all__) <= set(namespace)
    from mirrorcalc import eulerdata, pipeline
    assert namespace["run_pipeline"] is pipeline.run_pipeline
    assert namespace["check_gluing"] is eulerdata.check_gluing
    assert namespace["__version__"] == mirrorcalc.__version__
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mirrorcalc.no_such_name
    with pytest.raises(ImportError):
        exec("from mirrorcalc import no_such_name", {})


def test_submodules_resolve_as_attributes():
    # in a fresh interpreter, where no submodule is bound to the package yet
    loaded = modules_after("import sys, mirrorcalc\n"
                           "assert set(mirrorcalc._EXPORTS) <= set(dir(mirrorcalc))\n"
                           "for name in mirrorcalc._EXPORTS:\n"
                           "    module = getattr(mirrorcalc, name)\n"
                           "    assert module is sys.modules[f'mirrorcalc.{name}'], name")
    assert {f"mirrorcalc.{name}" for name in mirrorcalc._EXPORTS} <= loaded


def test_exports_are_read_from_the_defining_module(monkeypatch):
    # nothing is cached in the package: a patched function is what the
    # package hands out, and the original again once the patch is undone
    from mirrorcalc import pipeline
    original = pipeline.run_pipeline
    monkeypatch.setattr(pipeline, "run_pipeline", len)
    assert mirrorcalc.run_pipeline is len
    monkeypatch.undo()
    assert mirrorcalc.run_pipeline is original
    assert "run_pipeline" not in vars(mirrorcalc)
