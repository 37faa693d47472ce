"""The benchmark's workloads, the exact output each item must reproduce,
and the context items run in.

pipeline  ``run_pipeline`` on every critical bundle at PIPELINE_ORDER.
verify    one verifier check per item, as ``mirrorcalc verify`` runs it:
          a table build, then gluing, reciprocity, degree-bound or
          linking (mirror transform, Lagrange map, check_linked).
cli       one console-entry process per item: list-critical, every
          preset and format against an empty cache (a miss that stores)
          and again (a hit that reads), a pair of spellings of one
          bundle sharing a cache, and one verify.

A unit is a list of items that share one fresh cache directory and run
in order; the seed permutes units, never the items inside one.
Building a workload imports mirrorcalc, which is the set-up the
benchmark times, so nothing here imports it at module level.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

PIPELINE_ORDER = 30

# The CLI presets, as splitting types: name -> (n, convex, concave).
PRESETS = {
    "multicover": (1, (), (1, 1)),
    "local-p2": (2, (), (3,)),
    "p3-concavex": (3, (2,), (2,)),
    "p4-concavex": (4, (2, 2), (1,)),
    "quintic": (4, (5,), ()),
}

# preset -> (d_max for gluing, reciprocity and degree-bound, d_max for
# linking or None).  Sized so reciprocity and linking each carry a large
# share of the verify pass.
VERIFY_DMAX = {
    "multicover": (8, None),
    "local-p2": (4, 3),
    "p3-concavex": (4, 3),
    "p4-concavex": (3, 2),
    "quintic": (4, 2),
}

# Quintic instanton numbers n_1..n_4 as published by Candelas, de la
# Ossa, Green and Parkes (1991); an anchor that does not come from this
# code or its references.
QUINTIC_ID = "P^4 O(5)"
QUINTIC_N = ("2875", "609250", "317206375", "242467530000")

# Items that fail because of a known program defect, with the problem
# they fail with.  They run and count as failed ops; a run stays correct
# only while each fails with exactly this problem.
# The spelling-pair hit: a cache hit prints the bundle spelling of the
# request that stored the entry ('O(-2)+O(2)'), not the requested one
# ('O(2)+O(-2)').
KNOWN_DEFECTS = {
    "spelling-pair hit: compute --preset p3-concavex --format json":
        "stdout differs from the uncached reference",
}

CONSOLE_ENTRY = ("import sys\n"
                 "from mirrorcalc.cli import main\n"
                 "sys.argv[0] = 'mirrorcalc'\n"
                 "sys.exit(main())\n")
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Item:
    id: str       # unique within its workload
    kind: str     # request kind, for per-kind latency
    call: object  # Context -> raw result; the timed part
    render: object  # raw result -> output compared with the reference
    ref: str      # key of the reference output


@dataclass
class Workload:
    name: str
    units: list   # lists of Items that share a cache directory
    check: object  # (item, output, reference) -> problem text or None

    @property
    def items(self):
        return [item for unit in self.units for item in unit]


class Context:
    """Where items run: the repository root, a private cache directory
    per unit, and whether CLI items run in child processes or through
    ``run_command`` in this process.  ``quiet`` is entered around each
    child process."""

    def __init__(self, root, workdir, in_process=False, quiet=contextlib.nullcontext):
        self.root = str(root)
        self.quiet = quiet
        self.workdir = str(workdir)
        self.in_process = in_process
        self.use_cache = True
        self.cache_dirs = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.env.pop("MIRRORCALC_CACHE", None)

    def new_unit(self):
        self.cache_dirs.append(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))

    def cache_bytes(self):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d in self.cache_dirs for f in os.listdir(d))

    def run_cli(self, argv, cache):
        if cache and self.use_cache:
            argv = argv + ["--cache", self.cache_dirs[-1]]
        if self.in_process:
            from mirrorcalc import cli
            out, err = io.StringIO(), io.StringIO()
            return cli.run_command(argv, out, err), out.getvalue()
        with self.quiet():
            proc = subprocess.run([sys.executable, "-c", CONSOLE_ENTRY, *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout


def _frac(value):
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------
# pipeline


def _run_pipeline(st, ctx):
    from mirrorcalc import pipeline
    return pipeline.run_pipeline(st, PIPELINE_ORDER)


def _pipeline_output(result):
    return {"K": [_frac(k) for k in result.K],
            "n_d": [_frac(v) for _, v, _ in result.instanton],
            "g": [_frac(c) for c in result.mirror_shift.coeffs[1:]]}


def _check_pipeline(item, out, ref):
    if out != ref:
        field = next(k for k in ("K", "n_d", "g") if out.get(k) != ref.get(k))
        return f"{field} differs from the reference"
    if any(not v.endswith("/1") for v in out["n_d"]):
        return "an n_d is not integral"
    if item.id == QUINTIC_ID and out["n_d"][:4] != [f"{v}/1" for v in QUINTIC_N]:
        return "quintic n_1..n_4 differ from the published values"
    return None


def _pipeline():
    from mirrorcalc import bundles
    units = []
    for st in bundles.CRITICAL_BUNDLES:
        key = f"P^{st.n} {st}"
        units.append([Item(key, "run_pipeline", functools.partial(_run_pipeline, st),
                           _pipeline_output, key)])
    return Workload("pipeline", units, _check_pipeline)


# ---------------------------------------------------------------------
# verify


def _run_check(st, check, d_max, ctx):
    from mirrorcalc import eulerdata
    table = eulerdata.to_table(eulerdata.build_hypergeom_data(st), d_max)
    return getattr(eulerdata, "check_" + check.replace("-", "_"))(table)


def _run_linking(st, d_max, ctx):
    """Linking with the shift ``mirrorcalc verify linking`` uses for a
    critical type: the mirror-map shift g of the normalization."""
    from mirrorcalc import eulerdata, pipeline
    table = eulerdata.to_table(eulerdata.build_hypergeom_data(st), d_max)
    series = pipeline.build_hypergeom_series(st, d_max)
    _, shift = pipeline.compute_normalization(series, st)
    transformed = eulerdata.mirror_transform(table.restriction_sequence(), None, shift)
    return eulerdata.check_linked(table, eulerdata.lagrange_map(transformed))


def _report_json(report):
    return report.to_json()


def _check_equal(item, out, ref):
    return None if out == ref else "output differs from the reference"


def _verify():
    from mirrorcalc import bundles
    units = []
    for preset, (n, convex, concave) in PRESETS.items():
        # Each item builds its own data, as one ``verify`` command does:
        # the data memoizes P_d, which would make later items cheaper.
        st = bundles.SplittingType(n, convex, concave)
        d_checks, d_link = VERIFY_DMAX[preset]
        for check in ("gluing", "reciprocity", "degree-bound"):
            key = f"{preset} {check} dmax={d_checks}"
            units.append([Item(key, "verify", functools.partial(_run_check, st, check, d_checks),
                               _report_json, key)])
        if d_link is not None:
            key = f"{preset} linking dmax={d_link}"
            units.append([Item(key, "verify", functools.partial(_run_linking, st, d_link),
                               _report_json, key)])
    return Workload("verify", units, _check_equal)


# ---------------------------------------------------------------------
# cli


def _cli_item(label, kind, argv, cache=False):
    ref = " ".join(argv)
    call = lambda ctx: ctx.run_cli(argv, cache)  # noqa: E731
    return Item(f"{label}: {ref}", kind, call, lambda result: result, ref)


def _check_cli(item, out, ref):
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    return None if stdout == ref else "stdout differs from the uncached reference"


def _cli():
    units = [[_cli_item("list", "list_critical", ["list-critical"])]]
    for preset in PRESETS:
        for fmt in ("text", "json", "csv"):
            argv = ["compute", "--preset", preset, "--format", fmt]
            units.append([_cli_item("miss", "compute_miss", argv, cache=True),
                          _cli_item("hit", "compute_hit", argv, cache=True)])
    # Two spellings of one bundle: the second request hits the entry the
    # first stored, and must still print its own spelling.
    units.append([
        _cli_item("spelling-pair miss", "compute_miss",
                  ["compute", "--n", "3", "--bundle", "O(-2)+O(2)", "--format", "json"],
                  cache=True),
        _cli_item("spelling-pair hit", "compute_hit",
                  ["compute", "--preset", "p3-concavex", "--format", "json"], cache=True),
    ])
    units.append([_cli_item("verify", "verify",
                            ["verify", "gluing", "--n", "2", "--bundle", "O(-3)", "--dmax", "3"])])
    return Workload("cli", units, _check_cli)


BUILDERS = {"pipeline": _pipeline, "verify": _verify, "cli": _cli}


def build(name):
    return BUILDERS[name]()
