"""Write references.json: the exact output of every benchmark item, from
the program in ``src``.

    python3 perfbench/make_references.py

Run it only when an output is meant to change; the benchmark fails
every item that differs from this file.  A CLI reference is the stdout
of the request run without a cache.
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads
from run import BENCH_DIR, ROOT, SRC


def main():
    sys.path.insert(0, str(SRC))
    refs = {}
    for name in ("pipeline", "verify"):
        refs[name] = {item.ref: item.render(item.call(None))
                      for item in workloads.build(name).items}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=str(BENCH_DIR)) as workdir:
        ctx = workloads.Context(ROOT, workdir)
        ctx.use_cache = False
        refs["cli"] = {}
        for item in workloads.build("cli").items:
            code, stdout = item.call(ctx)
            if code != 0:
                raise SystemExit(f"{item.id}: exit code {code}")
            refs["cli"][item.ref] = stdout
    path = BENCH_DIR / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
