"""Record the pinned per-item output digests for every workload and master seed.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_refs.py [workload ...]

Every command runs with one worker, so ``sparse_er_pool``'s reference is the
single-worker output that the benchmark then checks at two workers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from workloads import HERE, POOL, REFS, WORK, WORKLOADS, read_output

ROOT = HERE.parent


def record(name: str) -> dict:
    from colorsim import __version__
    from colorsim.cli import main

    w = WORKLOADS[name]
    items = {}
    for seed in POOL:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out = Path(tmp)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(w.argv(seed, out, workers=1))
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {code}")
            items[str(seed)] = read_output(w, out).digests
        print(f"{name} seed {seed}: {len(items[str(seed)])} items", file=sys.stderr)
    return {"workload": name, "colorsim": __version__, "cell": w.cell,
            "items_per_command": w.items, "cap": w.cap, "items": items}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    REFS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        ref = record(name)
        items = ref.pop("items")
        head = json.dumps(ref)[:-1]
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in items.items())
        text = f'{head}, "items": {{\n{rows}\n}}}}\n'
        json.loads(text)
        (REFS / f"{name}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
