"""Set-up: from a fresh interpreter to a library ready to answer.

Set-up imports weylcalc from the checkout's ``src``, builds every root
system the benchmark uses and builds the diagram catalog.  That is the
cold cost a user pays on every ``weylcalc`` command.  Run as a script,
it does the same in a fresh interpreter and prints its timings as JSON,
which is how the benchmark samples set-up more than once per run.

    python3 bench/ready.py SRC_DIR
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

from pace import PacedClock

#: Every root system the workloads touch.
SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

MODULES = ("cli", "rootsys", "diagram", "weyl", "exactla", "rewrite", "oracle")


class MissingLibrary(RuntimeError):
    """The checkout has no weylcalc sources to benchmark."""


def import_library(src: Path) -> dict:
    """Import weylcalc from ``src`` and nowhere else."""
    package = src / "weylcalc"
    if not (package / "__init__.py").is_file():
        raise MissingLibrary(f"no weylcalc package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"weylcalc.{name}") for name in MODULES}
    loaded = Path(mods["cli"].__file__).resolve()
    if package.resolve() not in loaded.parents:
        raise MissingLibrary(f"weylcalc was imported from {loaded}, not {package}")
    return mods


def get_ready(src: Path, before_build=None) -> tuple[dict, dict]:
    """Import, build every system, build the catalog; return (modules, timings).

    ``before_build`` runs between import and the builds (the traced run
    installs its wrappers there) and is not timed.  ``setup_s`` is paced
    (see pace.py); ``setup_wall_s`` is the same set-up in wall seconds.
    """
    clock = PacedClock()
    t0 = perf_counter()
    mods = import_library(src)
    import_s = perf_counter() - t0
    clock.add(import_s)
    if before_build is not None:
        before_build()
    systems_s = 0.0
    for family, rank in SYSTEMS:
        t0 = perf_counter()
        mods["rootsys"].build(family, rank)
        dt = perf_counter() - t0
        systems_s += dt
        clock.add(dt)
    t0 = perf_counter()
    entries = len(mods["diagram"].catalog_names())
    catalog_s = perf_counter() - t0
    clock.add(catalog_s)
    clock.close()
    timings = {
        "setup_s": clock.paced_s,
        "setup_wall_s": clock.wall_s,
        "import_s": import_s,
        "systems_s": systems_s,
        "catalog_s": catalog_s,
        "catalog_entries": entries,
        "kernel_samples_s": clock.kernels,
    }
    return mods, timings


if __name__ == "__main__":
    _, timings = get_ready(Path(sys.argv[1]))
    print(json.dumps(timings))
