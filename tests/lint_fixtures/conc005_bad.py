"""CONC005 known-bad (linted as a ``repro.serve`` module in tests):
serve-layer code reaching around the api facade."""
from repro.sim.core import System          # BAD: sim-core import
from repro.gpu.sm import SMState           # BAD: gpu-internals import


def handle(pool, payload):
    system = System()
    # BAD: lambda worker captures live state across the pool boundary.
    pool.submit(lambda: system.run(payload))
    return SMState


def fan_out(cells, jobs):
    # BAD: lambda handed to the CellExecutor entry point (starmap).
    return cells.starmap(lambda job: job.run(), jobs)
