"""`python -m fusecast` and the `fusecast` script (GC policy: README, Design notes)."""
import gc

from .cli import main


def run() -> int:
    gc.freeze()  # nothing the imports built is garbage
    gc.set_threshold(20_000)  # generation 0 every 20,000 allocations, not 700
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
