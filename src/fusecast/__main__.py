"""`python -m fusecast` and the `fusecast` script (GC policy: README, Design notes)."""
import gc

from .cli import main


def run() -> int:
    # Nothing the start-up imports (cli, errors, inputs, model) built is
    # garbage; the stage modules a command imports later are not frozen.
    gc.freeze()
    gc.set_threshold(20_000)  # generation 0 every 20,000 allocations, not 700
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
