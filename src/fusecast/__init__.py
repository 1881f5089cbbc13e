"""fusecast: multi-model weather forecast fusion through defeasible reasoning.

Pipeline: labeled forecast assertions from several numerical models are
translated into a defeasible theory (conflicting values become competing
blended rules with priorities), a defeasible-logic engine computes the
winning weather scenario, and a lexicon/bulletin layer renders it as a
human-readable forecast.

Each name below is imported from its home module on first access (PEP 562),
so `import fusecast`, and every command, loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each re-exported name -> the module that defines it.
_HOMES = {
    "Compass": "model",
    "Condition": "model",
    "ForecastError": "errors",
    "build_theory": "tournament",
    "classify": "lexicon",
    "conclusions": "reasoner",
    "extract_scenario": "bulletin",
    "render_document": "bulletin",
    "render_sharp": "bulletin",
    "render_smooth": "bulletin",
    "serialize_theory": "theory",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value
