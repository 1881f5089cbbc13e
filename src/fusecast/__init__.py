"""fusecast: multi-model weather forecast fusion through defeasible reasoning.

Pipeline: labeled forecast assertions from several numerical models are
translated into a defeasible theory (conflicting values become competing
blended rules with priorities), a defeasible-logic engine computes the
winning weather scenario, and a lexicon/bulletin layer renders it as a
human-readable forecast.
"""

from .bulletin import extract_scenario, render_document, render_sharp, render_smooth
from .errors import ForecastError
from .lexicon import classify
from .model import Compass, Condition
from .reasoner import conclusions
from .theory import serialize_theory
from .tournament import build_theory

__version__ = "0.1.0"

__all__ = [
    "Compass",
    "Condition",
    "ForecastError",
    "build_theory",
    "classify",
    "conclusions",
    "extract_scenario",
    "render_document",
    "render_sharp",
    "render_smooth",
    "serialize_theory",
]
