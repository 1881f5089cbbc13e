"""Seaside three-point demo: two global models plus local observations.

Builds the inputs in code, runs every pipeline stage, and prints the
intermediate artifacts alongside the final bulletin. Run with:

    python scripts/run_seaside_demo.py
"""

import sys

from fusecast import (
    Compass,
    Condition,
    build_theory,
    conclusions,
    extract_scenario,
    render_document,
    render_sharp,
    serialize_theory,
)
from fusecast.inputs import MILLION
from fusecast.kb import KnowledgeBase
from fusecast.model import AssertionalMap, Label, LabeledAssertionalMap, TimeRef, Value
from fusecast.reasoner import conclusions_to_json

NOW = TimeRef(horizon=0)
POINTS = ("North", "Center", "South")

# (cloud %, wind knots, wind direction) per point and day, plus sea wave cm.
GLOBAL_A = {  # higher-accuracy model
    0: {"North": (90, 15, "NE"), "Center": (90, 15, "NE"), "South": (90, 15, "NE"), "sea": 160},
    1: {"North": (75, 5, "NE"), "Center": (75, 5, "NE"), "South": (75, 5, "N"), "sea": 50},
    2: {"North": (30, 5, "N"), "Center": (30, 5, "N"), "South": (30, 5, "N"), "sea": 10},
}
GLOBAL_B = {  # coarser model
    0: {"North": (90, 18, "N"), "Center": (90, 18, "N"), "South": (90, 10, "N"), "sea": 190},
    1: {"North": (90, 8, "N"), "Center": (90, 8, "E"), "South": (90, 5, "E"), "sea": 100},
    2: {"North": (90, 8, "N"), "Center": (90, 8, "E"), "South": (90, 5, "E"), "sea": 100},
}
OBSERVED = {"North": (90, 15, "NE"), "Center": (90, 15, "NE"), "South": (90, 15, "NE"), "sea": 190}


def model_lams(method: str, table) -> list[LabeledAssertionalMap]:
    label = Label(method, NOW)
    out = []
    for day, row in table.items():
        for point in POINTS:
            cloud, speed, direction = row[point]
            out.append(LabeledAssertionalMap(label, AssertionalMap(
                Condition.CLOUDINESS, point, TimeRef(horizon=day), Value(cloud * MILLION))))
            out.append(LabeledAssertionalMap(label, AssertionalMap(
                Condition.WIND, point, TimeRef(horizon=day),
                Value(speed * MILLION, Compass(direction)))))
        out.append(LabeledAssertionalMap(label, AssertionalMap(
            Condition.SEA, "Sea", TimeRef(horizon=day), Value(row["sea"] * MILLION))))
    return out


def main() -> None:
    kb = KnowledgeBase({"IFS": {1: 850_000, 2: 800_000},  # accuracies in millionths
                        "GSM": {1: 450_000, 2: 400_000}})
    lams = model_lams("IFS", GLOBAL_A) + model_lams("GSM", GLOBAL_B)
    lams += model_lams("O", {0: OBSERVED})

    theory = build_theory(lams, kb, NOW)
    print("=== generated theory ===")
    print(serialize_theory(theory))

    tags = conclusions(theory)
    print("=== reasoner conclusions ===")
    conclusions_to_json(tags, sys.stdout)
    print()

    doc = render_sharp(extract_scenario(tags))
    print("=== bulletin ===")
    print(render_document(doc, "text"))


if __name__ == "__main__":
    main()
