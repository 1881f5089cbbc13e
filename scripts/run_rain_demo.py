"""Four-point rain demo: daily precipitation from two models, fused and worded.

    python scripts/run_rain_demo.py
"""

from fusecast import (
    Condition,
    build_theory,
    classify,
    conclusions,
    extract_scenario,
    render_document,
    render_sharp,
    serialize_theory,
)
from fusecast.inputs import MILLION
from fusecast.kb import KnowledgeBase
from fusecast.model import AssertionalMap, Label, LabeledAssertionalMap, TimeRef, Value

NOW = TimeRef(horizon=0)
POINTS = ("North", "East", "South", "West")

RAIN_MM = {
    "IFS": {0: (5, 5, 5, 5), 1: (24, 14, 24, 24), 2: (16, 16, 16, 16)},
    "GSM": {0: (4, 4, 4, 4), 1: (4, 4, 4, 4), 2: (6, 6, 6, 6)},
    "O": {0: (5, 5, 5, 5)},
}


def lams_for(method: str) -> list[LabeledAssertionalMap]:
    label = Label(method, NOW)
    out = []
    for day, row in RAIN_MM[method].items():
        for point, mm in zip(POINTS, row):
            out.append(LabeledAssertionalMap(label, AssertionalMap(
                Condition.RAIN, point, TimeRef(horizon=day), Value(mm * MILLION))))
    return out


def main() -> None:
    kb = KnowledgeBase({"IFS": {1: 850_000, 2: 800_000},  # accuracies in millionths
                        "GSM": {1: 450_000, 2: 400_000}})
    lams = lams_for("IFS") + lams_for("GSM") + lams_for("O")

    theory = build_theory(lams, kb, NOW)
    print("=== generated theory ===")
    print(serialize_theory(theory))

    tags = conclusions(theory)
    scenario = extract_scenario(tags)
    print("=== fused rain amounts ===")
    for entry in scenario.entries:
        term = classify(entry.condition, entry.value)
        print(f"  day {entry.horizon}  {entry.location:<6} "
              f"{str(entry.value.magnitude):>4} mm  -> {term}")
    print()
    print("=== bulletin ===")
    print(render_document(render_sharp(scenario), "text"))


if __name__ == "__main__":
    main()
