"""Each command loads only what it needs.

``import quantumdesks`` loads no submodule; each public name is imported
on first access.  ``curve`` and ``classical`` do no array maths and run
without numpy.  Every check runs in a fresh interpreter, because this
test process has numpy and every submodule loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: the package's public names, frozen
PUBLIC_NAMES = [
    "COMPOUND_STRATEGIES", "ClassicalMatrix", "ClassicalSolution", "ConicCoefficients",
    "EquilibriumResult", "GameSpec", "JointDistribution", "NotOnCurve", "ObservableFrame",
    "PayoffBreakdown", "PayoffCoefficients", "PayoffOperator", "ProbabilityQuadruple",
    "Projector", "SimReport", "StateVector", "angles_for_point", "bilinear_payoff",
    "build_payoff_operator", "classical_matrix", "complement", "conic_coefficients",
    "conic_residual", "curve_points", "desk_payoff", "expectation", "frame_projectors",
    "grid_saddle_oracle", "independent_joint", "is_product_form", "make_projector",
    "marginals", "payoff_gradient", "payoff_kernel", "payoff_surface", "play_round",
    "probabilities_from_angle", "refine_saddle", "rng_advance", "rng_output", "rng_uniform",
    "scalar_payoff", "simulate", "simulate_joint", "solve_classical", "swapped_labels",
    "verify_saddle", "weight",
]

#: replays the golden curve and classical runs with numpy made unimportable;
#: prints how many it replayed
WITHOUT_NUMPY = """
import importlib.util, json, sys
from pathlib import Path

sys.modules["numpy"] = None  # every import of numpy now raises ImportError
import quantumdesks
assert sorted(m for m in sys.modules if m.startswith("quantumdesks")) == ["quantumdesks"]

loader = importlib.util.spec_from_file_location("regenerate", "tests/golden/regenerate.py")
regenerate = importlib.util.module_from_spec(loader)
loader.loader.exec_module(regenerate)
replayed = 0
for path in sorted(Path("tests/golden").glob("*.json")):
    doc = json.loads(path.read_text(encoding="utf-8"))
    for run in doc["runs"]:
        argv = tuple(run["argv"].split(" "))
        if argv[0] in ("curve", "classical"):
            got = regenerate.run_command(argv, doc["spec"])
            assert got == run, (path.name, run["argv"], got)
            replayed += 1
print(replayed)
"""

#: resolves every public name in a fresh interpreter
EXPORTS = """
import importlib, sys
import quantumdesks as qd

assert "numpy" not in sys.modules
for name in qd.__all__:
    assert name not in vars(qd), name
    value = getattr(qd, name)
    home = importlib.import_module("quantumdesks." + qd._EXPORTS[name])
    assert value is getattr(home, name), name
    assert vars(qd)[name] is value, name  # cached: the next lookup is a plain read
assert qd.quantum is importlib.import_module("quantumdesks.quantum")
"""


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_curve_and_classical_replay_their_goldens_without_numpy():
    runs = [run for path in GOLDEN.glob("*.json")
            for run in json.loads(path.read_text(encoding="utf-8"))["runs"]
            if run["argv"].split(" ")[0] in ("curve", "classical")]
    assert len(runs) == 100  # 25 specs, each with 2 curve and 2 classical runs
    assert int(run_python(WITHOUT_NUMPY)) == len(runs)


def test_every_public_name_resolves_to_its_submodule_attribute():
    import quantumdesks

    assert quantumdesks.__all__ == PUBLIC_NAMES
    run_python(EXPORTS)
