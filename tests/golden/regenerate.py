"""Regenerate the golden CLI corpus in this directory.

    python3 tests/golden/regenerate.py [--check]

Each ``<name>.json`` holds one game spec and, for every command in
``COMMANDS``, the exit code and stdout of ``quantumdesks.cli.main`` run in
process, plus the bytes of every file the command wrote.
``tests/test_golden.py`` replays the same commands and compares.  Rerun
this script only for a deliberate change of output, and list what moved.
With ``--check`` it rewrites nothing: it prints each spec and command
whose exit code, stdout or written files would change, and exits 1 if
any would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from quantumdesks import cli  # noqa: E402

QUARTER = 0.5 * math.pi

#: name -> (c1, c2, c3, c4, theta, lambda, tau, mu)
SPECS = {
    "readme": (1.0, 2.0, 3.0, 4.0, 0.7853981633974483, 0.5, 0.5235987755982988, 1.2),
    # the fixtures of tests/test_equilibrium.py
    "decoupled": (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    "cycling": (-1.0981505377400527, -1.961827278594611, -0.40901892266008977,
                1.1074607257304556, 1.519351794949105, 2.2196913787118056,
                1.8585514607845357, 1.4784412415750021),
    "twin_peaks": (1.7896301165694202, 0.16551831410018747, 0.23798611027010508,
                   1.500024361702751, 1.4111352554881489, 0.9265394891125263,
                   1.6130006259466931, 1.8659120344359612),
    "no_saddle": (1.0, -1.0, 1.0, -1.0, math.pi / 4, 0.0, math.pi / 4, 0.0),
    # Drawn once from np.random.default_rng(20261018): stakes U(-2, 2), tilts
    # U(0, pi), phases U(0, 2 pi).  Six have one degenerate frame: random_03
    # and random_18 tilt 0, random_07 and random_19 tilt pi/2, random_11 and
    # random_15 phase pi/2.
    "random_00": (1.4985100307448804, -0.4555857313428726, -1.8637786204150837,
                  0.9363511648986176, 2.6987082469331063, 4.83776270037189,
                  2.0932892519147255, 0.11659350425413836),
    "random_01": (-1.9906978556302586, 1.8768765683522375, 1.4739756934572057,
                  0.9035992204709777, 0.4892324203373326, 1.5460615815676413,
                  0.3701648492280833, 4.902910158182892),
    "random_02": (1.0525321808605717, -1.3036053658523175, -1.8915661115356932,
                  1.2728713461182721, 0.42621762348346676, 0.43367705261064343,
                  0.3740599879622724, 0.8978214846510758),
    "random_03": (-0.36002977139668335, 1.3979247828763568, -0.05230845694650732,
                  1.3631686158837901, 0.0, 0.1393349267723109,
                  2.2197288613140076, 0.3334388087684525),
    "random_04": (-0.04125534305970424, 0.20301302412405686, 0.45632766652526247,
                  0.6290036437824598, 1.8990304475486544, 5.428439542321226,
                  1.6035574132591455, 4.787758500860363),
    "random_05": (-1.5638965801318419, -1.760267838772915, 1.6835770070681444,
                  -0.5857784002521869, 2.004246276059085, 0.2784393735183714,
                  1.0499587129932801, 4.423922943293935),
    "random_06": (0.9661955651249299, 1.3569316795318067, 0.030307352250113606,
                  1.1639582716352002, 1.4742927287674943, 6.231667162969781,
                  1.7637314481847157, 5.3415277346793975),
    "random_07": (0.16515197651705238, 1.2011782178464627, -1.7605186206757217,
                  0.23255199249655156, 0.777428497803553, 5.521427473837157,
                  QUARTER, 4.624752206202051),
    "random_08": (-1.9648531146840735, 1.8499522915072966, 1.149309245553011,
                  0.2740446202609794, 2.2440385214266816, 0.8377531516615552,
                  0.6803953348336234, 3.9590926773762702),
    "random_09": (-0.5158394224517147, -1.6248080134902416, -1.5748852924094647,
                  1.3619597670222165, 1.5168327469562062, 4.634950983557647,
                  2.8722587458838342, 1.6475343421899273),
    "random_10": (1.899490350802525, 0.1847361077217906, 1.1661305928691967,
                  -1.477204244896341, 1.405718808402371, 6.255782602986586,
                  2.4758879120116504, 5.056217705521483),
    "random_11": (1.9770507703742761, -0.42102969194049367, 0.8288408795412425,
                  0.8374099865575038, 1.5487052529555498, QUARTER,
                  1.4038386613556053, 6.191008437506226),
    "random_12": (-1.3194809527384228, 1.6201245132569881, -0.8765157940985859,
                  0.9417270384578367, 0.7327642066729314, 6.236723608767435,
                  2.322836630840445, 4.7449670263333825),
    "random_13": (0.4755158863579676, -0.7362475859581381, -1.7767330564107038,
                  1.556439647491639, 2.941079001130973, 0.8453633193136347,
                  0.20278161577495266, 1.8722586102613998),
    "random_14": (0.18084652930493883, 1.9921860974879184, -0.07907184590725214,
                  1.303725607280763, 2.789753619292928, 5.250439763546549,
                  1.349778617080045, 0.7754973811264687),
    "random_15": (1.8904088351290116, -0.462455349003267, -0.32132568881978907,
                  0.8981746843602729, 2.454528405605194, 0.23644203206294062,
                  0.4887126762343467, QUARTER),
    "random_16": (1.5342970240754314, 1.1803305414207919, -0.7805530756747636,
                  1.6583067143774088, 0.7522821569592932, 1.4850917519012063,
                  2.530187017788158, 1.0142762573571977),
    "random_17": (-1.2166810069508496, 1.7845533901630883, 0.17905660850725802,
                  -1.8832138928162543, 1.4075917475021409, 3.0823400539823487,
                  2.3369288312645553, 4.335811002567834),
    "random_18": (1.7305171534699038, -1.3655772634161156, 1.9741053862646196,
                  0.750818181412503, 2.4984738003923432, 2.8707629336371845,
                  0.0, 4.676683140448009),
    "random_19": (1.414623331000671, -1.9106654237655931, -1.6605090101976048,
                  -0.9590573472722248, QUARTER, 2.3531954783534728,
                  3.11760503452706, 3.7081320873001897),
}

#: argv of each command; {spec} is the spec file, {dir} an empty directory
COMMANDS = (
    ("eval", "{spec}", "--alpha", "0.3", "--beta", "0.9"),
    ("curve", "{spec}", "--player", "alice", "--samples", "8", "--out", "{dir}/curve.csv"),
    ("curve", "{spec}", "--player", "bob", "--samples", "8", "--out", "{dir}/curve.csv"),
    ("equilibrium", "{spec}"),
    ("classical", "{spec}", "--csv", "{dir}/matrix.csv"),
    ("classical", "{spec}", "--swapped-labels"),
    ("simulate", "{spec}", "--alpha", "0.785", "--beta", "0.785", "--rounds", "40",
     "--seed", "42"),
    ("simulate", "{spec}", "--alpha", "0.785", "--beta", "0.785", "--rounds", "40",
     "--seed", "42", "--csv", "{dir}/rounds.csv"),
    # an odd run over three chunks of 8192 rounds, ending on a half-filled pair
    ("simulate", "{spec}", "--alpha", "0.785", "--beta", "0.785", "--rounds", "16385",
     "--seed", "42"),
    # alpha = 0 gives Alice p1 = 1 exactly on every spec: draws at the limit 2**53
    ("simulate", "{spec}", "--alpha", "0", "--beta", "1.5707963267948966", "--rounds",
     "16385", "--seed", "42"),
)


def spec_document(game: tuple) -> dict:
    c1, c2, c3, c4, theta, lam, tau, mu = game
    return {"c1": c1, "c2": c2, "c3": c3, "c4": c4,
            "alice": {"theta": theta, "lambda": lam},
            "bob": {"tau": tau, "mu": mu}}


def run_command(argv: tuple, spec: dict) -> dict:
    """Exit code, stdout and written files of one in-process CLI call."""
    with tempfile.TemporaryDirectory() as spec_dir, tempfile.TemporaryDirectory() as out_dir:
        spec_path = Path(spec_dir) / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        args = [a.format(spec=spec_path, dir=out_dir) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(args)
        files = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(Path(out_dir).iterdir())}
    return {"argv": " ".join(argv), "exit": code, "stdout": stdout.getvalue(), "files": files}


def golden(game: tuple) -> dict:
    spec = spec_document(game)
    return {"spec": spec, "runs": [run_command(argv, spec) for argv in COMMANDS]}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def differences(name: str, doc: dict, old: dict | None) -> list[str]:
    """One line for each part of the golden ``old`` that ``doc`` would change."""
    if old is None:
        return [f"{name}: no golden file"]
    lines = [f"{name}: spec"] if doc["spec"] != old.get("spec") else []
    old_runs = {run["argv"]: run for run in old.get("runs", [])}
    for run in doc["runs"]:
        was = old_runs.pop(run["argv"], None)
        if was is None:
            lines.append(f"{name}: {run['argv']}: not in the golden file")
            continue
        moved = [key for key in ("exit", "stdout", "files") if run[key] != was.get(key)]
        if moved:
            lines.append(f"{name}: {run['argv']}: {', '.join(moved)}")
    lines += [f"{name}: {argv}: no longer run" for argv in old_runs]
    return lines or [f"{name}: file layout"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rewrite nothing; list what would change, exit 1 if anything would")
    check = parser.parse_args(argv).check
    changed = False
    for name, game in SPECS.items():
        path = HERE / f"{name}.json"
        doc = golden(game)
        text = render(doc)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if text == old:
            continue
        changed = True
        if check:
            for line in differences(name, doc, None if old is None else json.loads(old)):
                print(line)
        else:
            path.write_text(text, encoding="utf-8")
            print(f"{'wrote' if old is None else 'changed'} {path.name}")
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
