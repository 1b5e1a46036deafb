"""Run the canonical command list and hash what it writes; compare two such runs.

``python tools/golden.py run <dir>`` makes the new directory ``<dir>``,
writes the inputs there (the bundled eGFR summaries, their
``write_summaries`` copies as CSV and JSON, and a simulated 22/16 target
CSV), then runs each command of ``RUNS`` in it, in order, as ``python -m
metaborrow.cli`` with this interpreter.  The environment is
inherited, ``PYTHONPATH`` included (its entries made absolute), so one
copy of this tool runs whichever tree ``PYTHONPATH`` names.  Each
command's stdout and stderr are saved beside its outputs as
``<name>.stdout`` and ``<name>.stderr``, with the directory's path
spelled ``<dir>`` and each warning's source file, line number and
source line dropped, since those name the tree, not the result.
``<dir>/manifest.json`` then maps every file in ``<dir>`` to its
sha256.  A command that exits nonzero, the input writing included,
stops the run with exit 2, as does a ``<dir>`` that already exists.

``python tools/golden.py diff <a> <b>`` prints each name whose hash
differs between the two manifests, or that only one of them has, and
exits 1 if it printed any.

Byte identity of a change: ``PYTHONPATH=<parent>/src python
tools/golden.py run a``, ``PYTHONPATH=src python tools/golden.py run
b``, then ``python tools/golden.py diff a b``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SETUP = ("import shutil; from numpy.random import default_rng; "
         "from metaborrow import casestudy, data; "
         "shutil.copyfile(casestudy.bundled_data_path(), 'summaries.csv'); "
         "[data.write_summaries(data.read_summaries('summaries.csv'), f'written-summaries.{x}') "
         "for x in ('csv', 'json')]; "
         "data.write_subjects(casestudy.simulate_target(22, 16, default_rng(1)), 'target.csv')")

_PIPELINE = ["pipeline", "--summaries", "summaries.csv", "--target", "target.csv",
             "--seed", "7"]

RUNS = {
    "pipeline": [*_PIPELINE, "--out", "pipeline"],
    "pipeline-interactions": [*_PIPELINE, "--meta-interaction", "--outcome-interaction",
                              "--out", "pipeline-interactions"],
    "simulate-k30": ["simulate", "--K", "30", "--reps", "40", "--seed", "1",
                     "--out", "simulate-k30.csv"],
    "simulate-k5-ctrl": ["simulate", "--K", "5", "--dist", "chisq2", "--alloc", "single_arm",
                         "--model", "misidentified", "--borrow", "control_only", "--meat", "w3",
                         "--reps", "40", "--seed", "1", "--out", "simulate-k5-ctrl.csv"],
    "simulate-k3-n4": ["simulate", "--K", "3", "--n", "4", "--alloc", "three_to_one",
                       "--reps", "40", "--seed", "1", "--out", "simulate-k3-n4.csv"],
    "case-study": ["case-study", "--out", "case-study.json"],
    "meta": ["meta", "--summaries", "summaries.csv", "--out", "meta.json"],
    # every writer of a subject file, in both formats; weights reads the pipeline's output
    "reconstruct-csv": ["reconstruct", "--summaries", "summaries.csv", "--seed", "7",
                        "--out", "reconstruct.csv"],
    "reconstruct-json": ["reconstruct", "--summaries", "summaries.csv", "--seed", "7",
                         "--out", "reconstruct.json"],
    "weights-csv": ["weights", "--subjects", "pipeline/weighted.csv", "--out", "weights.csv"],
    "weights-json": ["weights", "--subjects", "pipeline/weighted.csv", "--out", "weights.json"],
}

# "<file>:<line>: <Category>: <message>" and the indented source line under it
_WARNING = re.compile(r"^.*:\d+: (\w*Warning): (.*)\n(?:  .*\n)?", re.MULTILINE)


def _normalize(text, root):
    return _WARNING.sub(r"\1: \2\n", text.replace(str(root), "<dir>"))


def run(root):
    root = Path(root).resolve()
    try:
        root.mkdir(parents=True)  # a new directory, so that nothing stale is hashed
    except FileExistsError:
        print(f"{root} exists; give a new directory", file=sys.stderr)
        return 2
    # the commands run in root, so a relative PYTHONPATH entry is made absolute first
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(os.path.abspath, filter(None, path)))}
    if subprocess.run([sys.executable, "-c", SETUP], cwd=root, env=env).returncode:
        return 2
    for name, args in RUNS.items():
        done = subprocess.run([sys.executable, "-m", "metaborrow.cli", *args], cwd=root,
                              env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{done.stderr}{name} exited {done.returncode}", file=sys.stderr)
            return 2
        for stream in ("stdout", "stderr"):
            text = _normalize(getattr(done, stream), root)
            (root / f"{name}.{stream}").write_text(text, encoding="utf-8")
    manifest = {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*"))
                if path.is_file() and path.name != "manifest.json"}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


def diff(a, b):
    ma, mb = (json.loads((Path(d) / "manifest.json").read_text(encoding="utf-8")) for d in (a, b))
    changed = sorted(name for name in ma.keys() | mb.keys() if ma.get(name) != mb.get(name))
    for name in changed:
        print(name)
    return 1 if changed else 0


def main(argv):
    if argv[:1] == ["run"] and len(argv) == 2:
        return run(argv[1])
    if argv[:1] == ["diff"] and len(argv) == 3:
        return diff(argv[1], argv[2])
    print("usage: golden.py run <dir> | golden.py diff <a> <b>", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
