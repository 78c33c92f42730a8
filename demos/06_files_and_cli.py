"""The JSON interchange formats and the command-line front end.

Writes an algebra and two module files into a temp directory, then drives
`monomod` subcommands over them, including a full scenario run with the
tri-state exit code.  The directory is removed when the demo ends.
"""

import json
import os
import subprocess
import sys
import tempfile

import monomod


def dump(name, obj):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


# The child runs in workdir, where a relative PYTHONPATH entry such as `src`
# no longer resolves: put the absolute directory holding the package first.
package_root = os.path.dirname(os.path.dirname(os.path.abspath(monomod.__file__)))
env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(
    p for p in (package_root, env.get("PYTHONPATH")) if p)


def cli(*args):
    r = subprocess.run(
        [sys.executable, "-m", "monomod.cli", *args],
        capture_output=True, text=True, cwd=workdir, env=env,
    )
    print(f"\n$ monomod {' '.join(args)}   [exit {r.returncode}]")
    print(r.stdout[:600])
    if r.stderr:
        print("stderr:", r.stderr[:600])
    return r


with tempfile.TemporaryDirectory(prefix="monomod-demo-") as workdir:
    print("working in", workdir)
    dump("kx2.json", {
        "field": "Q", "dim": 2, "labels": ["1", "x"], "unit": ["1", "0"],
        "struct_consts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "idempotents": [["1", "0"]],
    })
    dump("simple.json", {
        "algebra_ref": "kx2.json", "side": "left", "dim": 1,
        "actions": {"1": [[0, 0, "1"]]},
    })
    dump("regular.json", {
        "algebra_ref": "kx2.json", "side": "left", "dim": 2,
        "actions": {"1": [[0, 0, "1"], [1, 1, "1"]], "x": [[1, 0, "1"]]},
    })
    dump("triple.json", {
        "A_ref": "kx2.json", "B_ref": "kx2.json",
        "X_ref": "regular.json", "Y_ref": "simple.json",
        "phi": [[1, 0, "1"]],
    })

    cli("algebra", "validate", "kx2.json")
    cli("module", "classify", "regular.json", "--bound", "4")
    cli("ext", "simple.json", "regular.json", "--bound", "4")
    cli("t2", "dual", "triple.json")
    cli("--output", "text", "gallery", "lambda-q", "--q", "2")
    cli("verify", "dual-iso-family", "--c", "0")
