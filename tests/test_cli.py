import json
import os
import subprocess
import sys

import pytest

import monomod


def run_cli(args, cwd, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    # The child runs in a temp directory, where a relative PYTHONPATH entry
    # such as `src` no longer resolves: put the absolute directory holding
    # the imported package first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(monomod.__file__)))
    e["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, e.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-m", "monomod.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=e,
    )
    # The CLI writes every result of a parsed command, error reports
    # included, to stdout; an empty stdout means the child never ran it.
    if not r.stdout:
        pytest.fail(f"monomod.cli wrote nothing to stdout; stderr:\n{r.stderr}")
    return r


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def dump(name, obj):
        (d / name).write_text(json.dumps(obj), encoding="utf-8")

    dump("kx2.json", {
        "field": "Q", "dim": 2, "labels": ["1", "x"], "unit": ["1", "0"],
        "struct_consts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "idempotents": [["1", "0"]],
    })
    dump("kx2_f5.json", {
        "field": "F5", "dim": 2, "labels": ["1", "x"], "unit": ["1", "0"],
        "struct_consts": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
        "idempotents": [["1", "0"]],
    })
    # x acting by 1/5, which has no image in F_5; read as 0 it would be the
    # valid module k + k
    dump("bad_entry_f5.json", {
        "algebra_ref": "kx2_f5.json", "side": "left", "dim": 2,
        "actions": {"1": [[0, 0, "1"], [1, 1, "1"]], "x": [[1, 0, "1/5"]]},
    })
    dump("bad_algebra.json", {
        "field": "Q", "dim": 3, "labels": ["1", "u", "v"],
        "unit": ["1", "0", "0"],
        "struct_consts": [
            [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
            [0, 2, 2, "1"], [2, 0, 2, "1"],
            [1, 1, 2, "1"], [1, 2, 1, "1"],
        ],
    })
    dump("simple.json", {
        "algebra_ref": "kx2.json", "side": "left", "dim": 1,
        "actions": {"1": [[0, 0, "1"]]},
    })
    dump("regular.json", {
        "algebra_ref": "kx2.json", "side": "left", "dim": 2,
        "actions": {"1": [[0, 0, "1"], [1, 1, "1"]], "x": [[1, 0, "1"]]},
    })
    dump("right_simple.json", {
        "algebra_ref": "kx2.json", "side": "right", "dim": 1,
        "actions": {"1": [[0, 0, "1"]]},
    })
    dump("triple.json", {
        "A_ref": "kx2.json", "B_ref": "kx2.json",
        "X_ref": "regular.json", "Y_ref": "simple.json",
        "phi": [[1, 0, "1"]],   # the socle embedding k -> A
    })
    dump("a2.json", {
        "vertices": [1, 2],
        "arrows": [{"name": "g", "src": 2, "tgt": 1}],
        "relations": [],
    })
    dump("a3rel.json", {
        "vertices": [1, 2, 3],
        "arrows": [{"name": "a", "src": 3, "tgt": 2},
                   {"name": "b", "src": 2, "tgt": 1}],
        "relations": [["a", "b"]],
    })
    dump("k.json", {
        "field": "Q", "dim": 1, "labels": ["1"], "unit": ["1"],
        "struct_consts": [[0, 0, 0, "1"]], "idempotents": [["1"]],
    })
    dump("kmod.json", {
        "algebra_ref": "k.json", "side": "left", "dim": 1,
        "actions": {"1": [[0, 0, "1"]]},
    })
    dump("zero.json", {
        "algebra_ref": "k.json", "side": "left", "dim": 0, "actions": {},
    })
    dump("s2rep.json", {
        "algebra_ref": "k.json", "quiver_ref": "a3rel.json",
        "vertices": {"1": "zero.json", "2": "kmod.json", "3": "zero.json"},
        "arrows": {"a": [], "b": []},
    })
    return d


def test_algebra_validate(files):
    r = run_cli(["algebra", "validate", "kx2.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["valid"] is True


def test_algebra_validate_nonassociative_exit3(files):
    r = run_cli(["algebra", "validate", "bad_algebra.json"], files)
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert "non-associative" in out["error"]
    assert "witness" in out


def test_module_validate_and_classify(files):
    r = run_cli(["module", "validate", "regular.json"], files)
    assert r.returncode == 0
    r = run_cli(["module", "classify", "regular.json", "--bound", "4"], files)
    assert r.returncode == 0  # projective: all-positive report
    rep = json.loads(r.stdout)
    assert rep["torsionless"] and rep["reflexive"]
    assert rep["gp"]["status"] == "holds"


def test_entry_with_no_image_in_the_field_fails_to_load(files):
    import monomod.io as mio

    with pytest.raises(ZeroDivisionError, match="1/5 has no image in F_5"):
        mio.load_module(str(files / "bad_entry_f5.json"))
    r = run_cli(["module", "validate", "bad_entry_f5.json"], files)
    assert r.returncode == 3
    assert "has no image in F_5" in json.loads(r.stdout)["error"]


def test_module_dual_and_resolve(files):
    r = run_cli(["module", "dual", "simple.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["dual_dim"] == 1
    r = run_cli(["module", "resolve", "simple.json", "--steps", "3", "--minimal"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["terms"] == [2, 2, 2, 2]


def test_ext_tor(files):
    r = run_cli(["ext", "simple.json", "regular.json", "--bound", "3"], files)
    assert r.returncode == 0
    assert [row["dim"] for row in json.loads(r.stdout)["rows"]] == [1, 0, 0, 0]
    r = run_cli(["tor", "right_simple.json", "simple.json", "--bound", "3"], files)
    assert r.returncode == 0
    assert [row["dim"] for row in json.loads(r.stdout)["rows"]] == [1, 1, 1, 1]


def test_t2_commands(files):
    r = run_cli(["t2", "build", "triple.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["flat_dim"] == 3
    r = run_cli(["t2", "dual", "triple.json"], files)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["beta_invertible"] in (True, False)
    r = run_cli(["t2", "classify", "triple.json", "--bound", "4"], files)
    assert r.returncode in (0, 2)
    rep = json.loads(r.stdout)
    assert rep["monic"]["holds"] is True


def test_tensor_build(files):
    r = run_cli(["tensor", "build", "kx2.json", "a2.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["flat_dim"] == 6


def test_monic_fails_exit1(files):
    r = run_cli(["monic", "s2rep.json", "--mode", "combinatorial"], files)
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["verdict"]["status"] == "fails"
    assert out["verdict"]["witness"]["vertex"] == 1


def test_gallery_lambda_q(files):
    r = run_cli(["gallery", "lambda-q", "--q", "2", "--field", "Q"], files)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["dim"] == 6 and out["radical_dim"] == 5
    assert out["finite_order_warning"] is False


def test_verify_scenario_and_determinism(files):
    r1 = run_cli(["verify", "dual-iso-family", "--c", "0"], files)
    assert r1.returncode == 0
    r2 = run_cli(["verify", "dual-iso-family", "--c", "0"], files)
    assert r1.stdout == r2.stdout  # byte identical


def test_text_output(files):
    r = run_cli(["--output", "text", "algebra", "validate", "kx2.json"], files)
    assert r.returncode == 0
    assert "valid: True" in r.stdout


def test_workspace_config_env(files, tmp_path):
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"bound": 2, "output": "text"}), encoding="utf-8")
    r = run_cli(["ext", "simple.json", "regular.json"], files,
                env={"MONOMOD_CONFIG": str(cfg)})
    assert r.returncode == 0
    assert r.stdout.count("dim:") == 3  # bound 2 -> rows 0..2, text mode


def test_usage_error_exit3(files):
    r = run_cli(["module", "validate", "does_not_exist.json"], files)
    assert r.returncode == 3


def test_argument_errors_exit3_with_json(files):
    for args in (["verify", "no-such-scenario"], ["module", "validate", "--bogus", "x.json"]):
        r = run_cli(args, files)
        assert r.returncode == 3
        assert "error" in json.loads(r.stdout)
    r = run_cli(["--help"], files)
    assert r.returncode == 0
    assert r.stdout.startswith("usage: monomod")


def test_algebra_cache_follows_file_bytes(tmp_path):
    import monomod.io as mio
    from monomod.gallery import lambda_q, lsgp_example

    path = tmp_path / "alg.json"
    mio.dump_algebra(lambda_q(), path)
    first = mio.load_algebra(str(path))
    assert first.dim == 6
    assert mio.load_algebra(str(path)) is first
    entries = len(mio._algebra_cache)
    mio.dump_algebra(lsgp_example()["algebra"], path)
    assert mio.load_algebra(str(path)).dim == 4
    assert len(mio._algebra_cache) == entries  # one entry per path


def test_dump_algebra_keeps_a_declared_radical(tmp_path):
    import monomod.io as mio
    from monomod.gallery import lambda_q
    from monomod.linalg import GF
    from monomod.quiver import Quiver, build_tensor

    T = build_tensor(lambda_q(GF(5), 2), Quiver([1, 2], [("g", 2, 1)])).flat
    assert T.has_idempotents_and_radical()
    path = tmp_path / "tensor.json"
    mio.dump_algebra(T, path)
    loaded = mio.load_algebra(str(path))
    assert loaded.has_idempotents_and_radical()
    assert loaded.radical_basis() == T.radical_basis()
    assert loaded.idempotents == T.idempotents


def test_load_triple_with_bimodule_file(tmp_path):
    # a general-bimodule triple file: [[A, P(2)], [0, k]] with phi given on
    # pure-tensor coordinates
    import monomod.io as mio
    from monomod.gallery import lsgp_example
    from monomod.io import dump_algebra, dump_module
    from monomod.linalg import Matrix, QQ
    from monomod.modules import tensor_over
    from monomod.triangular import is_monic_bimodule

    ex = lsgp_example()
    A = ex["algebra"]
    P2 = ex["modules"][2]
    dump_algebra(A, tmp_path / "loop.json")
    kalg = {
        "field": "Q", "dim": 1, "labels": ["1"], "unit": ["1"],
        "struct_consts": [[0, 0, 0, "1"]], "idempotents": [["1"]],
    }
    (tmp_path / "k.json").write_text(json.dumps(kalg), encoding="utf-8")
    bim = {
        "A_ref": "loop.json", "B_ref": "k.json", "dim": P2.dim,
        "left_actions": {
            A.basis_labels[i]: mio.matrix_to_entries(P2.actions[i])
            for i in range(A.dim)
            if not P2.actions[i].is_zero()
        },
        "right_actions": {"1": mio.matrix_to_entries(Matrix.identity(QQ, P2.dim))},
    }
    (tmp_path / "bim.json").write_text(json.dumps(bim), encoding="utf-8")
    dump_module(P2, tmp_path / "X.json", "loop.json")
    kmod = {"algebra_ref": "k.json", "side": "left", "dim": 1,
            "actions": {"1": [[0, 0, "1"]]}}
    (tmp_path / "Y.json").write_text(json.dumps(kmod), encoding="utf-8")
    # phi: P2 (x)_k k -> P2 is the canonical identification (dim 3)
    triple = {
        "A_ref": "loop.json", "B_ref": "k.json", "bimodule_ref": "bim.json",
        "X_ref": "X.json", "Y_ref": "Y.json",
        "phi_cols": P2.dim,
        "phi": [[i, i, "1"] for i in range(P2.dim)],
    }
    (tmp_path / "triple.json").write_text(json.dumps(triple), encoding="utf-8")
    t = mio.load_triple(str(tmp_path / "triple.json"))
    assert t.parent.is_t2 is False
    assert t.flatten().dim == P2.dim + 1
    mono, _ = is_monic_bimodule(t)
    assert mono
    # the CLI sees the same file
    r = run_cli(["t2", "build", "triple.json"], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["t2"] is False


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("scenario", [
    "approximation-pipeline", "dual-iso-family", "loop-arrow-sgp", "t2-lift-sampled",
])
def test_verify_output_matches_golden_bytes(scenario, capsys, monkeypatch):
    # x-family (about 4 s) is compared against its golden file in CI instead
    from monomod import cli, config

    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setattr(config, "_dimension_cap", config.dimension_cap())
    assert cli.main(["verify", scenario]) == 0
    with open(os.path.join(GOLDEN, scenario + ".json"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


def test_verify_pinned_invocation_matches_golden_bytes(capsys, monkeypatch):
    # the pinned x-family invocation is compared against its golden file in CI
    from monomod import cli, config

    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setattr(config, "_dimension_cap", config.dimension_cap())
    assert cli.main(["verify", "t2-lift-sampled", "--seed", "3", "--samples", "4"]) == 0
    with open(os.path.join(GOLDEN, "pinned", "t2-lift-sampled_seed3_samples4.json"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()
