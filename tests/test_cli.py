import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import monomod


def _cli_env(env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    # The child runs in a temp directory, where a relative PYTHONPATH entry
    # such as `src` no longer resolves: put the absolute directory holding
    # the imported package first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(monomod.__file__)))
    e["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, e.get("PYTHONPATH")) if p)
    return e


def run_child(args, cwd, env=None):
    """`python -m monomod.cli` in a child interpreter: for what only a
    process shows (its entry point, its hash seed, a closed stdout)."""
    r = subprocess.run(
        [sys.executable, "-m", "monomod.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=_cli_env(env),
    )
    # The CLI writes every result of a parsed command, error reports
    # included, to stdout; an empty stdout means the child never ran it.
    if not r.stdout:
        pytest.fail(f"monomod.cli wrote nothing to stdout; stderr:\n{r.stderr}")
    return r


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """cli.main(args) in this interpreter, run in cwd with env added to the
    environment, as (returncode, stdout); the working directory and the
    environment are restored after each call."""
    from monomod import cli

    def run(args, cwd, env=None):
        capsys.readouterr()
        with monkeypatch.context() as mp:
            mp.chdir(cwd)
            for key, value in (env or {}).items():
                mp.setenv(key, value)
            try:
                rc = cli.main(list(args))
            except SystemExit as exc:  # argparse's --help
                rc = exc.code
        out = capsys.readouterr().out
        if not out:
            pytest.fail("monomod.cli wrote nothing to stdout")
        return SimpleNamespace(returncode=rc, stdout=out)

    return run


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


def test_algebra_validate(files, run_cli):
    r = run_cli(["algebra", "validate", "kx2.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["valid"] is True


def test_algebra_validate_nonassociative_exit3(files, run_cli):
    r = run_cli(["algebra", "validate", "bad_algebra.json"], files)
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert "non-associative" in out["error"]
    assert "witness" in out


def test_module_validate_and_classify(files, run_cli):
    r = run_cli(["module", "validate", "regular.json"], files)
    assert r.returncode == 0
    r = run_cli(["module", "classify", "regular.json", "--bound", "4"], files)
    assert r.returncode == 0  # projective: all-positive report
    rep = json.loads(r.stdout)
    assert rep["torsionless"] and rep["reflexive"]
    assert rep["gp"]["status"] == "holds"


def test_entry_with_no_image_in_the_field_fails_to_load(files, run_cli):
    import monomod.io as mio

    with pytest.raises(ZeroDivisionError, match="1/5 has no image in F_5"):
        mio.load_module(str(files / "bad_entry_f5.json"))
    r = run_cli(["module", "validate", "bad_entry_f5.json"], files)
    assert r.returncode == 3
    assert "has no image in F_5" in json.loads(r.stdout)["error"]


def test_module_dual_and_resolve(files, run_cli):
    r = run_cli(["module", "dual", "simple.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["dual_dim"] == 1
    r = run_cli(["module", "resolve", "simple.json", "--steps", "3", "--minimal"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["terms"] == [2, 2, 2, 2]


def test_ext_tor(files, run_cli):
    r = run_cli(["ext", "simple.json", "regular.json", "--bound", "3"], files)
    assert r.returncode == 0
    assert [row["dim"] for row in json.loads(r.stdout)["rows"]] == [1, 0, 0, 0]
    r = run_cli(["tor", "right_simple.json", "simple.json", "--bound", "3"], files)
    assert r.returncode == 0
    assert [row["dim"] for row in json.loads(r.stdout)["rows"]] == [1, 1, 1, 1]


def test_t2_commands(files, run_cli):
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


def _with_a_composite_mismatch(monkeypatch, module):
    """Makes module.classify_triple report a mismatch of the composite
    torsionless double-semi-GP statement, all else as computed."""
    import copy

    original = module.classify_triple

    def broken(t, bound=6, seed=0):
        rep = copy.deepcopy(original(t, bound=bound, seed=seed))
        rep["composite"]["torsionless_double_sgp"]["agreement"] = "mismatch"
        return rep

    monkeypatch.setattr(module, "classify_triple", broken)


def test_t2_classify_exits1_on_any_cross_check_mismatch(files, run_cli, monkeypatch):
    from monomod import cli

    _with_a_composite_mismatch(monkeypatch, cli)
    r = run_cli(["t2", "classify", "triple.json", "--bound", "4"], files)
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["composite"]["torsionless_double_sgp"]["agreement"] == "mismatch"


def test_sampled_lift_mismatch_exits3_with_json(files, run_cli, monkeypatch):
    from monomod import triangular

    _with_a_composite_mismatch(monkeypatch, triangular)
    r = run_cli(["verify", "t2-lift-sampled", "--samples", "1"], files)
    assert r.returncode == 3
    out = json.loads(r.stdout)
    assert "composite.torsionless_double_sgp.agreement" in out["error"]
    assert out["witness"]["mismatches"] == ["composite.torsionless_double_sgp.agreement"]


def test_tensor_build(files, run_cli):
    r = run_cli(["tensor", "build", "kx2.json", "a2.json"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["flat_dim"] == 6


def test_monic_fails_exit1(files, run_cli):
    r = run_cli(["monic", "s2rep.json", "--mode", "combinatorial"], files)
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["verdict"]["status"] == "fails"
    assert out["verdict"]["witness"]["vertex"] == 1


def test_gallery_lambda_q(files, run_cli):
    r = run_cli(["gallery", "lambda-q", "--q", "2", "--field", "Q"], files)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["dim"] == 6 and out["radical_dim"] == 5
    assert out["finite_order_warning"] is False


def test_verify_scenario_and_determinism(files):
    # two interpreters, each with its own hash seed, through the module's
    # entry point
    r1 = run_child(["verify", "dual-iso-family", "--c", "0"], files)
    assert r1.returncode == 0
    r2 = run_child(["verify", "dual-iso-family", "--c", "0"], files)
    assert r1.stdout == r2.stdout  # byte identical


def test_negative_parameter_in_equals_form(files, run_cli):
    r = run_cli(["verify", "x-family", "--c=-1/2"], files)
    assert r.returncode == 0
    assert json.loads(r.stdout)["claims"]
    # with a space, argparse takes -1/2 for an option, so the value is missing
    r = run_cli(["verify", "x-family", "--c", "-1/2"], files)
    assert r.returncode == 3
    assert "expected one argument" in json.loads(r.stdout)["error"]


def test_text_output(files, run_cli):
    r = run_cli(["--output", "text", "algebra", "validate", "kx2.json"], files)
    assert r.returncode == 0
    assert "valid: True" in r.stdout


def test_workspace_config_env(files, tmp_path, run_cli):
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"bound": 2, "output": "text"}), encoding="utf-8")
    r = run_cli(["ext", "simple.json", "regular.json"], files,
                env={"MONOMOD_CONFIG": str(cfg)})
    assert r.returncode == 0
    assert r.stdout.count("dim:") == 3  # bound 2 -> rows 0..2, text mode


def test_usage_error_exit3(files, run_cli):
    r = run_cli(["module", "validate", "does_not_exist.json"], files)
    assert r.returncode == 3


def test_argument_errors_exit3_with_json(files, run_cli):
    for args in (["verify", "no-such-scenario"], ["module", "validate", "--bogus", "x.json"]):
        r = run_cli(args, files)
        assert r.returncode == 3
        assert "error" in json.loads(r.stdout)
    r = run_cli(["--help"], files)
    assert r.returncode == 0
    assert r.stdout.startswith("usage: monomod")


def test_closed_stdout_exits3_without_traceback(tmp_path):
    # stdout is a pipe whose reader is already gone, as in `monomod ... | head -c 100`
    # with the default block buffering, so the output stays buffered until main flushes it
    env = _cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for args in (["verify", "loop-arrow-sgp"], ["module", "validate", "missing.json"]):
            r = subprocess.run(
                [sys.executable, "-m", "monomod.cli", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env,
            )
            assert r.returncode == 3
            assert r.stderr == ""
    finally:
        os.close(write_end)


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
    from monomod.homology import has_minimal_covers
    from monomod.linalg import GF
    from monomod.quiver import Quiver, build_tensor

    T = build_tensor(lambda_q(GF(5), 2), Quiver([1, 2], [("g", 2, 1)])).flat
    assert has_minimal_covers(T)
    path = tmp_path / "tensor.json"
    mio.dump_algebra(T, path)
    loaded = mio.load_algebra(str(path))
    assert has_minimal_covers(loaded)
    assert loaded.radical_basis() == T.radical_basis()
    assert loaded.idempotents == T.idempotents


def test_loaded_module_entries_are_canonical(tmp_path):
    # over Q a loaded integral entry is an int and any other a Fraction, as
    # in modules built in memory; dumping what was loaded gives the same bytes
    from fractions import Fraction

    import monomod.io as mio
    from monomod.gallery import lambda_q, module_M1qc
    from test_linalg import _assert_canonical

    A = lambda_q()
    M = module_M1qc(A, Fraction(3, 2))
    mio.dump_algebra(A, tmp_path / "lambda.json")
    mio.dump_module(M, tmp_path / "M.json", "lambda.json")
    loaded = mio.load_module(str(tmp_path / "M.json"))
    entries = [x for act in loaded.actions for row in act.rows for x in row]
    _assert_canonical(A.field, entries)
    assert Fraction(3, 4) in entries  # y.1~ = q^-1 (x~ + c z~)
    assert loaded.actions == M.actions
    mio.dump_module(loaded, tmp_path / "again.json", "lambda.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "M.json").read_bytes()


def _write_bimodule_triple_files(tmp_path):
    """A general-bimodule triple file triple.json: [[A, P(2)], [0, k]] with
    phi given on pure-tensor coordinates; returns (P(2), the bimodule data)."""
    import monomod.io as mio
    from monomod.gallery import lsgp_example
    from monomod.io import dump_algebra, dump_module
    from monomod.linalg import Matrix, QQ

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
    return P2, bim


def test_load_triple_with_bimodule_file(tmp_path, run_cli):
    import monomod.io as mio
    from monomod.triangular import is_monic_bimodule

    P2, _bim = _write_bimodule_triple_files(tmp_path)
    t = mio.load_triple(str(tmp_path / "triple.json"))
    assert t.parent.is_t2 is False
    assert t.flatten().dim == P2.dim + 1
    mono, _ = is_monic_bimodule(t)
    assert mono
    # the CLI sees the same file
    r = run_cli(["t2", "build", "triple.json"], tmp_path)
    assert r.returncode == 0
    assert json.loads(r.stdout)["t2"] is False


def test_load_t2_triple_from_pure_tensors_and_from_the_map(tmp_path):
    # over T2(loop-arrow), whose unit e1 + e2 is not a basis vector, phi on
    # the pure tensors (phi_cols = dim A * dim Y) and phibar: Y -> X give
    # the same triple
    import random

    import monomod.io as mio
    from monomod.errors import ValidationError
    from monomod.gallery import lsgp_algebra
    from monomod.linalg import QQ, Matrix
    from monomod.sampling import random_t2_triple
    from monomod.triangular import t2_algebra

    A = lsgp_algebra()
    rng = random.Random(5)
    t = [random_t2_triple(t2_algebra(A), rng, max_dim=5) for _ in range(4)][-1]
    mio.dump_algebra(A, tmp_path / "loop.json")
    mio.dump_module(t.X, tmp_path / "X.json", "loop.json")
    mio.dump_module(t.Y, tmp_path / "Y.json", "loop.json")
    pure = t.phi.matrix * t.tensor.pure_matrix
    # 1 added to the value on alpha (x) y_0 alone (column 2 dim Y): the unit
    # has no alpha term, so the values no longer factor through A (x)_A Y
    alpha_y0 = 2 * t.Y.dim
    bad = Matrix.from_rows(QQ, [[x + 1 if (r, c) == (0, alpha_y0) else x
                                 for c, x in enumerate(row)]
                                for r, row in enumerate(pure.rows)])
    forms = {
        "map": {"phi": mio.matrix_to_entries(t.phi.matrix)},
        "pure": {"phi_cols": A.dim * t.Y.dim, "phi": mio.matrix_to_entries(pure)},
        "bad": {"phi_cols": A.dim * t.Y.dim, "phi": mio.matrix_to_entries(bad)},
    }
    loaded = {}
    for name, phi in forms.items():
        data = {"A_ref": "loop.json", "B_ref": "loop.json",
                "X_ref": "X.json", "Y_ref": "Y.json", **phi}
        (tmp_path / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        if name == "bad":
            with pytest.raises(ValidationError):
                mio.load_triple(str(tmp_path / "bad.json"))
        else:
            loaded[name] = mio.load_triple(str(tmp_path / f"{name}.json"))
    assert loaded["map"].phi.matrix == loaded["pure"].phi.matrix == t.phi.matrix
    assert loaded["map"].flatten().actions == loaded["pure"].flatten().actions
    assert loaded["map"].flatten().actions == t.flatten().actions


@pytest.mark.parametrize("side", ["left_actions", "right_actions"])
def test_bimodule_file_with_an_unknown_label_is_rejected(tmp_path, side, run_cli):
    import monomod.io as mio
    from monomod.errors import ValidationError

    _P2, bim = _write_bimodule_triple_files(tmp_path)
    bim[side]["z"] = [[0, 0, "1"]]
    path = tmp_path / "bim.json"
    path.write_text(json.dumps(bim), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        mio.load_bimodule(str(path))
    assert str(err.value) == f"{path}: unknown basis label 'z'"
    r = run_cli(["t2", "build", "triple.json"], tmp_path)
    assert r.returncode == 3
    assert "unknown basis label 'z'" in json.loads(r.stdout)["error"]


def test_racing_algebra_loads_get_one_object(tmp_path, monkeypatch):
    # both threads wait inside validate_algebra until the other one is
    # there too, so both miss the cache and both build; both must get the
    # algebra stored first, and so must a later load
    import threading

    import monomod.io as mio
    from monomod.gallery import lambda_q

    path = str(tmp_path / "alg.json")
    mio.dump_algebra(lambda_q(), path)
    barrier = threading.Barrier(2, timeout=30)
    validate = mio.validate_algebra

    def meeting(*args, **kwargs):
        barrier.wait()
        return validate(*args, **kwargs)

    monkeypatch.setattr(mio, "validate_algebra", meeting)
    got, errors = [None, None], []

    def load(k):
        try:
            got[k] = mio.load_algebra(path)
        except Exception as exc:  # reported below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=load, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert got[0] is not None
    assert got[0] is got[1] is mio.load_algebra(path)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("scenario", [
    "approximation-pipeline", "dual-iso-family", "loop-arrow-sgp", "t2-lift-sampled",
    "x-family",
])
def test_verify_output_matches_golden_bytes(scenario, capsys, monkeypatch):
    from monomod import cli

    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    assert cli.main(["verify", scenario]) == 0
    with open(os.path.join(GOLDEN, scenario + ".json"), "rb") as fh:
        assert capsys.readouterr().out.encode("utf-8") == fh.read()


def test_verify_pinned_invocation_matches_golden_bytes(capsys, monkeypatch):
    from monomod import cli

    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    for args, golden in (
        (["x-family", "--c", "3/2", "--seed", "7"], "x-family_c3-2_seed7.json"),
        (["t2-lift-sampled", "--seed", "3", "--samples", "4"],
         "t2-lift-sampled_seed3_samples4.json"),
    ):
        assert cli.main(["verify", *args]) == 0
        with open(os.path.join(GOLDEN, "pinned", golden), "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read()


_TWICE_IN_ONE_INTERPRETER = """
import contextlib, io
from monomod import cli, memo

assert not memo._interned, "the table of kept algebras starts empty"
for run in (1, 2):
    for scenario in ("x-family", "dual-iso-family"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", scenario]) == 0
        with open(f"{scenario}.{run}.json", "w", encoding="utf-8", newline="") as fh:
            fh.write(out.getvalue())
print("done")
"""


def test_verify_output_does_not_depend_on_the_kept_algebras(tmp_path):
    # the in-process golden tests run with Lambda(2) and T2(Lambda(2)) kept
    # already; a fresh interpreter runs each scenario once with an empty
    # table and once with everything the first runs kept
    from monomod import cli

    env = _cli_env()
    env.pop(cli.ENV_CONFIG, None)
    r = subprocess.run([sys.executable, "-c", _TWICE_IN_ONE_INTERPRETER],
                       capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0 and r.stdout == "done\n", r.stderr
    for scenario in ("x-family", "dual-iso-family"):
        with open(os.path.join(GOLDEN, scenario + ".json"), "rb") as fh:
            golden = fh.read()
        for run in (1, 2):
            assert (tmp_path / f"{scenario}.{run}.json").read_bytes() == golden, (scenario, run)


def test_main_leaves_the_callers_dimension_cap(run_cli, tmp_path, monkeypatch):
    # main sets the process-wide cap for its own command only: a library
    # caller in the same interpreter keeps the cap it had, after a clean
    # run and after an error exit alike.  The failing call validates a
    # module over an algebra file this process has not loaded, so no kept
    # algebra answers it: the action laws need the algebra's generators,
    # whose closure stacks products of Lambda(2)'s radical into a 12x6
    # matrix.
    from monomod import cli, config
    from monomod import io as mio
    from monomod.algebra import regular_modules
    from monomod.gallery import lambda_q

    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    mio.dump_algebra(lambda_q(), tmp_path / "lambda.json")
    mio.dump_module(regular_modules(lambda_q())[0], tmp_path / "regular.json", "lambda.json")
    before = config.dimension_cap()
    config.set_dimension_cap(100)
    try:
        assert run_cli(["gallery", "lambda-q"], tmp_path).returncode == 0
        assert config.dimension_cap() == 100
        r = run_cli(["--cap", "7", "module", "validate", "regular.json"], tmp_path)
        assert r.returncode == 3 and "exceeds dimension cap 7" in r.stdout
        assert config.dimension_cap() == 100
    finally:
        config.set_dimension_cap(before)
