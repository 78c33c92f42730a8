"""Command-line front end.

Exit codes: 0 = every claim passed, 1 = some claim failed, 2 = some claim
undecided at its bound, 3 = usage or validation error, or stdout closed by
its reader (then nothing more is written).  Output is JSON by default
(byte-identical for identical command, files and seed); --output text
renders the same data as an indented listing.

A workspace config file (JSON: {"field", "bound", "cap", "seed", "output"})
is read from $MONOMOD_CONFIG when set; command-line flags override it.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import config as _config
from . import io as mio
from .duality import a_dual, classify
from .errors import MonomodError
from .gallery import SCENARIOS, lambda_q, run_scenario
from .homology import ext_dims, resolve, tor_dims
from .linalg import Field
from .modules import _json_safe
from .quiver import build_tensor, monic_check
from .triangular import classify_triple, t2_dual_bundle, triple_mismatches


ENV_CONFIG = "MONOMOD_CONFIG"


def _load_workspace():
    path = os.environ.get(ENV_CONFIG)
    ws = {"field": "Q", "bound": _config.DEFAULT_BOUND, "cap": _config.DEFAULT_CAP,
          "seed": _config.DEFAULT_SEED, "output": "json"}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        for k in ws:
            if k in data:
                ws[k] = data[k]
    if ws["bound"] < 1 or ws["cap"] < 1:
        raise MonomodError("workspace config needs bound >= 1 and cap >= 1")
    return ws


def _emit(payload, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
        sys.stdout.write("\n")
    else:
        _render_text(payload, 0)


def _render_text(node, depth):
    pad = "  " * depth
    if isinstance(node, dict):
        for k in sorted(node):
            v = node[k]
            if isinstance(v, (dict, list)):
                sys.stdout.write(f"{pad}{k}:\n")
                _render_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}{k}: {v}\n")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            if isinstance(v, (dict, list)):
                sys.stdout.write(f"{pad}- [{i}]\n")
                _render_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}- {v}\n")
    else:
        sys.stdout.write(f"{pad}{node}\n")


def _verdict_exit(statuses):
    if any(s == "fails" or s == "fail" for s in statuses):
        return 1
    if any(s == "unknown" for s in statuses):
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a MonomodError, so they exit 3 with a JSON
    error like every other usage error; subparsers inherit the class."""

    def error(self, message):
        raise MonomodError(f"{self.prog}: {message}")


# argparse reads "--c -1/2" as a missing value followed by an option
_Q_HELP = "a rational such as 2; write a negative one as --q=-2"
_C_HELP = "a rational such as 3/2; write a negative one as --c=-1/2"


def main(argv=None):
    ap = _Parser(prog="monomod")
    ap.add_argument("--output", choices=["json", "text"], default=None)
    ap.add_argument("--cap", type=int, default=None, help="matrix dimension cap")
    sub = ap.add_subparsers(dest="cmd")

    p = sub.add_parser("algebra")
    ps = p.add_subparsers(dest="sub")
    v = ps.add_parser("validate")
    v.add_argument("file")

    p = sub.add_parser("module")
    ps = p.add_subparsers(dest="sub")
    for name in ("validate", "classify", "dual", "resolve"):
        x = ps.add_parser(name)
        x.add_argument("file")
        x.add_argument("--algebra", default=None)
        if name == "classify":
            x.add_argument("--bound", type=int, default=None)
            x.add_argument("--seed", type=int, default=None)
        if name == "resolve":
            x.add_argument("--steps", type=int, required=True)
            x.add_argument("--minimal", action="store_true")

    p = sub.add_parser("ext")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--algebra", default=None)
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("tor")
    p.add_argument("u")
    p.add_argument("x")
    p.add_argument("--algebra", default=None)
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("t2")
    ps = p.add_subparsers(dest="sub")
    for name in ("build", "dual", "classify"):
        x = ps.add_parser(name)
        x.add_argument("file")
        if name == "classify":
            x.add_argument("--bound", type=int, default=None)
            x.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("tensor")
    ps = p.add_subparsers(dest="sub")
    x = ps.add_parser("build")
    x.add_argument("algebra")
    x.add_argument("quiver")

    p = sub.add_parser("monic")
    p.add_argument("file")
    p.add_argument("--mode", choices=["combinatorial", "homological"],
                   default="combinatorial")
    p.add_argument("--bound", type=int, default=None)

    p = sub.add_parser("gallery")
    ps = p.add_subparsers(dest="sub")
    x = ps.add_parser("lambda-q")
    x.add_argument("--q", default="2", help=_Q_HELP)
    x.add_argument("--field", default=None)

    p = sub.add_parser("verify")
    p.add_argument("scenario", choices=sorted(SCENARIOS))
    p.add_argument("--q", default=None, help=_Q_HELP)
    p.add_argument("--c", default=None, help=_C_HELP)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--algebra", default=None)

    caller_cap = _config.dimension_cap()
    try:
        try:
            args = ap.parse_args(argv)
            ws = _load_workspace()
            fmt = args.output or ws["output"]
            _config.set_dimension_cap(args.cap if args.cap is not None else ws["cap"])
            if args.cmd is None:
                ap.print_help()
                rc = 3
            else:
                rc = _dispatch(args, ws, fmt)
        except BrokenPipeError:
            raise
        except MonomodError as e:
            payload = {"error": str(e)}
            if getattr(e, "witness", None) is not None:
                payload["witness"] = _json_safe(e.witness)
            _emit(payload, "json")
            rc = 3
        except (OSError, json.JSONDecodeError, KeyError, ValueError, ZeroDivisionError) as e:
            _emit({"error": f"{type(e).__name__}: {e}"}, "json")
            rc = 3
        # a block-buffered stdout fails here, not at interpreter exit
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and flush into devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
    finally:
        # the cap is process-wide: a library caller keeps the cap it had
        _config.set_dimension_cap(caller_cap)


def _dispatch(args, ws, fmt):
    bound = getattr(args, "bound", None) or ws["bound"]
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = ws["seed"]

    if args.cmd == "algebra" and args.sub == "validate":
        A = mio.load_algebra(args.file)
        _emit({"valid": True, "dim": A.dim, "field": A.field.spec_string(),
               "labels": A.basis_labels}, fmt)
        return 0

    if args.cmd == "module":
        algebra = mio.load_algebra(args.algebra) if args.algebra else None
        m = mio.load_module(args.file, algebra=algebra)
        if args.sub == "validate":
            _emit({"valid": True, "dim": m.dim, "side": m.side}, fmt)
            return 0
        if args.sub == "classify":
            rep = classify(m, bound=bound, seed=seed)
            d = rep.describe()
            _emit(d, fmt)
            return _verdict_exit(
                [d["semi_gp"]["status"], d["dual_semi_gp"]["status"], d["gp"]["status"]]
            )
        if args.sub == "dual":
            dd = a_dual(m)
            _emit({
                "dual_dim": dd.dual.dim,
                "dual_side": dd.dual.side,
                "basis_images": [
                    mio.matrix_to_entries(f.matrix) for f in dd.basis
                ],
            }, fmt)
            return 0
        if args.sub == "resolve":
            r = resolve(m, args.steps, minimal=args.minimal)
            r.check_certificates()
            _emit({
                "minimal": r.minimal,
                "terms": [t.dim for t in r.terms],
                "differential_ranks": [d.rank() for d in r.differentials],
            }, fmt)
            return 0

    if args.cmd == "ext":
        algebra = mio.load_algebra(args.algebra) if args.algebra else None
        m = mio.load_module(args.m, algebra=algebra)
        n = mio.load_module(args.n, algebra=algebra or m.algebra)
        table = ext_dims(m, n, bound)
        _emit({"rows": [{"i": i, "dim": d} for i, d in enumerate(table.dims)]}, fmt)
        return 0

    if args.cmd == "tor":
        algebra = mio.load_algebra(args.algebra) if args.algebra else None
        u = mio.load_module(args.u, algebra=algebra)
        x = mio.load_module(args.x, algebra=algebra or u.algebra)
        dims = tor_dims(u, x, bound)
        _emit({"rows": [{"i": i, "dim": d} for i, d in enumerate(dims)]}, fmt)
        return 0

    if args.cmd == "t2":
        t = mio.load_triple(args.file)
        if args.sub == "build":
            _emit({"flat_dim": t.X.dim + t.Y.dim, "x_dim": t.X.dim,
                   "y_dim": t.Y.dim, "t2": t.parent.is_t2}, fmt)
            return 0
        if args.sub == "dual":
            b = t2_dual_bundle(t)
            _emit({
                "dual_triple_dims": [b.dual_triple.U.dim, b.dual_triple.V.dim],
                "double_dual_dims": [b.double_dual_triple.X.dim,
                                     b.double_dual_triple.Y.dim],
                "beta_invertible": b.beta.is_isomorphism_map(),
                "pi_star_rank": b.pi_star.rank(),
                "identification_to_generic_dual": mio.matrix_to_entries(b.h.matrix),
                "identification_to_generic_double_dual":
                    mio.matrix_to_entries(b.tilde_h.matrix),
            }, fmt)
            return 0
        if args.sub == "classify":
            rep = classify_triple(t, bound=bound, seed=seed)
            _emit(_json_safe(rep), fmt)
            statuses = [rep["flat"]["semi_gp"]["status"],
                        rep["flat"]["dual_semi_gp"]["status"],
                        rep["flat"]["gp"]["status"],
                        rep["perp_structure"]["combined"]["status"]]
            if triple_mismatches(rep):
                return 1
            return _verdict_exit(statuses)

    if args.cmd == "tensor" and args.sub == "build":
        A = mio.load_algebra(args.algebra)
        quiver = mio.load_quiver(args.quiver)
        T = build_tensor(A, quiver)
        _emit({"flat_dim": T.flat.dim, "paths": T.npaths,
               "labels": T.flat.basis_labels}, fmt)
        return 0

    if args.cmd == "monic":
        rep = mio.load_rep(args.file)
        v = monic_check(rep, mode=args.mode, bound=bound)
        _emit({"mode": args.mode, "verdict": v.describe()}, fmt)
        return _verdict_exit([v.status])

    if args.cmd == "gallery" and args.sub == "lambda-q":
        field = Field.parse_spec(args.field) if args.field else Field.parse_spec(ws["field"])
        A = lambda_q(field, field.of(args.q))
        _emit({
            "dim": A.dim,
            "field": field.spec_string(),
            "labels": A.basis_labels,
            "radical_dim": len(A.radical_basis()),
            "finite_order_warning": A.q_finite_order_warning,
        }, fmt)
        return 0

    if args.cmd == "verify":
        params = {k: getattr(args, k) for k in ("q", "c", "bound", "seed", "samples", "algebra")
                  if getattr(args, k) is not None}
        for k in ("q", "c"):
            if k in params:
                params[k] = Fraction(params[k])
        sc = run_scenario(args.scenario, params)
        _emit(sc.describe(), fmt)
        return _verdict_exit([c["status"] for c in sc.claims])

    _emit({"error": "unrecognized command"}, "json")
    return 3


if __name__ == "__main__":
    sys.exit(main())
