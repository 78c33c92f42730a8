"""JSON file formats (all UTF-8; scalars as strings).

algebra:  {"field": "Q"|"F<p>", "dim": n, "labels": [...], "unit": [...],
           "struct_consts": [[i, j, k, "val"], ...],
           "idempotents": [[...], ...]?, "radical_basis": [[...], ...]?}
module:   {"algebra_ref": "path", "side": "left"|"right", "dim": n,
           "actions": {"<basis label>": [[r, c, "val"], ...], ...}}
          (omitted labels act by zero; refs resolve relative to the file)
quiver:   {"vertices": [...], "arrows": [{"name","src","tgt"}, ...],
           "relations": [["a1", "a2", ...], ...]}   (application order)
bimodule: {"A_ref", "B_ref", "dim",
           "left_actions": {label: entries}, "right_actions": {label: entries}}
triple:   {"A_ref", "B_ref", "bimodule_ref"?, "X_ref", "Y_ref",
           "phi": [[r, c, "val"], ...]}
          phi columns are pure-tensor coordinates (m_i (x) y_j, row-major);
          for a T2 triple (A_ref == B_ref, no bimodule_ref) a Y.dim-column
          matrix is also accepted and read as the A-map phibar: Y -> X,
          which is phi itself, since A (x)_A Y = Y.
rep:      {"algebra_ref", "quiver_ref",
           "vertices": {vertex: module_ref},
           "arrows": {arrow name: [[r, c, "val"], ...]}}
"""

import json
import os
import threading

from .algebra import AlgebraPresentation, validate_algebra
from .errors import ValidationError
from .linalg import Field, Matrix
from .modules import ModuleMap, validate_bimodule, validate_module
from .quiver import Quiver, QuiverRep, build_tensor
from .triangular import build_triangular, make_triple, pure_tensor_phi, t2_algebra


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(base_file, ref):
    if os.path.isabs(ref):
        return ref
    return os.path.join(os.path.dirname(os.path.abspath(base_file)), ref)


def _entries_to_matrix(field, entries, nrows, ncols):
    z = field.zero
    rows = [[z] * ncols for _ in range(nrows)]
    for r, c, val in entries:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValidationError(f"entry ({r},{c}) out of range for {nrows}x{ncols}")
        rows[r][c] = val
    return Matrix.from_rows(field, rows, ncols)


def matrix_to_entries(m):
    return [
        [r, c, m.field.render(m.rows[r][c])]
        for r in range(m.nrows)
        for c in range(m.ncols)
        if m.rows[r][c]
    ]


_algebra_cache = {}
_algebra_cache_lock = threading.Lock()


def load_algebra(path):
    """Validated Algebra from a file (cached per absolute path while the
    file's bytes stay the same)."""
    key = os.path.abspath(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    got = _algebra_cache.get(key)
    if got is not None and got[0] == raw:
        return got[1]
    data = json.loads(raw.decode("utf-8"))
    field = Field.parse_spec(data["field"])
    consts = [(i, j, k, field.of(v)) for (i, j, k, v) in data["struct_consts"]]
    pres = AlgebraPresentation(
        field,
        data["dim"],
        data["labels"],
        [field.of(x) for x in data["unit"]],
        consts,
        idempotents=[[field.of(x) for x in e] for e in data["idempotents"]]
        if data.get("idempotents") is not None
        else None,
        radical_basis=[[field.of(x) for x in v] for v in data["radical_basis"]]
        if data.get("radical_basis") is not None
        else None,
    )
    A = validate_algebra(pres, label=os.path.basename(path))
    # the first algebra stored for these bytes wins, so threads that both
    # missed return one object; changed bytes replace the entry
    with _algebra_cache_lock:
        got = _algebra_cache.get(key)
        if got is None or got[0] != raw:
            got = _algebra_cache[key] = (raw, A)
    return got[1]


def dump_algebra(A, path):
    consts = []
    for (i, j), terms in sorted(A.table.items()):
        for k, c in terms:
            consts.append([i, j, k, A.field.render(c)])
    data = {
        "field": A.field.spec_string(),
        "dim": A.dim,
        "labels": list(A.basis_labels),
        "unit": [A.field.render(x) for x in A.unit],
        "struct_consts": consts,
    }
    if A.idempotents is not None:
        data["idempotents"] = [[A.field.render(x) for x in e] for e in A.idempotents]
    if A._declared_radical is not None:
        data["radical_basis"] = [[A.field.render(x) for x in v] for v in A._declared_radical]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)


def _label_actions(path, algebra, actions, dim):
    """dim x dim action matrices, one per basis element of the algebra, from
    {basis label: entries}; omitted labels act by zero."""
    if len(set(algebra.basis_labels)) != algebra.dim:
        raise ValidationError("algebra labels must be unique for module files")
    field = algebra.field
    idx = {lbl: i for i, lbl in enumerate(algebra.basis_labels)}
    acts = [Matrix.zero(field, dim, dim) for _ in range(algebra.dim)]
    for lbl, entries in actions.items():
        if lbl not in idx:
            raise ValidationError(f"{path}: unknown basis label {lbl!r}")
        acts[idx[lbl]] = _entries_to_matrix(field, entries, dim, dim)
    return acts


def load_module(path, algebra=None):
    data = _read(path)
    if algebra is None:
        if "algebra_ref" not in data:
            raise ValidationError(f"{path}: module file has no algebra_ref")
        algebra = load_algebra(_resolve(path, data["algebra_ref"]))
    acts = _label_actions(path, algebra, data.get("actions", {}), data["dim"])
    return validate_module(acts, data["side"], algebra, label=os.path.basename(path))


def dump_module(m, path, algebra_ref):
    data = {
        "algebra_ref": algebra_ref,
        "side": m.side,
        "dim": m.dim,
        "actions": {
            m.algebra.basis_labels[i]: matrix_to_entries(m.actions[i])
            for i in range(m.algebra.dim)
            if not m.actions[i].is_zero()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)


def load_quiver(path):
    data = _read(path)
    arrows = [(a["name"], a["src"], a["tgt"]) for a in data["arrows"]]
    return Quiver(data["vertices"], arrows, data.get("relations", ()))


def load_bimodule(path):
    data = _read(path)
    A = load_algebra(_resolve(path, data["A_ref"]))
    B = load_algebra(_resolve(path, data["B_ref"]))
    dim = data["dim"]
    lacts = _label_actions(path, A, data.get("left_actions", {}), dim)
    racts = _label_actions(path, B, data.get("right_actions", {}), dim)
    return validate_bimodule(A, B, lacts, racts, label=os.path.basename(path))


def load_triple(path):
    """TripleModule from a triple file; T2 parents are built when A_ref and
    B_ref coincide and no bimodule is given."""
    data = _read(path)
    A = load_algebra(_resolve(path, data["A_ref"]))
    B = load_algebra(_resolve(path, data["B_ref"]))
    if data.get("bimodule_ref"):
        bim = load_bimodule(_resolve(path, data["bimodule_ref"]))
        parent = build_triangular(A, B, bim)
    else:
        if A is not B:
            raise ValidationError("triple without bimodule_ref needs A_ref == B_ref")
        parent = t2_algebra(A)
    X = load_module(_resolve(path, data["X_ref"]), algebra=A)
    Y = load_module(_resolve(path, data["Y_ref"]), algebra=B)
    nM = parent.nM
    pure_cols = nM * Y.dim
    entries = data["phi"]
    ncols = data.get("phi_cols")
    if ncols is None:
        ncols = Y.dim if parent.is_t2 else pure_cols
    if parent.is_t2 and ncols == Y.dim and Y.dim != pure_cols:
        return make_triple(parent, X, Y, _entries_to_matrix(A.field, entries, X.dim, Y.dim))
    if ncols != pure_cols:
        raise ValidationError("phi_cols must be Y.dim (T2 map form) or dim M * Y.dim")
    L = _entries_to_matrix(A.field, entries, X.dim, pure_cols)
    phi_matrix = pure_tensor_phi(parent, Y, L, "phi does not factor through the tensor relations")
    return make_triple(parent, X, Y, phi_matrix)


def load_rep(path):
    data = _read(path)
    A = load_algebra(_resolve(path, data["algebra_ref"]))
    quiver = load_quiver(_resolve(path, data["quiver_ref"]))
    parent = build_tensor(A, quiver)
    mods = {}
    for v in quiver.vertices:
        ref = data["vertices"][str(v)] if str(v) in data["vertices"] else data["vertices"][v]
        mods[v] = load_module(_resolve(path, ref), algebra=A)
    maps = {}
    for n, s, t in quiver.arrows:
        entries = data["arrows"][n]
        maps[n] = ModuleMap(
            mods[s], mods[t],
            _entries_to_matrix(A.field, entries, mods[t].dim, mods[s].dim),
        )
    return QuiverRep(parent, mods, maps)
