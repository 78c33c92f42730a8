"""Result checks that do not trust the code that produced the result.

Each check either recomputes a quantity by another route (Ext witnesses
through the Ext-Tor adjunction, Hom dimensions through both Hom routes and
Ext^0) or tests a property the mathematics requires (a certificate
intertwines every basis action and is invertible, d o d = 0).  Products and
ranks are computed here, on plain lists, without monomod's linalg.

A failed check raises CheckFailed; the workload records it and the run is
reported as not correct.
"""

from fractions import Fraction


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact arithmetic on lists of rows, independent of monomod.linalg


def _modulus(field):
    return field.p if field.kind == "Fp" else None


def rows_of(matrix):
    return [list(r) for r in matrix.rows]


def matmul(field, a, b, inner):
    """a (n x inner) times b (inner x m), both lists of rows."""
    p = _modulus(field)
    ncols = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [0] * ncols
        for k in range(inner):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(ncols):
                    y = brow[j]
                    if y:
                        acc[j] += x * y
        out.append([v % p for v in acc] if p else acc)
    return out


def is_zero(rows):
    return not any(x for r in rows for x in r)


def rank(field, rows):
    """Rank of a list of rows by plain Gaussian elimination."""
    p = _modulus(field)
    work = [[x % p for x in r] if p else [Fraction(x) for x in r] for r in rows]
    work = [r for r in work if any(r)]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        inv = pow(prow[c], p - 2, p) if p else 1 / prow[c]
        for row in work[r + 1:]:
            f = row[c] * inv
            if f:
                for j in range(c, ncols):
                    if prow[j]:
                        row[j] = (row[j] - f * prow[j]) % p if p else row[j] - f * prow[j]
        r += 1
        if r == len(work):
            break
    return r


def columns_rank(field, matrices):
    """Rank of the union of the columns of several same-height matrices."""
    cols = []
    for m in matrices:
        for j in range(m.ncols):
            cols.append([m.rows[i][j] for i in range(m.nrows)])
    return rank(field, cols)


def parse_entries(field, payload):
    """Rows of a matrix rendered by monomod's JSON form {rows, cols, entries}."""
    rows = [[0] * payload["cols"] for _ in range(payload["rows"])]
    for r, c, text in payload["entries"]:
        rows[r][c] = int(text) % field.p if field.kind == "Fp" else Fraction(text)
    return rows


# ---------------------------------------------------------------------------
# certificates and witnesses


def check_iso_certificate(rows, source, target):
    """rows (target.dim x source.dim) is an isomorphism of modules."""
    field = source.field
    n = source.dim
    require(target.dim == n, f"certificate between dims {n} and {target.dim}")
    require(len(rows) == n and all(len(r) == n for r in rows),
            "certificate is not square of the module dimension")
    for i in range(source.algebra.dim):
        lhs = matmul(field, rows, rows_of(source.actions[i]), n)
        rhs = matmul(field, rows_of(target.actions[i]), rows, n)
        require(lhs == rhs, f"certificate does not intertwine basis element {i}")
    require(rank(field, rows) == n, "certificate is not invertible")


def check_verdict_certificate(verdict):
    """A `holds` verdict whose certificate holds isomorphisms is checked."""
    from monomod import ModuleMap

    if verdict.status != "holds":
        return
    cert = verdict.certificate
    maps = []
    if isinstance(cert, ModuleMap):
        maps.append(cert)
    elif isinstance(cert, dict) and isinstance(cert.get("isomorphism"), ModuleMap):
        maps.append(cert["isomorphism"])
    for f in maps:
        check_iso_certificate(rows_of(f.matrix), f.source, f.target)


def check_ext_witness(module, witness):
    """Re-derive a first nonzero Ext^i(M, A) through Ext^i(M, A) = D Tor_i(D(A), M)
    (left M; for right M, Tor_i(M, D(A_A)))."""
    from monomod import k_dual, regular_modules, tor_dims

    degree, ext_dim = witness["degree"], witness["ext_dim"]
    left_reg, right_reg = regular_modules(module.algebra)
    if module.side == "left":
        tors = tor_dims(k_dual(left_reg), module, degree)
    else:
        tors = tor_dims(module, k_dual(right_reg), degree)
    require(tors[degree] == ext_dim,
            f"Ext witness dim {ext_dim} at degree {degree}, Tor gives {tors[degree]}")
    require(all(t == 0 for t in tors[1:degree]),
            f"Ext witness degree {degree} is not the first: Tor dims {tors}")
    return tors


def check_semi_gp(module, verdict):
    if verdict.status == "fails" and "degree" in verdict.witness:
        check_ext_witness(module, verdict.witness)
    check_verdict_certificate(verdict)


def check_resolution(module, length):
    """resolve(...) certificates, then d o d = 0 by our own product."""
    from monomod import resolve

    res = resolve(module, length)
    res.check_certificates()
    field = module.field
    maps = [res.augmentation] + list(res.differentials)
    for outer, inner in zip(maps, maps[1:]):
        prod = matmul(field, rows_of(outer.matrix), rows_of(inner.matrix), outer.matrix.ncols)
        require(is_zero(prod), "consecutive differentials do not compose to zero")
    require(rank(field, rows_of(res.augmentation.matrix)) == module.dim,
            "augmentation is not surjective")
    return res


def check_hom_dims(m, n):
    """dim Hom(m, n) agrees between both Hom routes and Ext^0."""
    from monomod import ext_dims
    from monomod.homology import hom_space_via_presentation
    from monomod.modules import hom_space_direct

    field = m.field

    def span_dim(mats):
        return rank(field, [[x for r in F.rows for x in r] for F in mats])

    direct = span_dim(hom_space_direct(m, n))
    via_presentation = span_dim(hom_space_via_presentation(m, n))
    ext0 = ext_dims(m, n, 0).dims[0]
    require(direct == via_presentation == ext0,
            f"Hom dims disagree: direct {direct}, presentation {via_presentation}, Ext^0 {ext0}")
    return direct


def check_cli_repeat(first, second):
    """Two calls of cli.main with the same arguments: exit 0, same bytes."""
    import json

    rc1, out1 = first
    rc2, out2 = second
    require(rc1 == 0, f"cli exit code {rc1}")
    require(rc2 == 0, f"cli exit code {rc2} on the repeat call")
    require(out1 == out2, "cli output differs between two calls with the same seed")
    payload = json.loads(out1)
    statuses = [claim["status"] for claim in payload["claims"]]
    require(statuses and all(st == "pass" for st in statuses),
            f"cli claims do not all pass: {statuses}")
    require(payload["summary"] == {"pass": len(statuses), "fail": 0, "unknown": 0},
            f"cli summary {payload['summary']} does not match its claims")
    return payload
