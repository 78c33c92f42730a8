"""Seeded random generators for modules, maps and triples.

Random modules are quotients of random sums of indecomposable projectives by
randomly generated submodules, so every sample is a valid module with a
nontrivial radical structure.  All randomness flows through a caller-owned
random.Random instance for reproducibility.
"""

from .algebra import regular_modules
from .linalg import combination
from .modules import (
    ModuleMap,
    direct_sum,
    hom_space,
    quotient_module,
    submodule_generated,
    zero_module,
)
from .triangular import t2_triple


def _random_scalar(field, rng, lo=-2, hi=2):
    return field.of(rng.randint(lo, hi))


def random_vector(field, rng, n):
    return [_random_scalar(field, rng) for _ in range(n)]


def random_module(A, rng, side="left", max_dim=8, allow_zero=True):
    """A random quotient of a small sum of projectives, dim <= max_dim."""
    if allow_zero and rng.random() < 0.06:
        return zero_module(A, side)
    reg = regular_modules(A)[0 if side == "left" else 1]
    if A.idempotents is not None:
        projs = []
        for _ in range(rng.randint(1, 2)):
            e = A.idempotents[rng.randrange(len(A.idempotents))]
            P, _ = submodule_generated(reg, [list(e)])
            projs.append(P)
        if len(projs) == 1:
            big = projs[0]
        else:
            big, _i, _p = direct_sum(projs)
    else:
        big = reg
    for _ in range(24):
        nvecs = rng.randint(1, 3)
        vecs = [random_vector(A.field, rng, big.dim) for _ in range(nvecs)]
        sub, incl = submodule_generated(big, vecs)
        quot, _proj, _sec = quotient_module(big, incl.matrix, label="rand")
        if quot.dim <= max_dim:
            return quot
    # fall back to a simple-ish quotient: kill the whole radical part
    rad = A.radical_basis()
    sub, incl = submodule_generated(
        big, [big.action_of_vector(jv).column(j) for jv in rad for j in range(big.dim)]
    ) if rad else (None, None)
    if incl is not None:
        quot, _proj, _sec = quotient_module(big, incl.matrix, label="rand")
        if quot.dim <= max_dim:
            return quot
    return zero_module(A, side)


def random_map(rng, m, n, lo=-2, hi=2):
    """A random combination of a Hom-space basis."""
    H = hom_space(m, n)
    coeffs = [_random_scalar(m.field, rng, lo, hi) for _ in H]
    out = combination(m.field, coeffs, [h.matrix for h in H], n.dim, m.dim)
    return ModuleMap(m, n, out, check=False)


def random_submodule(m, rng, n_gens=None):
    """Submodule generated by a few random vectors; (sub, inclusion)."""
    if m.dim == 0:
        return submodule_generated(m, [])
    if n_gens is None:
        n_gens = rng.randint(1, 2)
    vecs = [random_vector(m.field, rng, m.dim) for _ in range(n_gens)]
    return submodule_generated(m, vecs)


def random_t2_triple(parent, rng, max_dim=8):
    """Random (X; Y)_phi over a T2 parent with a random A-map phi: Y -> X."""
    A = parent.A
    X = random_module(A, rng, "left", max_dim)
    Y = random_module(A, rng, "left", max_dim)
    phibar = random_map(rng, Y, X)
    return t2_triple(parent, X, Y, phibar)
