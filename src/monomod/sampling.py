"""Seeded random generators for modules, maps and triples.

Random modules are quotients of random sums P of projectives by submodules
generated by random vectors; over an algebra with a computable radical the
vectors lie in rad P, so P is the projective cover of the sample.  All
randomness flows through a caller-owned random.Random instance for
reproducibility.
"""

from .algebra import regular_modules
from .linalg import Matrix, SpanAccumulator, combination
from .modules import (
    ModuleMap,
    direct_sum,
    generated_span,
    hom_space,
    quotient_module,
    radical_image,
    submodule_generated,
    zero_module,
)
from .triangular import t2_triple


def _random_scalar(field, rng):
    return field.of(rng.randint(-2, 2))


def random_vector(field, rng, n):
    return [_random_scalar(field, rng) for _ in range(n)]


def random_module(A, rng, side="left", max_dim=8, allow_zero=True):
    """A random quotient of dimension at most max_dim of a sum P of one or
    two projectives Ae (of A itself when A declares no idempotents) by the
    submodule that one to three random vectors generate.  With allow_zero
    it is the zero module with probability 0.06, and never otherwise.

    Over an algebra with a computable radical the vectors are drawn inside
    rad P, so P is the projective cover of the sample, which is never zero;
    when no draw is small enough it is the smallest such quotient, the top
    of P.  Otherwise they are drawn anywhere in P, a draw that leaves zero
    is drawn again, and the last resort is P itself.  A ValueError says
    that not even that is small enough when allow_zero is False."""
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
    if A.has_radical():
        rad = radical_image(big)
        spanning = rad.basis_columns_matrix()
    else:
        rad = SpanAccumulator(A.field, big.dim)
        spanning = Matrix.identity(A.field, big.dim)
    for _ in range(24):
        nvecs = rng.randint(1, 3)
        vecs = [spanning.apply(random_vector(A.field, rng, spanning.ncols)) for _ in range(nvecs)]
        quot, _proj, _sec = quotient_module(big, None, label="rand",
                                            accumulator=generated_span(big, vecs))
        if 0 < quot.dim <= max_dim:
            return quot
    quot, _proj, _sec = quotient_module(big, None, label="rand", accumulator=rad)
    if 0 < quot.dim <= max_dim:
        return quot
    if allow_zero:
        return zero_module(A, side)
    raise ValueError(f"no nonzero quotient of a {big.dim}-dimensional projective has "
                     f"dimension at most {max_dim}")


def random_map(rng, m, n):
    """A random combination of a Hom-space basis, coefficients in -2..2."""
    H = hom_space(m, n)
    coeffs = [_random_scalar(m.field, rng) for _ in H]
    out = combination(m.field, coeffs, [h.matrix for h in H], n.dim, m.dim)
    return ModuleMap(m, n, out, check=False)


def random_submodule(m, rng):
    """Submodule generated by one or two random vectors; (sub, inclusion)."""
    if m.dim == 0:
        return submodule_generated(m, [])
    vecs = [random_vector(m.field, rng, m.dim) for _ in range(rng.randint(1, 2))]
    return submodule_generated(m, vecs)


def random_t2_triple(parent, rng, max_dim=8):
    """Random (X; Y)_phi over a T2 parent with a random A-map phi: Y -> X."""
    A = parent.A
    X = random_module(A, rng, "left", max_dim)
    Y = random_module(A, rng, "left", max_dim)
    phibar = random_map(rng, Y, X)
    return t2_triple(parent, X, Y, phibar)
