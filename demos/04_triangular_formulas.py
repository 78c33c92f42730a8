"""The 2x2 triangular extension: triples, the dual bundle, and the
one-parameter family of non-monic double semi-Gorenstein-projectives.

Every t2_dual_bundle construction asserts, as exact matrix identities, that
the 2x2 formulas for the dual, the double dual and the canonical map agree
with the generic Hom-space constructions through the stored isomorphisms.
"""

import random
import time
from fractions import Fraction

from monomod import QQ, canonical_map, is_isomorphic, is_semi_gp, regular_modules
from monomod.gallery import f1_map, lambda_q, module_M1qc
from monomod.sampling import random_t2_triple
from monomod.triangular import (
    approximation_triple,
    is_monic_bimodule,
    t2_algebra,
    t2_dual_bundle,
    t2_triple,
)

L = lambda_q(QQ, 2)
T = t2_algebra(L)
print("2x2 extension of the local algebra: flat dim", T.flat.dim)

M = module_M1qc(L, Fraction(0))
Xc = t2_triple(T, regular_modules(L)[0], M, f1_map(M))
print("X(0) =", Xc, "flat dim", Xc.flatten().dim)

mono, wit = is_monic_bimodule(Xc)
print("monic:", mono, "| kernel witness:", [QQ.render(v) for v in wit])

t0 = time.time()
b = t2_dual_bundle(Xc)
print(f"dual bundle built and verified in {time.time() - t0:.1f}s")
print("dual triple dims:", (b.dual_triple.U.dim, b.dual_triple.V.dim))
print("double dual dims:", (b.double_dual_triple.X.dim, b.double_dual_triple.Y.dim))

flat = Xc.flatten()
print("flat semi-GP status:", is_semi_gp(flat, 6, seed=0).status,
      "(no witness through degree 6)")
print("double dual semi-GP:", is_semi_gp(b.double_dual_triple.flatten(), 6, seed=0).describe())

ap = approximation_triple(M, parent=T)
print("approximation pipeline reproduces X(0):",
      is_isomorphic(ap.flatten(), flat, seed=0).status)

# the structure theorems on random triples
rng = random.Random(5)
print("\nrandom triples: torsionless <=> monic and both components torsionless")
for i in range(5):
    t = random_t2_triple(T, rng, max_dim=4)
    bb = t2_dual_bundle(t)
    ph = canonical_map(t.flatten())
    lhs = ph.kernel_dim() == 0
    rhs = (t.phibar().is_injective()
           and canonical_map(t.X).kernel_dim() == 0
           and canonical_map(t.Y).kernel_dim() == 0)
    print(f"  sample {i}: X dim {t.X.dim}, Y dim {t.Y.dim}: {lhs} == {rhs}")
    assert lhs == rhs
