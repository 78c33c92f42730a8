"""First steps: algebras from structure constants, modules, Hom spaces.

Builds k[x]/(x^2) and the six-dimensional local algebra Lambda(q), inspects
radicals and socles, and solves a Hom space exactly.
"""

from fractions import Fraction

from monomod import (
    AlgebraPresentation,
    QQ,
    hom_space,
    multiply,
    radical_and_socle,
    regular_modules,
    validate_algebra,
)
from monomod.gallery import lambda_q, module_M1qc

# --- a tiny algebra by hand: k[x]/(x^2) on the basis {1, x} ---------------
pres = AlgebraPresentation(
    QQ, 2, ["1", "x"], unit=[1, 0],
    struct_consts=[(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],  # 1*1, 1*x, x*1
    idempotents=[[1, 0]],
)
A = validate_algebra(pres, label="k[x]/(x^2)")
print("validated:", A)

left, right = regular_modules(A)
print("left action of x on the regular module:")
for row in left.action(1).rows:
    print("   ", [str(v) for v in row])

rs = radical_and_socle(A)
print("radical basis:", [[A.field.render(v) for v in b] for b in rs["radical_basis"]])
print("socle basis:  ", [[A.field.render(v) for v in b] for b in rs["socle_basis"]])

# --- the six-dimensional local algebra with parameter q ------------------
L = lambda_q(QQ, Fraction(2))
print("\n", L, "basis:", L.basis_labels)
x, y, z = (L.element_by_label(s) for s in "xyz")
print("x*y =", multiply(x, y), "   z*y =", multiply(z, y), "   y*z =", multiply(y, z))
print("radical dimension:", len(L.radical_basis()))

# --- a three-dimensional module and its Hom space into the algebra -------
M = module_M1qc(L, Fraction(0))          # basis {1~, x~, z~}
reg = regular_modules(L)[0]
H = hom_space(M, reg)
print("\ndim Hom(M, A) =", len(H))
for f in H:
    print("  f(1~) =", [L.field.render(v) for v in f.matrix.column(0)])
