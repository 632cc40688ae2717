"""The expression layer: parse, differentiate exactly, evaluate.

Everything downstream (frames, curvature, spin coefficients) is built from
these little ASTs, so derivatives are exact and the only numerical error
anywhere is roundoff.  Parsing, like every constructor, folds constants and
the 0/1 identities as it builds, so a derivative prints already folded.
"""

import numpy as np

from np3kit.expr import differentiate, evaluate, evaluate_many, parse, unparse

f = parse("exp(2*x3)/x1 + x3^2/2")
print("f          =", unparse(f))
print("f(2,0,1)   =", evaluate(f, (2.0, 0.0, 1.0)))

df3 = differentiate(f, 3)
print("df/dx3     =", unparse(df3))
print("at (2,0,1) =", evaluate(df3, (2.0, 0.0, 1.0)))

# exactness vs a central difference
h = 1e-6
cd = (evaluate(f, (2, 0, 1 + h)) - evaluate(f, (2, 0, 1 - h))) / (2 * h)
print("central difference:", cd, " (agrees to O(h^2))")

# unknown identifiers are parameters, bound at evaluation
g = parse("a*sin(x1) + b")
print("\ng          =", unparse(g))
print("g(pi/2,.,.) with a=2, b=1:", evaluate(g, (np.pi / 2, 0, 0), {"a": 2, "b": 1}))

# vectorized evaluation over many points at once
pts = np.array([[1.0, 0, 0.5], [2.0, 0, 1.0], [4.0, 0, -1.0]])
print("\nf over points:", evaluate_many(f, pts))
