"""The expression layer: parse, differentiate exactly, evaluate.

Everything downstream (frames, curvature, spin coefficients) is built from
these little ASTs, so derivatives are exact and the only numerical error
anywhere is roundoff.  Parsing, like every constructor, folds constants and
the 0/1 identities as it builds, so a derivative prints already folded.
``eval_forms`` evaluates a form at (N,3) points; one point is a batch of one.
"""

import numpy as np

from np3kit.cexpr import eval_forms
from np3kit.expr import differentiate, parse, unparse

f = parse("exp(2*x3)/x1 + x3^2/2")
print("f          =", unparse(f))
print("f(2,0,1)   =", eval_forms(f, [(2.0, 0.0, 1.0)])[0])

df3 = differentiate(f, 3)
print("df/dx3     =", unparse(df3))
print("at (2,0,1) =", eval_forms(df3, [(2.0, 0.0, 1.0)])[0])

# exactness vs a central difference
h = 1e-6
above, below = eval_forms(f, [(2, 0, 1 + h), (2, 0, 1 - h)])
cd = (above - below) / (2 * h)
print("central difference:", cd, " (agrees to O(h^2))")

# unknown identifiers are parameters, bound at evaluation
g = parse("a*sin(x1) + b")
print("\ng          =", unparse(g))
print("g(pi/2,.,.) with a=2, b=1:", eval_forms(g, [(np.pi / 2, 0, 0)], {"a": 2, "b": 1})[0])

# vectorized evaluation over many points at once
pts = np.array([[1.0, 0, 0.5], [2.0, 0, 1.0], [4.0, 0, -1.0]])
print("\nf over points:", eval_forms(f, pts))
