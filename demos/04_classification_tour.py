"""Classification tour of the built-in catalog.

A unit field xi is trans-Sasakian exactly when its congruence is geodesic
and shear-free; rho = beta + i alpha then carries the type, and the
subclasses are read off from which of alpha, beta vanish or are constant.
"""

from np3kit import catalog
from np3kit.classify import classify, einstein_check
from np3kit.frame import default_samples
from np3kit.suites import run_suites

print(f"{'entry':18s} {'verdict':16s} {'alpha (mean+-dev)':24s} beta (mean+-dev)")
for name in catalog.names():
    spec = catalog.get_spec(name)
    cls = classify(spec)
    am, ad = cls.alpha_summary
    bm, bd = cls.beta_summary
    print(f"{name:18s} {cls.verdict:16s} {am:+.4f} +- {ad:.1e}     {bm:+.4f} +- {bd:.1e}")

print("\nts suite on example2 (worst over 100 pts; the curvature identities are")
print("np3kit.classify.ts_identity_forms):")
spec = catalog.get_spec("example2")
for check in run_suites(spec, ["ts"], default_samples(spec, 100, seed=0))["ts"]:
    status = "pass" if check["pass"] else "FAIL"
    print(f"  {check['name']:27s} {check['max_residual']:.2e}  {status}")

print("\nmax |sigma| over the samples (zero iff shear-free, i.e. a conformal foliation):")
for name in ("example1", "sol"):
    print(f"  {name:10s} {classify(catalog.get_spec(name)).residuals['max_abs_sigma']:.3f}")
print("  (Sol's vertical field has shear -1)")

print("\nEinstein checks:")
for name in ("kenmotsu", "sasakian", "flat_cosymplectic"):
    ev = einstein_check(catalog.get_spec(name))
    print(f"  {name:18s} is_einstein={ev.is_einstein}  a={ev.a:+.3f}")
