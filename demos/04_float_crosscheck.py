"""Cross-check the exact verdicts against floating-point WDVV residuals.

The commutator identities F_i F_{N+1}^{-1} F_j = F_j F_{N+1}^{-1} F_i are
evaluated at seeded random points; genuine solutions sit at residuals around
machine precision, broken ones are many orders of magnitude above.
"""

from trigvee import lambda_sq, vee_check
from trigvee.configuration import configuration
from trigvee.families import family_spec, generate
from trigvee.wdvv import associativity_residual, wdvv_residual

for spec in [
    family_spec("BC", 3, r=1, s=1, q=1),
    family_spec("A", 4, t=2),
    family_spec("G2", p=1, q=1),
    family_spec("FourDim", r=1, s=4),
]:
    cfg = generate(spec)
    lam = lambda_sq(cfg)
    rep = wdvv_residual(cfg, lam, points=20, seed=42, tol=1e-8)
    arep = associativity_residual(cfg, lam, points=10, seed=42, tol=1e-8)
    print("%-10s exact vee: %-5s  wdvv residual %.2e  assoc residual %.2e" % (
        spec.family, vee_check(cfg, probe_flips=0).is_vee, rep.max_residual, arep.max_residual))

bad = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
rep = wdvv_residual(bad, 1, points=20, seed=42, tol=1e-8)
print("counterexample: exact vee:", vee_check(bad, probe_flips=0).is_vee,
      " wdvv residual %.2e (fails as it must)" % rep.max_residual)

cfg = generate(family_spec("BC", 2, r=1, s=1, q=1))
rep = wdvv_residual(cfg, lambda_sq(cfg) + 1, points=20, seed=42, tol=1e-8)
print("BC2 with perturbed lambda^2: residual %.2e (the constant matters)" % rep.max_residual)
