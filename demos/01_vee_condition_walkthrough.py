"""Walk through the vee-condition machinery on a small configuration.

A configuration is a finite set of covectors with rational multiplicities.
For each covector alpha, the others fall into "series" (maximal strings
stepping by integer multiples of alpha); the configuration is a trigonometric
vee-system when every series sum of c_b * alpha(b-vee) * (alpha wedge b)
vanishes.  Everything below is exact rational arithmetic.
"""

from fractions import Fraction as Q

from trigvee import (
    alpha_series,
    collinear_classes,
    g1,
    g2,
    lambda_sq,
    vee_check,
)
from trigvee.configuration import configuration
from trigvee.families import family_spec, generate

# the positive half of BC2 with multiplicities r=s=q=1
bc2 = generate(family_spec("BC", 2, r=1, s=1, q=1))
print("covectors:", [tuple(map(str, a)) for a in bc2.covectors])
print("collinearity classes:",
      [cls.indices for cls in collinear_classes(bc2)])

# series seen from the covector e1 - e2 (index 5): {e1, e2} step by alpha,
# and {2e1, 2e2, e1+e2} (note 2e1 - (e1+e2) = alpha)
dec = alpha_series(bc2, 5)
print("series of e1-e2:", dec.series)

report = vee_check(bc2)
print("is a vee-system:", report.is_vee)
print("lambda^2 =", report.lambda_sq)

# the two canonical forms on the wedge square of V are 1x1 matrices here
print("G1 =", g1(bc2), " G2 =", g2(bc2), " ratio*4 =", Q(4) * g1(bc2)[0][0] / g2(bc2)[0][0])

# a three-covector configuration that is NOT a vee-system
bad = configuration(2, [[1, 0], [0, 1], [1, 2]], [1, 1, 1])
bad_report = vee_check(bad, probe_flips=0)
print("\ncounterexample is a vee-system:", bad_report.is_vee)
print("nonzero series residuals:",
      [(r.alpha, r.members, str(r.residual)) for r in bad_report.series_residuals if r.residual])
