"""How speed and size depend on the wavenumber, in all three regimes.

The closed forms make the pattern visible: amplitude always dips to zero at
the interval midpoint; speed is extremal there, at
(1 + alpha - beta) / (1 + beta - alpha): a maximum below 1 when
beta > alpha, a minimum above 1 when alpha > beta, and identically 1 when
they coincide.  The scan() report checks the monotone branches on a fine
grid.
"""

import json
from fractions import Fraction

from solitonlab import SystemParams, amplitude, scan_monotonicity, velocity

REGIMES = [
    ("beta > alpha (subluminal)", SystemParams(Fraction(5, 6), Fraction(14, 15))),
    ("alpha > beta (superluminal)", SystemParams(Fraction(14, 15), Fraction(5, 6))),
    ("alpha = beta (frozen)", SystemParams(Fraction(5, 6), Fraction(5, 6))),
]

for label, params in REGIMES:
    span = params.alpha + params.beta - 1
    print(f"{label}:  p in (0, {span})")
    print("   p/span    velocity   amplitude")
    for k in range(1, 10):
        p = span * k / 10
        print(f"   {k/10:.1f}      {velocity(params, p):8.4f}   "
              f"{amplitude(params, p):8.4f}")
    report = scan_monotonicity(params, 101)
    print("  scan:", json.dumps(report), "\n")
