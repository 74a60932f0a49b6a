"""The rational lattice map degenerates to the box-ball carrier rule.

Put 1 - beta = exp(-c_box/eps) and 1 - alpha = exp(-c_carrier/eps), so that
alpha and beta tend to 1 inside the soliton regime, and x = exp(-u/eps),
y = exp(-v/eps) with u a box and v the carrier load entering it.  As
eps -> 0, products turn into sums and sums into min, and -eps log x' of the
rational map becomes the box u' after one automaton sweep.  This script
evaluates the map at a small eps on an actual automaton run and measures how
fast the gap closes.
"""

import math
from itertools import chain, repeat

from solitonlab import BBSCState, bbsc_sweep, evolve_bbsc, ud_limit_check

state = evolve_bbsc(BBSCState((3, 0, 0, 0, 1, 0), c_box=3, c_carrier=1), 3)[-1]
nxt, loads = bbsc_sweep(state)

eps = 0.05
one_m_beta = math.exp(-state.c_box / eps)
one_m_alpha = math.exp(-state.c_carrier / eps)
print(f"one sweep, c_box={state.c_box}, c_carrier={state.c_carrier}, eps={eps}")
print(" box  u  v   -eps log x'  u'")
for k, (u, v, u2) in enumerate(zip(chain(state.u, repeat(0)), loads, nxt.u)):
    x, y = math.exp(-u / eps), math.exp(-v / eps)
    x2 = y * (one_m_beta + (1 - one_m_beta) * x * y) / (one_m_alpha + (1 - one_m_alpha) * x * y)
    print(f" {k:>3}  {u}  {v}   {0.0 - eps * math.log(x2):>11.6f}  {u2}")

print("\n eps      max |rational - automaton|")
for e, gap in ud_limit_check(state, [1.0, 0.1, 0.01, 0.001]):
    print(f" {e:<8g} {gap:.6e}")
print(f" (the residue per unit eps approaches log 2 = {math.log(2):.4f}"
      " at min ties)")
