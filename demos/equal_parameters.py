"""When the two map parameters coincide, the dynamics degenerates to a pure
exchange: one step shifts every profile one site right, so all speeds are 1
and solitons keep their spacing forever.  The trough tracker takes the
system's (alpha, beta), so its jump gate is sized for that speed of 1.
"""

from fractions import Fraction

from solitonlab import (
    SystemParams,
    evolve_gkdv,
    measure_velocity,
    sample_x_float,
    track_troughs,
)

params = SystemParams(Fraction(5, 6), Fraction(5, 6))

row = [Fraction(1), Fraction(5, 4), Fraction(2, 3), Fraction(1), Fraction(1)]
x_next = evolve_gkdv(row, params, 1).xs[1]
print("one sweep with alpha = beta:")
print("  before:", [str(v) for v in row])
print("  after: ", [str(v) for v in x_next])
print("  (everything moved one box to the right; y = 1 refilled the edge)\n")

solitons = [(Fraction(1, 15), Fraction(-20)), (Fraction(1, 30), Fraction(-1, 60))]
rows = sample_x_float(params, solitons, (0, 40), (-10, 50))
tracks = track_troughs(params, rows, n_lo=-10, t0=0)
print(f"two-soliton field, {len(tracks)} tracks measured:")
for tr in tracks:
    others = [o for o in tracks if o is not tr]
    v = measure_velocity(tr, others)
    print(f"  from n={tr.positions[0]:+6.2f}: speed {v:.10f}")
gap0 = abs(tracks[0].positions[0] - tracks[1].positions[0])
gap1 = abs(tracks[0].positions[-1] - tracks[1].positions[-1])
print(f"separation: {gap0:.3f} at t=0, {gap1:.3f} at t=40 (no interaction)")
