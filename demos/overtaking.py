"""The headline experiment: a small soliton outruns and passes a large one.

Samples x of the two-soliton field on a 61x121 window as floats, each the
correctly rounded value of the exact ratio, runs the blind trough tracker
over those rows, and compares what it measures with the closed-form speed
and amplitude laws.  The tracker reads the modes from nothing but the rows;
of the system it takes (alpha, beta), whose fastest speed sizes its jump
gate.
"""

from fractions import Fraction

from solitonlab import (
    SystemParams,
    amplitude,
    measure_velocity,
    overtake_report,
    sample_x_float,
    track_amplitude,
    track_troughs,
    velocity,
)

params = SystemParams(Fraction(5, 6), Fraction(14, 15))
solitons = [(Fraction(2, 15), Fraction(-1, 6)), (Fraction(1, 30), Fraction(-1, 30))]

print("closed forms:")
for p, _ in solitons:
    print(f"  p={p}: velocity {velocity(params, p):.6f}, "
          f"amplitude {amplitude(params, p):.6f}")

print("\nsampling t in [0, 60], n in [-30, 90]...")
rows = sample_x_float(params, solitons, (0, 60), (-30, 90))

tracks = track_troughs(params, rows, n_lo=-30, t0=0)
print(f"tracker found {len(tracks)} tracks:")
for tr in tracks:
    others = [o for o in tracks if o is not tr]
    print(f"  t {tr.first_t:>3}..{tr.last_t}: "
          f"starts n={tr.positions[0]:+7.2f}, ends n={tr.positions[-1]:+7.2f}, "
          f"v={measure_velocity(tr, others):.4f}, "
          f"W={track_amplitude(tr, others):.4f}")

report = overtake_report(tracks)
print(f"\ncrossing observed in-window: {report['crossing']}")
print(f"anomaly: {report['anomaly']}")
print("(the window opens mid-collision; the small soliton emerges ahead "
      "with the greater speed)")

# a sparse picture: trough positions every 6 steps ('#' deep, 'o' shallow)
print("\n n:  " + "".join("+" if n % 20 == 0 else "-" for n in range(-30, 91)))
for t_show in range(0, 61, 6):
    cells = [" "] * 121
    for ti, tr in enumerate(tracks):
        if tr.first_t <= t_show <= tr.last_t:
            pos = tr.position_at(t_show)
            idx = round(pos) + 30
            if 0 <= idx < 121:
                cells[idx] = "#o"[ti % 2]
    print(f"t={t_show:>2}  " + "".join(cells))
