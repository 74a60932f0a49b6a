"""Box-ball automaton with a finite carrier: ASCII evolutions.

A cluster of k balls with carrier capacity 1 crawls at speed 1/(k) per
sweep... almost: with box capacity 3 the 3-ball cluster advances one box
every three sweeps, while a lone ball always moves at speed 1.  The second
run stages a rear-end collision: the fast ball is absorbed and a ball is
re-emitted ahead of the cluster.
"""

from solitonlab import BBSCState, detect_bbsc_solitons, evolve_bbsc, render_ascii

print("free flight: cb=3, cc=1, clusters of 3 and 1")
history = evolve_bbsc(BBSCState((3, 0, 0, 0, 1), c_box=3, c_carrier=1), 9)
print(render_ascii(history))
for track in detect_bbsc_solitons(history):
    print(f"  cluster of {track.sizes[0]}: speed {track.speed}")

print("\nrear-end collision: the single ball starts behind")
history = evolve_bbsc(BBSCState((1, 0, 0, 3, 0, 0, 0, 0, 0, 0),
                                c_box=3, c_carrier=1), 12)
print(render_ascii(history))
tracks = detect_bbsc_solitons(history)
for track in tracks:
    span = f"t {track.first_t}..{track.last_t}"
    print(f"  cluster of {track.sizes[0]} ({span}): lifetime speed {track.speed}")
print("  (during the merge only one cluster is visible; a single ball"
      " reappears ahead, one box per step)")
