"""Single-hop energy per bit across constellation sizes and distances.

Reproduces the single-hop study: under a fixed 100 mW transmit power the
best constellation shrinks as the hop gets longer, and the adaptive
(variable) power policy beats fixed power everywhere.
"""

from mqamlink import RunConfig, parse_config, run_singlehop

# the reference grids: b = 2..10, d = 5..100 m
B_GRID = RunConfig().b_grid
D_GRID = RunConfig().d_grid_m


def table(document, label):
    rows = run_singlehop(parse_config(document))
    print(f"{label}: energy per bit (dBmJ), * marks the per-distance optimum")
    print("   b  " + "".join(f"{f'd={d:g} m':>12}" for d in D_GRID))
    for b in B_GRID:
        cells = []
        for d in D_GRID:
            row = next(r for r in rows if r.b == b and r.d_m == d)
            mark = "*" if row.is_argmin else " "
            cells.append(f"{row.energy_dbmj:10.2f}{mark} ")
        print(f"  {b:>2}  " + "".join(cells))
    print()
    return rows


fixed_rows = table("policy = fixed\npt_mw = 100\nber_target = 1e-4\n",
                   "fixed P_t = 100 mW, BER target 1e-4")
variable_rows = table("policy = variable\n", "variable P_t (threshold-tracking)")

print("per-distance optima, fixed vs variable:")
for d in D_GRID:
    best_fixed = min(
        (r for r in fixed_rows if r.d_m == d), key=lambda r: r.energy_j_per_bit
    )
    best_variable = min(
        (r for r in variable_rows if r.d_m == d), key=lambda r: r.energy_j_per_bit
    )
    print(
        f"  d = {d:5.0f} m : fixed b={best_fixed.b} {best_fixed.energy_dbmj:7.2f} dBmJ | "
        f"variable b={best_variable.b} {best_variable.energy_dbmj:7.2f} dBmJ "
        f"(saves {best_fixed.energy_dbmj - best_variable.energy_dbmj:4.2f} dB)"
    )

print("\nlarge constellations win short hops (less on-air time), small ones")
print("win long hops (lower receive threshold, fewer retransmissions).")
