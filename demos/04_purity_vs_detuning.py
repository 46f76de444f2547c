"""Bright-state purity versus single-photon detuning.

At small detuning the bright dressed state carries a large excited-level
admixture and decoheres quickly; raising the detuning suppresses the
admixture as (Omega/Delta)^2 and the trajectory stays nearly pure.  Uses
the builtin sweep scenario through the same machinery as the command line.
"""

import tempfile

from threelevel.cli import load_config, run_sweep

cfg = load_config("purity_delta_fig4")
with tempfile.TemporaryDirectory() as out_dir:
    records = run_sweep(cfg, out_dir)
    print("bright-state trajectory at gamma_c * T = 0.05:")
    print(f"{'Delta*T':>9} {'min purity':>12} {'final purity':>13} "
          f"{'transfer':>9}")
    for record in records:
        delta = record.params["detuning.delta0"]
        s = record.summary
        print(f"{delta:9.0f} {s['purity_min']:12.4f} "
              f"{s['purity_final']:13.4f} {s['transfer_efficiency']:9.4f}")

print("\nthe same sweep is available from the shell:")
print("  threelevel --out-dir ./tables sweep purity_delta_fig4")
