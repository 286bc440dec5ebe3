"""Monte-Carlo risk of the selection estimator across sample sizes.

For each n on a grid, draws a fresh rank-k truth, runs the full
estimation pipeline, and records the exact squared Hellinger distance of
the selected density to the truth. The normalized column divides by the
k * 2p * log(n) / n benchmark; the fitted log-log slope should sit near -1.

The same experiment is available from the command line:
    detproc risk-curve --config cfg.json --out risk.csv

Run: python demos/05_risk_curve.py   (about 2 s)
"""
from detproc import RiskCurveConfig, run_risk_curve

cfg = RiskCurveConfig(p=8, k=2, n_grid=(100, 300, 1000, 3000),
                      replications=50, seed=4)
print(f"p={cfg.p}, k={cfg.k}, {cfg.replications} replications per n")

result = run_risk_curve(cfg)
print(f"{'n':>6} {'mean h^2':>12} {'bound':>10} {'normalized':>12}")
for row in result.rows:
    print(f"{row.n:>6} {row.empirical_mean_h2:>12.3e} "
          f"{row.oracle_bound:>10.3e} {row.normalized:>12.5f}")
print(f"\nfitted log-log slope: {result.slope:.3f} (expect about -1)")
