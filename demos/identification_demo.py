"""Identification demos: a scalar parameter family and a reduced benchmark.

Part 1 fits a single unknown entry of the triangular transition matrix by
prediction error. Part 2 runs the predictor-vs-generator identification
comparison on the documented random 10-state system at reduced scale and
prints the summary table.
"""

import numpy as np

from ffest import (
    OptimizerConfig,
    SimConfig,
    SingleEntryParameterization,
    assemble,
    benchmark,
    identify,
    random_benchmark_system,
    simulate,
    trajectory_rng,
)
from ffest.cli import example_triangular_model


def scalar_family():
    base = example_triangular_model()
    theta_true = float(base.A12[0, 0])
    par = SingleEntryParameterization(base, block="A12", index=(0, 0))
    joint = assemble(base)

    print("scalar family: A12 entry of the 2-state triangular model free")
    print(f"  true value: {theta_true:.4f}")
    estimates = []
    for seed in range(5):
        traj = simulate(joint, SimConfig(N=1000, seed=seed),
                        rng=trajectory_rng(seed))
        fit = identify(par, traj,
                       opt=OptimizerConfig(restarts=2, maxiter=200,
                                           seed=seed))
        estimates.append(fit.theta[0])
        print(f"  seed {seed}: theta* = {fit.theta[0]:.4f} "
              f"(training MSE {fit.training_mse:.4f})")
    print(f"  median over seeds: {np.median(estimates):.4f}")


def reduced_benchmark():
    print("\nreduced benchmark (M = 3, N in {150, 1000}):")
    system = random_benchmark_system()
    result = benchmark(system, M=3, seed=0)
    for (case, N), agg in sorted(result.aggregate.items()):
        if agg is None:
            continue
        print(f"  {case:>13} N={N:<5} val MSE {agg['validation_mse']:7.3f}"
              f"  mean VAF {agg['mean_vaf']:6.2f}%")


if __name__ == "__main__":
    scalar_family()
    reduced_benchmark()
