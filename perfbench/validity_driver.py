"""Driver for the LR validity Monte Carlo, which has no command-line entry point.

Runs ``bellcert.sim.validity_exceedance`` on the three local-realistic sources
of the package's acceptance criterion 7 (uniform outcomes, the all-zero
deterministic strategy, and a Dirichlet(0.5) strategy mixture drawn with seed
7) at 50 trials, block 10, all protocols and the default 300-iteration budget,
and prints the exceedance table as one JSON line.

    PYTHONPATH=src python3 perfbench/validity_driver.py --seeds 100 --base-seed 0
"""
from __future__ import annotations

import argparse
import json
import sys

ALPHAS = (0.5, 0.1, 0.02)
N_TRIALS = 50
BLOCK = 10
MIXTURE_SEED = 7


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True, help="Monte Carlo runs per source")
    parser.add_argument("--base-seed", type=int, required=True, help="sampling seed of the first run")
    args = parser.parse_args(argv)

    import numpy as np

    from bellcert import scenario, lrpolytope, sim

    chsh = scenario.Scenario(2, 2, 2)
    rng = np.random.default_rng(MIXTURE_SEED)
    sources = {
        "uniform-outcomes": scenario.uniform_outcome_distribution(chsh),
        "boundary-strategy": lrpolytope.strategy_distribution(chsh, np.zeros((2, 2), dtype=int)),
        "random-mixture": lrpolytope.mixture_distribution(chsh, rng.dirichlet(np.full(16, 0.5))),
    }
    table = {}
    for name, q_lr in sources.items():
        rates = sim.validity_exceedance(
            q_lr, n_seeds=args.seeds, n_trials=N_TRIALS, alphas=ALPHAS, block_size=BLOCK, base_seed=args.base_seed
        )
        table[name] = {p: {str(a): r for a, r in by_alpha.items()} for p, by_alpha in rates.items()}
    print(json.dumps({"seeds": args.seeds, "base_seed": args.base_seed, "exceedance": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
