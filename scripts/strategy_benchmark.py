#!/usr/bin/env python3
"""Compare heuristic and random candidate selection on synthetic repairs."""
import argparse

from bench import run_benchmark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument(
        "--show-trials", action="store_true", help="print one line per trial"
    )
    args = parser.parse_args()

    result = run_benchmark(trials=args.trials, seed=args.seed)
    if args.show_trials:
        for trial in result.trials:
            print(
                f"family {trial.family_size:3d}  heuristic {trial.heuristic_calls:3d}  "
                f"random {trial.random_calls:3d}  {trial.template_text}"
            )
    print(result.summary())


if __name__ == "__main__":
    main()
