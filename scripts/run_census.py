"""Exhaustive triple census over all n-chord diagrams.

    python scripts/run_census.py            # the 3-chord theorem setting
    python scripts/run_census.py --chords 4

At n=3 the counts state the rearrangement theorem's population: 960
diagrams, 192 movable configurations, 32 classes up to rotation.
"""

from __future__ import annotations

import argparse
import time

from gaussdiag import census_movable_triples


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chords", type=int, default=3,
                        help="chords per diagram (3..5, default 3)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    t0 = time.time()
    res = census_movable_triples(args.chords)
    elapsed = time.time() - t0
    print(f"chords                    {res.chords}")
    print(f"diagrams                  {res.total}")
    print(f"matched configurations    {res.matched}")
    print(f"movable configurations    {res.movable}")
    print(f"movable up to rotation    {res.movable_up_to_rotation}")
    print(f"elapsed                   {elapsed:.2f}s")


if __name__ == "__main__":
    main()
