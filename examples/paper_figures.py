"""Regenerate every table and figure of the paper in one run.

Walks the experiment registry in paper order, prints each reproduced
artifact as a text table next to the paper's anchor values, and writes
everything to ``--out`` (default ``examples/paper_figures_output.txt``).

Run:  python examples/paper_figures.py [--out PATH] [experiment-id ...]
"""

import argparse
import pathlib
import sys

from repro.experiments import run_all, run_experiment
from repro.experiments.registry import EXPERIMENTS


DEFAULT_OUT = pathlib.Path(__file__).parent / "paper_figures_output.txt"


def main(argv) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="experiment-id",
                        help="experiments to run (default: all)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"where the tables go (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    if args.ids:
        results = [run_experiment(eid) for eid in args.ids]
    else:
        print(f"running all {len(EXPERIMENTS)} experiments "
              f"({', '.join(EXPERIMENTS)}) ...\n")
        results = run_all()
    rendered = "\n\n".join(result.render() for result in results)
    print(rendered)
    args.out.write_text(rendered + "\n")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main(sys.argv[1:])
