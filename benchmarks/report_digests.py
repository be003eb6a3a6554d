#!/usr/bin/env python3
"""Print a digest of every seeded benchmark report, to show that a change
keeps the reports byte-identical, or which of their counts it moves.

For each workload of ``perfbench/bench.py`` and each seed, every instance
that ``bench.setups`` makes is solved, reported and checked once through
``bench.run_op``, and one line is printed per instance:

    workload seed sha256 bytes iterations cases best_cut lower_bound certificates

where ``seed`` is the instance's own seed, ``sha256`` and ``bytes`` are
those of the report text, and the rest are ``bench.fingerprint``'s:
``iterations`` counts the multiplicative-weights steps of all its runs,
``cases`` their oracle cases (``1B:4,2B:200``; ``-`` for none),
``best_cut`` the exact sparsity of the best cut, ``lower_bound`` the
certified bound and ``certificates`` the report's count of them.  An
instance whose report check-cert rejects is named on standard error and
the exit code is 1.  With ``--against FILE``, an earlier output of this
script, every instance whose line differs is written to standard error
with the columns that differ, or as on one side only, and the exit code
is 1.

    python3 benchmarks/report_digests.py > before.txt
    # ... change the code ...
    python3 benchmarks/report_digests.py --against before.txt

``--suite n14`` digests a second set instead: 32 small solves, each
``GeneratorSpec(n=14, m=28, kappa=2)`` instance of expander-like seeds
0-17, uniform-random seeds 0-7 and planted-cut seeds 0-5, solved with
``SolverConfig(t_cap=200)`` through the same ``bench.run_op``; its lines
name the generator model in the ``workload`` column and ignore ``--seeds``.

``--root`` names the checkout whose ``src/`` and ``perfbench/bench.py`` are
run (default: the one that holds this script), so one copy of the script
can digest another checkout.  ``bench.py`` is loaded by path and no
bytecode is written next to it.
"""

import os
import sys

# one BLAS thread, pinned before anything imports numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
from pathlib import Path  # noqa: E402


def load_bench(root: Path):
    """``perfbench/bench.py`` of ``root``, importing hyperspars from its ``src/``."""
    sys.path.insert(0, str(root / "src"))
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench", root / "perfbench" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules["bench"] = bench  # its dataclasses look their module up by name
    spec.loader.exec_module(bench)
    if Path(bench.hyperspars.__file__).resolve().parent != root / "src" / "hyperspars":
        sys.exit(f"hyperspars imported from {bench.hyperspars.__file__}, not {root / 'src'}")
    return bench


COLUMNS = (
    "workload", "seed", "sha256", "bytes", "iterations", "cases", "best_cut", "lower_bound",
    "certificates",
)


# the n14 suite: seeds per generator model
N14_SEEDS = {"expander-like": range(18), "uniform-random": range(8), "planted-cut": range(6)}


def seeded_setups(bench, seeds: list[int]):
    """Every workload's instances at each of ``seeds``."""
    for workload in bench.INSTANCES:
        for seed in seeds:
            yield from bench.setups(workload, seed)


def n14_setups(bench):
    """The n14 suite's solves, model by model."""
    for model, seeds in N14_SEEDS.items():
        for seed in seeds:
            spec = bench.reference.GeneratorSpec(n=14, m=28, kappa=2, model=model, seed=seed)
            h = bench.reference.generate(spec)
            yield bench.Setup(model, seed, h, bench.SolverConfig(t_cap=200))


def digests(bench, setups):
    """One line per instance of ``setups``, and whether check-cert accepted
    its report."""
    for setup in setups:
        op = bench.run_op(setup)
        fp = bench.fingerprint(op)
        cases = ",".join(f"{case}:{count}" for case, count in fp["cases"].items())
        line = (
            f"{setup.workload} {setup.seed} {fp['report_sha256']} {fp['report_bytes']} "
            f"{fp['iterations']} {cases or '-'} {fp['best_cut']} "
            f"{fp['lower_bound']!r} {fp['certificates']}"
        )
        yield line, op.verified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 11])
    parser.add_argument("--suite", choices=("seeded", "n14"), default="seeded")
    parser.add_argument("--against", type=Path, help="an earlier output to compare with")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)

    bench = load_bench(args.root.resolve())
    setups = seeded_setups(bench, args.seeds) if args.suite == "seeded" else n14_setups(bench)
    lines, rejected = [], 0
    for line, (ok, failing) in digests(bench, setups):
        print(line, flush=True)
        lines.append(line)
        if not ok:
            rejected += 1
            print(f"check-cert rejects {' '.join(line.split()[:2])}: {failing}", file=sys.stderr)
    if args.against is None:
        return 1 if rejected else 0
    # keyed by (workload, seed): an instance on one side only differs too
    want, got = ({tuple(line.split()[:2]): line.split() for line in text} for text in
                 (args.against.read_text().splitlines(), lines))
    keys = list(dict.fromkeys([*want, *got]))
    differ = [key for key in keys if want.get(key) != got.get(key)]
    for key in differ:
        where = " ".join(key)
        if key not in want or key not in got:
            print(f"differs: {where} only {'now' if key in got else 'before'}", file=sys.stderr)
            continue
        was, now = want[key], got[key]
        columns = [
            COLUMNS[k] if k < len(COLUMNS) else f"column {k + 1}"
            for k in range(max(len(was), len(now)))
            if was[k : k + 1] != now[k : k + 1]
        ]
        print(f"differs: {where} in {', '.join(columns)}", file=sys.stderr)
    print(f"{len(keys) - len(differ)} of {len(keys)} instances match", file=sys.stderr)
    return 1 if differ or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
