"""Workload definitions and the seeded corpus cache.

Each workload is a synthetic corpus made by ``exploressl.synth`` from the
workload seed, plus the experiment grid that runs on it. Corpora are cached
under ``benchmarks/cache/corpora`` (ignored by git) because the text-grid
corpus takes several seconds to generate.

A cached corpus's file name carries a digest of the generator's sources
(``exploressl/synth.py`` and ``exploressl/data.py``), so a change to either
makes new corpora instead of reusing ones the old code made.

Regenerate the cached corpora of every workload for a range of seeds:

    python3 benchmarks/workloads.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / "cache"
CORPORA = CACHE / "corpora"


# ExperimentSpec fields that every workload shares
CRITERIA = ("js", "minmax")
NUM_SEED_CLASSES = 5
SEEDS_FRACTION = 0.05
P_NEW = (1e-4,)
CRP_EPOCHS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    # SyntheticSpec fields (multinomial generator, 30 words per document)
    num_classes: int
    instances_per_class: int
    vocab_size: int
    separation: float
    # ExperimentSpec fields
    families: tuple[str, ...]
    algorithms: tuple[str, ...]
    num_partitions: int = 1
    max_iterations: int | None = None  # None: ExperimentSpec's default

    def cells_per_round(self) -> int:
        per_family = sum(len(CRITERIA) if a == "exploratory" else 1 for a in self.algorithms)
        return len(self.families) * per_family * self.num_partitions


# semisup and semisup-sweep are left out: their EM returns after one M-step
# (see the FOUND line in CHANGES.md), so fixing that would add iterations and
# read as a slowdown of the benchmark rather than of the fixed code.
WORKLOADS = {
    w.name: w
    for w in (
        # text-sized vocabulary: creation latches in iteration 1 and the
        # per-instance E-step carries the run; large load/prepare and memory.
        # The cap of 3 iterations fixes the work per round: uncapped, kmeans
        # runs 4 to 12 iterations and nb 3 or 4, depending on the corpus seed.
        Workload("text-grid", 20, 400, 20_000, 10.0,
                 families=("nb", "kmeans", "vmf"), algorithms=("exploratory",),
                 max_iterations=3),
        # disjoint blocks, small vocabulary: nb and kmeans open a class and
        # pass the gate, so creation stays on for two passes and the gate
        # scores real AICc (n > v + 1). The cap of 2 iterations keeps those
        # two passes and fixes the work per round: uncapped, about one seed
        # in four runs a third iteration in some cells.
        # Under both caps the EM stopping rule is never what ends a cell, so
        # the benchmark does not measure convergence (README).
        Workload("discover-blocks", 20, 100, 200, 1e6,
                 families=("nb", "kmeans", "vmf"), algorithms=("exploratory",),
                 num_partitions=4, max_iterations=2),
        # CRP Gibbs: pick step and posterior carry it, no criterion or gate
        Workload("gibbs", 20, 200, 5_000, 10.0,
                 families=("nb", "kmeans"),
                 algorithms=("crp-standard", "crp-modified")),
    )
}


def use_checkout_source() -> None:
    """Import exploressl from this checkout's src/ and nowhere else."""
    if not (SRC / "exploressl" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no exploressl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import exploressl

    if Path(exploressl.__file__).resolve().parent != (SRC / "exploressl").resolve():
        raise SystemExit(f"benchmark: imported exploressl from {exploressl.__file__}")


def generator_digest() -> str:
    """Digest of the sources that make and write a corpus."""
    h = hashlib.sha256()
    for module in ("synth.py", "data.py"):
        h.update((SRC / "exploressl" / module).read_bytes())
    return h.hexdigest()[:12]


def corpus_path(w: Workload, seed: int) -> Path:
    shape = f"{w.num_classes}x{w.instances_per_class}-v{w.vocab_size}-sep{w.separation:g}"
    return CORPORA / f"{w.name}-{shape}-seed{seed}-gen{generator_digest()}.txt"


def write_corpus(w: Workload, seed: int) -> Path:
    """Generate the workload's corpus for a seed and write it atomically."""
    from exploressl.data import write_sparse_triplet
    from exploressl.synth import SyntheticSpec, generate_synthetic

    spec = SyntheticSpec(w.num_classes, w.instances_per_class, w.vocab_size,
                         w.separation, rng_seed=seed)
    path = corpus_path(w, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    write_sparse_triplet(generate_synthetic(spec), tmp)
    tmp.replace(path)
    return path


def ensure_corpus(w: Workload, seed: int) -> Path:
    path = corpus_path(w, seed)
    return path if path.is_file() else write_corpus(w, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate the cached benchmark corpora")
    ap.add_argument("--seeds", required=True, metavar="FIRST-LAST", help="e.g. 1-10")
    args = ap.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    use_checkout_source()
    for w in WORKLOADS.values():
        for seed in range(first, last + 1):
            print(write_corpus(w, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
