"""Table 1 — the dataset inventory.

Paper: 14 datasets spanning 2011–2014, from 100-email curated samples to
5000 recovered accounts.  The bench regenerates the inventory from one
run and times building every Table 1 dataset on a fresh dataset cache
(the D1–D14 extractions, their source pools, and the inventory).
"""

from repro.analysis import table1
from benchmarks.conftest import save_artifact


def test_table1_dataset_inventory(benchmark, exploitation_result):
    specs = benchmark(table1.compute, exploitation_result)
    assert len(specs) == 14
    save_artifact("table1", table1.render(specs))
