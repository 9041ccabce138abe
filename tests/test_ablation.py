import csv

import numpy as np
import pytest

from annoconsist import ablation, workers
from annoconsist.ablation import (
    VARIANT_NAMES,
    AblationResult,
    ablation_run,
)
from annoconsist.condnet import TERM_MODES, InferenceConfig
from annoconsist.synthgen import ProposalConfig, SceneConfig
from annoconsist.train import TrainConfig, evaluate_params, fit

from oracles import (cell, make_dataset, pointwise_trend_holds,
                     term_trend_holds)


@pytest.fixture(scope="module")
def tiny_data():
    scfg = SceneConfig(height=32, width=32, num_classes=2, max_objects=2,
                       min_extent=8, max_extent=12)
    pcfg = ProposalConfig()
    train = make_dataset(scfg, pcfg, 2, seed=0)
    heldout = make_dataset(scfg, pcfg, 2, seed=0, start_id=2)
    return train, heldout


def _tiny_cfg(**kw):
    base = dict(k=2, init_epochs=2, cond_epochs=1, pred_epochs=2,
                outer_iters=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def grid(tiny_data):
    # run in process, whatever the machine's CPU count
    train, heldout = tiny_data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ablation, "usable_cpus", lambda: 1)
        return ablation_run(train, heldout, _tiny_cfg(),
                            InferenceConfig(delta=8.0), thresholds=(0.5,),
                            seeds=(0,))


def test_grid_covers_every_term_mode_and_variant(grid):
    assert set(grid.cells) == {(tm, v) for tm in TERM_MODES
                               for v in VARIANT_NAMES}
    for cell in grid.cells.values():
        assert set(cell) == {0.5}
        assert 0.0 <= cell[0.5] <= 1.0


def test_full_cell_reproduces_a_plain_fit(tiny_data, grid):
    # the all-terms fully probabilistic cell must equal fit + evaluate
    # with the identical config: the grid adds nothing but replace() calls
    train, heldout = tiny_data
    cfg = _tiny_cfg()
    res = fit(train, cfg, InferenceConfig(delta=8.0))
    ev = evaluate_params(res.pred, heldout, (0.5,), cfg.decode_thresh,
                         cfg.decode_nms)
    assert cell(grid, "U+P+H", "full")[0.5] == ev.map_r[0.5]


def test_forked_workers_reproduce_the_in_process_grid(tiny_data, grid,
                                                     monkeypatch):
    train, heldout = tiny_data
    monkeypatch.setattr(ablation, "usable_cpus", lambda: 2)
    par = ablation_run(train, heldout, _tiny_cfg(),
                       InferenceConfig(delta=8.0), thresholds=(0.5,),
                       seeds=(0,))
    assert list(par.cells.items()) == list(grid.cells.items())


class _InlinePool:
    """A stand-in for a forked pool that records its width and runs each
    task in process."""

    widths = []

    def __init__(self, processes, initializer, initargs):
        self.widths.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        return map(fn, tasks)


class _InlineContext:
    Pool = _InlinePool


def test_the_pool_is_never_wider_than_the_task_list(tiny_data, grid,
                                                    monkeypatch):
    # 12 cells x 1 seed: 64 CPUs start 12 workers, and every task's result
    # lands in its cell
    train, heldout = tiny_data
    monkeypatch.setattr(workers, "_work", (None, ()))
    monkeypatch.setattr(workers.multiprocessing, "get_context",
                        lambda method: _InlineContext)
    monkeypatch.setattr(ablation, "usable_cpus", lambda: 64)
    _InlinePool.widths = []
    res = ablation_run(train, heldout, _tiny_cfg(),
                       InferenceConfig(delta=8.0), thresholds=(0.5,),
                       seeds=(0,))
    assert _InlinePool.widths == [len(TERM_MODES) * len(VARIANT_NAMES)]
    assert list(res.cells.items()) == list(grid.cells.items())


def test_seed_averaging_is_the_mean_of_single_seed_runs(tiny_data):
    train, heldout = tiny_data
    icfg = InferenceConfig(delta=8.0)
    singles = [
        cell(ablation_run(train, heldout, _tiny_cfg(), icfg,
                          thresholds=(0.5,), seeds=(s,)), "U", "pw-both")[0.5]
        for s in (0, 1)
    ]
    avg = ablation_run(train, heldout, _tiny_cfg(), icfg, thresholds=(0.5,),
                       seeds=(0, 1))
    assert avg.seeds == (0, 1)
    assert cell(avg, "U", "pw-both")[0.5] == pytest.approx(np.mean(singles))


def test_trend_predicates_read_the_grid():
    cells = {}
    for i, tm in enumerate(TERM_MODES):
        for j, v in enumerate(VARIANT_NAMES):
            cells[(tm, v)] = {0.5: 0.2 * i if v == "full" else 0.05 * j}
    res = AblationResult(thresholds=(0.5,), seeds=(0,), cells=cells)
    assert term_trend_holds(res, "full")
    assert not pointwise_trend_holds(res, "U")  # full=0 beats nothing there
    cells = {(tm, v): {0.5: 0.9 if v == "full" else 0.3}
             for tm in TERM_MODES for v in VARIANT_NAMES}
    res = AblationResult(thresholds=(0.5,), seeds=(0,), cells=cells)
    assert pointwise_trend_holds(res, "U+P+H")
    assert term_trend_holds(res)  # all equal counts as non-decreasing


def test_format_table_and_csv_roundtrip(grid, tmp_path):
    table = grid.format_table(0.5)
    for name in VARIANT_NAMES:
        assert name in table
    for tm in TERM_MODES:
        assert tm in table
    path = tmp_path / "grid.csv"
    grid.to_csv(str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["term_mode", "variant", "map@0.50"]
    assert len(rows) == 1 + len(TERM_MODES) * len(VARIANT_NAMES)
    got = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    for key, cell in grid.cells.items():
        assert got[key] == pytest.approx(cell[0.5], abs=1e-6)
