"""Whole-batch passes and the one helper thread: ``space.blockwise`` runs a
pass's blocks in order on the calling thread, with a serial loop's bits and
errors, whatever its size; ``space._helper_thread`` runs at most one helper
in the process, and a hand-off made while it is busy stays on its thread."""

import threading

import numpy as np
import pytest

from quadlab import (
    MapHandle,
    NoiseModel,
    Sampler,
    detect_inner_product,
    equation_params,
    euclidean,
    make_odd_witness,
    make_perturbed,
    norm_eval,
    p_norm,
    random_symmetric_form,
    residual_gq,
    residual_q,
    sup_norm,
    weighted_quadratic,
)
from quadlab import space as space_module
from quadlab.quadratic import derivation_chain_defects
from quadlab.space import blockwise, row_blocks

_PARAMS = equation_params("1/3")
_DIM = 3
# Row blocks of 20 rows of dim 3; the chain's blocks hold 10.
_SMALL_BLOCK = 20 * _DIM


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(space_module, "_BLOCK_VALUES", _SMALL_BLOCK)


def _pairs(n, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, _DIM)) * 10.0, rng.standard_normal((n, _DIM)) * 10.0


def _maps():
    form = random_symmetric_form(euclidean(_DIM), euclidean(2), seed=4)
    noises = (
        NoiseModel.uniform_bounded(0.05, seed=3),
        NoiseModel.decay(0.5, 0.7),
        NoiseModel.sine(0.3, np.linspace(-2.0, 1.5, _DIM)),
    )
    maps = [(noise.kind, make_perturbed(form, noise)) for noise in noises]
    witness = np.random.default_rng(5).standard_normal((2, _DIM))
    return maps + [("odd", make_odd_witness(witness))]


def _serial(fn, n, width):
    """The per-block loop: ``fn`` on each row block in order, one pass each."""
    return np.concatenate([fn(rows) for rows in row_blocks(n, width)])


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# 1 block (inline), 2, 3, 4, 5 and 50 blocks.
_COUNTS = [20, 21, 41, 61, 81, 1000]


@pytest.mark.usefixtures("small_blocks")
class TestPassesMatchTheSerialLoop:
    @pytest.mark.parametrize("n", _COUNTS)
    def test_residuals(self, n):
        xs, ys = _pairs(n)
        for label, f in _maps():
            want_gq = _serial(lambda b: residual_gq(f, _PARAMS, xs[b], ys[b]), n, _DIM)
            want_q = _serial(lambda b: residual_q(f, xs[b], ys[b]), n, _DIM)
            assert _same_bits(residual_gq(f, _PARAMS, xs, ys), want_gq), label
            assert _same_bits(residual_q(f, xs, ys), want_q), label

    @pytest.mark.parametrize("n", _COUNTS)
    def test_derivation_chain(self, n):
        xs, ys = _pairs(n)
        for label, f in _maps():
            got = derivation_chain_defects(f, _PARAMS, xs, ys)
            blocks = [
                derivation_chain_defects(f, _PARAMS, xs[b], ys[b])
                for b in row_blocks(n, 2 * _DIM)
            ]
            for name, values in got.items():
                want = np.concatenate([block[name] for block in blocks])
                assert _same_bits(values, want), (label, name)

    @pytest.mark.parametrize("n", _COUNTS)
    @pytest.mark.parametrize(
        "space",
        [
            euclidean(_DIM),
            p_norm(_DIM, 3.0),
            weighted_quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]),
            sup_norm(_DIM),
        ],
        ids=lambda s: s.norm_kind,
    )
    def test_norms(self, space, n):
        rows = _pairs(n)[0]
        want = _serial(lambda b: norm_eval(space, rows[b]), n, _DIM)
        assert _same_bits(norm_eval(space, rows), want)


def _recording_map(threads, rows_seen=None):
    def evaluator(rows):
        threads.append(threading.get_ident())
        if rows_seen is not None:
            rows_seen.append(rows.copy())
        return np.sum(rows * rows, axis=1)

    return MapHandle(evaluator, _DIM, 1)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("n", _COUNTS)
def test_a_pass_runs_on_the_caller_in_block_order(n):
    """Every map call of a pass, of one block or fifty, is the calling
    thread's, and the calls are the per-block loop's, in its order."""
    xs, ys = _pairs(n)
    want = []
    for b in row_blocks(n, _DIM):
        residual_gq(_recording_map([], want), _PARAMS, xs[b], ys[b])
    before = threading.active_count()
    threads, got = [], []
    residual_gq(_recording_map(threads, got), _PARAMS, xs, ys)
    assert threading.active_count() == before
    assert set(threads) == {threading.get_ident()}
    assert len(got) == len(want) == 4 * len(list(row_blocks(n, _DIM)))
    assert all(_same_bits(g, w) for g, w in zip(got, want))


_SPACES = [
    euclidean(_DIM),
    p_norm(_DIM, 3.0),
    weighted_quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]),
    sup_norm(_DIM),
]


@pytest.mark.parametrize("space", _SPACES, ids=lambda s: s.norm_kind)
def test_inner_product_detection_in_small_blocks(space, monkeypatch):
    sampler = Sampler.restricted_pairs(2, 1000, 2.0)
    want = detect_inner_product(space, sampler).to_dict()
    monkeypatch.setattr(space_module, "_BLOCK_VALUES", _SMALL_BLOCK)
    before = threading.active_count()
    got = detect_inner_product(space, sampler).to_dict()
    assert threading.active_count() == before
    assert got == want


@pytest.mark.usefixtures("small_blocks")
def test_a_pass_runs_on_its_caller_alone_while_the_helper_is_busy():
    """While a helper runs, a pass on the thread that holds it, and a pass
    on the helper itself, each run on their own thread."""
    xs, ys = _pairs(1000)
    on_caller, on_helper = [], []
    before = threading.active_count()
    with space_module._helper_thread(space_module._BLOCK_VALUES + 1) as submit:
        nested = submit(residual_gq, _recording_map(on_helper), _PARAMS, xs, ys)
        got = residual_gq(_recording_map(on_caller), _PARAMS, xs, ys)
        nested = nested()
    assert threading.active_count() == before
    assert set(on_caller) == {threading.get_ident()}
    assert len(set(on_helper)) == 1 and threading.get_ident() not in on_helper
    assert _same_bits(got, nested)


def test_a_busy_helper_defers_a_second_hand_off_to_its_result():
    ran = []
    with space_module._helper_thread(space_module._BLOCK_VALUES + 1) as outer:
        outer(lambda: None)()
        with space_module._helper_thread(space_module._BLOCK_VALUES + 1) as inner:
            result = inner(lambda: ran.append(threading.get_ident()))
            assert ran == []
            result()
    assert ran == [threading.get_ident()]


class TestErrorsSurfaceInSerialOrder:
    """blockwise over 1000 rows of width 1 in blocks of 10, all on the
    calling thread."""

    @pytest.fixture(autouse=True)
    def _ten_row_blocks(self, monkeypatch):
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", 10)

    def test_the_first_failing_block_wins(self):
        ran = []

        def fn(rows):
            ran.append(rows.start)
            if rows.start == 990:
                raise ValueError("the last block refused")
            if rows.start == 30:
                raise ArithmeticError("block 3 refused")
            return np.zeros(rows.stop - rows.start)

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="^block 3 refused$"):
            blockwise(fn, 1000, 1)
        assert threading.active_count() == before
        # No block after the failing one ran.
        assert ran == [0, 10, 20, 30]

    @pytest.mark.parametrize("bad", [500, 990], ids=["middle", "last"])
    def test_a_later_blocks_error_surfaces(self, bad):
        done = []

        def fn(rows):
            if rows.start == bad:
                raise ValueError(f"block at {bad} refused")
            done.append(rows.start)
            return np.zeros(rows.stop - rows.start)

        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^block at {bad} refused$"):
            blockwise(fn, 1000, 1)
        assert threading.active_count() == before
        # Every block before it ran, in order, and none after it.
        assert done == list(range(0, bad, 10))

    def test_a_first_block_error_starts_no_thread(self):
        def fn(rows):
            raise ValueError("the first block refused")

        before = threading.active_count()
        with pytest.raises(ValueError, match="^the first block refused$"):
            blockwise(fn, 1000, 1)
        assert threading.active_count() == before

    def test_the_blocks_and_the_output(self):
        where = []

        def fn(rows):
            where.append((rows.start, threading.get_ident()))
            return np.arange(rows.start, rows.stop, dtype=np.float64)[:, None] * [1.0, -1.0]

        out = blockwise(fn, 1000, 1)
        assert np.array_equal(out[:, 0], np.arange(1000.0))
        assert np.array_equal(out[:, 1], -np.arange(1000.0))
        assert where == [(start, threading.get_ident()) for start in range(0, 1000, 10)]
