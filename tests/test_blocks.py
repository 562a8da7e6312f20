"""Row blocks: whole-batch pipelines run block by block through
``space.row_blocks``, and blocking changes neither a value nor a sample."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from quadlab import (
    NoiseModel,
    Sampler,
    default_exponent_grid,
    derivation_chain_check,
    detect_inner_product,
    equation_params,
    euclidean,
    exponent_scan,
    make_odd_witness,
    make_perturbed,
    p_norm,
    parity_decompose,
    random_symmetric_form,
    residual_gq,
    residual_q,
    sample_pairs_restricted,
    sup_norm,
    weighted_quadratic,
)
from quadlab.quadratic import derivation_chain_defects
from quadlab.space import _pair_radii, form_rows, row_blocks

_PARAMS = equation_params("1/3")


def _block_rows(width):
    """Rows in one full block of rows ``width`` values wide."""
    return next(row_blocks(10**9, width)).stop


def _straddling(block):
    """Sub-batches that start and end just inside, on and just past block edges."""
    for start in (0, 1, block - 1):
        for size in (2, block, block + 2):
            yield slice(start, start + size)


@pytest.mark.parametrize(
    "n, width, want",
    [
        (0, 8, []),
        (5, 8, [(0, 5)]),
        (8192, 8, [(0, 8192)]),
        (8193, 8, [(0, 8192), (8192, 8193)]),
        (3, 2**17, [(0, 1), (1, 2), (2, 3)]),
    ],
)
def test_row_blocks_cover_the_rows_in_order(n, width, want):
    assert [(b.start, b.stop) for b in row_blocks(n, width)] == want


def _maps(dim):
    form = random_symmetric_form(euclidean(dim), euclidean(2), seed=dim)
    noises = (
        NoiseModel.uniform_bounded(0.05, seed=3),
        NoiseModel.decay(0.5, 0.7),
        NoiseModel.sine(0.3, np.linspace(-2.0, 1.5, dim)),
    )
    maps = [(noise.kind, make_perturbed(form, noise)) for noise in noises]
    witness = np.random.default_rng(dim).standard_normal((2, dim))
    return maps + [("odd", make_odd_witness(witness))]


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_residual_rows_match_across_block_edges(dim):
    block = _block_rows(dim)
    rng = np.random.default_rng(20 + dim)
    xs = rng.standard_normal((3 * block + 5, dim)) * 100.0
    ys = rng.standard_normal((3 * block + 5, dim)) * 100.0
    for label, f in _maps(dim):
        whole_gq, whole_q = residual_gq(f, _PARAMS, xs, ys), residual_q(f, xs, ys)
        for batch in _straddling(block):
            got = residual_gq(f, _PARAMS, xs[batch], ys[batch])
            assert np.array_equal(got, whole_gq[batch]), (label, batch)
            assert np.array_equal(residual_q(f, xs[batch], ys[batch]), whole_q[batch]), (
                label,
                batch,
            )
        # One pair alone gives its row too.
        assert np.array_equal(residual_gq(f, _PARAMS, xs[block], ys[block]), whole_gq[block])


def test_derivation_chain_matches_one_pass_across_block_edges():
    """Block by block, each identity's defect norms are those of one pass
    over the whole batch, bit for bit."""
    block = _block_rows(8)
    rng = np.random.default_rng(40)
    xs = rng.standard_normal((2 * block + 9, 8)) * 10.0
    ys = rng.standard_normal((2 * block + 9, 8)) * 10.0
    r, s = _PARAMS.r, _PARAMS.s
    for label, f in _maps(8):
        even, odd = parity_decompose(f)
        one_pass = {
            "odd_r_scaling": odd(r * xs) - r * r * odd(xs),
            "odd_s_scaling": odd(s * ys) - s * (1.0 + r) * odd(ys),
            "even_doubling": even(2.0 * xs) - 4.0 * even(xs),
            "even_cross_expansion": even(2.0 * xs + ys)
            + 2.0 * even(xs)
            + even(ys)
            - 2.0 * even(xs + ys)
            - even(2.0 * xs),
        }
        got = derivation_chain_defects(f, _PARAMS, xs, ys)
        assert list(got) == list(one_pass), label
        for name, defect in one_pass.items():
            want = np.sqrt(np.sum(defect * defect, axis=-1))
            assert np.array_equal(got[name], want), (label, name)


@pytest.mark.parametrize(
    "space, norm",
    [
        (p_norm(8, 3.0), lambda v: np.sum(np.abs(v) ** 3.0, axis=-1) ** (1.0 / 3.0)),
        (euclidean(8), lambda v: np.sqrt(np.sum(v * v, axis=-1))),
    ],
    ids=["p3", "euclidean"],
)
def test_detect_inner_product_matches_one_pass_across_block_edges(space, norm):
    """More than two blocks of sampled pairs give the verdict of one pass
    over the stacked basis and sampled pairs, bit for bit."""
    sampler = Sampler.restricted_pairs(5, 2 * _block_rows(space.dim) + 77, 2.0)
    verdict = detect_inner_product(space, sampler)
    xs, ys, *_ = sample_pairs_restricted(space, 0.0, sampler)
    bi, bj = np.triu_indices(space.dim, k=1)
    all_x = np.vstack([np.eye(space.dim)[bi], xs])
    all_y = np.vstack([np.eye(space.dim)[bj], ys])
    n_x, n_y = norm(all_x), norm(all_y)
    defects = norm(all_x + all_y) ** 2 + norm(all_x - all_y) ** 2 - 2.0 * n_x**2 - 2.0 * n_y**2
    normalized = np.abs(defects) / (1.0 + n_x**2 + n_y**2)
    assert verdict.max_defect == float(np.abs(defects).max())
    assert verdict.max_normalized_defect == float(normalized.max())
    assert verdict.basis_witness_max == float(np.abs(defects[: bi.size]).max())
    assert verdict.accepted == (space.norm_kind == "euclidean")
    if verdict.accepted:
        quad = form_rows(xs, verdict.recovered_gram, xs)[:, 0]
        norms_sq = n_x[bi.size :] ** 2
        assert verdict.bilinearity_defect == float(
            (np.abs(norms_sq - quad) / (1.0 + norms_sq)).max()
        )


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


# Digests of 3.5 blocks of sampled pairs drawn from SFC64 streams.
_SAMPLE_DIGESTS = {
    "euclidean": "714ef2b041b379367989d829a80f7d8b58579acc2f3147f11a3c97f0216e8e90",
    "sup": "a2313db1894ef8b104fe9a949869e5414e3c1675059ad666aebb0d41b4bad895",
    "weighted": "e3ebcb03b4ce1b30fe815301e59fd5c27619a7d6e15e144359eb7b58891293f5",
}


@pytest.mark.parametrize(
    "space",
    [euclidean(8), sup_norm(3), weighted_quadratic([[2.0, 1.0], [1.0, 3.0]])],
    ids=lambda s: s.norm_kind,
)
def test_samples_keep_their_bytes_across_block_edges(space):
    n = 7 * _block_rows(space.dim) // 2
    pairs = sample_pairs_restricted(space, 1.0, Sampler.restricted_pairs(11, n, 2.0))
    assert _sha256(*pairs[:2]) == _SAMPLE_DIGESTS[space.norm_kind]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radii_peak_at_about_32_bytes_a_pair():
    """While b is drawn, the radii hold a, b's lower bounds, numpy's width of
    each range and b itself, 8 bytes a pair each; the whole-batch
    temporaries of the plain expressions (2u, the root, both branches,
    t - a) took 40."""
    _pair_radii(1.0, Sampler.restricted_pairs(1, 1000, 2.0))  # one-time allocations
    count = 200_000
    sampler = Sampler.restricted_pairs(1, count, 2.0)
    assert _peak_bytes(lambda: _pair_radii(1.0, sampler)) <= 34 * count


def test_peak_memory_stays_near_the_samples():
    """Sampling, inner-product detection, the exponent scan and the
    derivation chain hold little beyond the sampled pairs themselves:
    whole-batch temporaries would cost 2.3x, 3.7x, 2.1x and 2.8x."""
    space = p_norm(8, 3.0)
    sampler = Sampler.restricted_pairs(3, 100_000, 2.0)
    samples = 2 * sampler.count * space.dim * 8
    form = random_symmetric_form(euclidean(8), euclidean(2), seed=1)
    runs = {
        "sampling": lambda: sample_pairs_restricted(space, 0.0, sampler),
        "detect_inner_product": lambda: detect_inner_product(space, sampler),
        "exponent_scan": lambda: exponent_scan(
            space, _PARAMS, default_exponent_grid(), sampler
        ),
        "derivation_chain_check": lambda: derivation_chain_check(form, _PARAMS, space, sampler),
    }
    for label, run in runs.items():
        assert _peak_bytes(run) <= 1.6 * samples, label
