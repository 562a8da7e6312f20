"""Parallelogram-law detection, Gram recovery, and exponent-pattern scans."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlab import (
    Exponents,
    ParameterError,
    Sampler,
    UndefinedValueError,
    default_exponent_grid,
    detect_inner_product,
    equation_params,
    euclidean,
    exponent_scan,
    gq_norm_defect,
    norm_eval,
    p_norm,
    parallelogram_defect,
    recover_gram,
    sample_pairs_restricted,
    sup_norm,
    weighted_quadratic,
)
from quadlab import geometry as geometry_module
from quadlab import space as space_module
from quadlab.errors import DimensionMismatchError
from quadlab.geometry import ScanEntry
from quadlab.space import form_rows

SRC = Path(__file__).resolve().parents[1] / "src"

# One digest of an 8-dim detect-ip verdict's fields other than
# gram_min_eigenvalue, the one LAPACK value (np.linalg.eigvalsh), printed
# after it as a repr.
_GRAM_DIGEST = """
import hashlib, json
import numpy as np
from quadlab import Sampler, detect_inner_product, weighted_quadratic
i = np.arange(8)
gram = 1.0 / (1.0 + i[:, None] + i)
np.fill_diagonal(gram, 9.0)
record = detect_inner_product(weighted_quadratic(gram), Sampler.restricted_pairs(1, 1000, 2.0)).to_dict()
eigenvalue = record.pop("gram_min_eigenvalue")
print(hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest(), repr(eigenvalue))
"""

WEIGHTED3 = weighted_quadratic([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])


def _count_normed_rows(monkeypatch) -> list:
    """Wrap norm_eval wherever it is looked up; the list grows by the row
    count of each call."""
    normed, norm = [], space_module.norm_eval

    def counting(space, x):
        normed.append(len(np.atleast_2d(x)))
        return norm(space, x)

    for module in (space_module, geometry_module):
        monkeypatch.setattr(module, "norm_eval", counting)
    return normed


E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestParallelogramDefect:
    def test_one_norm_basis_witness_is_four(self):
        assert parallelogram_defect(p_norm(2, 1.0), E1, E2) == 4.0

    def test_sup_norm_basis_witness_is_minus_two(self):
        assert parallelogram_defect(sup_norm(2), E1, E2) == -2.0

    def test_three_norm_basis_witness(self):
        want = 2.0 * 2.0 ** (2.0 / 3.0) - 4.0
        got = parallelogram_defect(p_norm(2, 3.0), E1, E2)
        assert got == pytest.approx(want, rel=1e-14)
        assert abs(got) > 0.8

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_euclidean_defect_is_rounding_level(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, 4)) * 5.0
        defect = parallelogram_defect(euclidean(4), x, y)
        scale = 1.0 + float(x @ x) + float(y @ y)
        assert abs(defect) <= 1e-12 * scale

    def test_weighted_norm_satisfies_law(self):
        space = weighted_quadratic([[2.0, 1.0], [1.0, 3.0]])
        rng = np.random.default_rng(1)
        xs, ys = rng.standard_normal((2, 200, 2))
        defects = parallelogram_defect(space, xs, ys)
        assert np.abs(defects).max() <= 1e-12 * 100.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            parallelogram_defect(euclidean(2), np.zeros(2), np.zeros((3, 2)))


class TestGramRecovery:
    def test_weighted_gram_recovered(self):
        # Recovery squares square roots, so expect one rounding step per entry.
        g = np.array([[2.0, 1.0], [1.0, 3.0]])
        got = recover_gram(weighted_quadratic(g))
        assert np.allclose(got, g, rtol=0.0, atol=1e-14)

    def test_euclidean_recovers_identity(self):
        assert np.array_equal(recover_gram(euclidean(3)), np.eye(3))


class TestDetectInnerProduct:
    def _sampler(self, seed=5, count=300):
        return Sampler.restricted_pairs(seed, count, 2.0)

    def test_accepts_euclidean(self):
        verdict = detect_inner_product(euclidean(3), self._sampler())
        assert verdict.accepted
        assert np.allclose(verdict.recovered_gram, np.eye(3), atol=1e-12)
        assert verdict.bilinearity_defect <= 1e-10
        assert verdict.gram_min_eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_accepts_weighted(self):
        g = np.array([[2.0, 0.0], [0.0, 3.0]])
        verdict = detect_inner_product(weighted_quadratic(g), self._sampler())
        assert verdict.accepted
        assert np.allclose(verdict.recovered_gram, g, atol=1e-10)

    def test_accepts_two_norm_spelled_as_p(self):
        verdict = detect_inner_product(p_norm(2, 2.0), self._sampler())
        assert verdict.accepted
        assert np.allclose(verdict.recovered_gram, np.eye(2), atol=1e-10)

    def test_rejects_one_norm_with_clean_witness(self):
        verdict = detect_inner_product(p_norm(2, 1.0), self._sampler())
        assert not verdict.accepted
        assert verdict.basis_witness_max == 4.0
        assert verdict.recovered_gram is None
        assert verdict.bilinearity_defect is None

    def test_rejects_sup_norm(self):
        verdict = detect_inner_product(sup_norm(2), self._sampler())
        assert not verdict.accepted
        assert verdict.basis_witness_max == 2.0

    def test_rejects_three_norm(self):
        verdict = detect_inner_product(p_norm(2, 3.0), self._sampler())
        assert not verdict.accepted
        assert verdict.basis_witness_max == pytest.approx(
            4.0 - 2.0 * 2.0 ** (2.0 / 3.0), rel=1e-12
        )

    def test_quasi_norm_is_rejected_and_flagged(self):
        verdict = detect_inner_product(p_norm(2, 0.5), self._sampler())
        assert not verdict.accepted
        assert verdict.space["quasi_norm"] is True

    def test_dimension_one_always_inner_product(self):
        # On a line every p-norm is |x|, which does come from a product.
        verdict = detect_inner_product(p_norm(1, 1.0), self._sampler())
        assert verdict.accepted
        assert np.allclose(verdict.recovered_gram, [[1.0]], atol=1e-12)

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            detect_inner_product(euclidean(2), self._sampler(), tol=0.0)

    @pytest.mark.parametrize(
        "space",
        [euclidean(3), p_norm(2, 1.0), p_norm(2, 0.5), p_norm(2, 3.0), sup_norm(3),
         WEIGHTED3, p_norm(1, 1.0)],
        ids=["euclidean", "p:1", "p:0.5", "p:3", "sup", "weighted", "line"],
    )
    def test_matches_parallelogram_defect(self, space):
        # Rebuilt from the public defect and fresh norms of the same rows.
        sampler = self._sampler()
        verdict = detect_inner_product(space, sampler)
        xs, ys = sample_pairs_restricted(space, 0.0, sampler)
        bi, bj = np.triu_indices(space.dim, k=1)
        eye = np.eye(space.dim)
        all_x, all_y = np.vstack([eye[bi], xs]), np.vstack([eye[bj], ys])
        defects = np.abs(parallelogram_defect(space, all_x, all_y))
        scales = 1.0 + norm_eval(space, all_x) ** 2 + norm_eval(space, all_y) ** 2
        assert verdict.max_defect == float(defects.max())
        assert verdict.max_normalized_defect == float((defects / scales).max())
        if verdict.accepted:
            norms_sq = norm_eval(space, xs) ** 2
            quad = form_rows(xs, verdict.recovered_gram, xs)[:, 0]
            want = float((np.abs(norms_sq - quad) / (1.0 + norms_sq)).max())
            assert verdict.bilinearity_defect == want

    def test_norms_two_rows_per_sampled_pair_beyond_the_sampler(self, monkeypatch):
        # The sampler norms 4 rows per pair (two directions, two domain
        # checks) and hands over norm(x) and norm(y); detection adds only
        # norm(x + y) and norm(x - y), plus 4 rows per basis pair.
        normed = _count_normed_rows(monkeypatch)
        space, sampler = p_norm(8, 3.0), self._sampler(count=20000)
        sample_pairs_restricted(space, 0.0, sampler)
        assert sum(normed) == 4 * sampler.count
        normed.clear()
        detect_inner_product(space, sampler)
        assert sum(normed) == 6 * sampler.count + 4 * (8 * 7 // 2)

    def test_only_the_lapack_value_depends_on_the_blas_core_type(self):
        # OPENBLAS_CORETYPE picks OpenBLAS's kernels for one process.  These
        # four run on any x86-64 CPU; forcing a newer type can crash.
        digests, eigenvalues = set(), []
        for core in (None, "Prescott", "Nehalem", "Haswell"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = str(SRC)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            proc = subprocess.run(
                [sys.executable, "-c", _GRAM_DIGEST],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            digest, eigenvalue = proc.stdout.split()
            digests.add(digest)
            eigenvalues.append(float(eigenvalue))
        assert len(digests) == 1, digests
        low = min(eigenvalues)
        assert max(eigenvalues) - low <= 4 * np.spacing(low), eigenvalues

    def test_dict_round_trip(self):
        d = detect_inner_product(euclidean(2), self._sampler()).to_dict()
        assert d["accepted"] is True
        assert d["recovered_gram"] == [[1.0, 0.0], [0.0, 1.0]]


class TestNormIdentityDefect:
    def test_all_squares_vanishes_on_inner_product(self):
        params = equation_params("1/3")
        exps = Exponents(2.0, 2.0, 2.0, 2.0)
        rng = np.random.default_rng(2)
        xs, ys = rng.standard_normal((2, 300, 3)) * 3.0
        defects = gq_norm_defect(euclidean(3), params, exps, xs, ys)
        scale = 1.0 + (np.sum(xs * xs, axis=-1) + np.sum(ys * ys, axis=-1)).max()
        assert np.abs(defects).max() <= 1e-12 * scale

    def test_first_exponent_oracle(self):
        # Pattern (1,2,2,2) with r = s = 1/2 at the basis pair:
        # sqrt(1/2) + (1/4) * 2 - 1/2 - 1/2 = sqrt(1/2) - 1/2.
        got = gq_norm_defect(
            euclidean(2), equation_params("1/2"), Exponents(1, 2, 2, 2), E1, E2
        )
        assert got == pytest.approx(np.sqrt(0.5) - 0.5, rel=1e-14)

    def test_tied_pair_oracle(self):
        # Pattern (2,2,3,3) at (w, w), w = 2 e1, r = s = 1/2:
        # 4 + 0 - (1/2) 8 - (1/2) 8 = -4.
        w = 2.0 * E1
        got = gq_norm_defect(
            euclidean(2), equation_params("1/2"), Exponents(2, 2, 3, 3), w, w
        )
        assert got == -4.0

    def test_zero_norm_negative_exponent(self):
        with pytest.raises(UndefinedValueError):
            gq_norm_defect(
                euclidean(2),
                equation_params("1/2"),
                Exponents(2, -1, 2, 2),
                E1,
                E1,
            )

    def test_batch_matches_single(self):
        params = equation_params("1/3")
        exps = Exponents(1, 2, 3, 2)
        rng = np.random.default_rng(3)
        xs, ys = rng.standard_normal((2, 10, 2))
        batch = gq_norm_defect(euclidean(2), params, exps, xs, ys)
        for i in range(10):
            single = gq_norm_defect(euclidean(2), params, exps, xs[i], ys[i])
            assert single == batch[i]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gq_norm_defect(
                euclidean(2),
                equation_params("1/2"),
                Exponents(2, 2, 2, 2),
                np.zeros(2),
                np.zeros(3),
            )


class TestExponents:
    def test_zero_exponent_rejected(self):
        with pytest.raises(ParameterError):
            Exponents(2, 0, 2, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            Exponents(2, 2, np.inf, 2)

    def test_label_and_tuple(self):
        e = Exponents(1, 2, 3, 2)
        assert e.astuple() == (1.0, 2.0, 3.0, 2.0)
        assert e.label() == "1,2,3,2"

    def test_default_grid_size(self):
        grid = default_exponent_grid()
        assert len(grid) == 81
        assert len({e.astuple() for e in grid}) == 81


class TestExponentScan:
    def _scan(self, space, r="1/3", seed=9, count=300, tol=1e-9, grid=None):
        return exponent_scan(
            space,
            equation_params(r),
            default_exponent_grid() if grid is None else grid,
            Sampler.restricted_pairs(seed, count, 2.0),
            tol=tol,
        )

    def test_euclidean_flags_only_all_squares(self):
        table = self._scan(euclidean(2))
        assert [e.astuple() for e in table.flagged()] == [(2.0, 2.0, 2.0, 2.0)]

    def test_one_norm_flags_nothing(self):
        table = self._scan(p_norm(2, 1.0))
        assert table.flagged() == []

    def test_all_other_patterns_have_visible_defects(self):
        table = self._scan(euclidean(2))
        others = [
            e for e in table.entries if e.exponents.astuple() != (2.0, 2.0, 2.0, 2.0)
        ]
        assert len(others) == 80
        assert all(e.sup_defect is None or e.sup_defect > 1e-3 for e in others)

    def test_negative_exponent_excludes_structured_witnesses(self):
        # (2,2,2,-1) hits norm(y) = 0 on the three (w, 0) witnesses.
        table = self._scan(euclidean(2), grid=[Exponents(2, 2, 2, -1)])
        entry = table.entries[0]
        assert entry.excluded_witness_count == 3
        assert entry.sup_defect is not None
        assert entry.error is None

    def test_each_sampled_norm_is_raised_to_each_exponent_once(self, monkeypatch):
        # The default grid needs 4 terms x 3 exponents powers of the sampled
        # norms, not 81 patterns x 4 terms.  Cubes are products, so numpy's
        # pow sees only the exponents 1 and 2.
        raised, pow_raised, raise_to, power = [], [], geometry_module._power, np.power

        def counting_raise(base, exponent):
            if np.size(base) == 300:
                raised.append(exponent)
            return raise_to(base, exponent)

        def counting_power(base, exponent, *args, **kwargs):
            if np.size(base) == 300:
                pow_raised.append(exponent)
            return power(base, exponent, *args, **kwargs)

        monkeypatch.setattr(geometry_module, "_power", counting_raise)
        monkeypatch.setattr(np, "power", counting_power)
        self._scan(euclidean(2), count=300)
        assert sorted(raised) == [1.0] * 4 + [2.0] * 4 + [3.0] * 4
        assert sorted(pow_raised) == [1.0] * 4 + [2.0] * 4

    def test_a_cube_is_a_product(self):
        n = np.random.default_rng(5).uniform(0.0, 8.0, 1000)
        cube = geometry_module._power(n, 3.0)
        assert np.array_equal(cube.view(np.uint64), (n * n * n).view(np.uint64))

    def test_norms_two_rows_per_sampled_pair_beyond_the_sampler(self, monkeypatch):
        # norm(r x + s y) and norm(x - y) per pair, plus 4 rows for each of
        # the 9 witness pairs and 1 to scale their unit vector; norm(x) and
        # norm(y) come from the sampler.
        normed = _count_normed_rows(monkeypatch)
        self._scan(euclidean(2), count=300)
        assert sum(normed) == 4 * 300 + 2 * 300 + 4 * 9 + 1

    def test_determinism(self):
        a = self._scan(euclidean(2)).to_dict()
        b = self._scan(euclidean(2)).to_dict()
        assert a == b

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            self._scan(euclidean(2), grid=[])

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            self._scan(euclidean(2), tol=-1.0)

    @pytest.mark.parametrize("r", ["1/3", "2", "-1/2"])
    @pytest.mark.parametrize(
        "space",
        [euclidean(3), p_norm(2, 1.0), p_norm(2, 0.5), sup_norm(3), WEIGHTED3],
        ids=["euclidean", "p:1", "p:0.5", "sup", "weighted"],
    )
    def test_matches_pair_by_pair_scan(self, space, r):
        got, want = self._both_ways(space, r)
        assert got == want

    @pytest.mark.parametrize("r", ["1/3", "2", "-1/2"])
    def test_p_norm_root_rounds_within_ulps(self, r):
        # ``sum ** (1/p)`` rounds a numpy scalar (one vector) and an array (a
        # batch) apart by up to an ulp, so a witness normed alone can differ
        # from the same witness normed in the batch.
        got, want = self._both_ways(p_norm(2, 3.0), r)
        assert [(e.exponents, e.excluded_witness_count, e.error) for e in got] == [
            (e.exponents, e.excluded_witness_count, e.error) for e in want
        ]
        for g, w in zip(got, want):
            assert g.sup_defect == pytest.approx(w.sup_defect, rel=8 * np.finfo(float).eps)

    def test_nan_defect_never_wins_the_sup(self):
        # With r = 4 the first witness (w/2, 0) overflows n(rx+sy)^2000 and
        # rs n(x-y)^-2000 to infinities of opposite sign; the sup skips the
        # NaN, as a pair-by-pair max that starts from 0.0 does.
        grid = [Exponents(2000, -2000, 1, 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = self._both_ways(euclidean(2), "4", grid)
        assert got == want
        assert not np.isnan(got[0].sup_defect)

    def _both_ways(self, space, r, grid=None):
        params = equation_params(r)
        if grid is None:
            grid = default_exponent_grid() + [
                Exponents(2, 2, 2, -1),
                Exponents(-1, 2, 2, 2),
                Exponents(1, 2, -1, -2),
                Exponents(0.5, 1.5, 2, 2),
            ]
        sampler = Sampler.restricted_pairs(9, 200, 2.0)
        got = exponent_scan(space, params, grid, sampler).entries
        return got, _scan_pair_by_pair(space, params, grid, sampler)


def _scan_pair_by_pair(space, params, grid, sampler):
    """Each pattern's ScanEntry from one gq_norm_defect call per witness pair
    (a zero norm under a negative exponent skips and counts the pair), then
    one call on the sampled batch."""
    unit = np.eye(space.dim)[0] / norm_eval(space, np.eye(space.dim)[0])
    zero = np.zeros(space.dim)
    witnesses = []
    for t in (0.5, 1.0, 2.0):
        w = t * unit
        witnesses.extend([(w, zero), (w, w), (zero, w)])
    xs, ys = sample_pairs_restricted(space, 0.0, sampler)
    entries = []
    for exps in grid:
        sup, excluded = 0.0, 0
        for wx, wy in witnesses:
            try:
                sup = max(sup, abs(gq_norm_defect(space, params, exps, wx, wy)))
            except UndefinedValueError:
                excluded += 1
        try:
            defects = gq_norm_defect(space, params, exps, xs, ys)
        except UndefinedValueError as exc:
            entries.append(ScanEntry(exps, None, excluded, error=str(exc)))
            continue
        entries.append(ScanEntry(exps, max(sup, float(np.abs(defects).max())), excluded))
    return entries
