"""Shell-resolved defect profiles and their classification."""

import numpy as np
import pytest

from quadlab import (
    NoiseModel,
    ParameterError,
    ShellProfile,
    VERDICT_DECAYING,
    VERDICT_INCONCLUSIVE,
    VERDICT_PERSISTENT,
    asymptotic_verdict,
    equation_params,
    euclidean,
    make_perturbed,
    random_symmetric_form,
    shell_delta_profile,
)
from quadlab.errors import DimensionMismatchError


def _profile_of(deltas):
    arr = np.asarray(deltas, dtype=np.float64)
    return ShellProfile(
        n_min=0, n_max=arr.shape[0] - 1, deltas=arr, per_shell_count=1, seed=0
    )


class TestShellProfile:
    def test_exact_form_is_rounding_level_everywhere(self):
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=1)
        profile = shell_delta_profile(
            form, equation_params("1/2"), euclidean(3), 1, 8, 100, seed=2
        )
        for k, (lo, hi) in enumerate(profile.shells()):
            assert profile.deltas[k] <= 1e-9 * (1.0 + hi**2)

    def test_constant_noise_is_flat_at_closed_form(self):
        # Constant shift c leaves residual r*s*c in every shell.
        c = 4.0
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=3)
        f = make_perturbed(form, NoiseModel.constant(c))
        profile = shell_delta_profile(f, params, euclidean(3), 1, 8, 100, seed=4)
        want = abs(params.rs) * c
        assert profile.deltas == pytest.approx(np.full(8, want), rel=1e-9)
        assert profile.deltas.max() - profile.deltas.min() <= 1e-9

    def test_decay_noise_respects_triangle_ceiling(self):
        # |residual of the noise| <= (1 + |rs| + |r| + |s|) * sup|noise|.
        c = 1.0
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(6), euclidean(1), seed=5)
        f = make_perturbed(form, NoiseModel.decay(c, alpha=1.0))
        profile = shell_delta_profile(f, params, euclidean(6), 1, 16, 200, seed=3)
        ceiling = (1.0 + abs(params.rs) + abs(params.r) + abs(params.s)) * c
        assert profile.deltas.max() <= ceiling + 1e-9

    def test_decay_noise_tail_exceeds_naive_envelope(self):
        # The per-shell sup does NOT fall off like c / (1 + n/2): the joint
        # radius splits uniformly, so some sampled pairs put one argument
        # near the origin where the decaying term is still full-size.  The
        # observed tail plateaus near |s| * c instead of decaying.
        c = 1.0
        params = equation_params("1/2")
        form = random_symmetric_form(euclidean(6), euclidean(1), seed=5)
        f = make_perturbed(form, NoiseModel.decay(c, alpha=1.0))
        profile = shell_delta_profile(f, params, euclidean(6), 1, 16, 200, seed=3)
        tail = profile.deltas[-4:]
        naive_envelope_at_tail = 2.25 * c / (1.0 + 13.0 / 2.0)
        assert tail.max() > naive_envelope_at_tail

    def test_determinism_and_seed_sensitivity(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=6)
        f = make_perturbed(form, NoiseModel.uniform_bounded(0.5, seed=7))
        params = equation_params("1/3")
        a = shell_delta_profile(f, params, euclidean(2), 0, 5, 50, seed=8)
        b = shell_delta_profile(f, params, euclidean(2), 0, 5, 50, seed=8)
        c = shell_delta_profile(f, params, euclidean(2), 0, 5, 50, seed=9)
        assert np.array_equal(a.deltas, b.deltas)
        assert not np.array_equal(a.deltas, c.deltas)

    def test_shells_listing(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=10)
        profile = shell_delta_profile(
            form, equation_params("1/2"), euclidean(2), 2, 5, 10, seed=11
        )
        assert profile.shell_count == 4
        assert profile.shells() == [(2.0, 3.0), (3.0, 4.0), (4.0, 5.0), (5.0, 6.0)]

    def test_to_dict(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=12)
        d = shell_delta_profile(
            form, equation_params("1/2"), euclidean(2), 0, 3, 5, seed=13
        ).to_dict()
        assert d["n_min"] == 0 and d["n_max"] == 3
        assert len(d["deltas"]) == 4

    @pytest.mark.parametrize(
        "n_min,n_max,count",
        [
            (3, 3, 10), (5, 2, 10), (-1, 4, 10), (0, 4, 0), (0.5, 4, 10),
            (600_000_000, 600_000_004, 1),
        ],
    )
    def test_bad_shell_requests(self, n_min, n_max, count):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=14)
        with pytest.raises(ParameterError):
            shell_delta_profile(
                form, equation_params("1/2"), euclidean(2), n_min, n_max, count, seed=0
            )

    def test_shell_swallowed_by_margin_names_n_max(self):
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=14)
        with pytest.raises(ParameterError, match="n_max 600000004 is too large"):
            shell_delta_profile(
                form, equation_params("1/2"), euclidean(2), 600_000_000, 600_000_004, 1,
                seed=0,
            )

    def test_dim_mismatch(self):
        form = random_symmetric_form(euclidean(3), euclidean(1), seed=15)
        with pytest.raises(DimensionMismatchError):
            shell_delta_profile(
                form, equation_params("1/2"), euclidean(2), 0, 4, 10, seed=0
            )


class TestVerdict:
    def test_decaying_profile(self):
        v = asymptotic_verdict(
            _profile_of([1.0, 0.5, 0.2, 0.05, 0.01, 0.005, 0.001, 0.0005]),
            decay_tol=0.01,
        )
        assert v.verdict == VERDICT_DECAYING
        assert v.decayed
        assert v.tail_window == 2
        assert v.tail_max == 0.001

    def test_flat_profile_is_persistent(self):
        v = asymptotic_verdict(_profile_of([0.5] * 8), decay_tol=0.01)
        assert v.verdict == VERDICT_PERSISTENT
        assert v.nondecreasing_last_half

    def test_growing_profile_is_persistent(self):
        v = asymptotic_verdict(
            _profile_of([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), decay_tol=0.01
        )
        assert v.verdict == VERDICT_PERSISTENT

    def test_middling_tail_is_inconclusive(self):
        # Above the decay tolerance but below the 10x persistence bar.
        v = asymptotic_verdict(_profile_of([0.05] * 8), decay_tol=0.01)
        assert v.verdict == VERDICT_INCONCLUSIVE

    def test_big_but_still_falling_tail_is_inconclusive(self):
        v = asymptotic_verdict(
            _profile_of([10.0, 5.0, 2.0, 1.0, 0.5, 0.2]), decay_tol=0.01
        )
        assert v.verdict == VERDICT_INCONCLUSIVE
        assert not v.nondecreasing_last_half

    def test_boundary_counts_as_decayed(self):
        v = asymptotic_verdict(_profile_of([1.0, 1.0, 1.0, 0.01]), decay_tol=0.01)
        assert v.verdict == VERDICT_DECAYING

    def test_rounding_wiggle_still_nondecreasing(self):
        base = 0.5
        wiggle = base * (1.0 - 1e-8)
        v = asymptotic_verdict(
            _profile_of([base, wiggle, base, wiggle, base, wiggle, base, base]),
            decay_tol=0.01,
        )
        assert v.nondecreasing_last_half
        assert v.verdict == VERDICT_PERSISTENT

    def test_too_few_shells(self):
        with pytest.raises(ParameterError):
            asymptotic_verdict(_profile_of([1.0, 0.5, 0.1]), decay_tol=0.01)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf])
    def test_bad_tol(self, tol):
        with pytest.raises(ParameterError):
            asymptotic_verdict(_profile_of([1.0] * 8), decay_tol=tol)

    def test_dict_round_trip(self):
        d = asymptotic_verdict(_profile_of([0.5] * 8), decay_tol=0.01).to_dict()
        assert d["verdict"] == VERDICT_PERSISTENT
        assert d["tail_window"] == 2
        assert d["decay_tol"] == 0.01


class TestPinnedDecayScenario:
    """End-to-end: the calibrated decay-vs-constant discrimination setup."""

    def _params(self):
        return equation_params("1/2")

    def _space(self):
        return euclidean(6)

    def _form(self):
        return random_symmetric_form(self._space(), euclidean(1), seed=5)

    def test_decay_noise_reads_asymptotically_quadratic(self):
        f = make_perturbed(self._form(), NoiseModel.decay(1.0, alpha=1.0))
        profile = shell_delta_profile(
            f, self._params(), self._space(), 1, 16, 200, seed=3
        )
        verdict = asymptotic_verdict(profile, decay_tol=0.6)
        assert verdict.verdict == VERDICT_DECAYING

    def test_constant_noise_reads_persistent(self):
        f = make_perturbed(self._form(), NoiseModel.constant(1.0))
        profile = shell_delta_profile(
            f, self._params(), self._space(), 1, 16, 200, seed=3
        )
        verdict = asymptotic_verdict(profile, decay_tol=0.02)
        assert verdict.verdict == VERDICT_PERSISTENT
        assert verdict.tail_max == pytest.approx(0.25, rel=1e-9)
