"""Shell-resolved defect profiles and their classification."""

import threading
import warnings

import numpy as np
import pytest

from quadlab import (
    MapHandle,
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
    p_norm,
    random_symmetric_form,
    residual_gq,
    shell_delta_profile,
    sup_norm,
    weighted_quadratic,
)
from quadlab import asymptotics
from quadlab import space as space_module
from quadlab.asymptotics import _shell_interval
from quadlab.errors import DimensionMismatchError
from quadlab.quadratic import as_map_on
from quadlab.space import STREAM_SHELL, _rows_at_radii, _settled, generator, norm_eval


def _reference_deltas(f, params, space, n_min, n_max, count, seed):
    """The serial shell loop, the reference for the profile's deltas: draw a
    shell, then take its residuals.  Profiles whose shells fill at most one
    row block run in this order; larger ones draw the next shell on the
    helper thread."""
    handle = as_map_on(f, space)
    rng = generator(seed, STREAM_SHELL)
    deltas = np.empty(n_max - n_min + 1)
    for k, n in enumerate(range(n_min, n_max + 1)):
        t = rng.uniform(*_shell_interval(n), count)
        split = rng.uniform(0.0, 1.0, count)
        rows = [_rows_at_radii(space, rng, split * t), _rows_at_radii(space, rng, (1 - split) * t)]
        inside = lambda nx, ny: (nx + ny >= n) & (nx + ny < n + 1)  # noqa: E731
        (xs, ys), _ = _settled(space, rows, inside, (n + 0.5) / 2.0, 0.5)
        deltas[k] = norm_eval(None, residual_gq(handle, params, xs, ys)).max()
    return deltas


@pytest.fixture(params=["calling-thread", "helper"])
def hand_off(request, monkeypatch):
    """Each side of the hand-off rule: at the default block size the small
    profiles below draw every shell on the calling thread, and with row
    blocks of 8 values each shell's draw goes to the helper thread."""
    if request.param == "helper":
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", 8)
    return request.param


def _norm(kind, dim):
    if kind == "weighted":
        gram = np.eye(dim) + 0.3 * np.diag(np.ones(dim - 1), 1) + 0.3 * np.diag(np.ones(dim - 1), -1)
        return weighted_quadratic(gram)
    return {"euclidean": euclidean, "p": lambda d: p_norm(d, 1.5), "sup": sup_norm}[kind](dim)


def _shell_noise(kind, dim):
    return {
        "none": NoiseModel.none(),
        "constant": NoiseModel.constant(0.7),
        "decay": NoiseModel.decay(1.0, 0.8),
        "sine": NoiseModel.sine(0.4, np.linspace(-1.0, 1.5, dim)),
        "uniform": NoiseModel.uniform_bounded(0.2, seed=dim),
    }[kind]


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
            # A bool is not a shell index.
            (False, True, 10), (0, True, 10), (False, 4, 10),
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

    def test_evaluator_runs_on_the_calling_thread(self, hand_off):
        threads = set()

        def evaluator(rows):
            threads.add(threading.get_ident())
            return np.sum(rows * rows, axis=1)

        f = MapHandle(evaluator, 2, 1)
        shell_delta_profile(f, equation_params("1/2"), euclidean(2), 1, 6, 20, seed=1)
        assert threads == {threading.get_ident()}


class TestPipelinedShells:
    """A profile whose shells fill more than one row block overlaps each
    shell's residuals with the next shell's draws; its deltas, errors and
    numpy error state are a serial loop's on either side of that rule."""

    def _check(self, norm, noise, dim, n_min, n_max, count, seed):
        space = _norm(norm, dim)
        form = random_symmetric_form(space, euclidean(2), seed=seed)
        f = make_perturbed(form, _shell_noise(noise, dim))
        params = equation_params("1/3")
        got = shell_delta_profile(f, params, space, n_min, n_max, count, seed)
        want = _reference_deltas(f, params, space, n_min, n_max, count, seed)
        assert np.array_equal(got.deltas.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("noise", ["none", "constant", "decay", "sine", "uniform"])
    @pytest.mark.parametrize("norm", ["euclidean", "p", "weighted", "sup"])
    @pytest.mark.parametrize("count", [1, 2, 37])
    def test_deltas_match_serial_loop(self, norm, noise, count):
        self._check(norm, noise, 3, 0, 9, count, seed=count)

    @pytest.mark.parametrize("noise", ["none", "decay", "uniform"])
    @pytest.mark.parametrize("norm", ["euclidean", "sup"])
    def test_deltas_match_serial_loop_across_a_block_edge(self, norm, noise):
        # 8193 rows of dim 8 take two row blocks.
        assert space_module._BLOCK_VALUES // 8 < 8193
        self._check(norm, noise, 8, 2, 4, 8193, seed=5)

    @pytest.mark.parametrize("noise", ["constant", "sine", "uniform"])
    @pytest.mark.parametrize("norm", ["euclidean", "p", "weighted", "sup"])
    def test_deltas_match_serial_loop_in_small_blocks(self, monkeypatch, norm, noise):
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", 7 * 4)
        self._check(norm, noise, 4, 1, 6, 45, seed=9)

    @pytest.mark.parametrize("bad_shell", [0, 1, 4])
    def test_evaluator_error_surfaces_from_its_shell(self, hand_off, bad_shell):
        calls = []
        threads = set()

        def evaluator(rows):
            calls.append(rows.shape[0])
            threads.add(threading.get_ident())
            # residual_gq makes four map calls per shell.
            if len(calls) > 4 * bad_shell:
                raise ValueError(f"shell {len(calls) // 4} refused")
            return np.sum(rows * rows, axis=1)

        f = MapHandle(evaluator, 2, 1)
        before = threading.active_count()
        with pytest.raises(ValueError, match=rf"^shell {bad_shell} refused$"):
            shell_delta_profile(f, equation_params("1/2"), euclidean(2), 1, 6, 20, seed=1)
        assert threading.active_count() == before
        assert len(calls) == 4 * bad_shell + 1
        assert len(threads) == 1

    def test_draw_error_waits_for_the_pending_shell(self, hand_off, monkeypatch):
        # Settling shell 3 fails while shell 2's residuals are still running,
        # and shell 2's own error must win.  The race is the helper's; on the
        # calling thread shell 3 is never drawn.
        started = threading.Event()

        def evaluator(rows):
            started.set()
            raise ValueError("shell 2 refused")

        def settled(space, rows, inside, center, room):
            if center == (3 + 0.5) / 2.0:
                assert started.wait(10.0)
                raise ParameterError("shell 3 cannot settle")
            return _settled(space, rows, inside, center, room)

        monkeypatch.setattr(asymptotics, "_settled", settled)
        f = MapHandle(evaluator, 2, 1)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^shell 2 refused$"):
            shell_delta_profile(f, equation_params("1/2"), euclidean(2), 2, 5, 10, seed=1)
        assert threading.active_count() == before

    def test_draw_error_after_good_shells_surfaces(self, hand_off, monkeypatch):
        def settled(space, rows, inside, center, room):
            if center == (4 + 0.5) / 2.0:
                raise ParameterError("shell 4 cannot settle")
            return _settled(space, rows, inside, center, room)

        monkeypatch.setattr(asymptotics, "_settled", settled)
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=3)
        before = threading.active_count()
        with pytest.raises(ParameterError, match="^shell 4 cannot settle$"):
            shell_delta_profile(form, equation_params("1/2"), euclidean(2), 1, 6, 10, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("count, helpers", [(200, 0), (4096, 0), (4097, 1)])
    def test_only_a_shell_past_one_row_block_starts_a_helper(self, count, helpers):
        # Both halves of 4096 pairs of dim 8 fill exactly one row block.
        assert 2 * 4096 * 8 == space_module._BLOCK_VALUES
        before = threading.active_count()
        started = []

        def evaluator(rows):
            started.append(threading.active_count() - before)
            return np.sum(rows * rows, axis=1)

        f = MapHandle(evaluator, 8, 1)
        shell_delta_profile(f, equation_params("1/2"), euclidean(8), 1, 4, count, seed=1)
        assert set(started) == {helpers}
        assert threading.active_count() == before

    def _overflowing(self):
        # Squaring residuals near 1e308 in the codomain norm overflows.
        form = random_symmetric_form(euclidean(2), euclidean(1), seed=2)
        return make_perturbed(form, NoiseModel.constant(1e308))

    def test_raising_error_state_reaches_the_residuals(self, hand_off):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            shell_delta_profile(
                self._overflowing(), equation_params("1/2"), euclidean(2), 1, 4, 10, seed=1
            )

    def test_ignoring_error_state_reaches_the_residuals(self, hand_off):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = shell_delta_profile(
                self._overflowing(), equation_params("1/2"), euclidean(2), 1, 4, 10, seed=1
            )
        assert not np.all(np.isfinite(profile.deltas))


class TestVerdict:
    def test_decaying_profile(self):
        v = asymptotic_verdict(
            _profile_of([1.0, 0.5, 0.2, 0.05, 0.01, 0.005, 0.001, 0.0005]),
            decay_tol=0.01,
        )
        assert v.verdict == VERDICT_DECAYING
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
