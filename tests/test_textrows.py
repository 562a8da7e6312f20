"""The samples-CSV float kernel: every value byte for byte its ``repr``."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quadlab import cli, textrows
from quadlab.cli import main
from quadlab.space import row_blocks
from quadlab.textrows import format_rows


def repr_rows(block: np.ndarray) -> bytes:
    """The reference: ``",".join(map(repr, row))`` per line."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode("ascii")


def assert_repr_exact(values, width: int = 1):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    block = values[: values.size - values.size % width].reshape(-1, width)
    got, want = format_rows(block), repr_rows(block)
    if got != want:
        differ = [
            (g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w
        ]
        pytest.fail(f"{len(differ)} rows differ from repr, first {differ[:3]}")


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
def test_any_finite_block_prints_as_repr(block):
    assert format_rows(block) == repr_rows(block)


def test_random_bit_patterns_print_as_repr():
    rng = np.random.default_rng(20101)
    values = rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(np.float64)
    assert_repr_exact(values[np.isfinite(values)], width=5)


@pytest.mark.parametrize("scale", [10.0**e for e in range(-6, 18)])
def test_uniform_draws_print_as_repr(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 100)
    assert_repr_exact(rng.uniform(-scale, scale, 12_000), width=4)


def test_short_decimals_and_their_neighbours_print_as_repr():
    # Every digit count from 1 to 17, at every scale, and the doubles on
    # either side, whose digit search stops one level earlier or later.
    rng = np.random.default_rng(7)
    magnitudes = 10.0 ** rng.uniform(-8, 20, 3000)
    shorts = np.array(
        [float(f"{v:.{p}g}") for p in range(1, 18) for v in magnitudes.tolist()]
    )
    for values in (shorts, np.nextafter(shorts, np.inf), np.nextafter(shorts, -np.inf)):
        assert_repr_exact(values * np.where(rng.random(values.size) < 0.5, -1.0, 1.0), 3)


def test_named_edge_cases_print_as_repr():
    tiny = np.nextafter(0.0, 1.0)
    big = np.finfo(np.float64).max
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    named = [
        0.0, -0.0, np.inf, -np.inf, np.nan,
        1e-5, 1e-4, 9.999999999999999e-05, 1e16, np.nextafter(1e16, 0.0),
        tiny, -tiny, big, -big, np.finfo(np.float64).tiny,
        0.1, 0.2, 0.3, 0.30000000000000004, 0.1 + 0.2, 1 / 3, 2 / 3,
        9007199254740993.0, 123456789012345678.0, 0.5, 1.5, 2.5,
    ]
    assert_repr_exact(named)
    assert_repr_exact(2.0 ** np.arange(-1074, 1024))
    assert_repr_exact(-(2.0 ** np.arange(-1074, 1024)))
    assert_repr_exact(np.arange(-3000, 3000, dtype=np.float64), width=6)
    # Either side of each power of ten, where the first estimate of
    # floor(log10|x|) needs its correction step.
    for values in (
        powers_of_ten,
        np.nextafter(powers_of_ten, np.inf),
        np.nextafter(powers_of_ten, 0.0),
    ):
        assert_repr_exact(values)
        assert_repr_exact(-values)


def test_ties_at_the_last_digit_print_as_repr():
    # n + j / 2**(k + 1) with j odd scales by 10**k to a half-integer: two
    # 17-digit candidates lie exactly as near, and the reader's
    # round-half-even rule picks between them.
    rng = np.random.default_rng(11)
    ties = []
    for k in range(1, 6):
        whole = rng.integers(10 ** (15 - k), 10 ** (16 - k), 400).astype(np.float64)
        odd = 2 * rng.integers(0, 2**k, 400) + 1
        ties.append(whole + odd / 2.0 ** (k + 1))
    assert_repr_exact(np.concatenate(ties), width=4)


@pytest.mark.parametrize("exponent_field", [1, 2, 3, 2044, 2045, 2046])
def test_extreme_normal_exponents_print_as_repr(exponent_field):
    # The ends of the power-of-ten table: the smallest and largest normals.
    rng = np.random.default_rng(exponent_field)
    fraction = rng.integers(1, 2**52, 10_000, dtype=np.int64)
    values = ((exponent_field << 52) | fraction).view(np.float64)
    assert_repr_exact(np.concatenate([values, -values]), width=4)


def test_subnormals_print_as_repr():
    rng = np.random.default_rng(3)
    steps = rng.integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)
    assert_repr_exact(np.concatenate([steps, -steps, steps[:50] * 2.0**-40]), width=2)


def test_layout_edges_print_as_repr():
    # One and sixteen integer digits, no fraction digits left, the longest
    # fixed-notation fraction, three-digit exponents, and separators.
    values = [
        1.0000000000000002, 9999999999999998.0, 1234567890123456.8, 100.0,
        0.00012345678901234568, -0.00010000000000000002, 1.2345678901234567e-05,
        1e-05, 2.5e-308, -1.7976931348623155e308, 1e22, 1e23, 5e-324,
    ]
    for width in (1, 2, len(values)):
        assert_repr_exact(values, width)


def test_empty_and_single_value_blocks_print_as_repr():
    assert format_rows(np.empty((0, 3))) == b""
    assert format_rows(np.array([[-0.0]])) == b"-0.0\n"
    assert format_rows(np.array([[1.5, -2.0, 0.0]])) == b"1.5,-2.0,0.0\n"


WORKLOAD_EMIT = (
    "certify --dim 8 --codim 2 --r 1/3 --d 1 --noise uniform:0.05 "
    "--samples 20000 --probes 8 --seed 1"
)
# An exact form: residual norms are 0.0 or at the rounding level.
EXACT_EMIT = "certify --dim 8 --codim 2 --probes 8 --samples 5000 --seed 1"


@pytest.mark.parametrize("command", [WORKLOAD_EMIT, EXACT_EMIT], ids=["workload", "exact"])
def test_repr_fallback_stays_rare(monkeypatch, tmp_path, capsys, command):
    """Under 0.1% of the values of a samples CSV go to ``repr``; a kernel
    whose fast path stopped working would send them all there."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(textrows, "repr", counting_repr, raising=False)
    out = tmp_path / "run.json"
    assert main([*command.split(), "--emit-samples", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "run.samples.csv").read_bytes().splitlines()
    values = (len(lines) - 1) * (lines[0].count(b",") + 1)
    assert values > 80_000
    assert len(calls) < 0.001 * values


def test_two_threads_format_one_csv_block_from_read_only_tables():
    """Two threads formatting one block at once both print the serial
    bytes, and the lookup tables they share are read-only."""
    for table in (
        textrows._SHIFT,
        textrows._TEN_HI,
        textrows._TEN_LO,
        textrows._TEN_HI_HI,
        textrows._TEN_HI_LO,
        textrows._QUADS,
        textrows._KEEP,
    ):
        assert table.flags.writeable is False
    block = np.random.default_rng(2).standard_normal((500, 5))
    want = repr_rows(block)
    start = threading.Barrier(2, timeout=30.0)
    got = []

    def run():
        start.wait()
        got.append(format_rows(block))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    assert got == [want, want]


def test_a_csv_block_formats_in_at_most_3_5_mib(monkeypatch, tmp_path, capsys):
    """Each block that the samples-CSV writer hands to format_rows, at the
    default block size, peaks at 3.5 MiB of traced memory, so that the
    helper thread's heap stays small."""
    written = []
    monkeypatch.setattr(cli, "_write_samples_csv", lambda *args: written.append(args))
    assert main([*WORKLOAD_EMIT.split(), "--emit-samples", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    (_, header, columns), = written
    blocks = list(row_blocks(columns[0].shape[0], 2 * len(header)))
    assert len(blocks) > 2
    for rows in blocks:
        block = np.column_stack([column[rows] for column in columns])
        tracemalloc.start()
        try:
            format_rows(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20, (rows, peak)
