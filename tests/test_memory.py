"""Peak memory of the stages that grow with a dataset's pair count.

tracemalloc sees numpy's buffers and does not depend on where the
allocator places them. Each bound is in bytes per pair: it is checked on
the growth of a stage's peak from n to 2n pairs, so allocations that do not
grow with the pairs (file buffers, per-location arrays) drop out, up to
_FIXED bytes by which they may differ between the two calls.
"""

import gc
import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from objentropy import cli
from objentropy import data as odata
from objentropy import io as oio
from objentropy import likelihoods as olikelihoods
from objentropy.data import (
    SplitSpec,
    _held_out,
    split_blocks,
    validate_dataset,
)
from objentropy.diagnostics import per_location_entropy
from objentropy.likelihoods import (
    CATALOG,
    evaluate_objective,
    location_frames,
)
from objentropy.synthetic import SyntheticModel, generate
from objentropy.transforms import POSITIVE_DOMAIN_KINDS

N = 100_000
_FIXED = 4096
# What a folded block of 16,384 pairs leaves for the rank that reads it:
# its locations' frames, 16 locations of 1,000 pairs here.
_PER_BLOCK = 1 << 14
# What a part of a block of a split (at most 65,536 pairs, one side's pairs
# of about 65 locations of 1,000 here) leaves for the rank that folds it:
# its locations' frames.
_PER_PART = 1 << 16
FLOAT = np.dtype(np.float64).itemsize
INDEX = np.dtype(np.intp).itemsize


def _peak(fn):
    """The peak traced memory while fn runs, above what was traced when it
    started; what fn returns is still alive at the end, so it counts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
        del result
        return peak
    finally:
        if not tracing:
            tracemalloc.stop()


def _cli_peak(argv):
    """The peak of cli.main(argv), as _peak takes it; the command must exit
    0, so that no bound is met by a command that failed. The garbage of
    earlier commands (argparse's parsers hold reference cycles) is
    collected first."""
    gc.collect()
    codes = []
    peak = _peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0], f"{argv[0]} exited {codes}"
    return peak


def _assert_per_pair(make, bound, peak=_peak):
    """make(n) returns what peak measures (by default a call) and the
    pairs it handles; its peak grows by at most bound bytes per pair from
    n to 2n pairs. A first small call warms up what is built once per
    process."""
    peak(make(1_000)[0])
    (low, n_low), (high, n_high) = [(peak(call), pairs) for call, pairs
                                    in (make(N), make(2 * N))]
    assert high - low <= bound * (n_high - n_low) + _FIXED, (
        f"{(high - low) / (n_high - n_low):.2f} bytes per pair")


def _dataset(n, locations=4, zeros=False):
    rng = np.random.default_rng(n)
    obs, pred = rng.lognormal(0.0, 1.0, (2, n))
    if zeros:
        obs[::50] = 0.0
        pred[1::50] = 0.0
    per = n // locations
    return validate_dataset({
        f"L{i}": (obs[i * per:(i + 1) * per], pred[i * per:(i + 1) * per])
        for i in range(locations)})


def test_grouped_load_holds_the_numbers_and_the_pairs(tmp_path, monkeypatch):
    """Reading a grouped file in process holds at most the parsed (n, 2)
    numbers and the dataset's (2, n) pairs: two per-pair float arrays. The
    ids are read first, and what that read keeps per record is gone before
    the numbers are parsed."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)

    def make(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(_dataset(n), path)
        return lambda: oio.load_csv(path), n

    _assert_per_pair(make, 2 * 2 * FLOAT)


@pytest.mark.parametrize("name", sorted(
    name for name, spec in CATALOG.items()
    if spec.transform_kind in POSITIVE_DOMAIN_KINDS))
def test_positive_domain_objective_holds_two_arrays(name):
    """A positive-domain objective scored in sample on one location holds
    at most two float arrays of the positive pairs, transformed in place,
    and the one-byte mask that picks them."""
    spec = CATALOG[name]

    def make(n):
        dataset = _dataset(n, locations=1, zeros=True)
        return lambda: evaluate_objective(spec, dataset, dataset), n

    _assert_per_pair(make, 2 * FLOAT + 1)


def test_correlate_holds_two_arrays():
    """per_location_entropy over every catalog objective holds, for each
    transform's shared pass, at most two float arrays of its pairs and
    the one-byte mask that picks the positive ones."""
    specs = list(CATALOG.values())

    def make(n):
        dataset = _dataset(n, locations=4, zeros=True)
        return lambda: per_location_entropy(dataset, specs), n

    _assert_per_pair(make, 2 * FLOAT + 1)


def test_subset_holds_positions_and_the_new_pairs():
    """subset holds, per kept pair, its position, its two values in the
    new dataset, and the two-byte finite mask and one-byte column check
    that a Dataset is validated with: no sort of the positions and no
    per-pair location codes."""

    def make(n):
        dataset = _dataset(n)
        mask = np.random.default_rng(1).random(n) < 0.7
        return lambda: dataset.subset(mask), int(mask.sum())

    _assert_per_pair(make, INDEX + 2 * FLOAT + 3)


def test_streamed_rank_holds_blocks_not_pairs(tmp_path, monkeypatch):
    """rank --split none folds a grouped file's spooled numbers in blocks
    of whole locations, so at a fixed location size its peak does not grow
    with the pairs. What does grow is the per-location frames that each
    block leaves: at most _PER_BLOCK bytes per block, from n to 2n pairs
    in blocks of 16,384 pairs."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(odata, "_BLOCK_PAIRS", 1 << 14)
    specs = list(CATALOG.values())
    blocks = {}

    def make(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(
            _dataset(n, locations=n // 1000, zeros=True), path)

        def call():
            parts, _ = oio.split_csv(path, SplitSpec("none"),
                                     partial(location_frames, specs))
            blocks[n] = len(parts)
            return [evaluate_objective(spec, parts, parts)
                    for spec in specs]
        return call

    _peak(make(1_000))
    low, high = _peak(make(N)), _peak(make(2 * N))
    assert blocks[2 * N] > blocks[N] > 2
    per_block = (high - low) / (blocks[2 * N] - blocks[N])
    assert high - low <= _PER_BLOCK * (blocks[2 * N] - blocks[N]) + _FIXED, (
        f"{per_block:.0f} bytes per block")


def test_streamed_location_holds_what_the_whole_read_does(tmp_path,
                                                           monkeypatch):
    """A location that rank folds is held whole, as a block of its own,
    but no more than when the file is read whole (see the bounds above):
    its pairs, read back from the spool, and a frame's two arrays and
    mask."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    specs = list(CATALOG.values())

    def make(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(_dataset(n, locations=1, zeros=True), path)

        def call():
            blocks, _ = oio.split_csv(path, SplitSpec("none"),
                                      partial(location_frames, specs))
            return [evaluate_objective(spec, blocks, blocks)
                    for spec in specs]
        return call, n

    _assert_per_pair(make, 2 * 2 * FLOAT + 1)


# What correlate keeps of a location beyond its block: its id, its run in
# the spooled parse and its row of entropies.
_PER_LOCATION = 1 << 10


def test_correlate_holds_locations_not_pairs(tmp_path, monkeypatch):
    """correlate folds a grouped file's spooled numbers a block of whole
    locations at a time, keeping each block's rows of entropies: at a
    fixed location size its peak grows with the locations, by at most
    _PER_LOCATION bytes each, and not with the pairs (16 bytes each, or
    16,000 per location of 1,000 pairs, were they loaded)."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(oio, "_BLOCK_BYTES", 1 << 16)
    specs = list(CATALOG.values())
    out = tmp_path / "correlate.json"

    def argv(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(
            _dataset(n, locations=n // 1000, zeros=True), path)
        return ["correlate", "--input", str(path), "--objectives",
                ",".join(spec.name for spec in specs), "--format", "json",
                "--out", str(out)]

    _cli_peak(argv(1_000))
    low, high = _cli_peak(argv(N)), _cli_peak(argv(2 * N))
    assert json.loads(out.read_text())["rows"]
    locations = (2 * N - N) // 1000
    assert high - low <= _PER_LOCATION * locations + _FIXED, (
        f"{(high - low) / locations:.0f} bytes per location")


@pytest.mark.parametrize("draw, per_pair", [("", INDEX), ("--bootstrap", 0)])
def test_convergence_holds_the_draw_not_the_pairs(tmp_path, monkeypatch,
                                                  draw, per_pair):
    """convergence checks a grouped file's spooled numbers a block at a
    time and reads each sorted draw from them, so at fixed sizes its peak
    grows by at most the positions numpy's choice without replacement
    permutes, INDEX bytes per pair of the input, and by nothing with
    replacement. Locations of 10,000 pairs keep what grows with the
    locations within _FIXED, and checks of 4,096 pairs at a time keep the
    check's peak below the permutation's."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(oio, "_BLOCK_BYTES", 1 << 16)
    monkeypatch.setattr(odata, "_BLOCK_PAIRS", 1 << 12)
    out = tmp_path / "convergence.json"

    def argv(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(
            _dataset(n, locations=n // 10_000, zeros=True), path)
        return ["convergence", "--input", str(path), "--sizes", "5000",
                "--replicates", "2", "--objectives", "MSE,MALE,ZMALE",
                *([draw] if draw else []), "--format", "json",
                "--out", str(out)]

    _cli_peak(argv(10_000))
    low, high = _cli_peak(argv(N)), _cli_peak(argv(2 * N))
    assert json.loads(out.read_text())["rows"]
    assert high - low <= per_pair * N + _FIXED, (
        f"{(high - low) / N:.2f} bytes per pair")


def test_generate_draws_into_the_pairs():
    """generate draws each location into its columns of the dataset's
    pairs: beside them it holds one location's draws, which do not grow
    with the locations, and the two-byte finite mask and one-byte column
    check that a Dataset is validated with."""

    def make(n):
        model = SyntheticModel("multiplicative-log-laplace", 0.3,
                               zero_inflation_rate=0.05,
                               n_per_location=min(n, 25_000),
                               n_locations=max(1, n // 25_000), seed=1)
        return lambda: generate(model), n

    _assert_per_pair(make, 2 * FLOAT + 3)


# What formatting one chunk of _CHUNK_ROWS rows may hold: its numbers as
# Python floats, its lines, and its text and bytes.
_CHUNK_BYTES = 1 << 21


def test_write_holds_one_chunk(tmp_path, monkeypatch):
    """write_dataset_csv formats a bounded chunk of rows at a time: its
    peak does not grow from n to 2n pairs, and stays within a chunk."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    peaks = []
    for n in (1_000, N, 2 * N):
        dataset = _dataset(n, zeros=True)
        peaks.append(_peak(
            lambda: oio.write_dataset_csv(dataset, tmp_path / f"{n}.csv")))
    _, low, high = peaks
    assert high - low <= _FIXED
    assert high <= _CHUNK_BYTES, f"{high} bytes"


def test_out_of_sample_rank_holds_the_mask_not_the_sides(tmp_path,
                                                          monkeypatch):
    """rank --split random, above its loaded dataset, holds the held-out
    mask and the permutation it is drawn from, then one block of whole
    locations at a time and its locations' frames: no copy of the train
    or test side. Locations have 1,000 pairs, so their frames add a little
    under a byte per pair. The file's spooled split is patched off: rank
    splits the dataset loaded for its --input, as it does a file that is
    loaded."""
    specs = list(CATALOG.values())
    datasets = {}
    monkeypatch.setattr(oio, "split_csv", lambda path, spec, reduce: (
        split_blocks(datasets[path], spec, reduce)))
    out = tmp_path / "rank.json"

    def make(n):
        datasets[str(n)] = _dataset(n, locations=max(1, n // 1000),
                                    zeros=True)
        return ["rank", "--input", str(n), "--split", "random:0.3",
                "--objectives", ",".join(spec.name for spec in specs),
                "--format", "json", "--out", str(out)], n

    _assert_per_pair(make, INDEX + 1 + 1, _cli_peak)
    assert json.loads(out.read_text())["rows"]


@pytest.mark.parametrize("split, per_pair", [("random:0.3", 4 + 1),
                                             ("none", 0)])
def test_spooled_split_holds_the_mask_and_the_positions(tmp_path, monkeypatch,
                                                        split, per_pair):
    """rank --split random folds a grouped file's spooled numbers a block
    of whole locations at a time (io.split_csv): from n to 2n pairs its
    peak grows by at most the held-out mask and the int32 positions it is
    drawn from, 5 bytes per pair, and the frames each part of a block
    leaves, at most _PER_PART bytes, with no pairs of the whole file. In
    sample, the fold holds no mask. Blocks of 64 KiB of records keep the
    parse's peak below the fold's."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(oio, "_BLOCK_BYTES", 1 << 16)
    specs = list(CATALOG.values())
    parts = []
    frames = olikelihoods.location_frames

    def counted(*args, **kwargs):
        parts.append(True)
        return frames(*args, **kwargs)

    monkeypatch.setattr(olikelihoods, "location_frames", counted)
    out = tmp_path / "rank.json"

    def argv(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(
            _dataset(n, locations=n // 1000, zeros=True), path)
        return ["rank", "--input", str(path), "--split", split,
                "--objectives", ",".join(spec.name for spec in specs),
                "--format", "json", "--out", str(out)]

    _cli_peak(argv(1_000))
    peaks, counts = [], []
    for n in (N, 2 * N):
        call = argv(n)
        parts.clear()
        peaks.append(_cli_peak(call))
        counts.append(len(parts))
    assert json.loads(out.read_text())["rows"]
    assert counts[1] > counts[0] > 1
    growth = peaks[1] - peaks[0] - per_pair * N
    assert growth <= _PER_PART * (counts[1] - counts[0]) + _FIXED, (
        f"{growth / (counts[1] - counts[0]):.0f} bytes per part above the "
        "mask")


def test_split_gathers_the_side_of_a_location(tmp_path, monkeypatch):
    """rank --split random:0.3 on a grouped file of one location, larger
    than a block, gathers each side from the spool a piece at a time: from
    2n to 4n pairs, its peak grows by at most the train side's pairs
    (70% of the pairs, 16 bytes each), its frame's two float arrays of
    them, and the held-out mask (one byte per pair), with no block of the
    location beside the side. The margin, a byte per pair, is what a
    frame's pass holds beside its arrays: the mask that picks the
    positive pairs, 0.7 bytes per pair. At n pairs a piece's read from the
    spool would still set the peak."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(oio, "_BLOCK_BYTES", 1 << 16)
    specs = list(CATALOG.values())
    out = tmp_path / "rank.json"

    def make(n):
        path = tmp_path / f"{n}.csv"
        oio.write_dataset_csv(_dataset(2 * n, locations=1, zeros=True),
                              path)
        return ["rank", "--input", str(path), "--split", "random:0.3",
                "--objectives", ",".join(spec.name for spec in specs),
                "--format", "json", "--out", str(out)], 2 * n

    kept = 0.7
    _assert_per_pair(make, kept * 2 * FLOAT + kept * 2 * FLOAT + 1 + 1,
                     _cli_peak)
    assert json.loads(out.read_text())["rows"]


def test_synth_holds_one_location(tmp_path, monkeypatch):
    """synth draws each location where its rows are written, one at a
    time, so at a fixed location size its peak does not grow with the
    number of locations. Small chunks of rows keep the peak at a
    location's draws, whose size is fixed, and not at a chunk's text,
    whose length varies with the digits drawn."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    monkeypatch.setattr(oio, "_CHUNK_ROWS", 1 << 8)

    def argv(locations):
        return ["synth", "--family", "multiplicative-log-laplace",
                "--scale", "0.3", "--zero-inflation", "0.05",
                "--n-per-location", "10000", "--locations", str(locations),
                "--seed", "1", "--out", str(tmp_path / f"{locations}.csv")]

    _cli_peak(argv(1))
    low, high = _cli_peak(argv(4)), _cli_peak(argv(8))
    assert high - low <= _FIXED, f"{high - low} bytes"


def test_held_out_draw_holds_four_bytes_per_pair():
    """A random split draws the pairs it holds out by shuffling their
    positions as int32, which permutation would hold as int64: beside the
    one-byte mask, four bytes per pair."""
    spec = SplitSpec("random", 0.3, 1)

    def make(n):
        return lambda: _held_out(n, spec, "pairs"), n

    _assert_per_pair(make, 4 + 1)


def test_streamed_block_drops_its_bytes_and_text(tmp_path, monkeypatch):
    """The block reader drops a block's bytes once they are decoded and
    its text once it is split into lines, before numpy parses them, and
    its ids and numbers before the next block is read. Folding a file
    several blocks long in sample then peaks at a block's text beside its
    lines, which take about 2.3 bytes per byte of these 42-byte rows:
    within 4.5 blocks' bytes. It peaked at 6.2 while the bytes and text
    lived through both parses."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    path = tmp_path / "d.csv"
    oio.write_dataset_csv(_dataset(2 * N, locations=2 * N // 1000), path)
    assert path.stat().st_size > 4 * oio._BLOCK_BYTES
    peak = _peak(lambda: oio.split_csv(path, SplitSpec("none"),
                                       lambda block: block.n_total))
    assert peak <= 4.5 * oio._BLOCK_BYTES, (
        f"{peak / oio._BLOCK_BYTES:.2f} blocks")


def test_spool_read_holds_little_beside_its_output(tmp_path, monkeypatch):
    """A read of a load's spooled numbers reads them a small buffer at a
    time and copies each piece transposed into the (2, n) pairs it
    returns, so a read of 65,536 pairs peaks within 1.1 times those
    pairs. Reading each run of the spool into bytes of its own held
    twice the pairs."""
    monkeypatch.setattr(oio, "_workers", lambda: 1)
    n = 1 << 16
    path = tmp_path / "d.csv"
    oio.write_dataset_csv(_dataset(n, locations=1), path)
    peak = oio.read_csv(path, lambda layout: _peak(lambda: layout.read(0, n)))
    assert peak <= 1.1 * 2 * FLOAT * n, f"{peak / (2 * FLOAT * n):.2f}"
