import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf.errors import (
    DimensionMismatch,
    IoFailure,
    MalformedHeader,
    RejectedValue,
    ShapeMismatch,
    UnsupportedFormat,
)
from cdconf.raster import (
    _NORM_BLOCK,
    _normalized,
    ConfidenceMap,
    ConfidenceState,
    LabelMap,
    Raster,
    load_confidence_map,
    load_label_map,
    load_raster,
    normalize_bands,
    normalize_pair,
    render_change,
    render_confidence,
    save_raster,
)
from oracles import normalize_pair_reference


def _raster(arr) -> Raster:
    return Raster(np.asarray(arr, dtype=np.float32))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRasterType:
    def test_shape_properties(self):
        r = _raster(np.zeros((4, 3, 5)))
        assert (r.bands, r.height, r.width) == (4, 3, 5)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((3, 5), dtype=np.float32))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((1, 3, 5), dtype=np.float64))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Raster(np.zeros((0, 3, 5), dtype=np.float32))


class TestCdrRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=7))
        r = _raster(rng.normal(size=(3, 17, 11)))
        p = tmp_path / "x.cdr"
        save_raster(r, p)
        back = load_raster(p)
        assert back.data.dtype == np.float32
        assert np.array_equal(back.data, r.data)

    def test_header_contents(self, tmp_path):
        p = tmp_path / "x.cdr"
        save_raster(_raster(np.zeros((2, 3, 5))), p)
        blob = p.read_bytes()
        assert blob[:4] == b"CDR1"
        hlen = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + hlen])
        assert header == {
            "width": 5,
            "height": 3,
            "bands": 2,
            "dtype": "f32",
            "layout": "band-sequential",
        }
        assert len(blob) == 8 + hlen + 2 * 3 * 5 * 4

    def test_band_sequential_layout(self, tmp_path):
        # second band starts exactly width*height floats into the payload
        r = _raster(np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0)]))
        p = tmp_path / "x.cdr"
        save_raster(r, p)
        blob = p.read_bytes()
        hlen = int.from_bytes(blob[4:8], "little")
        floats = np.frombuffer(blob[8 + hlen :], dtype="<f4")
        assert list(floats) == [1.0] * 4 + [2.0] * 4

    def test_rejects_nan(self, tmp_path):
        bad = np.zeros((1, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(RejectedValue):
            save_raster(Raster(bad), tmp_path / "x.cdr")

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_inf(self, tmp_path, value):
        bad = np.zeros((2, 2, 2), dtype=np.float32)
        bad[1, 1, 0] = value
        with pytest.raises(RejectedValue):
            save_raster(Raster(bad), tmp_path / "x.cdr")
        assert not (tmp_path / "x.cdr").exists()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoFailure):
            save_raster(_raster(np.zeros((1, 2, 2))), tmp_path / "absent" / "x.cdr")

    # a C-ordered raster and a strided view of one
    @pytest.mark.parametrize("strided", [False, True])
    def test_bytes_of_the_whole_blob_encoding(self, tmp_path, strided):
        rng = np.random.Generator(np.random.Philox(key=8))
        data = rng.normal(size=(3, 11, 7)).astype(np.float32)
        r = Raster(data.transpose(0, 2, 1) if strided else data)
        save_raster(r, tmp_path / "x.cdr")
        header = json.dumps({"width": r.width, "height": r.height, "bands": r.bands,
                             "dtype": "f32", "layout": "band-sequential"},
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
        want = (b"CDR1" + len(header).to_bytes(4, "little") + header
                + np.ascontiguousarray(r.data, dtype="<f4").tobytes())
        assert (tmp_path / "x.cdr").read_bytes() == want

    def test_traced_peak_far_below_the_raster(self, tmp_path):
        # the samples go to the file from the raster's own buffer: no copy
        # of the payload, nor a mask of its finite samples
        r = _raster(np.ones((100, 64, 64)))
        tracemalloc.start()
        try:
            save_raster(r, tmp_path / "x.cdr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * r.data.nbytes

    def test_load_traced_peak_is_the_raster(self, tmp_path):
        # the samples are read straight into the raster's array: no copy of
        # the file, nor of its payload, nor a mask of its finite samples
        r = _raster(np.random.Generator(np.random.Philox(key=9)).normal(size=(3, 101, 257)))
        save_raster(r, tmp_path / "x.cdr")
        assert _traced_peak(lambda: load_raster(tmp_path / "x.cdr")) <= r.data.nbytes + 16384

    def test_rejects_inf_on_load(self, tmp_path):
        p = tmp_path / "x.cdr"
        save_raster(_raster(np.zeros((1, 1, 1))), p)
        blob = bytearray(p.read_bytes())
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        p.write_bytes(bytes(blob))
        with pytest.raises(RejectedValue):
            load_raster(p)

    @settings(max_examples=25, deadline=None)
    @given(
        b=st.integers(1, 4),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, b, h, w, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        r = _raster(rng.uniform(-1e6, 1e6, size=(b, h, w)))
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "x.cdr"
            save_raster(r, p)
            assert np.array_equal(load_raster(p).data, r.data)


class TestCdrErrors:
    def test_truncated_header(self, tmp_path):
        p = tmp_path / "x.cdr"
        p.write_bytes(b"CDR1\x02")
        with pytest.raises(MalformedHeader):
            load_raster(p)

    def test_header_overrun(self, tmp_path):
        p = tmp_path / "x.cdr"
        p.write_bytes(b"CDR1" + (9999).to_bytes(4, "little") + b"{}")
        with pytest.raises(MalformedHeader):
            load_raster(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "x.cdr"
        body = b"not json"
        p.write_bytes(b"CDR1" + len(body).to_bytes(4, "little") + body)
        with pytest.raises(MalformedHeader):
            load_raster(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "x.cdr"
        body = json.dumps({"width": 1, "height": 1}).encode()
        p.write_bytes(b"CDR1" + len(body).to_bytes(4, "little") + body)
        with pytest.raises(MalformedHeader):
            load_raster(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "x.cdr"
        body = json.dumps(
            {"width": 1, "height": 1, "bands": 1, "dtype": "f64", "layout": "band-sequential"}
        ).encode()
        p.write_bytes(b"CDR1" + len(body).to_bytes(4, "little") + body + b"\0" * 8)
        with pytest.raises(UnsupportedFormat):
            load_raster(p)

    def test_payload_size_mismatch(self, tmp_path):
        p = tmp_path / "x.cdr"
        save_raster(_raster(np.zeros((1, 2, 2))), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DimensionMismatch):
            load_raster(p)

    def test_giant_header_over_a_small_payload_allocates_nothing(self, tmp_path):
        # the declared 4e13 bytes are checked against the file's size before
        # any array is made for them
        p = tmp_path / "x.cdr"
        body = json.dumps({"width": 10**5, "height": 10**5, "bands": 10**3,
                           "dtype": "f32", "layout": "band-sequential"}).encode()
        p.write_bytes(b"CDR1" + len(body).to_bytes(4, "little") + body + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch):
                load_raster(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 65536

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_raster(tmp_path / "absent.cdr")

    def test_unknown_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"GIF89a....")
        with pytest.raises(UnsupportedFormat):
            load_raster(p)


class TestPnm:
    def test_pgm_load(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 128, 255, 10, 20, 30]))
        r = load_raster(p)
        assert (r.bands, r.height, r.width) == (1, 2, 3)
        assert r.data[0, 0, 1] == np.float32(128 / 255)
        assert r.data[0, 1, 2] == np.float32(30 / 255)

    def test_ppm_load(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        r = load_raster(p)
        assert (r.bands, r.height, r.width) == (3, 1, 2)
        assert r.data[0, 0, 0] == 1.0 and r.data[1, 0, 0] == 0.0
        assert r.data[1, 0, 1] == 1.0

    def test_comments_and_maxval(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n# another\n100\n" + bytes([50, 100]))
        r = load_raster(p)
        assert r.data[0, 0, 0] == np.float32(0.5)
        assert r.data[0, 0, 1] == np.float32(1.0)

    def test_16bit_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\0\0")
        with pytest.raises(UnsupportedFormat):
            load_raster(p)

    def test_ppm_bit_identical_to_the_scaled_bytes(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=10))
        rgb = rng.integers(0, 201, size=(7, 5, 3), dtype=np.uint8)
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n5 7\n200\n" + rgb.tobytes())
        want = rgb.transpose(2, 0, 1).astype(np.float32) / np.float32(200)
        assert np.array_equal(load_raster(p).data.view(np.uint32), want.view(np.uint32))

    def test_ppm_traced_peak_is_the_file_and_the_raster(self, tmp_path):
        # the payload is read through a view of the file's bytes and scaled
        # in the raster's own array
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n257 101\n255\n" + bytes(range(256)) * (3 * 101 * 257 // 256)
                      + bytes(3 * 101 * 257 % 256))
        raster_bytes = 4 * 3 * 101 * 257
        peak = _traced_peak(lambda: load_raster(p))
        assert peak <= p.stat().st_size + raster_bytes + 16384

    def test_payload_mismatch(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n3 3\n255\n" + bytes(4))
        with pytest.raises(DimensionMismatch):
            load_raster(p)

    def test_bad_token(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\nwide 2\n255\n" + bytes(4))
        with pytest.raises(MalformedHeader):
            load_raster(p)


class TestNormalize:
    def test_range_and_extremes(self):
        r = _raster([[[2.0, 4.0], [6.0, 10.0]]])
        n = normalize_bands(r)
        assert n.data.min() == 0.0 and n.data.max() == 1.0
        assert n.data[0, 0, 1] == np.float32(0.25)

    def test_per_band_independent(self):
        r = _raster(
            [
                [[0.0, 1.0]],
                [[100.0, 300.0]],
            ]
        )
        n = normalize_bands(r)
        assert np.array_equal(n.data[0], n.data[1])

    def test_constant_band(self):
        n = normalize_bands(_raster(np.full((1, 3, 3), 7.0)))
        assert np.all(n.data == np.float32(0.5))

    def test_idempotent(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        r = _raster(rng.normal(size=(3, 8, 8)) * 40 - 3)
        once = normalize_bands(r)
        twice = normalize_bands(once)
        assert np.array_equal(once.data, twice.data)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.25, 1.0, 4.0, 1024.0]))
    def test_scale_invariant_for_pow2(self, seed, scale):
        # power-of-2 scaling is exact in binary floats, so outputs match bit for bit
        rng = np.random.Generator(np.random.Philox(key=seed))
        base = rng.uniform(-5, 5, size=(2, 6, 6)).astype(np.float32)
        a = normalize_bands(Raster(base))
        b = normalize_bands(Raster(base * np.float32(scale)))
        assert np.array_equal(a.data, b.data)


class TestNormalizePair:
    def test_shared_affine(self):
        # band range [0,4] pooled: raster values 1 and 3 land at 0.25 / 0.75
        a = _raster([[[0.0, 1.0]]])
        b = _raster([[[3.0, 4.0]]])
        na, nb = normalize_pair(a, b)
        assert na.data.tolist() == [[[0.0, 0.25]]]
        assert nb.data.tolist() == [[[0.75, 1.0]]]

    def test_identical_rasters_match_single(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        r = _raster(rng.uniform(-2, 9, size=(3, 5, 5)))
        na, nb = normalize_pair(r, Raster(r.data.copy()))
        single = normalize_bands(r)
        assert np.array_equal(na.data, single.data)
        assert np.array_equal(nb.data, na.data)

    def test_constant_band_in_both(self):
        a = _raster(np.full((1, 2, 2), 3.0))
        na, nb = normalize_pair(a, _raster(np.full((1, 2, 2), 3.0)))
        assert np.all(na.data == np.float32(0.5)) and np.all(nb.data == np.float32(0.5))

    def test_no_spurious_difference_on_shared_content(self):
        # one raster has an extra hot region; outside it, normalized values
        # must still agree exactly because the affine is shared
        rng = np.random.Generator(np.random.Philox(key=4))
        base = rng.uniform(0, 1, size=(2, 8, 8)).astype(np.float32)
        shifted = base.copy()
        shifted[:, :2, :2] += 5.0
        na, nb = normalize_pair(Raster(base), Raster(shifted))
        assert np.array_equal(na.data[:, 2:, 2:], nb.data[:, 2:, 2:])

    # odd sizes; a band constant across both rasters; each raster holding
    # a band's extreme: its low, its high, or both
    @pytest.mark.parametrize("case", ["odd", "constant", "low-in-a", "high-in-b", "both-in-b"])
    def test_bit_identical_to_whole_band_scaling(self, case):
        rng = np.random.Generator(np.random.Philox(key=12))
        a = rng.normal(size=(3, 37, 129)).astype(np.float32) * np.float32(30)
        b = rng.normal(size=(3, 37, 129)).astype(np.float32) * np.float32(30)
        if case == "constant":
            a[1] = b[1] = np.float32(-2.5)
        elif case == "low-in-a":
            a[0, 5, 7] = -1e3
        elif case == "high-in-b":
            b[2, 36, 128] = 1e3
        elif case == "both-in-b":
            b[0, 0, 0], b[0, 36, 0] = -1e3, 1e3
        got = normalize_pair(Raster(a), Raster(b))
        for g, w in zip(got, normalize_pair_reference(a, b)):
            assert np.array_equal(g.data.view(np.uint32), w.view(np.uint32))

    def test_bit_identical_across_blocks(self):
        # a band of 2.5 blocks: the last block is ragged
        rng = np.random.Generator(np.random.Philox(key=13))
        a, b = (rng.uniform(-7, 3, size=(2, 5, _NORM_BLOCK // 2)).astype(np.float32)
                for _ in range(2))
        got = normalize_pair(Raster(a), Raster(b))
        for g, w in zip(got, normalize_pair_reference(a, b)):
            assert np.array_equal(g.data.view(np.uint32), w.view(np.uint32))

    def test_traced_peak_is_the_outputs_and_one_block(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        a, b = (Raster(rng.normal(size=(3, 101, 257)).astype(np.float32)) for _ in range(2))
        peak = _traced_peak(lambda: normalize_pair(a, b))
        assert peak <= 2 * a.data.nbytes + 8 * _NORM_BLOCK + 16384

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            normalize_pair(_raster(np.zeros((1, 2, 2))), _raster(np.zeros((1, 3, 2))))
        with pytest.raises(ShapeMismatch):
            _normalized(_raster(np.zeros((1, 2, 2))), _raster(np.zeros((1, 3, 2))))

    # a caller may reuse what it normalized: the results are scaled copies
    def test_leaves_its_inputs_as_they_are(self):
        rng = np.random.Generator(np.random.Philox(key=15))
        a, b = (_raster(rng.uniform(-4, 9, size=(2, 7, 5))) for _ in range(2))
        was = [a.data.copy(), b.data.copy()]
        got = (*normalize_pair(a, b), normalize_bands(a))
        for r, w in zip((a, b), was):
            assert np.array_equal(r.data.view(np.uint32), w.view(np.uint32))
        assert not any(np.shares_memory(g.data, r.data) for g in got for r in (a, b))

    # the rasters _normalized is handed are scaled where they are, band by
    # band, each by the extremes of both taken before any of it is scaled;
    # the second raster holds the first band's low and high
    def test_the_rasters_it_is_handed_are_scaled_in_place(self):
        rng = np.random.Generator(np.random.Philox(key=16))
        a = rng.normal(size=(3, 37, 129)).astype(np.float32)
        b = rng.normal(size=(3, 37, 129)).astype(np.float32)
        b[0, 0, 0], b[0, 36, 128] = -1e3, 1e3
        a[2] = b[2] = np.float32(4)
        want = normalize_pair_reference(a, b)
        x1, x2 = Raster(a), Raster(b)
        got = _normalized(x1, x2)
        assert got[0] is x1 and got[1] is x2
        for arr, w in zip((a, b), want):
            assert np.array_equal(arr.view(np.uint32), w.view(np.uint32))

    def test_in_place_traced_peak_is_one_block(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        a, b = (Raster(rng.normal(size=(3, 101, 257)).astype(np.float32)) for _ in range(2))
        assert _traced_peak(lambda: _normalized(a, b)) <= 8 * _NORM_BLOCK + 16384


class TestRendering:
    def test_change_colors(self, tmp_path):
        m = LabelMap(np.array([[True, False]], dtype=bool))
        p = tmp_path / "c.pgm"
        render_change(m, p)
        blob = p.read_bytes()
        assert blob.startswith(b"P5")
        assert blob[-2:] == bytes([0, 255])

    def test_change_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=3))
        m = LabelMap(rng.uniform(size=(9, 7)) < 0.4)
        p = tmp_path / "c.pgm"
        render_change(m, p)
        assert np.array_equal(load_label_map(p).changed, m.changed)

    def test_confidence_colors(self, tmp_path):
        c = ConfidenceMap(np.array([[0, 1, 2]], dtype=np.uint8))
        p = tmp_path / "c.ppm"
        render_confidence(c, p)
        payload = p.read_bytes()[-9:]
        assert payload == bytes([0, 0, 0, 255, 255, 255, 255, 0, 0])

    def test_confidence_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=5))
        c = ConfidenceMap(rng.integers(0, 3, size=(6, 8)).astype(np.uint8))
        p = tmp_path / "c.ppm"
        render_confidence(c, p)
        assert np.array_equal(load_confidence_map(p).states, c.states)

    def test_confidence_rejects_foreign_colors(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 255, 0]))
        with pytest.raises(RejectedValue):
            load_confidence_map(p)

    def test_label_map_needs_one_band(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 0, 0]))
        with pytest.raises(UnsupportedFormat):
            load_label_map(p)

    def test_confidence_map_needs_three_bands(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\0")
        with pytest.raises(UnsupportedFormat):
            load_confidence_map(p)


class TestConfidenceMapType:
    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError):
            ConfidenceMap(np.full((2, 2), 9, dtype=np.uint8))

    def test_enum_values_frozen(self):
        assert ConfidenceState.CONFIDENT_CHANGED == 0
        assert ConfidenceState.CONFIDENT_UNCHANGED == 1
        assert ConfidenceState.NOT_CONFIDENT == 2
