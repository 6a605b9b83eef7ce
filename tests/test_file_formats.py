"""Round trips of the on-disk formats: MVWF warps, track TSV, scenes.

Each property writes a drawn value, reads it back and expects it unchanged.
Values are drawn so that the format can hold them exactly: float32 for MVWF,
six decimals for track TSV; scene JSON keeps every double.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mvmatch.grids import MISSING, DenseWarpField, read_warp_file, write_warp_file
from mvmatch.oracle import PinholeCamera, SceneOracle, load_scene, save_scene
from mvmatch.tracks import Tracks, read_track_rows, write_tracks_tsv

ROUND_TRIP = settings(max_examples=40, deadline=None, derandomize=True)

f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
f64 = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def f32_arrays(shape, elements=f32):
    return arrays(np.float32, shape, elements=elements).map(lambda a: a.astype(np.float64))


def round_trip(save, load, value, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        save(path, value)
        first = path.read_bytes()
        loaded = load(path)
        save(path, loaded)
        assert path.read_bytes() == first  # writing it again gives the same bytes
        return loaded


@st.composite
def warps(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    src, tgt = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2,
                             unique=True))
    targets = draw(f32_arrays((h, w, 2)))
    conf = draw(f32_arrays((h, w), st.floats(0.0, 1.0, width=32)))
    return DenseWarpField(targets, conf, src, tgt)


@ROUND_TRIP
@given(warps())
def test_mvwf_round_trip(warp):
    back = round_trip(write_warp_file, read_warp_file, warp, "w.mvwf")
    np.testing.assert_array_equal(back.targets, warp.targets)
    np.testing.assert_array_equal(back.confidence, warp.confidence)
    assert (back.source_view, back.target_view) == (warp.source_view, warp.target_view)


@st.composite
def track_sets(draw):
    views = draw(st.integers(2, 5))
    count = draw(st.integers(0, 6))
    coords = np.full((count, views, 2), MISSING)
    vis = np.zeros((count, views), dtype=bool)
    for t in range(count):
        vis[t] = [True] + draw(st.lists(st.booleans(), min_size=views - 1,
                                        max_size=views - 1).filter(any))
        for v in np.nonzero(vis[t])[0]:
            # micro-pixel integers divided by 1e6 print and parse back exactly
            coords[t, v] = np.array(
                draw(st.lists(st.integers(0, 4 * 10**9), min_size=2, max_size=2))) / 1e6
    return Tracks(coords, vis)


@ROUND_TRIP
@given(track_sets())
def test_track_tsv_round_trip(tracks):
    back = round_trip(write_tracks_tsv, lambda path: Tracks(*read_track_rows(path)), tracks,
                      "tracks.tsv")
    assert back.visibility.shape == tracks.visibility.shape
    np.testing.assert_array_equal(back.visibility, tracks.visibility)
    np.testing.assert_array_equal(back.coords, tracks.coords)


def rotation(a, b, c):
    """Orthonormal rotation from three angles (z, then y, then x)."""
    cz, sz, cy, sy, cx, sx = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


@st.composite
def scenes(draw):
    size = (draw(st.integers(1, 4096)), draw(st.integers(1, 4096)))
    seed = draw(st.integers(0, 2**31 - 1))
    views = draw(st.integers(2, 4))
    small = st.floats(-0.1, 0.1)
    if draw(st.booleans()):
        homs = []
        for _ in range(views):
            h = np.eye(3) + np.array(draw(st.lists(small, min_size=9, max_size=9))).reshape(3, 3)
            homs.append(h)
        return SceneOracle("planar", size, seed, homographies=tuple(homs))
    cams = []
    for _ in range(views):
        k = np.array([[draw(st.floats(1.0, 1e4)), 0, draw(f64)],
                      [0, draw(st.floats(1.0, 1e4)), draw(f64)], [0, 0, 1]])
        r = rotation(*draw(st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3)))
        t = np.array(draw(st.lists(f64, min_size=3, max_size=3)))
        cams.append(PinholeCamera(k, r, t))
    points = np.array(draw(st.lists(st.lists(f64, min_size=3, max_size=3),
                                    min_size=1, max_size=8)))
    return SceneOracle("point_cloud", size, seed, cameras=tuple(cams), points=points)


@ROUND_TRIP
@given(scenes())
def test_scene_round_trip(scene):
    back = round_trip(save_scene, load_scene, scene, "scene.json")
    assert (back.kind, back.image_size, back.noise_seed) == \
        (scene.kind, scene.image_size, scene.noise_seed)
    if scene.kind == "planar":
        for got, want in zip(back.homographies, scene.homographies, strict=True):
            np.testing.assert_array_equal(got, want)
        return
    np.testing.assert_array_equal(back.points, scene.points)
    for got, want in zip(back.cameras, scene.cameras, strict=True):
        for name in ("intrinsics", "rotation", "translation"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
