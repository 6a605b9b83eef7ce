"""The oracle provider's block-by-block render against the whole-grid render
it replaced (``tests/oracles.py``), bit for bit."""

import tracemalloc

import numpy as np
import pytest

from mvmatch.features import RENDER_ROWS, OracleFeatureProvider
from mvmatch.oracle import make_planar_scene, make_point_cloud_scene

from oracles import whole_grid_render


def assert_same_render(scene, views, stride):
    provider = OracleFeatureProvider(scene, dim=32, seed=3)
    for view in views:
        got = provider._render(view, stride)
        assert got.stride == stride
        assert np.array_equal(got.data, whole_grid_render(provider, view, stride))


class TestRenderMatchesWholeGrid:
    # 113 x 145 = RENDER_ROWS + 1 pixels is one block with a one-pixel
    # tail; 99 x 331 = 2 RENDER_ROWS + 1 is two blocks, the last one a
    # pixel longer; 672^2 at stride 1 is 27 blocks
    @pytest.mark.parametrize("stride, size", [
        (1, (1, 1)), (1, (1, 7)), (1, (7, 1)), (1, (113, 145)), (1, (99, 331)),
        (1, (672, 672)), (8, (672, 672)),
    ])
    def test_planar(self, stride, size):
        assert_same_render(make_planar_scene(3, size, seed=5), (0, 2), stride)

    def test_point_cloud_over_two_blocks(self):
        scene = make_point_cloud_scene(2, (384, 384), seed=1, num_points=300_000)
        covered = OracleFeatureProvider(scene)._render(0, 1).data.any(axis=-1).sum()
        assert covered >= 2 * RENDER_ROWS
        assert_same_render(scene, (0, 1), 1)

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_point_cloud(self, stride):
        assert_same_render(make_point_cloud_scene(3, (48, 48), seed=1), (0, 2), stride)

    def test_peak_below_one_point_three_results(self):
        # the whole-grid render, with its full squared copy for the norms,
        # peaked at 2.19 results
        provider = OracleFeatureProvider(make_planar_scene(2, (672, 672), seed=1), dim=32)
        tracemalloc.start()
        try:
            grid = provider._render(1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / grid.data.nbytes
        assert ratio < 1.3, f"the render peaked at {ratio:.2f} results"
