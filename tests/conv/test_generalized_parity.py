"""Property-based parity of the generalized reference convolution.

``conv2d_reference`` is the repository's golden output for every layer
above it, so its generalization over stride / dilation / groups / NHWC
is held to a naive 7-loop scalar oracle (``conv2d_oracle``) across
randomized axis draws.  A second class pins the error-reporting
contract: every ShapeError names the full offending problem tuple,
generalized axes included.
"""

import numpy as np
import pytest

from repro.conv.reference import conv2d_oracle, conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.errors import ShapeError


def _random_problem(rng):
    """One random generalized problem whose axes are mutually valid."""
    k = int(rng.choice((1, 3, 5)))
    stride = int(rng.integers(1, 4))
    dilation = int(rng.integers(1, 3))
    span = dilation * (k - 1) + 1
    height = span + int(rng.integers(0, 10))
    width = span + int(rng.integers(0, 10))
    # groups must divide channels and filters.
    groups = int(rng.choice((1, 1, 2, 3)))
    cpg = int(rng.integers(1, 4))
    fpg = int(rng.integers(1, 4))
    padding = Padding.SAME if rng.random() < 0.3 else Padding.VALID
    layout = Layout.NHWC if rng.random() < 0.5 else Layout.NCHW
    return ConvProblem(
        height=height, width=width, channels=groups * cpg,
        filters=groups * fpg, kernel_size=k, padding=padding,
        stride=stride, dilation=dilation, groups=groups, layout=layout,
    )


class TestReferenceVsOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_axis_draws_match_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        problem = _random_problem(rng)
        image, filters = problem.random_instance(seed=seed)
        got = conv2d_reference(image, filters, problem=problem)
        want = conv2d_oracle(problem, image, filters)
        assert got.shape == problem.output_shape
        np.testing.assert_allclose(
            got, want, rtol=1e-4, atol=1e-5,
            err_msg="reference diverges from 7-loop oracle on %s"
                    % problem.describe())

    def test_default_axes_match_legacy_inference_path(self):
        # problem=None (array inference) and problem=<default axes> are
        # the same computation — byte-identical outputs.
        problem = ConvProblem.square(16, 3, channels=3, filters=4)
        image, filters = problem.random_instance(seed=5)
        legacy = conv2d_reference(image, filters, problem.padding)
        general = conv2d_reference(image, filters, problem=problem)
        np.testing.assert_array_equal(legacy, general)

    def test_depthwise_equals_per_channel_single_group(self):
        problem = ConvProblem.square(12, 3, channels=4, filters=8, groups=4)
        image, filters = problem.random_instance(seed=9)
        out = conv2d_reference(image, filters, problem=problem)
        for g in range(4):
            single = conv2d_reference(
                image[g], filters[2 * g : 2 * g + 2, 0], problem.padding)
            np.testing.assert_array_equal(out[2 * g : 2 * g + 2], single)


class TestShapeErrorMessages:
    """Every shape/axis violation names the full problem tuple."""

    def _assert_full_tuple(self, excinfo, **expected):
        message = str(excinfo.value)
        assert "conv(" in message
        for axis, value in expected.items():
            assert "%s=%s" % (axis, value) in message, message

    def test_groups_not_dividing_channels(self):
        with pytest.raises(ShapeError) as excinfo:
            ConvProblem.square(16, 3, channels=4, filters=4, groups=3)
        self._assert_full_tuple(excinfo, groups=3, stride=1, dilation=1)

    def test_dilated_span_does_not_fit(self):
        with pytest.raises(ShapeError) as excinfo:
            ConvProblem.square(5, 5, channels=1, filters=1, dilation=3)
        self._assert_full_tuple(excinfo, dilation=3, stride=1, groups=1)

    def test_bad_image_names_layout_and_axes(self):
        problem = ConvProblem.square(16, 3, channels=2, filters=2,
                                     stride=2, layout=Layout.NHWC)
        with pytest.raises(ShapeError) as excinfo:
            problem.check_image(np.zeros((2, 16, 16), dtype=np.float32))
        self._assert_full_tuple(excinfo, stride=2, layout="nhwc")

    def test_bad_filters_names_groups(self):
        problem = ConvProblem.square(16, 3, channels=4, filters=4, groups=2)
        with pytest.raises(ShapeError) as excinfo:
            problem.check_filters(np.zeros((4, 4, 3, 3), dtype=np.float32))
        self._assert_full_tuple(excinfo, groups=2)
