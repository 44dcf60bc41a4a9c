"""Byte-level pins of ``conv2d_reference`` against its frozen predecessor.

Every serving response, fleet digest and kernel parity check is
measured against ``conv2d_reference``, so its output bytes are a
contract, not just its values.  ``_frozen_tensordot_reference`` is a
verbatim copy of the tap loop the reference used before it became one
``matmul`` (or, at one channel per group, one ``multiply``) per tap:
a ``tensordot`` across channels per tap and per group, accumulated in
float64 from +0.0 in ``(dy, dx)`` order.  Each test asserts equal
``tobytes()``, shape and dtype.  ``conv2d_oracle`` cannot pin this;
it is only allclose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.serve.trace import SHAPE_FAMILIES


def _frozen_tensordot_reference(image, filters, problem):
    """The per-tap, per-group ``tensordot`` loop, kept as the byte oracle."""
    img = problem.padded_image(image)
    flt = problem.check_filters(filters)

    k = problem.kernel_size
    s, d, g = problem.stride, problem.dilation, problem.groups
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    for dy in range(k):
        for dx in range(k):
            window = img[:,
                         dy * d : dy * d + (oh - 1) * s + 1 : s,
                         dx * d : dx * d + (ow - 1) * s + 1 : s]
            taps = flt[:, :, dy, dx]
            if g == 1:
                out += np.tensordot(taps, window, axes=([1], [0]))
            else:
                for gi in range(g):
                    out[gi * fpg : (gi + 1) * fpg] += np.tensordot(
                        taps[gi * fpg : (gi + 1) * fpg],
                        window[gi * cpg : (gi + 1) * cpg],
                        axes=([1], [0]),
                    )
    return problem.layout_output(out.astype(np.float32))


#: Every distinct shape of the serving palettes ("mixed" repeats the others).
_PALETTE_SHAPES = list(dict.fromkeys(
    shape for shapes in SHAPE_FAMILIES.values() for shape in shapes))


def _assert_same_bytes(problem, image, filters):
    got = conv2d_reference(image, filters, problem=problem)
    want = _frozen_tensordot_reference(image, filters, problem)
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), problem.describe()


@st.composite
def generalized_problems(draw):
    """A problem with mutually valid axes.

    Groups span ``cpg == 1`` and ``fpg == 1``, and the extents span
    one-pixel outputs, one-row and one-column outputs, so every BLAS
    route ``np.dot`` takes (dot, either gemv, gemm) is drawn.
    """
    k = draw(st.sampled_from((1, 3, 5, 7)))
    stride = draw(st.integers(1, 3))
    dilation = draw(st.integers(1, 3))
    span = dilation * (k - 1) + 1
    extra = st.sampled_from((0, 0, 1, 3, 10, 25))
    groups = draw(st.sampled_from((1, 2, 3, 4)))
    cpg = draw(st.sampled_from((1, 1, 2, 3, 16, 64)))
    fpg = draw(st.sampled_from((1, 1, 2, 5, 16)))
    return ConvProblem(
        height=span + draw(extra),
        width=span + draw(extra),
        channels=groups * cpg,
        filters=groups * fpg,
        kernel_size=k,
        padding=draw(st.sampled_from((Padding.VALID, Padding.SAME))),
        stride=stride,
        dilation=dilation,
        groups=groups,
        layout=draw(st.sampled_from((Layout.NCHW, Layout.NHWC))),
    )


class TestFrozenOracleBits:
    @given(generalized_problems(), st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_generalized_sweep(self, problem, seed):
        image, filters = problem.random_instance(seed=seed)
        _assert_same_bytes(problem, image, filters)

    @pytest.mark.parametrize("channels", [64, 128, 256])
    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_single_filter_deep_channels(self, channels, kernel_size):
        problem = ConvProblem.square(24, kernel_size, channels=channels,
                                     filters=1)
        image, filters = problem.random_instance(seed=channels)
        _assert_same_bytes(problem, image, filters)

    @pytest.mark.parametrize("filters", [1, 8])
    @pytest.mark.parametrize("kernel_size, stride", [(5, 1), (1, 5)])
    @pytest.mark.parametrize("height, width", [(5, 5), (5, 20), (20, 5)])
    def test_single_pixel_row_and_column_outputs(self, filters, kernel_size,
                                                 stride, height, width):
        # Both K=5 at stride 1 and K=1 at stride 5 make a 5-pixel extent
        # one output pixel wide.
        problem = ConvProblem(height=height, width=width, channels=96,
                              filters=filters, kernel_size=kernel_size,
                              stride=stride)
        for seed in range(3):
            image, filters = problem.random_instance(seed=seed)
            _assert_same_bytes(problem, image, filters)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_signed_zero(self, groups):
        problem = ConvProblem.square(16, 3, channels=4, filters=4,
                                     groups=groups, padding=Padding.SAME)
        image = np.zeros(problem.image_shape, dtype=np.float32)
        filters = -np.ones(problem.filter_shape, dtype=np.float32)
        _assert_same_bytes(problem, image, filters)
        out = conv2d_reference(image, filters, problem=problem)
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("problem", _PALETTE_SHAPES,
                             ids=lambda p: p.describe())
    def test_serving_palettes(self, problem):
        for seed in range(3):
            image, filters = problem.random_instance(seed=seed)
            _assert_same_bytes(problem, image, filters)
