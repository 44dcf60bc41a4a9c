"""Reference convolution implementations.

These are the golden models every kernel is verified against.  As in
the paper, "convolution" is cross-correlation: filters are not flipped.

:func:`conv2d_reference` makes one float32 ``matmul`` per tap ``(dy,
dx)`` with groups as the batch axis (a ``multiply`` at one channel per
group).  Its bytes are a contract: per-tap float32 products accumulate
in float64 from +0.0 in ``(dy, dx)`` order, and operands reach BLAS as
``np.dot`` passes them (taps and other vectors as strided views,
matrices in C order), since the BLAS route changes the rounding.

:func:`conv2d_oracle` is the naive seven-loop scalar model the reference
is property-tested against; it shares no vectorized slicing with it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.conv.tensors import ConvProblem, Padding
from repro.errors import ShapeError

__all__ = ["conv2d_reference", "conv2d_single_channel", "conv2d_oracle"]


def conv2d_reference(
    image: np.ndarray,
    filters: np.ndarray,
    padding: Padding = Padding.VALID,
    problem: Optional[ConvProblem] = None,
) -> np.ndarray:
    """Multi-channel 2-D cross-correlation.

    Parameters
    ----------
    image:
        ``(C, H, W)`` array (a 2-D array is promoted to one channel);
        ``(H, W, C)`` when ``problem.layout`` is NHWC.
    filters:
        ``(F, C/groups, K, K)`` array (2-D/3-D arrays are promoted).
    padding:
        Boundary mode; 'same' zero-pads so the output matches the input
        extent.  Ignored when ``problem`` is given.
    problem:
        Full problem description carrying stride/dilation/groups/layout.
        When omitted, the problem is inferred from the array shapes with
        default axes (stride 1, dilation 1, one group, NCHW).

    Returns
    -------
    ``(F, OH, OW)`` float32 array (``(OH, OW, F)`` for NHWC problems).
    """
    if problem is None:
        img = np.asarray(image, dtype=np.float32)
        if img.ndim == 2:
            img = img[np.newaxis]
        flt = np.asarray(filters, dtype=np.float32)
        if flt.ndim == 2:
            flt = flt[np.newaxis, np.newaxis]
        elif flt.ndim == 3:
            flt = flt[:, np.newaxis]
        if img.ndim != 3 or flt.ndim != 4:
            raise ShapeError("image must be (C,H,W) and filters (F,C,K,K)")
        if flt.shape[2] != flt.shape[3]:
            raise ShapeError("only square filters are supported")

        problem = ConvProblem(
            height=img.shape[1],
            width=img.shape[2],
            channels=img.shape[0],
            filters=flt.shape[0],
            kernel_size=flt.shape[2],
            padding=padding,
        )
        if flt.shape[1] != img.shape[0]:
            raise ShapeError(
                "filters have %d channels, image has %d"
                % (flt.shape[1], problem.channels)
            )
        image = img
        filters = flt

    img = problem.padded_image(image)
    flt = problem.check_filters(filters)

    k = problem.kernel_size
    s, d, g = problem.stride, problem.dilation, problem.groups
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    buf = np.empty((g, fpg, oh * ow), dtype=np.float32)
    for dy in range(k):
        for dx in range(k):
            window = img[:,
                         dy * d : dy * d + (oh - 1) * s + 1 : s,
                         dx * d : dx * d + (ow - 1) * s + 1 : s]
            window = window.reshape(g, cpg, oh * ow)
            taps = flt[:, :, dy, dx].reshape(g, fpg, cpg)
            if cpg == 1:
                np.multiply(taps, window, out=buf)
            else:
                # np.dot's BLAS route: matrices in C order, vectors strided.
                if fpg > 1:
                    taps = np.ascontiguousarray(taps)
                if oh * ow > 1:
                    window = np.ascontiguousarray(window)
                np.matmul(taps, window, out=buf)
            out += buf.reshape(out.shape)
    return problem.layout_output(out.astype(np.float32))


def conv2d_single_channel(image: np.ndarray, filters: np.ndarray,
                          padding: Padding = Padding.VALID) -> np.ndarray:
    """The paper's special case: one input channel (Sec. 3).

    ``image`` is ``(H, W)``; ``filters`` is ``(F, K, K)`` or ``(K, K)``.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 2:
        raise ShapeError("special-case image must be 2-D, got %d-D" % img.ndim)
    return conv2d_reference(img, filters, padding)


def conv2d_oracle(problem: ConvProblem, image: np.ndarray,
                  filters: np.ndarray) -> np.ndarray:
    """Seven-loop scalar cross-correlation: the oracle of last resort.

    Wilfully unoptimized — every output element is an explicit scalar
    accumulation over (channel, tap-row, tap-col) — so it exercises the
    stride/dilation/group index arithmetic one multiply at a time.  Use
    only on small shapes.
    """
    img = problem.padded_image(image).astype(np.float64)
    flt = problem.check_filters(filters).astype(np.float64)
    k = problem.kernel_size
    s, d = problem.stride, problem.dilation
    oh, ow = problem.out_height, problem.out_width
    cpg, fpg = problem.channels_per_group, problem.filters_per_group
    out = np.zeros((problem.filters, oh, ow), dtype=np.float64)
    for f in range(problem.filters):
        c0 = (f // fpg) * cpg
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for c in range(cpg):
                    for ky in range(k):
                        for kx in range(k):
                            acc += (img[c0 + c, oy * s + ky * d, ox * s + kx * d]
                                    * flt[f, c, ky, kx])
                out[f, oy, ox] = acc
    return problem.layout_output(out.astype(np.float32))
