"""im2col / col2im transformations (paper Fig. 1).

The RTM-AP mapping stores every sliding window of one input channel as a CAM
*column group*: ``Fh*Fw`` patch elements distributed along CAM columns and
``Hout*Wout`` output positions along CAM rows (paper Sec. IV-B).  The same
transformation also backs the reference convolution used to validate compiled
programs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ModelDefinitionError


def conv_output_size(
    input_size: int, kernel_size: int, stride: int = 1, padding: int = 0
) -> int:
    """Spatial output size of a convolution along one dimension."""
    if input_size <= 0 or kernel_size <= 0 or stride <= 0 or padding < 0:
        raise ModelDefinitionError(
            f"invalid convolution geometry: input={input_size}, kernel={kernel_size}, "
            f"stride={stride}, padding={padding}"
        )
    out = (input_size + 2 * padding - kernel_size) // stride + 1
    if out <= 0:
        raise ModelDefinitionError(
            f"convolution produces empty output: input={input_size}, "
            f"kernel={kernel_size}, stride={stride}, padding={padding}"
        )
    return out


def pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of a ``(N, C, H, W)`` tensor."""
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )


def im2col(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Expand sliding windows of a batched input into columns.

    Args:
        x: input tensor of shape ``(N, C, H, W)``.
        kernel_size: ``(Fh, Fw)``.
        stride: convolution stride (same for both dimensions).
        padding: symmetric zero padding.

    Returns:
        Array of shape ``(N, C, Fh*Fw, Hout*Wout)``: for every sample and
        input channel, one column per output position holding the flattened
        ``Fh x Fw`` patch.  This per-channel layout mirrors the AP mapping,
        where each input channel is processed by its own channel-wise DFG.
    """
    if x.ndim != 4:
        raise ModelDefinitionError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    kernel_h, kernel_w = kernel_size
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    padded = pad_input(x, padding)

    # Every (patch element, position) is written below.
    columns = np.empty(
        (batch, channels, kernel_h * kernel_w, out_h * out_w), dtype=x.dtype
    )
    patch_index = 0
    for kh in range(kernel_h):
        for kw in range(kernel_w):
            sliced = padded[
                :, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride
            ]
            columns[:, :, patch_index, :] = sliced.reshape(batch, channels, -1)
            patch_index += 1
    return columns


def im2col_matrix(
    x: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Classic im2col producing a ``(N, C*Fh*Fw, Hout*Wout)`` matrix.

    This is the layout used by the reference GEMM-based convolution.
    """
    columns = im2col(x, kernel_size, stride, padding)
    batch, channels, patch, positions = columns.shape
    return columns.reshape(batch, channels * patch, positions)
