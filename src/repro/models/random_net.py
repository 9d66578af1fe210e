"""DeepSniffer-style random network generation (paper section 4.6.1).

The mapping-prediction model must not be trained on the eight evaluation
benchmarks (that would overfit), so the paper trains it on randomly
generated neural networks: "arbitrary numbers of convolution/GEMM layers
with random dimension such as output channels, stride, and kernel size in
a realistic range".
"""

from __future__ import annotations

import random

from repro.models.layers import ConvLayer, DenseLayer, Layer, Network

#: Realistic parameter ranges, loosely matching the zoo's mini scale so the
#: generated networks exercise the same simulator operating points.
_CHANNEL_CHOICES = (8, 16, 24, 32, 48, 64, 96, 128)
_SPATIAL_CHOICES = (7, 13, 16, 26, 32, 52)
_KERNEL_CHOICES = (1, 3, 5, 7)
_STRIDE_CHOICES = (1, 1, 1, 2)
_DENSE_CHOICES = (32, 64, 128, 256, 384, 512, 1024)
_BATCH_CHOICES = (1, 8, 16, 32, 64, 128)


def random_network(
    seed: int,
    *,
    min_layers: int = 3,
    max_layers: int = 10,
    name: str | None = None,
) -> Network:
    """Generate a random conv/GEMM network, deterministically from ``seed``."""
    if min_layers <= 0 or max_layers < min_layers:
        raise ValueError("need 0 < min_layers <= max_layers")
    rng = random.Random(seed)
    num_layers = rng.randint(min_layers, max_layers)
    layers: list[Layer] = []
    channels = rng.choice(_CHANNEL_CHOICES)
    spatial = rng.choice(_SPATIAL_CHOICES)
    for index in range(num_layers):
        if rng.random() < 0.6:
            kernel = rng.choice(_KERNEL_CHOICES)
            stride = rng.choice(_STRIDE_CHOICES)
            while spatial // stride < kernel:
                spatial *= 2  # keep the geometry valid
            out_channels = rng.choice(_CHANNEL_CHOICES)
            layers.append(
                ConvLayer(
                    name=f"conv{index}",
                    in_channels=channels,
                    in_h=spatial,
                    in_w=spatial,
                    out_channels=out_channels,
                    kernel_h=kernel,
                    kernel_w=kernel,
                    stride=stride,
                    padding=kernel // 2,
                )
            )
            channels = out_channels
            spatial = max(7, spatial // stride)
        else:
            layers.append(
                DenseLayer(
                    name=f"gemm{index}",
                    m=rng.choice(_DENSE_CHOICES),
                    k=rng.choice(_DENSE_CHOICES),
                    n=rng.choice(_BATCH_CHOICES),
                )
            )
    return Network(name or f"rand{seed}", tuple(layers))


def by_name(name: str) -> Network | None:
    """The network a seed name (``rand2023``) stands for, else ``None``.

    The name fixes the topology, so any process rebuilds the same
    network from the name alone and no registration is needed.
    """
    seed = name[len("rand") :] if name.startswith("rand") else ""
    return random_network(int(seed), name=name) if seed.isdigit() else None
