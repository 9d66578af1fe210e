"""The eight benchmark DNNs of the paper's Table 1.

Topologies follow the SCALE-Sim conventions the artifact says it is based
on: each model is an ordered list of layers, convolutions described by
their feature-map/kernel geometry and everything else by its GEMM
dimensions.  Two variants exist per model:

* :func:`full` — the published model sizes (ResNet-50 on 224x224 input,
  GPT-2 small at sequence 1024, ...).  Faithful but slow to simulate at
  cycle level in Python (the original C++ artifact itself quotes up to
  24 h per configuration).
* :func:`mini` — topology-faithful scaled versions used by the benchmark
  sweeps: same layer types and per-model intensity ordering, dimensions
  divided by ~4.  See DESIGN.md substitution 2.

The short names (``res``, ``yt``, ``alex``, ``sfrnn``, ``ds2``, ``dlrm``,
``ncf``, ``gpt2``) match the paper's abbreviations.  Each builder imports
the layer classes it makes, so :data:`NAMES` and :data:`CATEGORIES` (the
CLI's choices, figure planning) load none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.models.layers import Layer, Network


def _ch(value: int, scale: int, floor: int = 8) -> int:
    """Scale a channel/hidden dimension down, keeping a sane floor."""
    return max(floor, value // scale)


def _sp(value: int, scale: int, floor: int = 7) -> int:
    """Scale a spatial/sequence dimension down, keeping a sane floor."""
    return max(floor, value // scale)


def alexnet(scale: int = 1) -> Network:
    """AlexNet (Krizhevsky et al.): 5 convolutions + 3 dense layers."""
    from repro.models.layers import ConvLayer, DenseLayer, Network

    s = scale
    layers: list[Layer] = [
        ConvLayer("conv1", 3, _sp(227, s), _sp(227, s), _ch(96, s), 11, 11, stride=4),
        ConvLayer(
            "conv2", _ch(96, s), _sp(27, s), _sp(27, s), _ch(256, s), 5, 5, padding=2
        ),
        ConvLayer(
            "conv3", _ch(256, s), _sp(13, s), _sp(13, s), _ch(384, s), 3, 3, padding=1
        ),
        ConvLayer(
            "conv4", _ch(384, s), _sp(13, s), _sp(13, s), _ch(384, s), 3, 3, padding=1
        ),
        ConvLayer(
            "conv5", _ch(384, s), _sp(13, s), _sp(13, s), _ch(256, s), 3, 3, padding=1
        ),
        DenseLayer("fc6", _ch(4096, s), _ch(9216, s), 1),
        DenseLayer("fc7", _ch(4096, s), _ch(4096, s), 1),
        DenseLayer("fc8", 1000 if s == 1 else _ch(1000, s), _ch(4096, s), 1),
    ]
    return Network("alex", tuple(layers))


def resnet50(scale: int = 1) -> Network:
    """ResNet-50: 7x7 stem + 16 bottleneck blocks (stages 3/4/6/3) + FC."""
    from repro.models.layers import ConvLayer, DenseLayer, Network

    s = scale
    layers: list[Layer] = [
        ConvLayer(
            "stem", 3, _sp(224, s), _sp(224, s), _ch(64, s), 7, 7, stride=2, padding=3
        )
    ]
    stage_blocks = (3, 4, 6, 3)
    stage_channels = (64, 128, 256, 512)
    stage_spatial = (56, 28, 14, 7)
    for stage, (blocks, width, spatial) in enumerate(
        zip(stage_blocks, stage_channels, stage_spatial), start=1
    ):
        hw = _sp(spatial, s)
        mid = _ch(width, s)
        out = _ch(width * 4, s)
        inp = _ch(64, s) if stage == 1 else _ch(stage_channels[stage - 2] * 4, s)
        for block in range(blocks):
            prefix = f"s{stage}b{block}"
            cin = inp if block == 0 else out
            layers.append(ConvLayer(f"{prefix}_c1", cin, hw, hw, mid, 1, 1))
            layers.append(ConvLayer(f"{prefix}_c2", mid, hw, hw, mid, 3, 3, padding=1))
            layers.append(ConvLayer(f"{prefix}_c3", mid, hw, hw, out, 1, 1))
    layers.append(DenseLayer("fc", 1000 if s == 1 else _ch(1000, s), _ch(2048, s), 1))
    return Network("res", tuple(layers))


def yolo_tiny(scale: int = 1) -> Network:
    """YOLOv2-tiny: seven 3x3 convolutions with pool-halved feature maps."""
    from repro.models.layers import ConvLayer, Network

    s = scale
    widths = (16, 32, 64, 128, 256, 512, 1024)
    spatial = (416, 208, 104, 52, 26, 13, 13)
    # Scale channels gently but spatial harder: yolo-tiny's deep, wide-channel
    # convolutions are what make it compute-bound (narrow box in Figure 8).
    ch_scale = 1 if s == 1 else s // 2
    sp_scale = 1 if s == 1 else s * 2
    layers: list[Layer] = []
    cin = 3
    for index, (width, hw) in enumerate(zip(widths, spatial), start=1):
        cout = _ch(width, ch_scale)
        size = _sp(hw, sp_scale)
        layers.append(ConvLayer(f"conv{index}", cin, size, size, cout, 3, 3, padding=1))
        cin = cout
    layers.append(
        ConvLayer(
            "head", cin, _sp(13, sp_scale), _sp(13, sp_scale),
            _ch(128, ch_scale, floor=16), 1, 1,
        )
    )
    return Network("yt", tuple(layers))


def selfish_rnn(scale: int = 1, seq: int | None = None) -> Network:
    """Selfish-RNN: stacked LSTM language model (PTB-style, hidden 1500).

    Each timestep batch is small (``n`` = sequence positions processed as
    one GEMM) while gate weight matrices are large, so weight traffic
    dominates: the model is memory-intensive, matching its wide
    contention-sensitivity box in Figure 8.
    """
    from repro.models.layers import DenseLayer, Network

    s = scale
    hidden = _ch(1500, s, floor=64)
    seq_len = seq if seq is not None else _sp(35, 1 if s == 1 else 2)
    vocab = _ch(10000, s, floor=256)
    layers: list[Layer] = [
        DenseLayer("embed", hidden, vocab, seq_len),
        DenseLayer("lstm1", 4 * hidden, 2 * hidden, seq_len),
        DenseLayer("lstm2", 4 * hidden, 2 * hidden, seq_len),
        DenseLayer("softmax", vocab, hidden, seq_len),
    ]
    return Network("sfrnn", tuple(layers))


def deepspeech2(scale: int = 1, seq: int | None = None) -> Network:
    """DeepSpeech2: two big 2-D convolutions + five GRU layers + CTC head."""
    from repro.models.layers import ConvLayer, DenseLayer, Network

    s = scale
    seq_len = seq if seq is not None else _sp(340, s, floor=16)
    hidden = _ch(800, s, floor=64)
    freq = _sp(161, s, floor=16)
    conv_ch = 32 if s == 1 else 8
    # Kernels shrink with the spectrogram so mini stays geometrically valid.
    k1h, k1w = (41, 11) if s == 1 else (11, 5)
    k2h, k2w = (21, 11) if s == 1 else (7, 5)
    layers: list[Layer] = [
        ConvLayer("conv1", 1, freq, _sp(700, s, floor=32), conv_ch, k1h, k1w, stride=2),
        ConvLayer(
            "conv2",
            conv_ch,
            _sp(61, s, floor=8),
            _sp(345, s, floor=16),
            conv_ch,
            k2h,
            k2w,
            stride=2,
        ),
    ]
    for index in range(1, 6):
        layers.append(DenseLayer(f"gru{index}", 3 * hidden, 2 * hidden, seq_len))
    layers.append(DenseLayer("ctc", _ch(4096, s, floor=64), hidden, seq_len))
    return Network("ds2", tuple(layers))


def dlrm(scale: int = 1, batch: int | None = None) -> Network:
    """DLRM: pooled embedding gathers (26 tables) + bottom/top MLPs.

    Embedding traffic dominates, making the model the most
    memory-intensive of the zoo — the paper reports dlrm has the widest
    co-runner sensitivity (Figure 8) and the largest page-size gain
    (~30%, section 4.5.1).
    """
    from repro.models.layers import DenseLayer, EmbeddingLayer, Network

    s = scale
    emb_batch = batch if batch is not None else (2048 if s == 1 else 512)
    # The MLP stack processes the same requests but its GEMM batch is a
    # much smaller compute load than the gathers' traffic (DLRM inference
    # is embedding-dominated); mini keeps that imbalance.
    mlp_batch = emb_batch if s == 1 else emb_batch // 8
    dim = 64 if s == 1 else 32
    layers: list[Layer] = []
    groups = 4
    tables_per_group = 26 // groups
    for group in range(groups):
        layers.append(
            EmbeddingLayer(
                f"emb{group}", lookups=tables_per_group, dim=dim, batch=emb_batch
            )
        )
    layers.extend(
        [
            DenseLayer("bot1", _ch(512, s), 13, mlp_batch),
            DenseLayer("bot2", _ch(256, s), _ch(512, s), mlp_batch),
            DenseLayer("bot3", dim, _ch(256, s), mlp_batch),
            DenseLayer("top1", _ch(1024, s), _ch(512, s), mlp_batch),
            DenseLayer("top2", _ch(1024, s), _ch(1024, s), mlp_batch),
            DenseLayer("top3", _ch(512, s), _ch(1024, s), mlp_batch),
            DenseLayer("top4", 1, _ch(512, s), mlp_batch),
        ]
    )
    return Network("dlrm", tuple(layers))


def ncf(scale: int = 1, batch: int | None = None) -> Network:
    """Neural Collaborative Filtering: GMF/MLP embeddings + a small MLP."""
    from repro.models.layers import DenseLayer, EmbeddingLayer, Network

    s = scale
    b = batch if batch is not None else (4096 if s == 1 else 512)
    dim = 64 if s == 1 else 32
    mlp_batch = b if s == 1 else b // 4
    layers: list[Layer] = [
        EmbeddingLayer("user_emb", lookups=4, dim=dim, batch=b),
        EmbeddingLayer("item_emb", lookups=4, dim=dim, batch=b),
        DenseLayer("mlp1", _ch(1024, s), 2 * dim, mlp_batch),
        DenseLayer("mlp2", _ch(512, s), _ch(1024, s), mlp_batch),
        DenseLayer("mlp3", _ch(256, s), _ch(512, s), mlp_batch),
        DenseLayer("mlp4", dim, _ch(256, s), mlp_batch),
        DenseLayer("predict", 1, 2 * dim, mlp_batch),
    ]
    return Network("ncf", tuple(layers))


def gpt2(scale: int = 1, seq: int | None = None, blocks: int | None = None) -> Network:
    """GPT-2 small: 12 transformer blocks, width 768, sequence 1024.

    Per block: QKV projection, attention score (``Q @ K^T`` across all
    heads folds to a ``seq x width x seq`` GEMM), attention-times-values,
    output projection, and the two MLP GEMMs.
    """
    from repro.models.layers import DenseLayer, Network

    s = scale
    width = _ch(768, s, floor=96)
    seq_len = seq if seq is not None else _sp(1024, s * 2 if s > 1 else 1, floor=64)
    num_blocks = blocks if blocks is not None else (12 if s == 1 else 3)
    layers: list[Layer] = []
    for block in range(num_blocks):
        prefix = f"b{block}"
        layers.extend(
            [
                DenseLayer(f"{prefix}_qkv", 3 * width, width, seq_len),
                DenseLayer(f"{prefix}_score", seq_len, width, seq_len),
                DenseLayer(f"{prefix}_attnv", seq_len, seq_len, width),
                DenseLayer(f"{prefix}_proj", width, width, seq_len),
                DenseLayer(f"{prefix}_fc1", 4 * width, width, seq_len),
                DenseLayer(f"{prefix}_fc2", width, 4 * width, seq_len),
            ]
        )
    return Network("gpt2", tuple(layers))


#: Short name -> builder, in the paper's Table 1 order.
MODELS: dict[str, Callable[[int], Network]] = {
    "res": resnet50,
    "yt": yolo_tiny,
    "alex": alexnet,
    "sfrnn": selfish_rnn,
    "ds2": deepspeech2,
    "dlrm": dlrm,
    "ncf": ncf,
    "gpt2": gpt2,
}

#: All benchmark short names, in Table 1 order.
NAMES: tuple[str, ...] = tuple(MODELS)

#: Model categories of Table 1.
CATEGORIES: dict[str, str] = {
    "res": "CNN",
    "yt": "CNN",
    "alex": "CNN",
    "sfrnn": "RNN",
    "ds2": "RNN",
    "dlrm": "Recommendation",
    "ncf": "Recommendation",
    "gpt2": "Attention",
}

#: Dimension divisor used by the mini variants.
MINI_SCALE = 4


def full(name: str) -> Network:
    """The published-size topology for benchmark ``name``."""
    return _builder(name)(1)


def mini(name: str) -> Network:
    """The scaled topology for benchmark ``name`` (see module docstring)."""
    return _builder(name)(MINI_SCALE)


def get(name: str, scale: str = "mini") -> Network:
    """Fetch ``name`` at ``"full"`` or ``"mini"`` scale."""
    if scale == "full":
        return full(name)
    if scale == "mini":
        return mini(name)
    raise ValueError(f"unknown scale {scale!r}")


def _builder(name: str) -> Callable[[int], Network]:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; pick one of {NAMES}") from None
