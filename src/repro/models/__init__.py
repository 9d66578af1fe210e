"""DNN workload models: layer specs, the benchmark zoo, serving shapes."""

from repro._lazy import lazy_exports

# Re-exports load on first use: the zoo's names and the serving tables
# are needed by every command, the layer classes only by what builds a
# network.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.models.layers": (
        "ConvLayer", "DenseLayer", "EmbeddingLayer", "GemmOp", "Network",
    ),
    "repro.models.serving": ("serving", "ServingParams"),
    "repro.models.zoo": ("zoo",),
    "repro.models.random_net": ("random_network",),
})

__all__ = [
    "ConvLayer",
    "DenseLayer",
    "EmbeddingLayer",
    "GemmOp",
    "Network",
    "ServingParams",
    "serving",
    "zoo",
    "random_network",
]
