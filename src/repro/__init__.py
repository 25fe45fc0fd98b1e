"""FedSZ reproduction: error-bounded lossy compression for FL communications.

A from-scratch, pure-Python/numpy reproduction of "FedSZ: Leveraging
Error-Bounded Lossy Compression for Federated Learning Communications"
(Wilkins et al., ICDCS 2024), including every substrate the paper depends on:

* :mod:`repro.compression` — SZ2 / SZ3 / SZx / ZFP analogues plus the
  lossless codec suite;
* :mod:`repro.nn` — a minimal deep-learning substrate (Module/state_dict,
  layers, SGD) and the AlexNet / MobileNetV2 / ResNet model zoo;
* :mod:`repro.data` — synthetic CIFAR-10 / Fashion-MNIST / Caltech101
  stand-ins and client partitioning;
* :mod:`repro.fl` — FedAvg clients, server and the federated simulation loop;
* :mod:`repro.network` — the link/codec-time model (``LinkSpec``), device
  profiles and the Eqn.-1 decision rule;
* :mod:`repro.core` — the FedSZ pipeline itself (partition, compress,
  serialize) and the compressor / error-bound selection procedures;
* :mod:`repro.privacy` — compression-error analysis and the
  differential-privacy comparison;
* :mod:`repro.experiments` — one harness per table/figure of the paper.

Quickstart::

    from repro.core import FedSZCompressor
    from repro.nn.models import create_model

    model = create_model("mobilenetv2", "tiny", seed=0)
    codec = FedSZCompressor(error_bound=1e-2)
    payload = codec.compress(model.state_dict())
    restored = codec.decompress(payload)
    print(codec.report().ratio)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
