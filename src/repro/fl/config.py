"""Federated-learning run configuration."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

from repro.network.bandwidth import LinkSpec


def participant_count(client_fraction: float, num_clients: int) -> int:
    """Number of clients sampled per round for a given fraction.

    The convention is an explicit **ceiling**: ``ceil(client_fraction ×
    num_clients)``, never fewer than one client.  A small epsilon guards
    against binary-float artefacts (``0.2 * 10 == 2.000…0004`` must count as
    2, not 3).  The previous implementation used ``int(round(...))``, whose
    banker's rounding made counts surprising at common fractions
    (``round(0.5 * 5) == 2``).
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    count = math.ceil(client_fraction * num_clients - 1e-9)
    return max(1, min(count, num_clients))


@dataclass(frozen=True)
class FLConfig:
    """Hyper-parameters of one federated simulation.

    The defaults mirror the paper's protocol: FedAvg, four clients, one local
    epoch per communication round, and a 10 Mbps emulated uplink.
    """

    num_clients: int = 4
    rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    partition_strategy: str = "iid"
    dirichlet_alpha: float = 0.5
    bandwidth_mbps: float = 10.0
    compress_downlink: bool = False
    #: Fraction of clients sampled to participate in each round (FedAvg's C).
    #: The per-round participant count is ``ceil(client_fraction ×
    #: num_clients)`` clamped to ``[1, num_clients]`` — see
    #: :func:`participant_count`.  At 1.0 every (available) client
    #: participates.
    client_fraction: float = 1.0
    #: Multiplicative learning-rate decay applied after every round.
    learning_rate_decay: float = 1.0
    #: Rows per forward pass when evaluating, and the evaluation pool's unit
    #: of work: a validation split of two or more batches runs them on up to
    #: one thread per core (``repro.fl.server.evaluate_model``).
    eval_batch_size: int = 64
    seed: int = 0
    #: How client work runs each round: ``"serial"`` (the seed loop, uploads
    #: coded on one lane per core) or ``"process"`` (shared-nothing worker
    #: processes — see :class:`repro.fl.executor.ProcessParallelExecutor`).
    #: Both are bit-identical; an executor *object* passed to the runtime
    #: overrides this.  Execution-only: a checkpointed run may resume under a
    #: different executor.
    executor: str = "serial"
    #: Worker count for the process executor (``None`` = the host's cores).
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("num_clients", "rounds", "local_epochs", "batch_size", "eval_batch_size",
                     "max_workers"):
            value = getattr(self, name)
            if value is None and name == "max_workers":
                continue
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # ``not (x > 0)`` rather than ``x <= 0``: NaN fails both comparisons.
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}"
            )
        if self.partition_strategy not in {"iid", "dirichlet"}:
            raise ValueError(
                f"partition_strategy must be 'iid' or 'dirichlet', got {self.partition_strategy!r}"
            )
        if not (math.isfinite(self.dirichlet_alpha) and self.dirichlet_alpha > 0):
            raise ValueError(
                f"dirichlet_alpha must be positive and finite, got {self.dirichlet_alpha}"
            )
        LinkSpec(bandwidth_mbps=self.bandwidth_mbps)  # the link model's own validation
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValueError(
                f"client_fraction must lie in (0, 1], got {self.client_fraction}"
            )
        if not 0.0 < self.learning_rate_decay <= 1.0:
            raise ValueError(
                f"learning_rate_decay must lie in (0, 1], got {self.learning_rate_decay}"
            )
        if self.executor.lower().replace("_", "-") not in {"serial", "process"}:
            raise ValueError(f"executor must be 'serial' or 'process', got {self.executor!r}")
