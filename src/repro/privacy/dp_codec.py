"""Differentially-private FedSZ codec (future-work direction of the paper).

Section VII-D observes that FedSZ's compression error looks like Laplace
noise and Section VIII-B proposes studying the interaction between that noise
and formal differential privacy.  :class:`DPFedSZCompressor` makes the
combination concrete: before compression, every lossy-eligible tensor is
perturbed with a genuine Laplace mechanism (clip-to-sensitivity + calibrated
noise), then the noisy update is compressed with FedSZ as usual.

The privacy accounting follows the standard per-round Laplace mechanism over
the clipped update: each client's update has L∞ sensitivity ``clip_norm``
(element-wise clipping), so noise of scale ``clip_norm / epsilon`` yields an
ε-DP release of that update per round; ``spent_epsilon`` simply accumulates
the per-round budgets (basic composition).  Compression is applied *after*
the mechanism, so the formal guarantee is unaffected by it (post-processing).
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.core.config import FedSZConfig
from repro.core.fedsz import FedSZCompressor
from repro.core.partition import is_lossy_eligible


class DPFedSZCompressor:
    """Laplace mechanism + FedSZ compression for client updates.

    Implements the ``compress``/``decompress`` protocol used by
    :class:`repro.fl.FederatedRuntime`, so it can replace :class:`FedSZCompressor`
    directly when an explicit privacy guarantee is wanted on top of the
    compression savings.
    """

    def __init__(
        self,
        epsilon_per_round: float = 1.0,
        clip_norm: float = 0.5,
        error_bound: float = 1e-2,
        lossy_compressor: str = "sz2",
        lossless_compressor: str = "blosc-lz",
        partition_threshold: int = 1024,
        seed: int = 0,
    ) -> None:
        if epsilon_per_round <= 0:
            raise ValueError(f"epsilon_per_round must be positive, got {epsilon_per_round}")
        if clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {clip_norm}")
        self.epsilon_per_round = float(epsilon_per_round)
        self.clip_norm = float(clip_norm)
        self.partition_threshold = int(partition_threshold)
        self._rng = np.random.default_rng(seed)
        self._codec = FedSZCompressor.from_config(
            FedSZConfig(
                error_bound=error_bound,
                lossy_compressor=lossy_compressor,
                lossless_compressor=lossless_compressor,
                partition_threshold=partition_threshold,
            )
        )
        self.rounds_released = 0

    @property
    def noise_scale(self) -> float:
        """Laplace scale b = clip_norm / epsilon used for each release."""
        return self.clip_norm / self.epsilon_per_round

    @property
    def spent_epsilon(self) -> float:
        """Total ε spent so far under basic sequential composition."""
        return self.rounds_released * self.epsilon_per_round

    @property
    def config(self) -> FedSZConfig:
        """Config of the FedSZ stage applied after the mechanism."""
        return self._codec.config

    @property
    def last_report(self):
        """Compression report of the most recent release."""
        return self._codec.last_report

    # ------------------------------------------------------------------
    # Codec protocol
    # ------------------------------------------------------------------
    def compress(self, state_dict: Mapping[str, np.ndarray]) -> bytes:
        """Clip, add Laplace noise, then FedSZ-compress the update."""
        noisy = self._privatize(state_dict)
        payload = self._codec.compress(noisy)
        self.rounds_released += 1
        return payload

    def decompress(self, payload: bytes) -> Dict[str, np.ndarray]:
        """Decompress a payload produced by :meth:`compress`."""
        return self._codec.decompress(payload)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def checkpoint_fingerprint(self) -> Dict[str, object]:
        """Static identity for resume validation (mechanism + codec settings)."""
        from dataclasses import asdict

        return {
            "epsilon_per_round": self.epsilon_per_round,
            "clip_norm": self.clip_norm,
            "codec": asdict(self._codec.config),
        }

    def checkpoint_state(self) -> Dict[str, object]:
        """Snapshot the noise stream and the spent privacy budget.

        Both advance with every release: resuming without them would replay
        noise draws (correlating the resumed updates with the crashed run's)
        and under-count ``spent_epsilon``.
        """
        return {
            "kind": "dp-fedsz",
            "rng": self._rng.bit_generator.state,
            "rounds_released": self.rounds_released,
        }

    def restore_checkpoint_state(self, state: Mapping) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        if state.get("kind") != "dp-fedsz":
            raise ValueError(
                f"checkpoint codec state is {state.get('kind')!r}, not 'dp-fedsz'"
            )
        self._rng.bit_generator.state = state["rng"]
        self.rounds_released = int(state["rounds_released"])

    # ------------------------------------------------------------------
    # Mechanism
    # ------------------------------------------------------------------
    def _privatize(self, state_dict: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        scale = self.noise_scale
        privatized: Dict[str, np.ndarray] = {}
        for name, tensor in state_dict.items():
            tensor = np.asarray(tensor)
            if is_lossy_eligible(name, tensor, self.partition_threshold):
                clipped = np.clip(tensor.astype(np.float64), -self.clip_norm, self.clip_norm)
                noise = self._rng.laplace(0.0, scale, size=tensor.shape)
                privatized[name] = (clipped + noise).astype(tensor.dtype)
            else:
                privatized[name] = tensor.copy()
        return privatized
