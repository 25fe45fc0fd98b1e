"""Adaptive error-bound control across federated rounds.

The paper's future-work section (VIII-B) asks how hyper-parameter tuning
could mitigate compression-induced accuracy loss.  This module implements the
natural first step: a feedback controller that adjusts FedSZ's relative error
bound round by round based on the observed validation accuracy.

The policy is deliberately simple and auditable:

* if the accuracy of the current round drops more than ``tolerance`` below
  the best accuracy seen so far, the bound is tightened (divided by
  ``backoff_factor``) — compression was probably hurting;
* once ``patience`` rounds of kept-up accuracy have accumulated since the
  bound last moved, it is relaxed (multiplied by ``growth_factor``) to claw
  back compression ratio — drops that leave the bound clamped at
  ``min_bound`` neither add to nor reset that count;
* the bound always stays inside ``[min_bound, max_bound]``.

Used together with :class:`repro.core.FedSZCompressor` via
:class:`AdaptiveFedSZCompressor`, which re-targets the underlying codec before
every compression call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.compression.base import ErrorBoundMode
from repro.core.config import FedSZConfig
from repro.core.fedsz import FedSZCompressor


@dataclass
class BoundAdjustment:
    """One controller decision."""

    round_index: int
    accuracy: float
    best_accuracy: float
    previous_bound: float
    new_bound: float
    action: str  # "tighten", "relax" or "hold"


@dataclass
class AdaptiveErrorBoundController:
    """Feedback controller for the relative error bound."""

    initial_bound: float = 1e-2
    min_bound: float = 1e-5
    max_bound: float = 1e-1
    tolerance: float = 0.02
    backoff_factor: float = 10.0
    growth_factor: float = 2.0
    patience: int = 2

    current_bound: float = field(init=False)
    best_accuracy: float = field(init=False, default=0.0)
    adjustments: List[BoundAdjustment] = field(init=False, default_factory=list)
    _rounds_since_change: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.min_bound <= self.initial_bound <= self.max_bound:
            raise ValueError(
                f"initial bound {self.initial_bound} must lie within "
                f"[{self.min_bound}, {self.max_bound}]"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.backoff_factor <= 1.0 or self.growth_factor <= 1.0:
            raise ValueError("backoff_factor and growth_factor must both exceed 1.0")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        self.current_bound = float(self.initial_bound)

    def observe(self, accuracy: float) -> BoundAdjustment:
        """Feed one round's validation accuracy and get the next bound."""
        round_index = len(self.adjustments)
        previous_bound = self.current_bound
        action = "hold"

        if accuracy < self.best_accuracy - self.tolerance:
            self.current_bound = max(self.min_bound, self.current_bound / self.backoff_factor)
            action = "tighten" if self.current_bound < previous_bound else "hold"
            # Only restart the relax patience when the bound actually moved: a
            # tighten clamped at min_bound is a hold, and resetting on it kept
            # stalling later relaxation at the clamp.
            if action == "tighten":
                self._rounds_since_change = 0
        else:
            self._rounds_since_change += 1
            if self._rounds_since_change >= self.patience:
                relaxed = min(self.max_bound, self.current_bound * self.growth_factor)
                if relaxed > self.current_bound:
                    self.current_bound = relaxed
                    action = "relax"
                    self._rounds_since_change = 0

        self.best_accuracy = max(self.best_accuracy, accuracy)
        adjustment = BoundAdjustment(
            round_index=round_index,
            accuracy=float(accuracy),
            best_accuracy=self.best_accuracy,
            previous_bound=previous_bound,
            new_bound=self.current_bound,
            action=action,
        )
        self.adjustments.append(adjustment)
        return adjustment

    def history(self) -> List[Dict[str, float]]:
        """Flat per-round history for tabulation."""
        return [
            {
                "round": adjustment.round_index,
                "accuracy": adjustment.accuracy,
                "bound": adjustment.new_bound,
                "action": adjustment.action,
            }
            for adjustment in self.adjustments
        ]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Dict[str, object]:
        """JSON-compatible snapshot of the controller's evolving state.

        Captures everything :meth:`observe` mutates — the current bound, the
        best accuracy, the relax-patience counter and the full adjustment log
        — so a resumed run continues the feedback loop exactly where the
        crashed one left it.  The static policy parameters (factors, bounds,
        patience) belong to the constructor and are *not* restored.
        """
        from dataclasses import asdict

        return {
            "current_bound": self.current_bound,
            "best_accuracy": self.best_accuracy,
            "rounds_since_change": self._rounds_since_change,
            "adjustments": [asdict(adjustment) for adjustment in self.adjustments],
        }

    def restore_checkpoint_state(self, state: Mapping[str, object]) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self.current_bound = float(state["current_bound"])
        self.best_accuracy = float(state["best_accuracy"])
        self._rounds_since_change = int(state["rounds_since_change"])
        self.adjustments = [
            BoundAdjustment(**adjustment) for adjustment in state["adjustments"]
        ]


class AdaptiveFedSZCompressor:
    """FedSZ codec whose error bound follows an adaptive controller.

    Implements the same ``compress``/``decompress`` protocol as
    :class:`FedSZCompressor`, so it can be plugged straight into
    :class:`repro.fl.FederatedRuntime`.  Call :meth:`observe_accuracy` once per
    round (e.g. with the server's validation accuracy) to drive the
    controller.
    """

    def __init__(
        self,
        controller: Optional[AdaptiveErrorBoundController] = None,
        lossy_compressor: str = "sz2",
        lossless_compressor: str = "blosc-lz",
        partition_threshold: int = 1024,
    ) -> None:
        self.controller = controller or AdaptiveErrorBoundController()
        self._lossy_compressor = lossy_compressor
        self._lossless_compressor = lossless_compressor
        self._partition_threshold = partition_threshold
        self._codec = self._build_codec()

    def _build_codec(self) -> FedSZCompressor:
        return FedSZCompressor.from_config(
            FedSZConfig(
                error_bound=self.controller.current_bound,
                error_bound_mode=ErrorBoundMode.REL,
                lossy_compressor=self._lossy_compressor,
                lossless_compressor=self._lossless_compressor,
                partition_threshold=self._partition_threshold,
            )
        )

    @property
    def current_bound(self) -> float:
        """Error bound that the next ``compress`` call will use."""
        return self.controller.current_bound

    @property
    def config(self) -> FedSZConfig:
        """FedSZ config the next ``compress`` call runs under (bound included)."""
        return self._codec.config

    @property
    def last_report(self):
        """Report of the most recent compression (see :class:`FedSZCompressor`)."""
        return self._codec.last_report

    def observe_accuracy(self, accuracy: float) -> BoundAdjustment:
        """Update the controller and re-target the underlying codec."""
        adjustment = self.controller.observe(accuracy)
        if adjustment.new_bound != adjustment.previous_bound:
            self._codec = self._build_codec()
        return adjustment

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def checkpoint_fingerprint(self) -> Dict[str, object]:
        """Static identity for resume validation: the codec settings and the
        controller's policy parameters (its *evolving* state travels separately
        via :meth:`checkpoint_state`)."""
        return {
            "lossy_compressor": self._lossy_compressor,
            "lossless_compressor": self._lossless_compressor,
            "partition_threshold": self._partition_threshold,
            "initial_bound": self.controller.initial_bound,
            "min_bound": self.controller.min_bound,
            "max_bound": self.controller.max_bound,
            "tolerance": self.controller.tolerance,
            "backoff_factor": self.controller.backoff_factor,
            "growth_factor": self.controller.growth_factor,
            "patience": self.controller.patience,
        }

    def checkpoint_state(self) -> Dict[str, object]:
        """Controller state for a run checkpoint (see :mod:`repro.fl.checkpoint`)."""
        return {"kind": "adaptive-fedsz", "controller": self.controller.checkpoint_state()}

    def restore_checkpoint_state(self, state: Mapping[str, object]) -> None:
        """Restore controller state and re-target the codec at the saved bound."""
        if state.get("kind") != "adaptive-fedsz":
            raise ValueError(
                f"checkpoint codec state is {state.get('kind')!r}, not 'adaptive-fedsz'"
            )
        self.controller.restore_checkpoint_state(state["controller"])
        self._codec = self._build_codec()

    def compress(self, state_dict: Mapping[str, np.ndarray]) -> bytes:
        """Compress a state dict at the controller's current bound."""
        return self._codec.compress(state_dict)

    def decompress(self, payload: bytes) -> Dict[str, np.ndarray]:
        """Decompress a FedSZ payload (bound is read from the payload header)."""
        return self._codec.decompress(payload)
