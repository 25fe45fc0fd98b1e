"""Round-by-round (and client-by-client) records of a federated run."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

#: Schema tag of the standalone history files written by :meth:`TrainingHistory.save`.
HISTORY_SCHEMA = "repro.history"
HISTORY_SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# Deterministic-vs-observational field classification.
#
# Every field of the record dataclasses below must appear in exactly one of
# its class's two sets (``test_every_record_field_is_classified`` in
# ``tests/fl/test_history.py`` holds completeness and disjointness).
# *Deterministic* fields are reproduced bit-for-bit by a seeded run on any
# host/executor — they are what :meth:`TrainingHistory.deterministic_rows`
# exposes and what the resume/equivalence suites compare.  *Observational*
# fields are host-measured wall-clock (or codec telemetry derived from it)
# and legitimately differ between runs of the same seed.
#
# Adding a field to ClientRoundStat/RoundRecord without classifying it here
# is a test failure by design: the decision is the point.
# ----------------------------------------------------------------------
DETERMINISTIC_CLIENT_ROUND_STAT_FIELDS = frozenset({
    "client_id",
    "num_samples",
    "train_loss",
    "train_accuracy",
    "payload_nbytes",
    "compression_ratio",
    "transfer_seconds",
    "downlink_seconds",
    "delivered",
    "aggregated",
    "staleness",
    "weight",
})

OBSERVATIONAL_CLIENT_ROUND_STAT_FIELDS = frozenset({
    "train_seconds",
    "compress_seconds",
    "decompress_seconds",
    "measured_codec_seconds",
    "turnaround_seconds",
    "bound_utilization",
})

DETERMINISTIC_ROUND_RECORD_FIELDS = frozenset({
    "round_index",
    "global_accuracy",
    "global_loss",
    "mean_client_loss",
    "mean_client_accuracy",
    "uplink_bytes",
    "uplink_seconds",
    "downlink_bytes",
    "downlink_seconds",
    "downlink_aggregate_seconds",
    "mean_compression_ratio",
    "participating_clients",
    "dropped_clients",
    "straggler_clients",
    "client_stats",
})

OBSERVATIONAL_ROUND_RECORD_FIELDS = frozenset({
    "compression_seconds",
    "decompression_seconds",
    "train_seconds",
    "validation_seconds",
    "measured_codec_seconds",
    # Derived from per-client turnarounds, which include host-measured
    # components; deterministic_rows has always excluded it.
    "simulated_round_seconds",
    "broadcast_compress_seconds",
    "broadcast_decompress_seconds",
    "error_bound",
    "error_bound_mode",
    "tensor_bound_utilization",
})

# Per-round means of the RoundRecord fields of the same class.
DETERMINISTIC_EPOCH_TIME_BREAKDOWN_FIELDS = frozenset({"communication_seconds"})

OBSERVATIONAL_EPOCH_TIME_BREAKDOWN_FIELDS = frozenset({
    "client_training_seconds",
    "validation_seconds",
    "compression_seconds",
})


@dataclass
class ClientRoundStat:
    """One client's contribution to one round.

    Captured per participant by the executor layer, so per-client codec
    reports are no longer clobbered by whichever client compressed last.
    ``aggregated`` is False for stragglers cut by a semi-synchronous deadline
    and for updates dropped in transit; ``staleness`` and ``weight`` are
    filled in by the asynchronous scheduler's arrival-ordered mixing.
    """

    client_id: int
    num_samples: int
    train_loss: float
    train_accuracy: float
    train_seconds: float
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0
    #: Measured *compression* codec-kernel seconds over the lossy partition
    #: (summed from the codec report's per-tensor map).  Unlike
    #: ``compress_seconds`` — the full pipeline wall including partitioning,
    #: the lossless pass and framing — and unlike
    #: ``TransferStats.codec_seconds`` (compress + decompress wall), this is
    #: the error-bounded-compression time Figure 6 attributes to FedSZ.
    measured_codec_seconds: float = 0.0
    transfer_seconds: float = 0.0
    payload_nbytes: int = 0
    compression_ratio: float = 1.0
    #: Modelled seconds until this client received the round's broadcast —
    #: its own link time on independent links, its cumulative queue position
    #: on a shared channel (included in ``turnaround_seconds``).
    downlink_seconds: float = 0.0
    turnaround_seconds: float = 0.0
    delivered: bool = True
    aggregated: bool = True
    staleness: int = 0
    weight: float = 0.0
    #: Fraction of the round's error bound this client's delivered update
    #: actually consumed, at its worst tensor: ``max_abs_error /
    #: resolved_bound`` maximised over the lossy tensors.  1.0 means the
    #: reconstruction error touched the bound; 0.0 means no codec ran (or the
    #: update was never delivered, so there was nothing to measure).
    bound_utilization: float = 0.0

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation."""
        return {
            "client": self.client_id,
            "train_loss": self.train_loss,
            "train_seconds": self.train_seconds,
            "compress_seconds": self.compress_seconds,
            "transfer_seconds": self.transfer_seconds,
            "downlink_seconds": self.downlink_seconds,
            "payload_mb": self.payload_nbytes / 1e6,
            "ratio": self.compression_ratio,
            "turnaround_seconds": self.turnaround_seconds,
            "delivered": self.delivered,
            "aggregated": self.aggregated,
        }


@dataclass
class RoundRecord:
    """Everything measured during one communication round."""

    round_index: int
    global_accuracy: float
    global_loss: float
    mean_client_loss: float
    mean_client_accuracy: float
    uplink_bytes: int
    uplink_seconds: float
    compression_seconds: float
    decompression_seconds: float
    train_seconds: float
    validation_seconds: float
    mean_compression_ratio: float
    #: Sum of the participants' measured per-tensor codec seconds (0.0 when
    #: the codec reports no per-tensor timings, e.g. the identity baseline).
    measured_codec_seconds: float = 0.0
    downlink_bytes: int = 0
    #: Simulated wall-clock of the broadcast phase: the max over the
    #: participants' receive times.  Heterogeneous links are independent and
    #: transmit in parallel, so this is the slowest link's time; a shared
    #: homogeneous channel serialises the copies, so it is the full queue —
    #: per-client time × participant count (the seed arithmetic).
    downlink_seconds: float = 0.0
    #: Sum of per-client downlink times — the aggregate-bytes view of the
    #: broadcast (what the server's egress actually shipped), as opposed to
    #: the parallel wall-clock above.
    downlink_aggregate_seconds: float = 0.0
    participating_clients: int = 0
    #: Per-client detail for this round (empty for legacy construction).
    client_stats: List[ClientRoundStat] = field(default_factory=list)
    #: Updates lost in transit (link dropout).
    dropped_clients: int = 0
    #: Delivered updates excluded from aggregation (semi-sync deadline).
    straggler_clients: int = 0
    #: Simulated wall-clock of the round under the active scheduler: the
    #: slowest participant for sync, the deadline for semi-sync rounds that
    #: had to wait out a late or lost update, the last arrival for async.
    simulated_round_seconds: float = 0.0
    #: Measured codec seconds spent preparing the round's broadcast
    #: (``compress_downlink`` only; 0.0 on a broadcast-cache hit, when no
    #: codec work happened).  Host-measured, so excluded from
    #: :meth:`TrainingHistory.deterministic_rows` like every other timing.
    broadcast_compress_seconds: float = 0.0
    broadcast_decompress_seconds: float = 0.0
    #: Error bound the uplink codec enforced this round (0.0 when the run is
    #: uncompressed or the codec does not expose one).  Adaptive codecs make
    #: this a per-round trajectory, which is what the observability report
    #: mines for controller thrash.
    error_bound: float = 0.0
    #: ``"ABS"`` / ``"REL"`` / ``""`` — how :attr:`error_bound` resolves
    #: against each tensor (relative bounds scale by the tensor's value range).
    error_bound_mode: str = ""
    #: Per-tensor bound utilization, maximised over this round's delivered
    #: clients: ``max_abs_error / resolved_bound`` for every lossy tensor.
    #: Values near 1.0 are near-violations; the error-analysis report ranks
    #: rounds and tensors by them.  Empty when no codec ran.
    tensor_bound_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def max_bound_utilization(self) -> float:
        """Worst bound utilization across this round's tensors (0.0 = untracked)."""
        if not self.tensor_bound_utilization:
            return 0.0
        return max(self.tensor_bound_utilization.values())

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation."""
        return {
            "round": self.round_index,
            "accuracy": self.global_accuracy,
            "loss": self.global_loss,
            "client_loss": self.mean_client_loss,
            "uplink_mb": self.uplink_bytes / 1e6,
            "uplink_seconds": self.uplink_seconds,
            "compression_seconds": self.compression_seconds,
            "train_seconds": self.train_seconds,
            "ratio": self.mean_compression_ratio,
        }


@dataclass
class EpochTimeBreakdown:
    """Per-epoch client wall-clock decomposition (Figure 6)."""

    client_training_seconds: float = 0.0
    validation_seconds: float = 0.0
    compression_seconds: float = 0.0
    communication_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Sum of all components."""
        return (
            self.client_training_seconds
            + self.validation_seconds
            + self.compression_seconds
            + self.communication_seconds
        )

    @property
    def compression_overhead_fraction(self) -> float:
        """Compression share of the epoch (the paper reports <4.7 % on average)."""
        total = self.total_seconds
        if total <= 0:
            return 0.0
        return self.compression_seconds / total

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tabulation."""
        return {
            "client_training_seconds": self.client_training_seconds,
            "validation_seconds": self.validation_seconds,
            "compression_seconds": self.compression_seconds,
            "communication_seconds": self.communication_seconds,
            "total_seconds": self.total_seconds,
            "compression_overhead_percent": 100.0 * self.compression_overhead_fraction,
        }


@dataclass
class TrainingHistory:
    """Accumulated round records plus run-level summaries."""

    records: List[RoundRecord] = field(default_factory=list)

    def add(self, record: RoundRecord) -> None:
        """Append a round record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def accuracies(self) -> List[float]:
        """Global validation accuracy per round."""
        return [record.global_accuracy for record in self.records]

    @property
    def final_accuracy(self) -> float:
        """Validation accuracy after the last round.

        ``float("nan")`` before any round has run: an empty history must not
        masquerade as a genuinely 0-accuracy run (NaN propagates through
        comparisons and shows up in reports instead of silently ranking last).
        """
        if not self.records:
            return float("nan")
        return self.records[-1].global_accuracy

    @property
    def best_accuracy(self) -> float:
        """Best validation accuracy across rounds (NaN for an empty history)."""
        if not self.records:
            return float("nan")
        return max(record.global_accuracy for record in self.records)

    @property
    def total_uplink_bytes(self) -> int:
        """Total bytes shipped from clients to the server over the run."""
        return sum(record.uplink_bytes for record in self.records)

    @property
    def total_uplink_seconds(self) -> float:
        """Total simulated uplink time over the run."""
        return sum(record.uplink_seconds for record in self.records)

    @property
    def total_compression_seconds(self) -> float:
        """Total time spent compressing client updates over the run."""
        return sum(record.compression_seconds for record in self.records)

    def mean_epoch_breakdown(self, measured_codec: bool = False) -> EpochTimeBreakdown:
        """Average per-round client time decomposition (Figure 6).

        With ``measured_codec=True`` the compression component is the codecs'
        *measured* per-tensor kernel time (``RoundRecord.measured_codec_seconds``,
        summed from each participant's ``FedSZReport`` maps) instead of the
        aggregate pipeline wall.  The fallback to the aggregate is **per
        round**: a round whose codec reported no per-tensor timings (e.g. the
        identity baseline, or a codec swapped mid-run) contributes its
        pipeline wall rather than zero, so mixed runs never silently blend
        "measured" semantics with missing data.

        Runs with ``compress_downlink`` also pay codec time preparing each
        round's broadcast (``broadcast_compress/decompress_seconds``); that is
        pipeline compression work like any other, so it is folded into the
        compression component under both semantics.
        """
        if not self.records:
            return EpochTimeBreakdown()
        count = len(self.records)
        if measured_codec:
            compression = sum(
                r.measured_codec_seconds if r.measured_codec_seconds > 0 else r.compression_seconds
                for r in self.records
            )
        else:
            compression = sum(r.compression_seconds for r in self.records)
        compression += sum(
            r.broadcast_compress_seconds + r.broadcast_decompress_seconds
            for r in self.records
        )
        return EpochTimeBreakdown(
            client_training_seconds=sum(r.train_seconds for r in self.records) / count,
            validation_seconds=sum(r.validation_seconds for r in self.records) / count,
            compression_seconds=compression / count,
            communication_seconds=sum(r.uplink_seconds for r in self.records) / count,
        )

    @property
    def total_dropped_clients(self) -> int:
        """Total updates lost in transit over the run."""
        return sum(record.dropped_clients for record in self.records)

    @property
    def total_straggler_clients(self) -> int:
        """Total deadline-cut stragglers over the run."""
        return sum(record.straggler_clients for record in self.records)

    @property
    def total_simulated_seconds(self) -> float:
        """Total simulated round time under the active scheduler."""
        return sum(record.simulated_round_seconds for record in self.records)

    def as_rows(self) -> List[Dict[str, float]]:
        """Round records as flat dictionaries."""
        return [record.as_row() for record in self.records]

    # ------------------------------------------------------------------
    # Full-fidelity (de)serialization — used by fl.checkpoint
    # ------------------------------------------------------------------
    def serialize(self) -> List[Dict]:
        """Every record (including per-client stats) as plain nested dicts.

        The output is JSON-compatible and lossless: Python floats round-trip
        exactly through their repr, so a deserialized history is field-for-field
        identical to the original.
        """
        return [asdict(record) for record in self.records]

    @classmethod
    def deserialize(cls, rows: List[Dict]) -> "TrainingHistory":
        """Inverse of :meth:`serialize`."""
        history = cls()
        for row in rows:
            row = dict(row)
            row["client_stats"] = [
                ClientRoundStat(**stat) for stat in row.get("client_stats", [])
            ]
            history.add(RoundRecord(**row))
        return history

    def deterministic_rows(self) -> List[Dict]:
        """The simulation-determined fields of every record.

        Everything a seeded run reproduces exactly regardless of host speed or
        executor choice: accuracies, losses, byte counts, modelled link times
        and participation flags.  Host-measured wall-clock fields
        (``train_seconds``, ``compress_seconds``, turnarounds and the round
        times derived from them) are excluded — two runs of the same seed
        differ there by scheduling noise.  The kill-and-resume integration
        test compares these rows bit-for-bit against an uninterrupted run.
        """
        rows: List[Dict] = []
        for record in self.records:
            rows.append(
                {
                    "round": record.round_index,
                    "global_accuracy": record.global_accuracy,
                    "global_loss": record.global_loss,
                    "mean_client_loss": record.mean_client_loss,
                    "mean_client_accuracy": record.mean_client_accuracy,
                    "uplink_bytes": record.uplink_bytes,
                    "uplink_seconds": record.uplink_seconds,
                    "downlink_bytes": record.downlink_bytes,
                    "downlink_seconds": record.downlink_seconds,
                    "downlink_aggregate_seconds": record.downlink_aggregate_seconds,
                    "mean_compression_ratio": record.mean_compression_ratio,
                    "participating_clients": record.participating_clients,
                    "dropped_clients": record.dropped_clients,
                    "straggler_clients": record.straggler_clients,
                    "clients": [
                        {
                            "client_id": stat.client_id,
                            "num_samples": stat.num_samples,
                            "train_loss": stat.train_loss,
                            "train_accuracy": stat.train_accuracy,
                            "payload_nbytes": stat.payload_nbytes,
                            "compression_ratio": stat.compression_ratio,
                            "transfer_seconds": stat.transfer_seconds,
                            "downlink_seconds": stat.downlink_seconds,
                            "delivered": stat.delivered,
                            "aggregated": stat.aggregated,
                            "staleness": stat.staleness,
                            "weight": stat.weight,
                        }
                        for stat in record.client_stats
                    ],
                }
            )
        return rows

    # ------------------------------------------------------------------
    # File persistence — used by ``fl --history-out`` and ``repro.cli report``
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the full history as a schema-tagged JSON document."""
        import json
        from pathlib import Path

        document = {
            "schema": HISTORY_SCHEMA,
            "schema_version": HISTORY_SCHEMA_VERSION,
            "records": self.serialize(),
        }
        Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "TrainingHistory":
        """Inverse of :meth:`save`; raises ``ValueError`` on a foreign file."""
        import json
        from pathlib import Path

        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(document, dict) or document.get("schema") != HISTORY_SCHEMA:
            raise ValueError(
                f"{path} is not a training-history file "
                f"(schema={document.get('schema') if isinstance(document, dict) else None!r}, "
                f"expected {HISTORY_SCHEMA!r})"
            )
        version = document.get("schema_version")
        if version != HISTORY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported history schema_version {version!r}; this reader "
                f"handles {HISTORY_SCHEMA_VERSION}"
            )
        return cls.deserialize(document.get("records", []))

    def client_rows(self) -> List[Dict[str, float]]:
        """Per-client per-round stats flattened for tabulation."""
        rows: List[Dict[str, float]] = []
        for record in self.records:
            for stat in record.client_stats:
                rows.append({"round": record.round_index, **stat.as_row()})
        return rows
