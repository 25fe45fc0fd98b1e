"""Transport layer of the federated runtime.

Every client owns a :class:`ClientLink` — a point-to-point connection to the
server described by a :class:`LinkSpec`: bandwidth, latency, straggler factor,
dropout probability and, optionally, the client's hardware.  Every second the
runtime bills comes from that spec: wire seconds from
``LinkSpec.transmission_seconds``, codec seconds from ``LinkSpec.codec_seconds``
(measured on this host, or modelled on the client's device — the paper's
Raspberry Pi 5 convention).  The link adds what a spec cannot hold: the
transfer log and the dropout stream.  A :class:`Transport` bundles the
per-client uplinks plus the server broadcast downlink and is one of the three
pluggable layers of :class:`repro.fl.runtime.FederatedRuntime` (the others
being the scheduler and the executor).

``Transport.homogeneous`` is the default: every client has the same spec and
one shared transfer log (``runtime.channel``).  ``Transport.heterogeneous``
gives each client an independent link built from its own :class:`LinkSpec`,
which is what the paper's multi-client wall-clock analysis (Figures 7-9)
actually assumes.

One client upload is written once, as two halves that meet where a process
boundary can sit:

* the **codec half** (:func:`encode_upload`) needs no link state or RNG.
  It compresses (timed) and, unless the update was lost in transit,
  decompresses (timed) what the server receives and measures how much of the
  codec's error bound each lossy tensor used (:func:`codec_error_bound`;
  observational, so off the codec clock).  A corrupted upload
  (:class:`repro.fl.scenarios.CorruptedUpload`) is instead checksum-framed,
  truncated and put through the server's frame check, which rejects it: the
  client paid for compression and for the wire bytes that travelled, nothing
  is decompressed or delivered.  The result is a plain-data
  :class:`UploadRecord`;
* the **link half** (:func:`account_upload`) occupies the link for the
  record's wire bytes and builds the :class:`TransferStats`.

:func:`transmit_update` is dropout roll + both halves, one upload on the
calling thread; serial lanes and process workers run the codec half, and the
owner of links and dropout streams the link half, in task order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import ErrorBoundMode, resolve_error_bound
from repro.compression.errors import CorruptPayloadError
from repro.compression.metrics import compression_ratio
from repro.core.serializer import (
    frame_checksummed,
    serialize_named_arrays,
    unframe_checksummed,
)
from repro.network.bandwidth import LinkSpec, SimulatedChannel
from repro.utils.seeding import SeedSequenceFactory
from repro.utils.timing import lane_clock


@dataclass
class TransferStats:
    """Accounting for one client update pushed through codec + link."""

    payload_nbytes: int = 0
    transfer_seconds: float = 0.0
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0
    ratio: float = 1.0
    delivered: bool = True
    report: Optional[object] = None
    #: ``max|x - x̂| / ε`` per lossy tensor of a delivered upload (see
    #: :func:`encode_upload`); empty when nothing arrived or the codec is untracked.
    bound_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def codec_seconds(self) -> float:
        """Total codec time (compression plus decompression)."""
        return self.compress_seconds + self.decompress_seconds


class ClientLink:
    """One client's uplink: its spec, a transfer log and a dropout stream."""

    def __init__(
        self,
        client_id: int,
        spec: Optional[LinkSpec] = None,
        channel: Optional[SimulatedChannel] = None,
        seed: int = 0,
    ) -> None:
        self.client_id = int(client_id)
        self.spec = spec or LinkSpec()
        self.channel = channel or SimulatedChannel(self.spec)
        self._rng = np.random.default_rng(seed)

    def send(self, payload: bytes | int, description: str = ""):
        """Push a payload through this link and log the transfer."""
        return self.channel.send(payload, description=description)

    def roll_dropout(self) -> bool:
        """Draw from this link's private stream: is the next update lost?"""
        if self.spec.dropout_probability <= 0.0:
            return False
        return bool(self._rng.random() < self.spec.dropout_probability)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientLink(client_id={self.client_id}, spec={self.spec})"


@dataclass
class UploadRecord:
    """Plain-data result of the codec half; a process worker ships it to
    the parent, in-process executors hand it straight to the link half."""

    original_nbytes: int
    wire_nbytes: int
    description: str
    delivered: bool
    compress_seconds: float = 0.0
    decompress_seconds: float = 0.0
    report: Optional[object] = None
    #: What the server holds after the upload; ``None`` when nothing arrived
    #: (dropped in transit, or rejected by the frame check).
    received_state: Optional[Dict[str, np.ndarray]] = None
    #: Plain floats by tensor name: what :class:`TransferStats` carries on.
    bound_utilization: Dict[str, float] = field(default_factory=dict)


#: Frame magic for client-update uploads pushed through the checksummed
#: frame (:func:`repro.core.serializer.frame_checksummed`).  Only the
#: corrupted-upload fault frames its wire bytes — healthy uploads ship codec
#: payloads unframed.
UPLOAD_FRAME_MAGIC = b"FLUP"


def codec_error_bound(codec) -> Tuple[float, str]:
    """The ``(bound, mode name)`` the uplink codec enforces, or ``(0.0, "")``.

    Adaptive codecs expose the bound the *next* compress call will use as
    ``current_bound`` (always REL — they re-target a REL-mode FedSZ config);
    static codecs carry it on their dataclass ``config``.  Codecs without
    either (identity baseline, custom codecs) are simply untracked, and so is
    the DP codec: it bounds the error against the *noised* update, which
    original-vs-received utilization cannot see.
    """
    if codec is None or hasattr(codec, "noise_scale"):
        return 0.0, ""
    bound = getattr(codec, "current_bound", None)
    if bound is not None:
        return float(bound), ErrorBoundMode.REL.name
    config = getattr(codec, "config", None)
    bound = getattr(config, "error_bound", None)
    if bound is None:
        return 0.0, ""
    mode = getattr(config, "error_bound_mode", ErrorBoundMode.REL)
    return float(bound), getattr(mode, "name", str(mode))


def _bound_utilization(
    original: Mapping[str, np.ndarray],
    received: Mapping[str, np.ndarray],
    report,
    bound: float,
    mode: str,
) -> Dict[str, float]:
    """Per-tensor fraction of the error bound one delivered update consumed.

    ``max|original - received| / resolved_bound`` for every lossy tensor (the
    codec report names them via ``per_tensor_ratio``; codecs without a report
    fall back to every tensor).  A REL bound is resolved from the value range
    the codec's validation measured (``per_tensor_range``), so the original is
    not scanned again; a tensor the report gives no range is.  Pure arithmetic
    over the two states, so it perturbs no RNG stream and is bit-identical on
    every executor and lane.
    """
    names = getattr(report, "per_tensor_ratio", None) or original
    ranges = getattr(report, "per_tensor_range", None) or {}
    mode_enum = ErrorBoundMode.ABS if mode == "ABS" else ErrorBoundMode.REL
    utilization: Dict[str, float] = {}
    for name in names:
        if name not in original or name not in received:
            continue
        a = np.asarray(original[name])
        b = np.asarray(received[name])
        if a.shape != b.shape or a.size == 0:
            continue
        difference = np.subtract(a, b, dtype=np.float64)  # the one tensor-sized temporary
        error = float(np.maximum.reduce(np.abs(difference, out=difference), axis=None))
        resolved = resolve_error_bound(a, bound, mode_enum, ranges.get(name))
        if resolved > 0.0:
            utilization[name] = error / resolved
        else:  # zero-range tensor under a REL bound: exact or infinitely over
            utilization[name] = 0.0 if error == 0.0 else float("inf")
    return utilization


def corrupt_wire_bytes(payload: bytes) -> bytes:
    """A checksum-framed copy of ``payload``, truncated in transit.

    The last quarter of the framed bytes (at least one byte) is cut, so the
    CRC32 recorded in the frame header no longer matches the surviving body
    and :func:`repro.core.serializer.unframe_checksummed` must reject the
    upload.  Deterministic — purely length-based — so every executor models
    the same corruption for the same payload.
    """
    framed = frame_checksummed(UPLOAD_FRAME_MAGIC, payload)
    return framed[: len(framed) - max(1, len(framed) // 4)]


def encode_upload(
    state_dict: Mapping[str, np.ndarray],
    codec,
    spec: LinkSpec,
    dropped: bool = False,
    corrupted: bool = False,
) -> UploadRecord:
    """Codec half of an upload (see the module docstring).

    ``spec`` decides whether the measured codec seconds or the client
    device's modelled ones are billed; measured ones on the calling thread's
    :func:`~repro.utils.timing.lane_clock`.
    """
    original_nbytes = int(sum(np.asarray(v).nbytes for v in state_dict.values()))
    delivered = not (dropped or corrupted)
    compress_seconds = decompress_seconds = 0.0
    report = received_state = None
    utilization: Dict[str, float] = {}
    if codec is None:
        description = "raw client update"
        wire_nbytes = original_nbytes
        if corrupted:
            payload = serialize_named_arrays(dict(state_dict))
        elif delivered:
            received_state = dict(state_dict)
    else:
        description = "compressed client update"
        clock = lane_clock()
        start = clock()
        payload = codec.compress(state_dict)
        compress_seconds = clock() - start
        report = getattr(codec, "last_report", None)
        wire_nbytes = len(payload)
        if delivered:
            start = clock()
            received_state = codec.decompress(payload)
            decompress_seconds = clock() - start
            bound, mode = codec_error_bound(codec)
            if bound > 0.0:
                utilization = _bound_utilization(state_dict, received_state, report, bound, mode)
    if corrupted:
        description = "corrupted client update"
        wire = corrupt_wire_bytes(payload)
        wire_nbytes = len(wire)
        try:
            unframe_checksummed(UPLOAD_FRAME_MAGIC, wire)
        except CorruptPayloadError:
            pass  # the server-side reject this fault exists to exercise
        else:  # pragma: no cover - corrupt_wire_bytes guarantees a bad frame
            raise RuntimeError("corrupted upload unexpectedly passed the frame check")
    config = getattr(codec, "config", None)
    if config is not None:
        compress_seconds, decompress_seconds = spec.codec_seconds(
            config.lossy_compressor,
            config.error_bound,
            original_nbytes,
            (compress_seconds, decompress_seconds),
            delivered,
        )
    return UploadRecord(
        original_nbytes=original_nbytes,
        wire_nbytes=wire_nbytes,
        description=description,
        delivered=delivered,
        compress_seconds=compress_seconds,
        decompress_seconds=decompress_seconds,
        report=report,
        received_state=received_state,
        bound_utilization=utilization,
    )


def account_upload(link: ClientLink, upload: UploadRecord) -> TransferStats:
    """Link half of an upload (see the module docstring).

    ``SimulatedChannel.send`` of a byte count is pure arithmetic plus a
    transfer-log append, so running this after the fact, in task order,
    yields the seconds and log entries of a serial run.
    """
    sent = link.send(upload.wire_nbytes, description=upload.description)
    return TransferStats(
        payload_nbytes=upload.wire_nbytes,
        transfer_seconds=sent.seconds,
        compress_seconds=upload.compress_seconds,
        decompress_seconds=upload.decompress_seconds,
        # One convention for empty payloads everywhere: the shared helper
        # returns inf, matching repro.compression.metrics.
        ratio=compression_ratio(upload.original_nbytes, upload.wire_nbytes),
        delivered=upload.delivered,
        report=upload.report,
        bound_utilization=upload.bound_utilization,
    )


def transmit_update(
    state_dict: Mapping[str, np.ndarray],
    codec,
    link: ClientLink,
    corrupted: bool = False,
):
    """Push one client update through the (optional) codec and its link.

    Returns ``(received_state, TransferStats)``; ``received_state`` is ``None``
    when the server never sees the update.  A ``corrupted`` upload pre-empts
    the loss model: the link's dropout stream is **not** rolled, so faulted
    rounds stay bit-identical across executors.
    """
    dropped = False if corrupted else link.roll_dropout()
    upload = encode_upload(state_dict, codec, link.spec, dropped=dropped, corrupted=corrupted)
    return upload.received_state, account_upload(link, upload)


class Transport:
    """Per-client uplinks plus the server's broadcast downlink.

    Construct via :meth:`homogeneous` (one shared channel, the seed
    behaviour) or :meth:`heterogeneous` (one independent link per client),
    then :meth:`bind` to a client population.  The runtime calls ``bind``
    automatically.

    Links are **lazy**: ``bind`` records the population size and the seed
    root, and a :class:`ClientLink` is built the first time its client is
    touched (``uplink``/``downlink_seconds``).  Each link's dropout stream is
    seeded by random access into the bind seed's spawn sequence
    (:meth:`repro.utils.seeding.SeedSequenceFactory.seed_at`), so lazily
    built links are bit-identical to the previous eagerly built population —
    at 100k–1M clients a round only pays for the links its participants use.
    ``links`` holds the materialised subset.
    """

    def __init__(
        self,
        specs: Optional[Sequence[LinkSpec]] = None,
        default_spec: Optional[LinkSpec] = None,
        cycle_specs: bool = False,
    ) -> None:
        self._specs: Optional[List[LinkSpec]] = list(specs) if specs is not None else None
        self._default_spec = default_spec or LinkSpec()
        self._channel: Optional[SimulatedChannel] = None
        self._cycle_specs = bool(cycle_specs)
        self._num_clients: Optional[int] = None
        self._seed_factory: Optional[SeedSequenceFactory] = None
        self.links: Dict[int, ClientLink] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        bandwidth_mbps: float = 10.0,
        latency_seconds: float = 0.0,
    ) -> "Transport":
        """Every client shares one channel — identical to the seed simulation."""
        return cls(
            default_spec=LinkSpec(bandwidth_mbps=bandwidth_mbps, latency_seconds=latency_seconds)
        )

    @classmethod
    def heterogeneous(cls, specs: Sequence[LinkSpec], cycle: bool = False) -> "Transport":
        """One independent link per client, in client-id order.

        With ``cycle=True`` client ``i`` gets ``specs[i % len(specs)]``, so a
        short spec pattern serves an arbitrarily large fleet without holding
        one :class:`LinkSpec` object per client (the mega-fleet convention —
        :func:`edge_fleet_specs` already cycles bandwidths the same way).
        """
        if not specs:
            raise ValueError("heterogeneous transport needs at least one LinkSpec")
        return cls(specs=list(specs), cycle_specs=cycle)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, num_clients: int, seed: int = 0) -> None:
        """Bind to a client population; links materialise lazily from here.

        Rebinding (e.g. reusing one transport across two runtimes) drops
        every materialised link, so dropout streams restart from ``seed``
        instead of continuing the previous run's draws, and the shared
        channel's transfer log starts empty.
        """
        if (
            self._specs is not None
            and not self._cycle_specs
            and len(self._specs) != num_clients
        ):
            raise ValueError(
                f"transport has {len(self._specs)} link specs but the runtime has "
                f"{num_clients} clients"
            )
        if self.is_homogeneous:
            self._channel = SimulatedChannel(self._default_spec)
        self._num_clients = int(num_clients)
        self._seed_factory = SeedSequenceFactory(seed)
        self.links = {}

    def require_modellable(self, codec) -> None:
        """Reject a codec whose seconds some link's device cannot model.

        A codec that names its lossy compressor (``codec.config``) is billed
        from the device's throughput table on every device link; a missing
        row would otherwise only surface after a client has trained and
        compressed.  Codecs without a ``config`` are host-measured and pass.
        """
        config = getattr(codec, "config", None)
        if config is None:
            return
        specs = [self._default_spec] if self._specs is None else self._specs
        for spec in {spec.device: spec for spec in specs}.values():
            profile = spec.device_profile
            if profile is not None and not profile.models(config.lossy_compressor):
                raise ValueError(
                    f"device {profile.name!r} has no throughput entry for compressor "
                    f"{config.lossy_compressor!r}: its codec seconds cannot be modelled "
                    f"on a LinkSpec(device={spec.device!r}) link"
                )

    def _spec_for(self, client_id: int) -> LinkSpec:
        if self._specs is None:
            return self._default_spec
        if self._cycle_specs:
            return self._specs[client_id % len(self._specs)]
        return self._specs[client_id]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def channel(self) -> Optional[SimulatedChannel]:
        """The shared channel (``None`` for heterogeneous transports)."""
        return self._channel

    @property
    def is_homogeneous(self) -> bool:
        """True when every client shares one link spec and channel."""
        return self._specs is None

    def uplink(self, client_id: int) -> ClientLink:
        """The link carrying ``client_id``'s updates to the server.

        Materialises the link on first access.  The link's dropout seed is
        the ``client_id``-th child of the bind seed — exactly the seed the
        eager implementation assigned — so first-touch order never changes
        any stream.
        """
        client_id = int(client_id)
        link = self.links.get(client_id)
        if link is not None:
            return link
        if self._num_clients is None:
            raise KeyError(
                f"transport is not bound to a client population yet "
                f"(no link for client {client_id}); call bind() first"
            )
        if not 0 <= client_id < self._num_clients:
            raise KeyError(
                f"client {client_id} is out of range for a transport bound to "
                f"{self._num_clients} clients"
            )
        link = ClientLink(
            client_id,
            self._spec_for(client_id),
            channel=self._channel,
            seed=self._seed_factory.seed_at(client_id),
        )
        self.links[client_id] = link
        return link

    def downlink_seconds(self, num_bytes: int, client_id: int) -> float:
        """Modelled broadcast time to one client (links are symmetric)."""
        return self.uplink(client_id).spec.transmission_seconds(num_bytes)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def rng_states(self) -> Dict[int, dict]:
        """Bit-generator state of every *materialised* link's dropout stream.

        Part of a :class:`repro.fl.checkpoint.RunCheckpoint`: dropout draws
        advance round by round, so resuming without them would replay (or
        skip) packet losses and diverge from the uninterrupted run.  A link
        that was never materialised has never drawn, so rebuilding it lazily
        from its seed after resume is already bit-identical — only touched
        links carry state worth persisting.
        """
        return {
            client_id: link._rng.bit_generator.state
            for client_id, link in self.links.items()
        }

    def restore_rng_states(self, states: Mapping[int, dict]) -> None:
        """Restore previously captured per-link dropout streams.

        Materialises any link the snapshot names that has not been touched
        yet (e.g. resuming under a transport that never ran a round).
        """
        if self._num_clients is None:
            raise KeyError(
                "transport is not bound to a client population yet; bind() "
                "before restoring link streams"
            )
        for client_id, state in states.items():
            client_id = int(client_id)
            if not 0 <= client_id < self._num_clients:
                raise KeyError(
                    f"checkpoint carries a dropout stream for client {client_id} "
                    f"but the transport is bound to {self._num_clients} clients"
                )
            self.uplink(client_id)._rng.bit_generator.state = state

    def spec_fingerprint(self) -> Dict[str, object]:
        """JSON-compatible description of the link topology, for checkpoint
        validation: resuming over different links would change every modelled
        transfer time and dropout draw."""
        from dataclasses import asdict

        if self._specs is None:
            return {"kind": "homogeneous", "spec": asdict(self._default_spec)}
        kind = "heterogeneous-cycle" if self._cycle_specs else "heterogeneous"
        return {"kind": kind, "specs": [asdict(spec) for spec in self._specs]}


def edge_fleet_specs(
    num_clients: int,
    bandwidths_mbps: Sequence[float] = (5.0, 10.0, 25.0, 50.0),
    latency_seconds: float = 0.01,
    straggler_ids: Sequence[int] = (),
    straggler_factor: float = 10.0,
    dropout_probability: float = 0.0,
    device: Optional[str] = None,
) -> List[LinkSpec]:
    """Convenience: a heterogeneous fleet cycling through edge bandwidths.

    Client ``i`` gets ``bandwidths_mbps[i % len(bandwidths_mbps)]``; clients
    listed in ``straggler_ids`` additionally get ``straggler_factor`` applied
    to every transfer.  This mirrors the device diversity the paper targets
    (constrained edge uplinks, Section VI-C) without hand-writing specs.
    """
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    stragglers = set(int(i) for i in straggler_ids)
    out_of_range = sorted(i for i in stragglers if not 0 <= i < num_clients)
    if out_of_range:
        raise ValueError(
            f"straggler ids {out_of_range} are out of range for {num_clients} clients"
        )
    specs = []
    for client_id in range(num_clients):
        specs.append(
            LinkSpec(
                bandwidth_mbps=float(bandwidths_mbps[client_id % len(bandwidths_mbps)]),
                latency_seconds=latency_seconds,
                straggler_factor=straggler_factor if client_id in stragglers else 1.0,
                dropout_probability=dropout_probability,
                device=device,
            )
        )
    return specs
