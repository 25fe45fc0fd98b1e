"""Once-per-round broadcast preparation for the federated runtime.

Every round starts with the server shipping the global state to each
participant.  Two distinct costs hide in that step and this module makes
each of them explicit, paid **at most once per round**:

* **codec work** — with ``compress_downlink=True`` the global state is
  compressed (and decompressed, so clients train on what they would actually
  receive) through the uplink codec.  :class:`BroadcastCache` times both
  calls, so downlink codec seconds show up in the round record instead of
  being burned untimed (see ``RoundRecord.broadcast_*_seconds``).
* **serialization** — a process executor cannot share the state dict by
  reference; it needs one picklable buffer.  The cache builds that buffer
  through the :mod:`repro.core.serializer` bitstream (raw broadcasts) or
  reuses the codec payload itself (compressed broadcasts) once per round,
  and only when the active executor asks for it
  (``wants_broadcast_payload``) — serial runs pay nothing.

Each round is prepared from scratch: nothing is kept between rounds, so the
codec sees ``compress`` every round in the order the serial path calls it.
:class:`repro.fl.executor.ProcessParallelExecutor` ships the round's
:class:`BroadcastPayload` to every worker once, and each worker decodes it
once for all of its tasks that round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.serializer import deserialize_named_arrays, serialize_named_arrays

#: Wire encodings a :class:`BroadcastPayload` may carry.
ENCODING_ARRAYS = "arrays"
ENCODING_CODEC = "codec"


@dataclass
class BroadcastPayload:
    """The single per-round buffer shipped to every process worker.

    ``nbytes`` is the *modelled* downlink payload size — the codec payload
    length for compressed broadcasts, the raw tensor bytes otherwise.  For
    raw broadcasts it is smaller than ``len(data)``: the wire buffer carries
    self-describing framing that the simulated link never ships.
    """

    encoding: str
    data: bytes
    nbytes: int

    def decode(self, codec=None) -> Dict[str, np.ndarray]:
        """Reconstruct the broadcast state a client trains on."""
        if self.encoding == ENCODING_CODEC:
            if codec is None:
                raise ValueError("codec-encoded broadcast payload needs a codec to decode")
            return codec.decompress(self.data)
        return deserialize_named_arrays(self.data)


class BroadcastCache:
    """Parent-side once-per-round broadcast preparation (see module docstring).

    Its counters instrument the claims the tests pin down: ``serializations``
    (wire-buffer builds) and ``compressions`` (downlink ``codec.compress``
    calls) grow at most once per round, and ``misses`` counts prepared
    rounds.  ``hits`` is always 0: no round is served from an earlier one.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.serializations = 0
        self.compressions = 0

    def round_state(
        self,
        global_state: Mapping[str, np.ndarray],
        codec,
        compress_downlink: bool,
        build_payload: bool = False,
    ) -> Tuple[Dict[str, np.ndarray], int, Optional[BroadcastPayload], float, float]:
        """Prepare one round's broadcast.

        Returns ``(state, nbytes, payload, compress_seconds,
        decompress_seconds)``: the state clients train on, the modelled
        downlink payload size, the wire buffer (``None`` unless
        ``build_payload``), and the measured downlink codec seconds (0.0
        without ``compress_downlink``).
        """
        self.misses += 1
        payload = None
        if codec is not None and compress_downlink:
            start = time.perf_counter()
            data = codec.compress(dict(global_state))
            compress_seconds = time.perf_counter() - start
            self.compressions += 1
            start = time.perf_counter()
            state = codec.decompress(data)
            decompress_seconds = time.perf_counter() - start
            if build_payload:
                # The codec payload *is* the bitstream — ship it and let each
                # worker's codec clone decompress it (deterministic codecs
                # decode bit-identically, the repo's standing guarantee).
                self.serializations += 1
                payload = BroadcastPayload(ENCODING_CODEC, data, len(data))
            return state, len(data), payload, compress_seconds, decompress_seconds
        state = dict(global_state)
        nbytes = int(sum(np.asarray(v).nbytes for v in state.values()))
        if build_payload:
            self.serializations += 1
            payload = BroadcastPayload(ENCODING_ARRAYS, serialize_named_arrays(state), nbytes)
        return state, nbytes, payload, 0.0, 0.0


__all__ = [
    "ENCODING_ARRAYS",
    "ENCODING_CODEC",
    "BroadcastCache",
    "BroadcastPayload",
]
