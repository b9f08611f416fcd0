"""JSON form of simulation results.

:func:`results_to_dict` is what the run cache
(:class:`repro.experiments.cache.RunCache`) stores, so a cached run is
re-cut without re-simulating, and what :func:`results_digest` hashes.
The format is stable, versioned, and human-greppable: headline metrics
plus full per-message and per-detection records.
"""

from __future__ import annotations

import hashlib
import json

from .messages import Message
from .results import DetectionRecord, MessageRecord, SimulationResults

#: Format version; bump on breaking layout changes.
FORMAT_VERSION = 1


def results_to_dict(results: SimulationResults) -> dict:
    """Serializable dict form of one run's results."""
    return {
        "format_version": FORMAT_VERSION,
        "protocol": results.protocol,
        "trace": results.trace,
        "seed": results.seed,
        "summary": results.summary(),
        "messages": [
            {
                "msg_id": record.message.msg_id,
                "source": record.message.source,
                "destination": record.message.destination,
                "created_at": record.message.created_at,
                "ttl": record.message.ttl,
                "size_bytes": record.message.size_bytes,
                "delivered_at": record.delivered_at,
                "replicas": record.replicas,
            }
            for record in results.messages.values()
        ],
        "detections": [
            {
                "offender": d.offender,
                "detector": d.detector,
                "time": d.time,
                "msg_id": d.msg_id,
                "deviation": d.deviation,
                "delay_after_ttl": d.delay_after_ttl,
            }
            for d in results.detections
        ],
        "evicted_at": {str(k): v for k, v in results.evicted_at.items()},
        "energy": {str(k): v for k, v in results.energy.items()},
        "memory_byte_seconds": {
            str(k): v for k, v in results.memory_byte_seconds.items()
        },
        "counters": {
            "heavy_hmac_runs": results.heavy_hmac_runs,
            "relay_attempts": results.relay_attempts,
            "test_phases": results.test_phases,
            "buffer_evictions": results.buffer_evictions,
            "session_refusals": results.session_refusals,
        },
        "first_deviation_expiry": {
            str(k): v for k, v in results.first_deviation_expiry.items()
        },
        "deviation_counts": {
            str(k): v for k, v in results.deviation_counts.items()
        },
    }


def results_digest(results: SimulationResults) -> str:
    """The determinism digest: sha256 of the canonical results JSON.

    Two runs are bit-identical exactly when their digests are equal;
    the golden, determinism and tier-parity suites compare runs by it.
    """
    payload = json.dumps(
        results_to_dict(results), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def results_from_dict(data: dict) -> SimulationResults:
    """Rebuild :class:`SimulationResults` from its dict form.

    Raises:
        ValueError: on unknown format versions.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported results format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    results = SimulationResults(
        protocol=data["protocol"], trace=data["trace"], seed=data["seed"]
    )
    for entry in data["messages"]:
        message = Message(
            msg_id=entry["msg_id"],
            source=entry["source"],
            destination=entry["destination"],
            created_at=entry["created_at"],
            ttl=entry["ttl"],
            size_bytes=entry["size_bytes"],
        )
        record = MessageRecord(
            message=message,
            delivered_at=entry["delivered_at"],
            replicas=entry["replicas"],
        )
        results.messages[message.msg_id] = record
    for entry in data["detections"]:
        results.detections.append(DetectionRecord(**entry))
    results.evicted_at = {
        int(k): v for k, v in data["evicted_at"].items()
    }
    results.energy = {int(k): v for k, v in data["energy"].items()}
    results.memory_byte_seconds = {
        int(k): v for k, v in data["memory_byte_seconds"].items()
    }
    counters = data["counters"]
    results.heavy_hmac_runs = counters["heavy_hmac_runs"]
    results.relay_attempts = counters["relay_attempts"]
    results.test_phases = counters["test_phases"]
    results.buffer_evictions = counters["buffer_evictions"]
    results.session_refusals = counters.get("session_refusals", 0)
    results.first_deviation_expiry = {
        int(k): v for k, v in data["first_deviation_expiry"].items()
    }
    results.deviation_counts = {
        int(k): v for k, v in data["deviation_counts"].items()
    }
    return results
