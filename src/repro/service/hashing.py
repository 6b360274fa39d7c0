"""Canonical circuit and job hashing: the service's content address.

Two submissions should share one cache entry exactly when the engine is
guaranteed to produce interchangeable results for them.  That guarantee
rests on two normalisations:

* **Circuit canonicalisation** — the netlist is re-serialised into a
  canonical ``.bench``-like text: inputs sorted, outputs sorted, one
  line per gate sorted by target net, gate input order preserved
  (``XOR(a, b)`` and ``XOR(b, a)`` are logically equal but produce
  different Tseitin variable interleavings, so they do *not* collapse).
  Whitespace, comments, line order, and declaration order all wash out.
* **Option canonicalisation** — only the options that can change a
  record (:meth:`AtpgOptions.result_fields
  <repro.atpg.options.AtpgOptions.result_fields>`: solver, solver mode,
  conflict budget, dropping, certification mode, sharing, block size)
  enter the key, serialised with sorted keys; presentation knobs
  (worker count, shard timeouts) stay out, because the replay merge
  makes records worker-count independent.

The job key is the SHA-256 over both; the circuit hash alone is also
exposed for observability (two option sets over one netlist share it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.atpg.options import AtpgOptions
from repro.circuits.gates import GateType, gate_function_name
from repro.circuits.network import Network

#: The engine options the service runs with when a submission omits
#: them.  ``fresh`` solver mode is the service default on purpose: it is
#: the mode whose records are bit-identical across resumes and worker
#: counts, which is what makes cached results safely shareable.
SERVICE_OPTIONS = AtpgOptions(solver_mode="fresh", certify="witness")

#: The job-key projection of :data:`SERVICE_OPTIONS`: the option names a
#: submission may set, with their service defaults.
RESULT_OPTIONS = SERVICE_OPTIONS.result_fields()


def canonical_circuit_text(network: Network) -> str:
    """The canonical serialisation hashed as the circuit's identity."""
    lines = []
    for net in sorted(network.inputs):
        lines.append(f"INPUT({net})")
    for net in sorted(network.outputs):
        lines.append(f"OUTPUT({net})")
    gate_lines = []
    for gate in network.gates():
        if gate.gate_type is GateType.INPUT:
            continue
        if gate.gate_type in (GateType.CONST0, GateType.CONST1):
            func, args = gate_function_name(gate.gate_type), ""
        else:
            func = gate_function_name(gate.gate_type)
            args = ",".join(gate.inputs)
        gate_lines.append(f"{gate.output}={func}({args})")
    lines.extend(sorted(gate_lines))
    return "\n".join(lines) + "\n"


def canonical_circuit_hash(network: Network) -> str:
    """SHA-256 hex digest of the canonical circuit text."""
    text = canonical_circuit_text(network)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_options(options: dict | None) -> dict:
    """Project ``options`` onto the result-determining set, with
    service defaults filled in.

    Raises:
        ValueError: for unknown option names (a typo silently ignored
            here would poison the cache key space) and for values
            :class:`~repro.atpg.options.AtpgOptions` rejects.
    """
    options = dict(options or {})
    unknown = sorted(set(options) - set(RESULT_OPTIONS))
    if unknown:
        raise ValueError(f"unknown job options: {', '.join(unknown)}")
    return replace(SERVICE_OPTIONS, **options).result_fields()


def canonical_job_key(network: Network, options: dict | None = None) -> str:
    """SHA-256 job key over (canonical circuit, canonical options)."""
    payload = json.dumps(canonical_options(options), sort_keys=True)
    digest = hashlib.sha256()
    digest.update(canonical_circuit_text(network).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(payload.encode("utf-8"))
    return digest.hexdigest()
