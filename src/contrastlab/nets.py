"""Encoder, projection heads, and the temperature network of adaptive runs.

The C heads are one ``Mlp`` whose parameters carry a leading head axis
(weights (C, fan_in, fan_out), biases (C, 1, fan_out)): one call maps a
(B, d) batch to a (C, B, d') stack, slice c bit-identical to head c alone.

The temperature network, width d' (B for the cross-correlation), maps a
vector through one affine layer and squashes pairwise inner products with
a bounded sigmoid, so every temperature lies strictly inside (eta, eta + iota).

Gradient flow: the temperature network reads gradient-stopped features
(``temperature_embedding``). A loss trains phi's parameters through the
temperatures and trains the encoder and heads through the similarities
only; see the ``losses`` module for the maximum-likelihood argument.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractViolation, DomainError, require
from .rng import SplitMix64, derive
from .tensor import Tensor


@dataclass(frozen=True)
class TempBounds:
    """Lower bound offset ``eta`` and range width ``iota``."""

    eta: float = 1e-5
    iota: float = 2.0

    def __post_init__(self):
        require(self.eta > 0, "eta", "must be > 0")
        require(self.iota > 0, "iota", "must be > 0")


def bounded_sigmoid(r: Tensor, bounds: TempBounds) -> Tensor:
    """iota / (1 + exp(r)) + eta: strictly decreasing, range (eta, eta+iota)."""
    tau = bounds.iota / (1.0 + T.exp(r)) + bounds.eta
    values = tau.data
    # fmin and fmax skip a NaN entry, as a comparison's .any() does
    if values.size and (np.fmin.reduce(values, axis=None) <= bounds.eta
                        or np.fmax.reduce(values, axis=None) >= bounds.eta + bounds.iota):
        raise DomainError(
            f"temperature escaped ({bounds.eta}, {bounds.eta + bounds.iota}): "
            f"range [{values.min()}, {values.max()}]"
        )
    return tau


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths input -> hidden... -> output; relu on hidden layers only."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ContractViolation("an MLP needs at least one layer")
        if any(w < 1 for w in self.widths):
            raise ContractViolation(f"all widths must be >= 1, got {self.widths}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


class Mlp:
    """Plain fully connected network over autodiff tensors."""

    def __init__(self, spec: MlpSpec, params: list[Tensor]):
        """Each layer's weight is (..., fan_in, fan_out) and its bias
        (..., fan_out), as the widths of ``spec`` say."""
        if len(params) != 2 * spec.n_layers:
            raise ContractViolation("parameter count does not match spec")
        for fans, w, b in zip(zip(spec.widths, spec.widths[1:]), params[::2], params[1::2]):
            if w.shape[-2:] != fans or b.shape[-1:] != fans[1:]:
                raise ContractViolation(f"layer shapes {w.shape} and {b.shape} do not match "
                                        f"widths {fans[0]} -> {fans[1]}")
        self.spec = spec
        self.params = params

    @classmethod
    def init(cls, spec: MlpSpec, seed: int) -> "Mlp":
        """He-uniform weights (variance 2/fan_in), zero biases, from a
        splitmix64 stream, so identical (spec, seed) gives identical bits."""
        params: list[Tensor] = []
        for layer, (fan_in, fan_out) in enumerate(zip(spec.widths, spec.widths[1:])):
            stream = SplitMix64(derive(seed, "layer", layer))
            limit = math.sqrt(6.0 / fan_in)
            w = (2.0 * stream.floats(fan_in * fan_out) - 1.0) * limit
            params.append(Tensor(w.reshape(fan_in, fan_out)))
            params.append(Tensor(np.zeros(fan_out)))
        return cls(spec, params)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.spec.widths[0]:
            raise ContractViolation(
                f"input width {x.shape[-1]} != expected {self.spec.widths[0]}"
            )
        out = x
        last = self.spec.n_layers - 1
        for layer in range(self.spec.n_layers):
            w, b = self.params[2 * layer], self.params[2 * layer + 1]
            out = T.matmul(out, w) + b
            if layer != last:
                out = T.relu(out)
        return out


@dataclass
class ModelBundle:
    """Encoder f and C projection heads with independent parameters (one
    stacked ``Mlp``), plus the temperature net phi of an adaptive run and
    the predictor of the negative-cosine variant."""

    encoder: Mlp
    heads: Mlp
    temp_net: Mlp | None = None
    predictor: Mlp | None = None

    def __post_init__(self):
        shapes = [p.shape for p in self.heads.params]
        if {len(s) for s in shapes} != {3} or len({s[0] for s in shapes}) != 1 or shapes[0][0] < 1:
            raise ContractViolation(f"head parameters need one leading head extent >= 1, got {shapes}")

    def parameters(self) -> list[Tensor]:
        """Every parameter, component by component in checkpoint order."""
        return [p for _, mlp in _component_entries(self) for p in mlp.params]

    @classmethod
    def build(cls, d_in: int, d: int, d_prime: int, n_heads: int, seed: int,
              with_predictor: bool = False, temp_width: int | None = None) -> "ModelBundle":
        """Smallest faithful instantiation: 2-layer encoder, 2-layer heads
        with hidden width d, and an affine temperature layer given ``temp_width``."""
        encoder = Mlp.init(MlpSpec((d_in, d, d)), derive(seed, "encoder"))
        head_spec = MlpSpec((d, d, d_prime))
        per_head = [Mlp.init(head_spec, derive(seed, "head", c)).params for c in range(n_heads)]
        stacked = [np.stack([p[i].data for p in per_head]) for i in range(2 * head_spec.n_layers)]
        heads = Mlp(head_spec, [Tensor(w if i % 2 == 0 else w[:, None]) for i, w in enumerate(stacked)])
        temp_net = None
        if temp_width is not None:
            temp_net = Mlp.init(MlpSpec((temp_width, temp_width)), derive(seed, "temp"))
        predictor = None
        if with_predictor:
            predictor = Mlp.init(MlpSpec((d_prime, d_prime, d_prime)), derive(seed, "predictor"))
        return cls(encoder, heads, temp_net, predictor)


def forward_views(bundle: ModelBundle, x: Tensor, x_pos: Tensor):
    """Encode two view batches and project them through every head.

    Heads consume unit-normalized backbone features: without
    normalization layers inside the MLPs, feeding raw features lets the
    encoder norm inflate through a positive feedback loop under SGD,
    while the normalized form damps head gradients as 1/|h|.

    Returns (h, h_pos, p, p_pos): the (B, d) encoder outputs and the raw
    (C, B, d') head outputs of each view, all on the autodiff graph.
    """
    if x.shape[0] != x_pos.shape[0]:
        raise ContractViolation(f"batch extents differ: {x.shape[0]} vs {x_pos.shape[0]}")
    h = bundle.encoder(x)
    h_pos = bundle.encoder(x_pos)
    return h, h_pos, bundle.heads(T.l2_normalize(h)), bundle.heads(T.l2_normalize(h_pos))


def temperature_embedding(temp_net: Mlp, z: Tensor) -> Tensor:
    """phi(z) on a gradient-stopped copy of ``z``.

    Every adaptive temperature is computed from these embeddings, so this
    is the one place where temperatures meet the features: the forward
    value depends on ``z``, but no gradient flows from a temperature back
    into ``z`` (only into phi's parameters).
    """
    return temp_net(T.stop_gradient(z))


def adaptive_temperature(u: Tensor, v: Tensor, temp_net: Mlp, bounds: TempBounds) -> Tensor:
    """Pair-adaptive temperature: bounded sigmoid of <phi(u), phi(v)>.

    ``u`` and ``v`` are aligned rows, (B, d') or (C, B, d'); the result
    has their shape without the last axis and is differentiable with
    respect to phi's parameters. The inputs enter through
    ``temperature_embedding`` and so receive no gradient.
    """
    r = T.sum_(T.mul(temperature_embedding(temp_net, u), temperature_embedding(temp_net, v)),
               axis=-1)
    return bounded_sigmoid(r, bounds)


# -- checkpoint format ----------------------------------------------------
# A checkpoint is an 8-byte little-endian manifest length, the JSON
# manifest, then concatenated AMTD tensor records. Offsets in the manifest
# are relative to the start of the payload. The heads are one entry,
# "heads", whose arrays carry the leading head axis.


def _component_entries(bundle: ModelBundle):
    yield "encoder", bundle.encoder
    yield "heads", bundle.heads
    if bundle.temp_net is not None:
        yield "temp_net", bundle.temp_net
    if bundle.predictor is not None:
        yield "predictor", bundle.predictor


def save_bundle(bundle: ModelBundle, path) -> None:
    tensors = []
    payload = bytearray()
    specs = {}
    for name, mlp in _component_entries(bundle):
        specs[name] = list(mlp.spec.widths)
        for layer in range(mlp.spec.n_layers):
            for kind, param in (("w", mlp.params[2 * layer]), ("b", mlp.params[2 * layer + 1])):
                blob = T.amtd_encode(param.data, dtype_code=2)
                tensors.append({
                    "name": f"{name}/{layer}/{kind}",
                    "shape": list(param.shape),
                    "offset": len(payload),
                    "length": len(blob),
                })
                payload.extend(blob)
    manifest = {
        "format": "contrastlab-checkpoint",
        "version": 2,
        "specs": specs,
        "tensors": tensors,
    }
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(body).to_bytes(8, "little"))
        fh.write(body)
        fh.write(bytes(payload))


def load_bundle(path) -> ModelBundle:
    """Read a checkpoint written by ``save_bundle``. One that does not
    decode raises ``OSError`` naming the path: an I/O failure, not a
    caller bug."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_bundle(blob)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"missing entry {exc}" if isinstance(exc, KeyError) else exc
        raise OSError(f"checkpoint {path}: {reason}") from None


def _decode_bundle(blob: bytes) -> ModelBundle:
    manifest_len = int.from_bytes(blob[:8], "little")
    if 8 + manifest_len > len(blob):
        raise ContractViolation(f"manifest length {manifest_len} runs past the {len(blob)}-byte file")
    manifest = json.loads(blob[8:8 + manifest_len].decode("utf-8"))
    if manifest["format"] != "contrastlab-checkpoint" or manifest["version"] != 2:
        raise ContractViolation(f"format {manifest['format']!r} version {manifest['version']!r} "
                                "is not contrastlab-checkpoint version 2")
    payload = blob[8 + manifest_len:]
    arrays = {}
    for entry in manifest["tensors"]:
        start, end = entry["offset"], entry["offset"] + entry["length"]
        if not 0 <= start <= end <= len(payload):
            raise ContractViolation(f"tensor {entry['name']} lies outside the {len(payload)}-byte payload")
        arr = T.amtd_decode(payload[start:end])
        if list(arr.shape) != entry["shape"]:
            raise ContractViolation(f"checkpoint tensor {entry['name']} has wrong shape")
        if not np.isfinite(arr).all():
            raise ContractViolation(f"checkpoint tensor {entry['name']} is not finite")
        arrays[entry["name"]] = arr

    def rebuild(name: str) -> Mlp:
        spec = MlpSpec(tuple(manifest["specs"][name]))
        params = []
        for layer in range(spec.n_layers):
            params.append(Tensor(arrays[f"{name}/{layer}/w"]))
            params.append(Tensor(arrays[f"{name}/{layer}/b"]))
        return Mlp(spec, params)

    components = {name: rebuild(name) for name in manifest["specs"]}
    # An adaptive barlow file of the earlier layout stores the batch-width
    # net its loss read as "temp_net_bt" beside an unread d' "temp_net".
    if "temp_net_bt" in components:
        components["temp_net"] = components.pop("temp_net_bt")
    return ModelBundle(**components)
