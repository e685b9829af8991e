"""Dense feed-forward networks with analytic backprop, Huber loss, and Adam.

All math runs in float64 so finite-difference gradient checks stay tight.
Hidden layers use ReLU, the output layer is linear. A net's parameters, its
gradients and each Adam moment live in one flat buffer apiece, with per-layer
views into it, so a whole-model update is a handful of numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


class DivergenceError(RuntimeError):
    """NaN or Inf appeared where the training math requires finite values."""


def layer_views(layer_dims, flat: np.ndarray):
    """Per-layer (weights, biases) views of a flat buffer laid out w0, b0, w1, b1, ...

    weights[k] has shape (layer_dims[k+1], layer_dims[k]) and biases[k]
    (layer_dims[k+1],). Writes through a view change the buffer, so a
    whole-model update runs once over `flat`.
    """
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(flat[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    if flat.shape != (offset,):
        raise ValueError(f"buffer of shape {flat.shape} does not fit layer dims {layer_dims}")
    return weights, biases


@dataclass
class DenseNet:
    """Parameters in one flat float64 buffer; weights and biases are its layer_views.

    Gradients use the same class: a net-shaped buffer of partial derivatives.
    """

    layer_dims: tuple[int, ...]
    flat: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = layer_views(self.layer_dims, self.flat)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def clone(self) -> "DenseNet":
        return DenseNet(self.layer_dims, self.flat.copy())

    def zeros_like(self) -> "DenseNet":
        # np.zeros leaves its pages unmapped until first written.
        return DenseNet(self.layer_dims, np.zeros(self.flat.size))


@dataclass
class ForwardCache:
    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    post_activations: list[np.ndarray]

    def head(self, rows: int) -> "ForwardCache":
        """The cache of the batch's first `rows` samples (views, no copy)."""
        return ForwardCache(inputs=self.inputs[:rows],
                            pre_activations=[z[:rows] for z in self.pre_activations],
                            post_activations=[a[:rows] for a in self.post_activations])


@dataclass
class AdamState:
    """Adam's scalars and its moments m and v, each one buffer laid out like the net's."""

    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)


def init_net(layer_dims, seed) -> DenseNet:
    """Seeded net with uniform fan-in scaled weights (bound 1/sqrt(fan_in)),
    zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    net = DenseNet(dims, np.zeros(size))
    for w in net.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: DenseNet, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batched forward pass. Returns outputs (B, out) and the cache backward needs."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layer_dims[0]:
        raise ValueError(
            f"inputs must be (B, {net.layer_dims[0]}), got shape {x.shape}"
        )
    pre, post = [], []
    a = x
    last = net.num_layers - 1
    for k in range(net.num_layers):
        z = a @ net.weights[k].T
        z += net.biases[k]
        pre.append(z)
        a = z if k == last else np.maximum(z, 0.0)
        post.append(a)
    return a, ForwardCache(inputs=x, pre_activations=pre, post_activations=post)


def backward(net: DenseNet, cache: ForwardCache, output_grads: np.ndarray,
             out: DenseNet | None = None) -> DenseNet:
    """Exact gradients of sum(outputs * output_grads) w.r.t. all parameters.

    Written into `out` when given (a buffer laid out like `net`, such as
    net.zeros_like()), else into a fresh one.
    """
    if len(cache.pre_activations) != net.num_layers:
        raise ValueError("cache does not match network depth")
    gout = np.asarray(output_grads, dtype=np.float64)
    if gout.shape != cache.pre_activations[-1].shape:
        raise ValueError(
            f"output_grads shape {gout.shape} does not match cached "
            f"outputs {cache.pre_activations[-1].shape}"
        )
    for k in range(net.num_layers):
        if cache.pre_activations[k].shape[1] != net.layer_dims[k + 1]:
            raise ValueError("stale cache: layer widths do not match network")
    if out is None:
        out = net.zeros_like()
    delta = gout
    for k in range(net.num_layers - 1, -1, -1):
        a_prev = cache.inputs if k == 0 else cache.post_activations[k - 1]
        np.matmul(delta.T, a_prev, out=out.weights[k])
        np.sum(delta, axis=0, out=out.biases[k])
        if k > 0:
            delta = (delta @ net.weights[k]) * (cache.pre_activations[k - 1] > 0.0)
    return out


def huber_loss_and_grad(pred, target, delta, sample_weights=None):
    """Weighted batch-mean Huber loss and its gradient w.r.t. predictions.

    loss = sum_b w_b * L_delta(target_b - pred_b) / B. The gradient entries
    are bounded by w_b * delta / B.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ValueError(f"pred/target must be equal-length vectors, got {pred.shape} vs {target.shape}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if sample_weights is None:
        w = np.ones_like(pred)
    else:
        w = np.asarray(sample_weights, dtype=np.float64)
        if w.shape != pred.shape:
            raise ValueError("sample_weights length mismatch")
        if (w < 0).any():
            raise ValueError("sample_weights must be non-negative")
    batch = pred.shape[0]
    resid = target - pred
    abs_r = np.abs(resid)
    quad = abs_r <= delta
    per_item = np.where(quad, 0.5 * resid * resid, delta * (abs_r - 0.5 * delta))
    loss = float((w * per_item).sum() / batch)
    dloss_dpred = -w * np.clip(resid, -delta, delta) / batch
    return loss, dloss_dpred


def init_adam(net: DenseNet, learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8) -> AdamState:
    return AdamState(step_count=0, learning_rate=float(learning_rate), beta1=float(beta1),
                     beta2=float(beta2), epsilon=float(epsilon),
                     m=np.zeros(net.flat.size), v=np.zeros(net.flat.size))


def adam_step(net: DenseNet, grads: DenseNet, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on net and state."""
    if grads.layer_dims != net.layer_dims:
        raise ValueError(f"gradient layer dims {grads.layer_dims} do not match net {net.layer_dims}")
    g = grads.flat
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient; update rejected")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    # Fold the bias corrections into the step size: lr_t * m / (sqrt(v) + eps_t).
    corr = np.sqrt(1.0 - b2**t)
    lr_t = state.learning_rate * corr / (1.0 - b1**t)
    eps_t = state.epsilon * corr
    m, v, p = state.m, state.v, net.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr_t * m / (np.sqrt(v) + eps_t)
    if not np.isfinite(p).all():
        raise DivergenceError("non-finite parameter after update")


def copy_params(src: DenseNet, dst: DenseNet) -> None:
    """Hard sync dst <- src (deep copy of all parameters)."""
    if src.layer_dims != dst.layer_dims:
        raise ValueError(f"architecture mismatch: {src.layer_dims} vs {dst.layer_dims}")
    np.copyto(dst.flat, src.flat)


def net_state(net: DenseNet, adam: AdamState | None = None, prefix: str = ""):
    """Name the per-layer views of net (and optionally Adam) as (meta, arrays) for a blob."""
    meta = {"layer_dims": list(net.layer_dims)}
    arrays: dict[str, np.ndarray] = {}
    for k in range(net.num_layers):
        arrays[f"{prefix}w{k}"] = net.weights[k]
        arrays[f"{prefix}b{k}"] = net.biases[k]
    if adam is not None:
        meta["adam"] = {f.name: getattr(adam, f.name) for f in fields(adam)
                        if f.name not in ("m", "v")}  # the scalars, in field order
        m_weights, m_biases = layer_views(net.layer_dims, adam.m)
        v_weights, v_biases = layer_views(net.layer_dims, adam.v)
        for k in range(net.num_layers):
            arrays[f"{prefix}adam_mw{k}"] = m_weights[k]
            arrays[f"{prefix}adam_mb{k}"] = m_biases[k]
            arrays[f"{prefix}adam_vw{k}"] = v_weights[k]
            arrays[f"{prefix}adam_vb{k}"] = v_biases[k]
    return meta, arrays


def net_from_state(meta: dict, arrays: dict[str, np.ndarray], prefix: str = ""):
    """Inverse of net_state. Returns (net, adam-or-None)."""
    dims = tuple(int(d) for d in meta["layer_dims"])

    def flat(w_name: str, b_name: str) -> np.ndarray:  # w0, b0, w1, b1, ...
        names = (f"{prefix}{name}{k}" for k in range(len(dims) - 1) for name in (w_name, b_name))
        return np.concatenate([arrays[name] for name in names], axis=None, dtype=np.float64)

    net = DenseNet(dims, flat("w", "b"))
    adam = None
    if "adam" in meta:
        adam = AdamState(**meta["adam"], m=flat("adam_mw", "adam_mb"),
                         v=flat("adam_vw", "adam_vb"))
    _, views = net_state(net, adam, prefix)  # the names and shapes the arrays must have
    if any(arrays[name].shape != view.shape for name, view in views.items()):
        raise ValueError(f"stored {prefix}* array shapes do not fit layer dims {dims}")
    return net, adam
