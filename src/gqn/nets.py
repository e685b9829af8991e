"""Dense feed-forward networks with analytic backprop, Huber loss, and Adam.

All math runs in float64 so finite-difference gradient checks stay tight.
Hidden layers use ReLU, the output layer is linear. A net's parameters, its
gradients and each Adam moment live in one flat buffer apiece, with per-layer
views into it, so a whole-model update is a handful of numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


class DivergenceError(RuntimeError):
    """NaN or Inf appeared where the training math requires finite values."""


def _pack(weights, biases, flat=None):
    """One float64 buffer laid out w0, b0, w1, b1, ... with per-layer views.

    Returns (flat, weight views, bias views); writes through a view change
    the buffer, so whole-model updates run once over `flat`. Without `flat`
    a new buffer holds copies of the arrays; with it, only their shapes are
    used.
    """
    if len(weights) != len(biases):
        raise ValueError(f"{len(weights)} weight arrays but {len(biases)} bias arrays")
    arrays = [a for pair in zip(weights, biases) for a in pair]
    if flat is None:
        flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    elif flat.size != sum(a.size for a in arrays):
        raise ValueError(f"buffer of {flat.size} values does not fit the arrays")
    views, offset = [], 0
    for a in arrays:
        views.append(flat[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return flat, views[0::2], views[1::2]


@dataclass
class DenseNet:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # weights[k] has shape (layer_dims[k+1], layer_dims[k])
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def clone(self) -> "DenseNet":
        return replace(self)  # __post_init__ packs copies of the parameters


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
class NetGrads:
    """Gradients laid out like DenseNet: views into one flat buffer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases, self.flat)

    @classmethod
    def zeros_like(cls, net: DenseNet) -> "NetGrads":
        # np.zeros leaves its pages unmapped until first written.
        return cls(net.weights, net.biases, flat=np.zeros(net.flat.size))


@dataclass
class AdamState:
    """Adam moments; m_* and v_* are views into the flat buffers m and v."""

    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    step_count: int
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    m: np.ndarray | None = field(default=None, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.m, self.m_weights, self.m_biases = _pack(self.m_weights, self.m_biases, self.m)
        self.v, self.v_weights, self.v_biases = _pack(self.v_weights, self.v_biases, self.v)

    def clone(self) -> "AdamState":
        return replace(self, m=None, v=None)  # without buffers, __post_init__ packs copies


def init_net(layer_dims, seed) -> DenseNet:
    """Seeded net with uniform fan-in scaled weights (bound 1/sqrt(fan_in)),
    zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"all layer dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(layer_dims=dims, weights=weights, biases=biases)


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
             out: NetGrads | None = None) -> NetGrads:
    """Exact gradients of sum(outputs * output_grads) w.r.t. all parameters.

    Written into `out` when given (laid out like `net`), else into fresh arrays.
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
        out = NetGrads.zeros_like(net)
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
    m, v = NetGrads.zeros_like(net), NetGrads.zeros_like(net)
    return AdamState(
        m_weights=m.weights,
        m_biases=m.biases,
        v_weights=v.weights,
        v_biases=v.biases,
        m=m.flat,
        v=v.flat,
        step_count=0,
        learning_rate=float(learning_rate),
        beta1=float(beta1),
        beta2=float(beta2),
        epsilon=float(epsilon),
    )


def adam_step(net: DenseNet, grads: NetGrads, state: AdamState) -> None:
    """One bias-corrected Adam update, in place on net and state."""
    for g, w in zip(grads.weights, net.weights):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match weights {w.shape}")
    g = grads.flat
    if g.shape != net.flat.shape:
        raise ValueError(f"gradient size {g.size} does not match parameter size {net.flat.size}")
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
    """Flatten net (and optionally Adam) into (meta, arrays) for a blob."""
    meta = {"layer_dims": list(net.layer_dims)}
    arrays: dict[str, np.ndarray] = {}
    for k in range(net.num_layers):
        arrays[f"{prefix}w{k}"] = net.weights[k]
        arrays[f"{prefix}b{k}"] = net.biases[k]
    if adam is not None:
        meta["adam"] = {
            "step_count": adam.step_count,
            "learning_rate": adam.learning_rate,
            "beta1": adam.beta1,
            "beta2": adam.beta2,
            "epsilon": adam.epsilon,
        }
        for k in range(net.num_layers):
            arrays[f"{prefix}adam_mw{k}"] = adam.m_weights[k]
            arrays[f"{prefix}adam_mb{k}"] = adam.m_biases[k]
            arrays[f"{prefix}adam_vw{k}"] = adam.v_weights[k]
            arrays[f"{prefix}adam_vb{k}"] = adam.v_biases[k]
    return meta, arrays


def net_from_state(meta: dict, arrays: dict[str, np.ndarray], prefix: str = ""):
    """Inverse of net_state. Returns (net, adam-or-None)."""
    dims = tuple(int(d) for d in meta["layer_dims"])
    n_layers = len(dims) - 1
    net = DenseNet(
        layer_dims=dims,
        weights=[arrays[f"{prefix}w{k}"] for k in range(n_layers)],
        biases=[arrays[f"{prefix}b{k}"] for k in range(n_layers)],
    )
    adam = None
    if "adam" in meta:
        a = meta["adam"]
        adam = AdamState(
            m_weights=[arrays[f"{prefix}adam_mw{k}"] for k in range(n_layers)],
            m_biases=[arrays[f"{prefix}adam_mb{k}"] for k in range(n_layers)],
            v_weights=[arrays[f"{prefix}adam_vw{k}"] for k in range(n_layers)],
            v_biases=[arrays[f"{prefix}adam_vb{k}"] for k in range(n_layers)],
            step_count=int(a["step_count"]),
            learning_rate=float(a["learning_rate"]),
            beta1=float(a["beta1"]),
            beta2=float(a["beta2"]),
            epsilon=float(a["epsilon"]),
        )
    return net, adam
