"""Dense nets, Huber loss, and Adam: the function approximator layer.

Builds a small net, verifies the analytic gradients against finite
differences, and fits a toy regression target.
"""

import numpy as np

from gqn.nets import adam_step, backward, forward, huber_loss_and_grad, init_adam, init_net

rng = np.random.default_rng(0)

# A [2, 32, 1] net: ReLU hidden layer, linear output.
net = init_net([2, 32, 1], seed=0)
adam = init_adam(net, learning_rate=1e-2)

# Spot-check one analytic weight gradient against a central difference.
x = rng.normal(size=(8, 2))
gout = rng.normal(size=(8, 1))
_, cache = forward(net, x)
grads = backward(net, cache, gout)

h = 1e-5
w = net.weights[0]
orig = w[0, 0]
w[0, 0] = orig + h
up = float(np.sum(forward(net, x)[0] * gout))
w[0, 0] = orig - h
down = float(np.sum(forward(net, x)[0] * gout))
w[0, 0] = orig
fd = (up - down) / (2 * h)
print(f"analytic grad {grads.weights[0][0, 0]:+.8f}  finite difference {fd:+.8f}")

# Fit y = sin(x0) * cos(x1) under the Huber loss.
inputs = rng.uniform(-2, 2, size=(256, 2))
targets = np.sin(inputs[:, 0]) * np.cos(inputs[:, 1])
for step in range(2000):
    out, cache = forward(net, inputs)
    loss, dpred = huber_loss_and_grad(out[:, 0], targets, delta=1.0)
    grads = backward(net, cache, dpred[:, None])
    adam_step(net, grads, adam)
    if step % 500 == 0:
        print(f"step {step:4d}  huber loss {loss:.5f}")
out, _ = forward(net, inputs)
print(f"final mean abs error {np.mean(np.abs(out[:, 0] - targets)):.4f}")
