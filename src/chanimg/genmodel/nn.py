"""Dense networks with hand-written differentiation.

Parameters are float64 or float32 (Mlp.init's dtype) on plain numpy
arrays, and every pass runs in the parameters' dtype.  A pass reads only
its arguments, so its bits do not depend on which thread runs it: training
is deterministic for a fixed seed at a given BLAS thread count, and every
float64 gradient can be checked against central finite differences.

Besides the usual forward/backward pair, Mlp exposes a forward-mode tangent
pass (jvp) and a reverse pass through it (grad_of_jvp).  Together they
differentiate scalars of the form sum_b coef_b * (v_b . grad_x f(x_b)) with
respect to the parameters, which is exactly what the gradient penalty of a
Wasserstein critic needs: the penalty depends on the input gradient of the
critic, so its parameter gradient requires second derivatives.  Every
hidden layer is therefore silu, smooth with second derivatives everywhere;
the output layer, linear or tanh, is differentiated once only.

The forward cache holds, per layer l, the input h[l] (h[-1] is the
output), the pre-activation a[l] and, for silu layers, the sigmoid s[l] of
a[l] (None for other layers).  The first and second activation derivatives
are added to it ("d1", "d2") when a later pass first reads them, so each
is computed once per forward however many passes read it.  backward,
input_grad and grad_of_jvp form the input-side product only for the input
columns the caller asks for.

Every pass takes its arrays from numpy.  Memory comes from the C
library's heap, which chanimg sets to keep freed blocks (see chanimg), so
a training step reuses the memory of the step before instead of faulting
in fresh pages.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDivergedError

__all__ = ["Mlp", "AdamState", "adam_step", "count_params"]


def _sigmoid(a):
    """Logistic function; exp only sees -|a|, so it never overflows.

    1/d where a >= 0 and e/d elsewhere, with d = 1 + e: e <= 1, so the
    maximum with the mask picks the numerator without a data-dependent
    branch.
    """
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0)
    np.maximum(e, a >= 0, out=e)
    return np.divide(e, d, out=e)


def _act_prime(kind, a, h, s):
    """First derivative of a tanh or silu activation.

    h = act(a) and s = sigmoid(a) for silu: 1 - h h, or s (1 + a (1 - s)).
    """
    if kind == "tanh":
        return 1.0 - h * h
    return ((1.0 - s) * a + 1.0) * s


def _act_second(a, s):
    """Second derivative of silu, s (1 - s) (2 + a (1 - 2 s))."""
    return (1.0 - s) * s * ((1.0 - s * 2.0) * a + 2.0)


class Mlp:
    """Fully connected network with silu hidden layers.

    params is a flat list [W0, b0, W1, b1, ...] with W of shape (out, in).
    out_act, the last layer's activation, is 'linear' or 'tanh'.
    """

    def __init__(self, sizes, out_act="linear", params=None):
        if out_act not in ("linear", "tanh"):
            raise ValueError("out_act must be 'linear' or 'tanh'")
        self.sizes = list(sizes)
        self.out_act = out_act
        self.n_layers = len(sizes) - 1
        self.params = params if params is not None else []

    @property
    def dtype(self):
        return self.params[0].dtype if self.params else np.dtype(np.float64)

    def _kind(self, layer) -> str:
        return "silu" if layer < self.n_layers - 1 else self.out_act

    @classmethod
    def init(cls, sizes, out_act, rng, dtype=np.float64) -> "Mlp":
        """Uniform fan-in init, W ~ U(+/- sqrt(3 / fan_in)) of variance 1/fan_in; zero biases."""
        net = cls(sizes, out_act)
        for l in range(net.n_layers):
            fan_in, fan_out = sizes[l], sizes[l + 1]
            a = np.sqrt(3.0) / np.sqrt(fan_in)
            net.params.append(rng.uniform(-a, a, size=(fan_out, fan_in)).astype(dtype))
            net.params.append(np.zeros(fan_out, dtype=dtype))
        return net

    # -- plain passes --------------------------------------------------------

    def forward(self, x):
        """Returns (output (B, sizes[-1]), cache {"h", "a", "s"}; see module doc)."""
        h = [np.asarray(x, dtype=self.dtype)]
        a_list, s_list = [], []
        for l in range(self.n_layers):
            w, b = self.params[2 * l], self.params[2 * l + 1]
            a = h[-1] @ w.T
            a += b
            kind, s, out = self._kind(l), None, a
            if kind == "silu":
                s = _sigmoid(a)
                out = a * s
            elif kind == "tanh":
                out = np.tanh(a)
            a_list.append(a)
            s_list.append(s)
            h.append(out)
        return h[-1], {"h": h, "a": a_list, "s": s_list}

    def _deriv(self, cache, l, order):
        """Activation derivative of order 1 or 2 at layer l, kept in the cache."""
        kind = self._kind(l)
        if kind == "linear":
            return 1.0 if order == 1 else 0.0
        memo = cache.setdefault(f"d{order}", [None] * self.n_layers)
        if memo[l] is None:
            a, h, s = cache["a"][l], cache["h"][l + 1], cache["s"][l]
            # only hidden, silu, layers are differentiated twice
            memo[l] = _act_prime(kind, a, h, s) if order == 1 else _act_second(a, s)
        return memo[l]

    def backward(self, cache, d_out, with_param_grads=True, in_cols=slice(None)):
        """Backprop d_out (B, out) through the cached forward.

        Returns (grads matching self.params or None, d_input), where d_input
        holds only the input columns in_cols (all of them by default).
        """
        h = cache["h"]
        grads = None
        if with_param_grads:
            grads = [np.empty_like(p) for p in self.params]
        da = np.asarray(d_out, dtype=self.dtype) * self._deriv(cache, self.n_layers - 1, 1)
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            if with_param_grads:
                np.matmul(da.T, h[l], out=grads[2 * l])
                np.sum(da, axis=0, out=grads[2 * l + 1])
            if l == 0:
                return grads, da @ w[:, in_cols]
            da = da @ w
            da *= self._deriv(cache, l - 1, 1)

    def input_grad(self, cache, d_out, in_cols=slice(None)):
        """d_input (columns in_cols) only; skips parameter gradients."""
        _, dx = self.backward(cache, d_out, with_param_grads=False, in_cols=in_cols)
        return dx

    # -- tangent machinery for the gradient penalty ---------------------------

    def jvp(self, cache, v):
        """Forward-mode pass along input tangent v; parameters carry zero tangent.

        Returns (a_dots, h_dots): the pre-activation tangent of every layer,
        and the tangent of every layer input, with h_dots[0] = v and
        h_dots[-1] the output tangent.
        """
        h_dots = [np.asarray(v, dtype=self.dtype)]
        a_dots = []
        for l in range(self.n_layers):
            ad = h_dots[-1] @ self.params[2 * l].T
            a_dots.append(ad)
            h_dots.append(self._deriv(cache, l, 1) * ad)
        return a_dots, h_dots

    def grad_of_jvp(self, cache, v, r_out, in_cols=slice(None), out=None):
        """Parameter gradient of sum_b r_out_b . out_tangent_b.

        cache is the primal forward cache and v the input tangent.  Only
        linear-output networks are supported (the critic).  Returns
        (grads, d_input_primal), the latter for the input columns in_cols
        only; it continues into whatever produced the primal input (e.g.
        the condition embedding).  The grads are added to out when given,
        one layer at a time, so no second full set of gradients is held.
        """
        if self.out_act != "linear":
            raise ValueError("grad_of_jvp supports linear-output networks only")
        h = cache["h"]
        a_dots, h_dots = self.jvp(cache, v)

        if out is None:
            out = [np.zeros_like(p) for p in self.params]
        r_ad = np.asarray(r_out, dtype=self.dtype)  # d/d(a_dot), last layer
        r_a = np.zeros_like(r_ad)
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            out[2 * l] += r_a.T @ h[l]
            out[2 * l] += r_ad.T @ h_dots[l]
            out[2 * l + 1] += np.sum(r_a, axis=0)
            if l == 0:
                return out, r_a @ w[:, in_cols]
            s1 = self._deriv(cache, l - 1, 1)
            s2 = self._deriv(cache, l - 1, 2)
            r_hd = r_ad @ w
            r_a = a_dots[l - 1] * s2 * r_hd + (r_a @ w) * s1
            r_ad = r_hd * s1


def count_params(*nets) -> int:
    return sum(p.size for net in nets for p in net.params)


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter list."""

    step: int
    m: list
    v: list

    @classmethod
    def zeros(cls, params) -> "AdamState":
        return cls(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


ADAM_EPS = 1e-8  # the denominator's regularizer


def adam_step(params, grads, state: AdamState, lr: float, beta1: float, beta2: float):
    """In-place Adam update with bias correction; returns params.

    Evaluates m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    p -= lr * (m / c1) / (sqrt(v / c2) + ADAM_EPS) in that operation order,
    over each parameter's whole array.  Raises TrainingDivergedError on any
    non-finite gradient, before that parameter is touched.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.isfinite(g).all():
            raise TrainingDivergedError("non-finite gradient")
        m *= beta1
        m += g * (1.0 - beta1)
        v *= beta2
        v += g * (1.0 - beta2) * g
        p -= m / c1 * lr / (np.sqrt(v / c2) + ADAM_EPS)
    return params
