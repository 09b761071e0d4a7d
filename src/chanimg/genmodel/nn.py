"""Dense networks with hand-written differentiation.

Parameters are float64 or float32 (Mlp.init's dtype) on plain numpy
arrays, and every pass runs in the parameters' dtype.  That keeps training
deterministic for a fixed seed and thread count and lets every float64
gradient be checked against central finite differences.

Besides the usual forward/backward pair, Mlp exposes a forward-mode tangent
pass (jvp) and a reverse pass through it (grad_of_jvp).  Together they
differentiate scalars of the form sum_b coef_b * (v_b . grad_x f(x_b)) with
respect to the parameters, which is exactly what the gradient penalty of a
Wasserstein critic needs: the penalty depends on the input gradient of the
critic, so its parameter gradient requires second derivatives.  Hidden
activations are therefore restricted to smooth choices (tanh, silu) whose
second derivatives exist everywhere.

The forward cache holds, per layer l, the input h[l] (h[-1] is the
output), the pre-activation a[l] and, for silu layers, the sigmoid s[l] of
a[l] (None for other layers).  The backward and tangent passes read their
activation derivatives from it and never recompute a sigmoid.  backward,
input_grad and grad_of_jvp form the input-side product only for the input
columns the caller asks for.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDivergedError

__all__ = ["Mlp", "AdamState", "adam_step", "count_params"]


def _sigmoid(a):
    """Logistic function; exp only sees -|a|, so it never overflows.

    1/d where a >= 0 and e/d elsewhere: e <= 1, so the maximum with the
    mask picks the numerator without a data-dependent branch.
    """
    e = np.exp(-np.abs(a))
    d = 1.0 + e
    return np.maximum(e, a >= 0) / d


def _act_prime(kind, a, h, s):
    """First derivative of the activation; h = act(a), s = sigmoid(a) for silu."""
    if kind == "tanh":
        return 1.0 - h * h
    if kind == "silu":
        return s * (1.0 + a * (1.0 - s))
    return 1.0


def _act_second(kind, a, h, s):
    if kind == "tanh":
        return -2.0 * h * (1.0 - h * h)
    if kind == "silu":
        return s * (1.0 - s) * (2.0 + a * (1.0 - 2.0 * s))
    return 0.0


class Mlp:
    """Fully connected network with smooth hidden activations.

    params is a flat list [W0, b0, W1, b1, ...] with W of shape (out, in).
    hidden_act applies to all but the last layer; out_act is 'linear' or
    'tanh'.
    """

    def __init__(self, sizes, out_act="linear", params=None, hidden_act="silu"):
        if out_act not in ("linear", "tanh"):
            raise ValueError("out_act must be 'linear' or 'tanh'")
        if hidden_act not in ("tanh", "silu"):
            raise ValueError("hidden_act must be 'tanh' or 'silu'")
        self.sizes = list(sizes)
        self.out_act = out_act
        self.hidden_act = hidden_act
        self.n_layers = len(sizes) - 1
        self.params = params if params is not None else []

    @property
    def dtype(self):
        return self.params[0].dtype if self.params else np.dtype(np.float64)

    def _kind(self, layer) -> str:
        return self.hidden_act if layer < self.n_layers - 1 else self.out_act

    @classmethod
    def init(cls, sizes, out_act, rng, hidden_act="silu", gains=None,
             dtype=np.float64) -> "Mlp":
        """Uniform fan-in init: W ~ U(+/- gain/sqrt(fan_in)), zero biases.

        gains: one scale per layer (default sqrt(3), i.e. unit weight
        variance 1/fan_in).
        """
        net = cls(sizes, out_act, hidden_act=hidden_act)
        gains = gains or [np.sqrt(3.0)] * net.n_layers
        for l in range(net.n_layers):
            fan_in, fan_out = sizes[l], sizes[l + 1]
            a = gains[l] / np.sqrt(fan_in)
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
            a = h[-1] @ w.T + b
            kind, s = self._kind(l), None
            if kind == "silu":
                s = _sigmoid(a)
                out = a * s
            else:
                out = np.tanh(a) if kind == "tanh" else a
            a_list.append(a)
            s_list.append(s)
            h.append(out)
        return h[-1], {"h": h, "a": a_list, "s": s_list}

    def _prime(self, cache, l):
        return _act_prime(self._kind(l), cache["a"][l], cache["h"][l + 1], cache["s"][l])

    def backward(self, cache, d_out, with_param_grads=True, in_cols=slice(None)):
        """Backprop d_out (B, out) through the cached forward.

        Returns (grads matching self.params or None, d_input), where d_input
        holds only the input columns in_cols (all of them by default).
        """
        h = cache["h"]
        grads = [None] * len(self.params) if with_param_grads else None
        d_out = np.asarray(d_out, dtype=self.dtype)
        da = d_out * self._prime(cache, self.n_layers - 1)
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            if with_param_grads:
                grads[2 * l] = da.T @ h[l]
                grads[2 * l + 1] = da.sum(axis=0)
            if l == 0:
                return grads, da @ w[:, in_cols]
            da = (da @ w) * self._prime(cache, l - 1)

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
            h_dots.append(self._prime(cache, l) * ad)
        return a_dots, h_dots

    def grad_of_jvp(self, cache, v, r_out, in_cols=slice(None)):
        """Parameter gradient of sum_b r_out_b . out_tangent_b.

        cache is the primal forward cache and v the input tangent.  Only
        linear-output networks are supported (the critic).  Returns
        (grads, d_input_primal), the latter for the input columns in_cols
        only; it continues into whatever produced the primal input (e.g.
        the condition embedding).
        """
        if self.out_act != "linear":
            raise ValueError("grad_of_jvp supports linear-output networks only")
        h = cache["h"]
        a_dots, h_dots = self.jvp(cache, v)

        grads = [None] * len(self.params)
        r_ad = np.asarray(r_out, dtype=self.dtype)  # d/d(a_dot), last layer
        r_a = np.zeros_like(r_ad)
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            grads[2 * l] = r_a.T @ h[l] + r_ad.T @ h_dots[l]
            grads[2 * l + 1] = r_a.sum(axis=0)
            if l == 0:
                return grads, r_a @ w[:, in_cols]
            r_h = r_a @ w
            r_hd = r_ad @ w
            s1 = self._prime(cache, l - 1)
            s2 = _act_second(self._kind(l - 1), cache["a"][l - 1], h[l], cache["s"][l - 1])
            r_ad = s1 * r_hd
            r_a = s2 * a_dots[l - 1] * r_hd + s1 * r_h

    # -- bookkeeping ----------------------------------------------------------

    def copy(self) -> "Mlp":
        return Mlp(self.sizes, self.out_act, [p.copy() for p in self.params],
                   hidden_act=self.hidden_act)


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


# Adam walks each parameter in blocks of about this many elements, so that
# the block's p, g, m, v and two scratch blocks stay in cache across the
# update's passes instead of streaming whole arrays through memory each time
ADAM_CHUNK = 16384


def adam_step(params, grads, state: AdamState, lr: float, beta1: float, beta2: float,
              eps: float = 1e-8):
    """In-place Adam update with bias correction; returns params.

    Evaluates m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
    p -= lr * (m / c1) / (sqrt(v / c2) + eps) in that operation order,
    block by block along each parameter's first axis, with two scratch
    blocks per parameter.  Raises TrainingDivergedError on any non-finite
    gradient, before that parameter is touched.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not np.isfinite(g).all():
            raise TrainingDivergedError(t, "non-finite gradient")
        rows = max(1, ADAM_CHUNK * len(p) // max(p.size, 1))
        tmp = np.empty_like(p[:rows])
        step = np.empty_like(tmp)
        for lo in range(0, len(p), rows):
            blk = slice(lo, lo + rows)
            pb, gb, mb, vb = p[blk], g[blk], m[blk], v[blk]
            tb, sb = tmp[:len(pb)], step[:len(pb)]
            np.multiply(gb, 1.0 - beta1, out=tb)
            mb *= beta1
            mb += tb
            np.multiply(gb, 1.0 - beta2, out=tb)
            tb *= gb
            vb *= beta2
            vb += tb
            np.divide(mb, c1, out=sb)
            sb *= lr
            np.divide(vb, c2, out=tb)
            np.sqrt(tb, out=tb)
            tb += eps
            sb /= tb
            pb -= sb
    return params
