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
a[l] (None for other layers).  The first and second activation derivatives
are added to it ("d1", "d2") when a later pass first reads them, so each
is computed once per forward however many passes read it.  backward,
input_grad and grad_of_jvp form the input-side product only for the input
columns the caller asks for.

Scratch contract.  Every pass takes an optional Scratch and writes its
arrays (cache entries, derivatives, results and every temporary but a
few small ones such as boolean masks) into memory taken from it; without
one, numpy allocates them afresh.  The arithmetic, and so every output
bit, is the same either way.  A Scratch is a stack: arrays taken from
it, including those a pass returns or adds to a cache, stay valid until
the scratch is rewound past them, by reset() or by leaving a frame()
that was entered before they were taken.  The next pass on the rewound
scratch overwrites them.  backward and grad_of_jvp write the parameter
gradients into out, when given, instead.
"""

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDivergedError

__all__ = ["Mlp", "Scratch", "AdamState", "adam_step", "count_params"]


class Scratch:
    """Work memory that one training step after another reuses.

    A stack over a list of byte chunks: take() hands out the next free
    block of the current chunk, or of the first later chunk it fits in,
    adding a chunk only when none does; reset() and leaving frame() rewind.
    A step takes the same blocks in the same order each time, so its first
    run adds every chunk it needs and later runs add none.
    """

    CHUNK = 1 << 20  # bytes; smaller blocks share a chunk
    ALIGN = 64  # bytes; each block starts a multiple of this into its chunk

    def __init__(self):
        self._chunks = []
        self._at = (0, 0)  # (chunk, byte offset) of the next free block

    def take(self, shape, dtype):
        """An uninitialised array in the next free block."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        i, off = self._at
        while i < len(self._chunks) and off + nbytes > len(self._chunks[i]):
            i, off = i + 1, 0
        if i == len(self._chunks):
            self._chunks.append(np.empty(max(nbytes, self.CHUNK), np.uint8))
        self._at = (i, off + -(-nbytes // self.ALIGN) * self.ALIGN)
        return self._chunks[i][off:off + nbytes].view(dtype).reshape(shape)

    def reset(self):
        """Rewind to the start: every array taken so far may be overwritten."""
        self._at = (0, 0)

    @contextmanager
    def frame(self):
        """Rewind on exit to where the scratch stood on entry."""
        at = self._at
        try:
            yield
        finally:
            self._at = at


def take(scratch, shape, dtype):
    """scratch.take(shape, dtype), or a fresh array when scratch is None."""
    return np.empty(shape, dtype) if scratch is None else scratch.take(shape, dtype)


def frame(scratch):
    """scratch.frame(), or no rewinding when scratch is None."""
    return nullcontext() if scratch is None else scratch.frame()


def _matmul(x, y, scratch):
    """x @ y into an array taken from scratch."""
    return np.matmul(x, y, out=take(scratch, (x.shape[0], y.shape[1]), x.dtype))


def _sigmoid(a, out=None, d=None):
    """Logistic function; exp only sees -|a|, so it never overflows.

    1/d where a >= 0 and e/d elsewhere: e <= 1, so the maximum with the
    mask picks the numerator without a data-dependent branch.  The result
    is written to out and the denominator d = 1 + e to d (fresh if None).
    """
    e = np.abs(a, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = np.add(e, 1.0, out=d)
    np.maximum(e, a >= 0, out=e)
    return np.divide(e, d, out=e)


def _act_prime(kind, a, h, s, out):
    """First derivative of a tanh or silu activation, into out.

    h = act(a) and s = sigmoid(a) for silu: 1 - h h, or s (1 + a (1 - s)).
    """
    if kind == "tanh":
        np.multiply(h, h, out=out)
        return np.subtract(1.0, out, out=out)
    np.subtract(1.0, s, out=out)
    out *= a
    out += 1.0
    out *= s
    return out


def _act_second(kind, a, h, s, prime, out, tmp):
    """Second derivative of a tanh or silu activation, into out; tmp is scratch.

    -2 h (1 - h h), with prime = 1 - h h, or s (1 - s) (2 + a (1 - 2 s)).
    """
    if kind == "tanh":
        np.multiply(h, -2.0, out=out)
        out *= prime
        return out
    np.multiply(s, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    out *= a
    out += 2.0
    np.subtract(1.0, s, out=tmp)
    tmp *= s
    return np.multiply(tmp, out, out=out)


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

    def _grads(self, scratch, out):
        return out if out is not None else [take(scratch, p.shape, p.dtype)
                                            for p in self.params]

    # -- plain passes --------------------------------------------------------

    def forward(self, x, scratch=None):
        """Returns (output (B, sizes[-1]), cache {"h", "a", "s"}; see module doc)."""
        h = [np.asarray(x, dtype=self.dtype)]
        a_list, s_list = [], []
        for l in range(self.n_layers):
            w, b = self.params[2 * l], self.params[2 * l + 1]
            a = _matmul(h[-1], w.T, scratch)
            a += b
            kind, s, out = self._kind(l), None, a
            if kind != "linear":
                out = take(scratch, a.shape, a.dtype)
            if kind == "silu":
                # out holds the sigmoid's denominator until it receives a * s
                s = _sigmoid(a, take(scratch, a.shape, a.dtype), d=out)
                np.multiply(a, s, out=out)
            elif kind == "tanh":
                np.tanh(a, out=out)
            a_list.append(a)
            s_list.append(s)
            h.append(out)
        return h[-1], {"h": h, "a": a_list, "s": s_list}

    def _deriv(self, cache, l, order, scratch):
        """Activation derivative of order 1 or 2 at layer l, kept in the cache."""
        kind = self._kind(l)
        if kind == "linear":
            return 1.0 if order == 1 else 0.0
        memo = cache.setdefault(f"d{order}", [None] * self.n_layers)
        if memo[l] is None:
            a, h, s = cache["a"][l], cache["h"][l + 1], cache["s"][l]
            out = take(scratch, a.shape, a.dtype)
            if order == 1:
                memo[l] = _act_prime(kind, a, h, s, out)
            else:
                prime = self._deriv(cache, l, 1, scratch)
                with frame(scratch):
                    memo[l] = _act_second(kind, a, h, s, prime, out,
                                          take(scratch, a.shape, a.dtype))
        return memo[l]

    def backward(self, cache, d_out, with_param_grads=True, in_cols=slice(None),
                 scratch=None, out=None):
        """Backprop d_out (B, out) through the cached forward.

        Returns (grads matching self.params or None, d_input), where d_input
        holds only the input columns in_cols (all of them by default).  The
        grads go to out when given.
        """
        h = cache["h"]
        grads = self._grads(scratch, out) if with_param_grads else None
        d_out = np.asarray(d_out, dtype=self.dtype)
        da = np.multiply(d_out, self._deriv(cache, self.n_layers - 1, 1, scratch),
                         out=take(scratch, d_out.shape, d_out.dtype))
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            if with_param_grads:
                np.matmul(da.T, h[l], out=grads[2 * l])
                np.sum(da, axis=0, out=grads[2 * l + 1])
            if l == 0:
                return grads, _matmul(da, w[:, in_cols], scratch)
            da = _matmul(da, w, scratch)
            da *= self._deriv(cache, l - 1, 1, scratch)

    def input_grad(self, cache, d_out, in_cols=slice(None), scratch=None):
        """d_input (columns in_cols) only; skips parameter gradients."""
        _, dx = self.backward(cache, d_out, with_param_grads=False, in_cols=in_cols,
                              scratch=scratch)
        return dx

    # -- tangent machinery for the gradient penalty ---------------------------

    def jvp(self, cache, v, scratch=None):
        """Forward-mode pass along input tangent v; parameters carry zero tangent.

        Returns (a_dots, h_dots): the pre-activation tangent of every layer,
        and the tangent of every layer input, with h_dots[0] = v and
        h_dots[-1] the output tangent.
        """
        h_dots = [np.asarray(v, dtype=self.dtype)]
        a_dots = []
        for l in range(self.n_layers):
            ad = _matmul(h_dots[-1], self.params[2 * l].T, scratch)
            a_dots.append(ad)
            h_dots.append(np.multiply(self._deriv(cache, l, 1, scratch), ad,
                                      out=take(scratch, ad.shape, ad.dtype)))
        return a_dots, h_dots

    def grad_of_jvp(self, cache, v, r_out, in_cols=slice(None), scratch=None, out=None):
        """Parameter gradient of sum_b r_out_b . out_tangent_b.

        cache is the primal forward cache and v the input tangent.  Only
        linear-output networks are supported (the critic).  Returns
        (grads, d_input_primal), the latter for the input columns in_cols
        only; it continues into whatever produced the primal input (e.g.
        the condition embedding).  The grads go to out when given.
        """
        if self.out_act != "linear":
            raise ValueError("grad_of_jvp supports linear-output networks only")
        h = cache["h"]
        a_dots, h_dots = self.jvp(cache, v, scratch)

        grads = self._grads(scratch, out)
        r_ad = np.asarray(r_out, dtype=self.dtype)  # d/d(a_dot), last layer
        r_a = np.zeros_like(r_ad)
        for l in range(self.n_layers - 1, -1, -1):
            w = self.params[2 * l]
            np.matmul(r_a.T, h[l], out=grads[2 * l])
            grads[2 * l] += _matmul(r_ad.T, h_dots[l], scratch)
            np.sum(r_a, axis=0, out=grads[2 * l + 1])
            if l == 0:
                return grads, _matmul(r_a, w[:, in_cols], scratch)
            r_h = _matmul(r_a, w, scratch)
            r_hd = _matmul(r_ad, w, scratch)
            s1 = self._deriv(cache, l - 1, 1, scratch)
            s2 = self._deriv(cache, l - 1, 2, scratch)
            # r_a = s2 * a_dot * r_hd + s1 * r_h and r_ad = s1 * r_hd, in place
            r_a = a_dots[l - 1]
            r_a *= s2
            r_a *= r_hd
            r_h *= s1
            r_a += r_h
            r_ad = np.multiply(r_hd, s1, out=r_hd)

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
