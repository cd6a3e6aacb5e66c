"""Small fully connected networks with hand-written reverse-mode gradients.

Topology is fixed to what the lab needs: a leaky-ReLU trunk shared by one or
more affine output heads, where each head may concatenate extra inputs to the
trunk output before its affine layer. Everything is float64 and purely
deterministic; the only randomness is the init Generator.

Every Network is a stack of M members with one spec: weights are
(M, out, in) and biases (M, 1, out), so member m computes x @ w[m].T + b[m].
Agents that own one network each (the policies, the per-agent curiosity
modules) are one stack, trained by one forward, backward and Adam step; the
critic is a stack of one. A trunk input of shape (M, B, in) gives each member
its own rows, and a (B, in) matrix is shared by all; outputs, and the output
gradients backward takes, are always (M, B, out). Each member's arithmetic is
a one-member network's, bit for bit: stacked products run one 2-D BLAS call
per member, and batch reductions keep the one-member axis and layout. Each
parameter is one C-contiguous array, updated only in place; a forward
multiplies by each weight's transposed view, built as it runs.
Parameter order (used by Gradients and Adam): trunk layer 0 weight, trunk
layer 0 bias, ..., head 0 weight, head 0 bias, head 1 weight, ... A
Learner holds a trained network with its Adam state: the learning rate, the
step count, and the moments as two flat arrays over every parameter float in
this order, so an update runs each of its operations once for the whole
network. Adam's beta1, beta2 and eps are module constants.

Finite-difference audits use the same guarantee. grad_check stacks K copies
of the audited network into one probe network, copy 2j with one parameter
element raised by the fixed step PROBE_STEP and copy 2j + 1 with it
lowered, and runs every probe of a chunk in one forward. Chunks run over
the flat index of all parameters, in parameters() order and across tensor
boundaries, and every chunk but the last has the one length that keeps a
probe's parameter floats within PROBE_FLOATS: a network of P floats (every
member counted) with 2 * P * P within it (P up to 724, every network of the
network and actor suites) is audited in one probe forward. A loss closure
therefore takes a network of K times the members its data describe and
returns one loss per copy, (K,), each bit for bit the loss it returns for
that copy alone; the trained path is the K = 1 case and gets a (1,) array.
copies_of, tile_copies and sum_per_copy are the closures' helpers for this.

Each stack keeps one set of trunk work arrays per batch size B: an
(M, B, width) activation array per layer and a scratch for the widest, which
takes each pre-activation in turn. As a > 0 exactly where z > 0 (0 < slope
< 1), backward takes leaky-ReLU's derivative from the activations and then
overwrites them with the trunk's gradients, so repeated passes allocate
little beyond head outputs and parameter gradients. A ForwardCache is
therefore valid only until the next forward of the same batch size on the
same stack, or until its own backward; backward raises on a stale cache.
Head outputs and gradients are fresh arrays that no later pass touches. A
Network must not be used from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Gradients = list[np.ndarray]

# Kingma & Ba's values (arXiv 1412.6980); no caller has needed others
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    output_dims: tuple[int, ...]
    hidden_dims: tuple[int, ...] = (64, 64)
    leaky_slope: float = 0.01
    head_extra_input_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.head_extra_input_dims is None:
            object.__setattr__(
                self, "head_extra_input_dims", tuple(0 for _ in self.output_dims)
            )
        if self.input_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValueError("all dims must be >= 1")
        if not self.output_dims or any(d < 1 for d in self.output_dims):
            raise ValueError("need at least one head with output_dim >= 1")
        if len(self.head_extra_input_dims) != len(self.output_dims):
            raise ValueError("one extra-input dim per head required")
        if any(d < 0 for d in self.head_extra_input_dims):
            raise ValueError("head extra-input dims must be >= 0")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError("leaky_slope must be in (0, 1)")

    @property
    def n_heads(self) -> int:
        return len(self.output_dims)


@dataclass
class _Buffers:
    """One batch size's trunk work arrays. generation counts the passes that
    have used them, so a cache can tell whether they still hold its data."""

    a: list[np.ndarray]  # activations; backward leaves each layer's d_z in them
    scratch: np.ndarray  # flat, sized for the widest layer: pre-activations, d(loss)/d(a)
    head_in: list[np.ndarray | None]  # trunk output + extra input, per head that has one
    generation: int = 0


@dataclass(frozen=True)
class Network:
    """Parameters are tuples of arrays that are only ever updated in place."""

    spec: NetworkSpec
    trunk_w: tuple[np.ndarray, ...]  # (M, out, in) per layer
    trunk_b: tuple[np.ndarray, ...]  # (M, 1, out) per layer
    head_w: tuple[np.ndarray, ...]
    head_b: tuple[np.ndarray, ...]
    _buffers: dict[int, _Buffers] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name in ("trunk_w", "trunk_b", "head_w", "head_b"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def members(self) -> int:
        return self.trunk_w[0].shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Canonical flat parameter list (views, not copies)."""
        params: list[np.ndarray] = []
        for w, b in zip(self.trunk_w, self.trunk_b):
            params.extend((w, b))
        for w, b in zip(self.head_w, self.head_b):
            params.extend((w, b))
        return params

    def member(self, m: int) -> "Network":
        """Member m as a one-member network whose parameters are views of
        this stack's (it gets its own work arrays)."""
        m = range(self.members)[m]
        return _from_parameters(self.spec, [p[m : m + 1] for p in self.parameters()])


def _from_parameters(spec: NetworkSpec, params: list[np.ndarray]) -> Network:
    """The network whose parameters() are params, in canonical order."""
    n_trunk = 2 * len(spec.hidden_dims)
    trunk, heads = params[:n_trunk], params[n_trunk:]
    return Network(spec, trunk[0::2], trunk[1::2], heads[0::2], heads[1::2])


@dataclass
class ForwardCache:
    net: Network  # the stack that ran the pass
    rows: np.ndarray  # trunk input as (M, B, in), or (B, in) shared by every member
    head_inputs: list[np.ndarray]  # (M, B, trunk_out + extra) per head, views of buffers
    buffers: _Buffers  # the network's work arrays for this batch size
    generation: int  # buffers.generation when this forward filled them

    def check_live(self) -> None:
        if self.generation != self.buffers.generation:
            raise RuntimeError(
                "stale forward cache: a later pass of the same batch size "
                "has reused its buffers"
            )


def init_network(spec: NetworkSpec, rng: np.random.Generator, members: int = 1) -> Network:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases.

    Members draw their weights from rng one after another, each in full, so
    member m equals the m-th of `members` one-member networks drawn in turn."""
    if members < 1:
        raise ValueError("a network needs at least one member")
    fan_ins = (spec.input_dim, *spec.hidden_dims[:-1])
    fan_ins += tuple(spec.hidden_dims[-1] + extra for extra in spec.head_extra_input_dims)
    shapes = list(zip((*spec.hidden_dims, *spec.output_dims), fan_ins))
    bounds = [1.0 / np.sqrt(fan_in) for fan_in in fan_ins]
    draws = [[rng.uniform(-b, b, size=s) for b, s in zip(bounds, shapes)] for _ in range(members)]
    weights = [np.stack(layer) for layer in zip(*draws)]
    biases = [np.zeros((members, 1, out_dim)) for out_dim, _ in shapes]
    n_trunk = len(spec.hidden_dims)
    return Network(spec, weights[:n_trunk], biases[:n_trunk], weights[n_trunk:], biases[n_trunk:])


@dataclass
class Learner:
    """A trained network and the Adam state of its updates, which start at
    step 0 with zero moments."""

    network: Network
    lr: float
    step_count: int = field(default=0, init=False)
    # first and second moments of every parameter float, flat in parameters() order
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        size = sum(p.size for p in self.network.parameters())
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def init_learner(spec: NetworkSpec, rng: np.random.Generator, members: int, lr: float) -> Learner:
    """init_network's stack of members with a fresh Adam state at rate lr."""
    return Learner(init_network(spec, rng, members), lr)


def _buffers_for(net: Network, batch: int) -> _Buffers:
    bufs = net._buffers.get(batch)
    if bufs is None:
        spec = net.spec
        lead = (net.members, batch)
        bufs = _Buffers(
            a=[np.empty((*lead, h)) for h in spec.hidden_dims],
            scratch=np.empty(net.members * batch * max(spec.hidden_dims)),
            head_in=[
                np.empty((*lead, spec.hidden_dims[-1] + extra)) if extra else None
                for extra in spec.head_extra_input_dims
            ],
        )
        net._buffers[batch] = bufs
    return bufs


def _scratch(bufs: _Buffers, like: np.ndarray) -> np.ndarray:
    return bufs.scratch[: like.size].reshape(like.shape)


def _leaky(z: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """leaky-ReLU of z into out. For 0 < slope < 1, max(z, slope*z) equals
    where(z > 0, z, slope*z) bit for bit, signed zeros included."""
    np.multiply(z, slope, out=out)
    return np.maximum(z, out, out=out)


def _leaky_grad(z: np.ndarray, slope: float, out: np.ndarray) -> np.ndarray:
    """Derivative of leaky-ReLU at z into out (which may be z): 1 where z > 0,
    else slope. z may be the activation: it is > 0 where its pre-activation is.
    z > 0 written as a float is 1.0 or 0.0 (NaN compares false), and for
    0 < slope < 1 the max with slope maps these to exactly 1.0 and slope."""
    np.greater(z, 0.0, out=out)
    return np.maximum(out, slope, out=out)


def forward(
    net: Network,
    trunk_input: np.ndarray,
    head_extra_inputs: list[np.ndarray | None] | None = None,
) -> tuple[list[np.ndarray], ForwardCache]:
    """Run the trunk and all heads of every member on (M, B, in) rows per
    member, or a (B, in) matrix shared by every member; each head's output
    is (M, B, out).

    head_extra_inputs[k] is concatenated to the trunk output before head k's
    affine layer and has the trunk input's leading shape; pass None for heads
    with zero extra-input dim.
    """
    spec = net.spec
    x = np.asarray(trunk_input, dtype=float)
    if not 2 <= x.ndim <= 3 or x.shape[-1] != spec.input_dim:
        raise ValueError(
            f"trunk input shape {x.shape} is neither (M, B, in) nor (B, in), in = {spec.input_dim}"
        )
    if x.ndim == 3 and x.shape[0] != net.members:
        raise ValueError(f"trunk input has {x.shape[0]} members, network {net.members}")
    if head_extra_inputs is None:
        head_extra_inputs = [None] * spec.n_heads
    if len(head_extra_inputs) != spec.n_heads:
        raise ValueError("one extra input (or None) per head required")

    bufs = _buffers_for(net, x.shape[-2])
    bufs.generation += 1
    a = x
    for w, b, act in zip(net.trunk_w, net.trunk_b, bufs.a):
        z = np.matmul(a, w.swapaxes(1, 2), out=_scratch(bufs, act))
        z += b
        a = _leaky(z, spec.leaky_slope, out=act)

    outputs, head_inputs = [], []
    for k, (w, b) in enumerate(zip(net.head_w, net.head_b)):
        extra_dim = spec.head_extra_input_dims[k]
        if extra_dim == 0:
            h_in = a
            if head_extra_inputs[k] is not None and np.asarray(head_extra_inputs[k]).size:
                raise ValueError(f"head {k} takes no extra input")
        else:
            extra = head_extra_inputs[k]
            if extra is None:
                raise ValueError(f"head {k} requires an extra input of dim {extra_dim}")
            extra = np.asarray(extra, dtype=float)
            if extra.shape != (*x.shape[:-1], extra_dim):
                raise ValueError(
                    f"head {k} extra input shape {extra.shape} != {(*x.shape[:-1], extra_dim)}"
                )
            h_in = bufs.head_in[k]
            h_in[..., : a.shape[-1]] = a
            h_in[..., a.shape[-1] :] = extra
        head_inputs.append(h_in)
        out = np.matmul(h_in, w.swapaxes(1, 2))
        out += b
        outputs.append(out)

    cache = ForwardCache(net, x, head_inputs, bufs, bufs.generation)
    return outputs, cache


# Rows per block of a weight-gradient product: OpenBLAS splits a larger
# product over threads, and its bits then depend on the thread count.
GRAD_BLOCK_ROWS = 128


def _weight_grad(d_out: np.ndarray, layer_in: np.ndarray) -> np.ndarray:
    """Each member's d_out^T @ layer_in, (M, out, in), for d_out (M, B, out)
    and layer_in (M, B, in) or a (B, in) shared by every member, as the sum
    of the products over blocks of GRAD_BLOCK_ROWS rows in block order."""
    rows = GRAD_BLOCK_ROWS
    grad = np.matmul(d_out[:, :rows].swapaxes(1, 2), layer_in[..., :rows, :])
    for lo in range(rows, d_out.shape[1], rows):
        grad += np.matmul(d_out[:, lo : lo + rows].swapaxes(1, 2), layer_in[..., lo : lo + rows, :])
    return grad


def backward(net: Network, cache: ForwardCache, head_output_grads: list[np.ndarray]) -> Gradients:
    """Exact parameter gradients for the scalar loss whose output gradients
    are supplied, one (M, B, out) array per head, as forward returned the
    outputs; heads sum through the shared trunk, and each member sums over
    its own rows.
    """
    spec = net.spec
    if len(head_output_grads) != spec.n_heads:
        raise ValueError("one output grad per head required")
    cache.check_live()
    bufs = cache.buffers
    trunk_out_dim = spec.hidden_dims[-1]

    head_grads, gys = [], []
    for k, (gy, h_in) in enumerate(zip(head_output_grads, cache.head_inputs)):
        gy = np.asarray(gy, dtype=float)
        want = (*h_in.shape[:-1], spec.output_dims[k])
        if gy.shape != want:
            raise ValueError(f"head {k} output grad shape {gy.shape} != {want}")
        head_grads += [_weight_grad(gy, h_in), gy.sum(axis=1, keepdims=True)]
        gys.append(gy)
    bufs.generation += 1  # the work arrays are overwritten below

    # The scratch takes d(loss)/d(a) of each layer, from the last down; each
    # activation buffer, once the layer above has read it, takes leaky-ReLU's
    # derivative at that activation and then the layer's d_z.
    last = len(net.trunk_w) - 1
    d_a = np.matmul(gys[0], net.head_w[0][:, :, :trunk_out_dim], out=_scratch(bufs, bufs.a[last]))
    for w, gy in zip(net.head_w[1:], gys[1:]):
        d_a += np.matmul(gy, w[:, :, :trunk_out_dim])

    trunk_grads = []
    for layer in range(last, -1, -1):
        factor = _leaky_grad(bufs.a[layer], spec.leaky_slope, out=bufs.a[layer])
        d_z = np.multiply(d_a, factor, out=bufs.a[layer])
        layer_in = cache.rows if layer == 0 else bufs.a[layer - 1]
        trunk_grads[:0] = [_weight_grad(d_z, layer_in), d_z.sum(axis=1, keepdims=True)]
        if layer > 0:
            d_a = np.matmul(d_z, net.trunk_w[layer], out=_scratch(bufs, layer_in))
    return trunk_grads + head_grads


def adam_step(learner: Learner, grads: Gradients) -> None:
    """Standard Adam with bias correction, each operation run once over the
    flat moments of every parameter float; updates the learner in place. A
    non-finite gradient is rejected before anything changes."""
    params = learner.network.parameters()
    if len(grads) != len(params):
        raise ValueError("gradient list does not match parameter list")
    for g, p in zip(grads, params):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    g = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient; update rejected")
    learner.step_count += 1
    t = learner.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = learner.m, learner.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    step = learner.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    start = 0
    for p in params:
        p -= step[start : start + p.size].reshape(p.shape)
        start += p.size


# Largest number of parameter floats a probe network of grad_check or
# mutation_control holds (8 MB): 2 * (its elements) copies of every tensor.
# A network too large for two copies to fit is probed two copies at a time.
PROBE_FLOATS = 1 << 20

# Central-difference step of every audit: each probe moves one parameter
# element by +-PROBE_STEP.
PROBE_STEP = 1e-5


def grad_check(net: Network, loss_and_grads) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_and_grads(net) must deterministically return (loss, grads_fn), where
    grads_fn() runs the backward pass of that forward and returns its
    Gradients. Only the analytic side calls grads_fn. The central differences
    of every element of every parameter, in flat parameters() order, come
    from probe networks of K copies of net (see the module docstring), one
    per chunk of elements: one in all for a network of up to 724 floats.
    On them loss_and_grads must return one loss per copy; each copy's loss
    is the one net gives with that one element moved, so every difference,
    and so the result, is that of probing one element at a time. Each
    element's error is measured against the network's dominant gradient
    magnitude, so near-zero entries (whose central differences are pure
    cancellation noise) cannot swamp the comparison while any error at
    update-relevant scale still registers. A NaN error is returned as NaN.
    """
    ana = np.concatenate([g.ravel() for g in loss_and_grads(net)[1]()])  # flat order
    numeric = _central_differences(net, loss_and_grads, np.arange(ana.size))
    # |ana - numeric| / max(|ana|, |numeric|, scale, 1e-8), elementwise
    scale = float(np.max(np.abs(ana)))
    floor = np.maximum(np.maximum(np.abs(ana), np.abs(numeric)), max(scale, 1e-8))
    return float(np.max(np.abs(ana - numeric) / floor))


def _central_differences(net: Network, loss_and_grads, elements: np.ndarray) -> np.ndarray:
    """(loss(x[i] + h) - loss(x[i] - h)) / 2h for h = PROBE_STEP and each
    index i in elements, ascending indices into the flat concatenation x of
    net.parameters(); one closure call per chunk of elements. Every chunk
    but the last holds the most elements whose probe network, 2 * (elements)
    * P floats for a net of P parameter floats, fits within PROBE_FLOATS,
    and at least one."""
    numeric = np.empty(len(elements))
    chunk = max(1, PROBE_FLOATS // (2 * sum(p.size for p in net.parameters())))
    for start in range(0, len(elements), chunk):
        idx = elements[start : start + chunk]
        losses = np.asarray(loss_and_grads(_probe_network(net, idx))[0])
        if losses.shape != (2 * len(idx),):
            raise ValueError(
                f"loss closure returned shape {losses.shape} on a probe network of "
                f"{2 * len(idx)} copies; it must return one loss per copy"
            )
        numeric[start : start + chunk] = (losses[0::2] - losses[1::2]) / (2.0 * PROBE_STEP)
    return numeric


def _probe_network(net: Network, elements: np.ndarray) -> Network:
    """K = 2 * len(elements) copies of net in one stack, copy k as members
    k*M to (k+1)*M - 1: copy 2j holds flat element elements[j] of the
    parameters (ascending indices, in parameters() order) plus PROBE_STEP,
    copy 2j + 1 the same element minus PROBE_STEP. Every tensor holds its
    own values for every copy; none is a view of net's."""
    copies = 2 * len(elements)
    params = net.parameters()
    ends = np.searchsorted(elements, np.cumsum([p.size for p in params])).tolist()
    probes = []
    lo = offset = 0
    for p, hi in zip(params, ends):
        flat = np.empty((copies, p.size))
        flat[...] = p.reshape(1, -1)
        j, idx = np.arange(lo, hi), elements[lo:hi] - offset
        orig = p.reshape(-1)[idx]
        flat[2 * j, idx] = orig + PROBE_STEP
        flat[2 * j + 1, idx] = orig - PROBE_STEP
        probes.append(flat.reshape(copies * p.shape[0], *p.shape[1:]))
        lo, offset = hi, offset + p.size
    return _from_parameters(net.spec, probes)


def copies_of(net: Network, members: int) -> int:
    """How many copies of a `members`-member network net stacks: 1 for such
    a network itself, K for a probe network of grad_check."""
    copies, rest = divmod(net.members, members)
    if rest or not copies:
        raise ValueError(f"a {net.members}-member network is no stack of {members}-member copies")
    return copies


def tile_copies(a: np.ndarray, copies: int) -> np.ndarray:
    """Per-member data (M, ...) repeated for every copy, (copies * M, ...),
    for a network of that many copies of an M-member network: a read-only
    view of a for one copy."""
    return np.broadcast_to(a, (copies, *a.shape)).reshape(copies * len(a), *a.shape[1:])


def sum_per_copy(a: np.ndarray, copies: int) -> np.ndarray:
    """Each copy's sum of a's entries, (copies,), over its equal share of
    a's leading axis. A share is one contiguous run, summed as a whole
    array's entries are, so each copy's sum is bit for bit the one that copy
    alone gives."""
    return np.sum(a.reshape(copies, -1), axis=1)


def min_kink_distance(cache: ForwardCache) -> float:
    """Smallest |pre-activation| in the trunk, recomputed by forward's arithmetic
    from the cached layer inputs and parameters, before an update changes them.
    Finite differences are only trustworthy when it clearly exceeds PROBE_STEP."""
    cache.check_live()
    layers = zip(cache.net.trunk_w, cache.net.trunk_b, [cache.rows, *cache.buffers.a[:-1]])
    zs = (np.matmul(x, w.swapaxes(1, 2)) + b for w, b, x in layers)
    return min(float(np.min(np.abs(z))) for z in zs)


# Least relative error the sign-flip mutant of mutation_control must show for
# a checker to count as able to fail a wrong gradient.
MUTANT_MIN = 1e-3


def mutation_control(net: Network, loss_and_grads) -> float:
    """Relative error after sign-flipping the largest analytic gradient entry.

    A working checker must report a large value here (the flip doubles the
    discrepancy); this guards against a checker that silently passes
    everything. The entry is the first largest in flat parameters() order,
    and its central difference comes from a two-copy probe network, as
    grad_check's do.
    """
    ana = np.concatenate([g.ravel() for g in loss_and_grads(net)[1]()])
    flat_idx = int(np.argmax(np.abs(ana)))
    numeric = _central_differences(net, loss_and_grads, np.array([flat_idx]))[0]
    mutated = -ana[flat_idx]
    return abs(mutated - numeric) / max(abs(mutated), abs(numeric), 1e-8)


def audit(make_case, n: int, seed: int) -> tuple[float, float]:
    """Finite-difference audit of n cases, each make_case(rng, i) -> (net,
    loss_and_grads) drawn in turn from default_rng(seed): grad_check on every
    case and mutation_control on the first. Returns (max relative error,
    relative error of the sign-flip mutant — expected to be large)."""
    if n < 1:
        raise ValueError("an audit needs at least one network")
    rng = np.random.default_rng(seed)
    worst = mutant = 0.0
    for i in range(n):
        net, closure = make_case(rng, i)
        worst = float(np.maximum(worst, grad_check(net, closure)))  # NaN sticks
        if i == 0:
            mutant = mutation_control(net, closure)
    return worst, mutant


def gradient_suite(n_networks: int = 100, seed: int = 0) -> tuple[float, float]:
    """Audit backward() on random small networks, alternating one- and
    two-headed shapes. Inputs are rejection-sampled so every trunk
    pre-activation sits away from the leaky-ReLU kink.

    Returns (max relative error across the suite, relative error of the
    sign-flip mutant from the first network — expected to be large).
    """
    return audit(_network_case, n_networks, seed)


def _network_case(rng: np.random.Generator, i: int):
    two_headed = i % 2 == 1
    input_dim = int(rng.integers(2, 7))
    hidden = (int(rng.integers(3, 11)), int(rng.integers(3, 11)))
    if two_headed:
        spec = NetworkSpec(
            input_dim,
            (int(rng.integers(1, 6)), int(rng.integers(1, 6))),
            hidden,
            head_extra_input_dims=(0, int(rng.integers(1, 7))),
        )
    else:
        spec = NetworkSpec(input_dim, (int(rng.integers(1, 6)),), hidden)
    net = init_network(spec, rng)
    batch = int(rng.integers(1, 4))

    def draw():
        x = rng.standard_normal((batch, input_dim))
        if not two_headed:
            return x, None
        return x, [None, rng.standard_normal((batch, spec.head_extra_input_dims[1]))]

    x, extras = kink_free_draw(net, draw)
    targets = [rng.standard_normal((batch, d)) for d in spec.output_dims]
    return net, squared_error_loss_closure(x, targets, extras)


# kink_free_draw's least distance of a pre-activation from the leaky-ReLU
# kink, a hundred probe steps, and its most draws
KINK_MARGIN = 1e-3
KINK_TRIES = 200


def kink_free_draw(net: Network, draw):
    """Call draw() for (trunk_input, head_extra_inputs) until a forward pass
    puts every trunk pre-activation more than KINK_MARGIN from the
    leaky-ReLU kink, where central differences are trustworthy; at most
    KINK_TRIES draws, and the last one is returned."""
    for _ in range(KINK_TRIES):
        x, extras = draw()
        _, cache = forward(net, x, extras)
        if min_kink_distance(cache) > KINK_MARGIN:
            break
    return x, extras


def squared_error_loss_closure(
    trunk_input: np.ndarray,
    targets: list[np.ndarray],
    head_extra_inputs: list[np.ndarray | None] | None = None,
):
    """(loss, grads_fn) closure for sum over heads of ||output - target||^2
    of each member of a network, on a trunk input (B, in) shared by them,
    with (B, out) targets: (K,) losses for K members, (1,) for a one-member
    network and one per copy for its probe network. grads_fn() must run
    before the next forward of this batch size."""

    def loss_and_grads(net: Network):
        outputs, cache = forward(net, trunk_input, head_extra_inputs)
        diffs = [out - target for out, target in zip(outputs, targets)]
        loss = sum(sum_per_copy(diff * diff, net.members) for diff in diffs)
        return loss, lambda: backward(net, cache, [2.0 * diff for diff in diffs])

    return loss_and_grads
