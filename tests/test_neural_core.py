"""Network library tests: shapes, init bounds, exact gradients, Adam, reused
buffers, member stacks."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curiosity_marl import coma
from curiosity_marl import curiosity as cur
from curiosity_marl import neural_core as nc
from member_copies import member


def full_size_case():
    """A 64x64 two-headed network and its squared-error closure, on inputs
    away from the leaky-ReLU kink."""
    rng = np.random.default_rng(21)
    spec = nc.NetworkSpec(6, (4, 8), hidden_dims=(64, 64), head_extra_input_dims=(0, 5))
    net = nc.init_network(spec, rng)
    x = rng.standard_normal((2, 6))
    extra = rng.standard_normal((2, 5))
    _, cache = nc.forward(net, x, [None, extra])
    assert nc.min_kink_distance(cache) > 1e-4
    targets = [rng.standard_normal((2, 4)), rng.standard_normal((2, 8))]
    return net, nc.squared_error_loss_closure(x, targets, [None, extra])


def copy_network(net):
    """net with every parameter copied: it shares no array with net."""
    return nc.Network(net.spec, net.flat.copy())


def small_spec(two_headed=False):
    if two_headed:
        return nc.NetworkSpec(3, (2, 4), hidden_dims=(5, 6), head_extra_input_dims=(0, 3))
    return nc.NetworkSpec(3, (2,), hidden_dims=(5, 6))


class TestSpec:
    def test_defaults(self):
        spec = nc.NetworkSpec(4, (5,))
        assert spec.hidden_dims == (64, 64)
        assert spec.head_extra_input_dims == (0,)
        assert spec.n_heads == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_dim": 0, "output_dims": (1,)},
            {"input_dim": 2, "output_dims": ()},
            {"input_dim": 2, "output_dims": (1,), "hidden_dims": (0,)},
            {"input_dim": 2, "output_dims": (1,), "head_extra_input_dims": (1, 2)},
            {"input_dim": 2, "output_dims": (1,), "leaky_slope": 0.0},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            nc.NetworkSpec(**kwargs)


class TestInit:
    def test_shapes_and_bounds(self):
        spec = small_spec(two_headed=True)
        net = nc.init_network(spec, np.random.default_rng(0))
        assert net.members == 1
        assert [w.shape for w in net.trunk_w] == [(1, 5, 3), (1, 6, 5)]
        assert net.head_w[0].shape == (1, 2, 6)
        assert net.head_w[1].shape == (1, 4, 6 + 3)
        assert [b.shape for b in net.trunk_b + net.head_b] == [
            (1, 1, 5), (1, 1, 6), (1, 1, 2), (1, 1, 4)
        ]
        fan_ins = [3, 5, 6, 9]
        for w, fan_in in zip(net.trunk_w + net.head_w, fan_ins):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
        for b in net.trunk_b + net.head_b:
            assert np.all(b == 0.0)
        assert all(p.dtype == np.float64 for p in net.parameters())

    def test_same_seed_same_network(self):
        spec = small_spec()
        a = nc.init_network(spec, np.random.default_rng(9))
        b = nc.init_network(spec, np.random.default_rng(9))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)


class TestForward:
    def test_manual_single_layer_arithmetic(self):
        """Tiny net checked against explicit matrix arithmetic."""
        spec = nc.NetworkSpec(2, (1,), hidden_dims=(2,), leaky_slope=0.5)
        net = nc.init_network(spec, np.random.default_rng(0))
        net.trunk_w[0][:] = [[1.0, 0.0], [0.0, -1.0]]
        net.trunk_b[0][:] = [0.0, 0.0]
        net.head_w[0][:] = [[1.0, 1.0]]
        net.head_b[0][:] = [0.25]
        (out,), _ = nc.forward(net, np.array([3.0, 2.0])[None])
        # z = (3, -2); leaky(0.5) -> (3, -1); head: 3 + (-1) + 0.25
        assert out[0, 0, 0] == pytest.approx(2.25, abs=1e-15)

    def test_batch_matches_per_row(self):
        # BLAS may pick different kernels per shape, so rows agree to a few
        # ulp rather than bitwise
        spec = small_spec(two_headed=True)
        net = nc.init_network(spec, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3))
        extra = rng.standard_normal((4, 3))
        batch_outs, _ = nc.forward(net, x, [None, extra])
        for i in range(4):
            row_outs, _ = nc.forward(net, x[i][None], [None, extra[i][None]])
            for b_out, r_out in zip(batch_outs, row_outs):
                np.testing.assert_allclose(b_out[0, i], r_out[0, 0], rtol=1e-12, atol=1e-14)

    def test_dimension_errors(self):
        net = nc.init_network(small_spec(two_headed=True), np.random.default_rng(0))
        with pytest.raises(ValueError):
            nc.forward(net, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            nc.forward(net, np.zeros((1, 3)), [None, None])  # head 1 needs its extra
        with pytest.raises(ValueError):
            # head 0 takes none
            nc.forward(net, np.zeros((1, 3)), [np.ones((1, 2)), np.zeros((1, 3))])
        with pytest.raises(ValueError):
            nc.forward(net, np.zeros((1, 3)), [None, np.zeros((1, 4))])  # wrong extra dim
        with pytest.raises(ValueError, match="neither"):
            nc.forward(net, np.zeros(3), [None, np.zeros(3)])  # no vector form


class TestBackward:
    def test_gradient_suite_small(self):
        max_err, mutant_err = nc.gradient_suite(n_networks=20, seed=11)
        assert max_err < 1e-6
        assert mutant_err > 1e-3

    @pytest.mark.parametrize("n_networks", [0, -1])
    def test_empty_gradient_suite_raises(self, n_networks):
        """An audit of no networks checks nothing, so it must not read as a pass."""
        with pytest.raises(ValueError):
            nc.gradient_suite(n_networks)

    def test_audit_checks_every_case_and_mutates_the_first(self, monkeypatch):
        """Cases come from one seeded generator in index order; grad_check
        sees every one and mutation_control only case 0."""
        seen = {"cases": [], "grad_check": [], "mutation_control": []}

        def make_case(rng, i):
            net = nc.init_network(small_spec(), rng)
            x = rng.standard_normal((2, 3))
            seen["cases"].append((i, net))
            return net, nc.squared_error_loss_closure(x, [rng.standard_normal((2, 2))])

        for name in ("grad_check", "mutation_control"):
            def counted(net, closure, _fn=getattr(nc, name), _name=name):
                seen[_name].append(net)
                return _fn(net, closure)

            monkeypatch.setattr(nc, name, counted)
        worst, mutant = nc.audit(make_case, 3, seed=5)
        nets = [net for _, net in seen["cases"]]
        assert [i for i, _ in seen["cases"]] == [0, 1, 2]
        assert list(map(id, seen["grad_check"])) == list(map(id, nets))
        assert list(map(id, seen["mutation_control"])) == [id(nets[0])]
        assert worst < 1e-6 and mutant > 1e-3
        again = nc.audit(make_case, 3, seed=5)
        assert again == (worst, mutant)

    def test_audit_reports_nan_from_any_case(self):
        """A case whose losses are NaN fails the audit wherever it comes:
        Python's max(0.0, nan) is 0.0, so a running max must not drop it."""

        def make_case(rng, i):
            net = nc.init_network(small_spec(), rng)
            closure = nc.squared_error_loss_closure(
                rng.standard_normal((2, 3)), [rng.standard_normal((2, 2))]
            )
            if i != 1:
                return net, closure

            def nan_losses(n):
                loss, grads_fn = closure(n)
                return loss * np.nan, grads_fn

            return net, nan_losses

        worst, mutant = nc.audit(make_case, 3, seed=5)
        assert np.isnan(worst)
        assert not worst < 1e-6
        assert mutant > 1e-3

    def test_full_size_network_gradients(self):
        """One audit at production scale (64x64 trunk, both head styles)."""
        net, closure = full_size_case()
        assert nc.grad_check(net, closure) < 1e-6

    def test_batched_backward_sums_rows(self):
        spec = small_spec()
        net = nc.init_network(spec, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3))
        gy = rng.standard_normal((3, 2))
        _, cache = nc.forward(net, x)
        batch_grads = nc.backward(net, cache, [gy[None]])
        acc = [np.zeros_like(p) for p in net.parameters()]
        for i in range(3):
            _, cache_i = nc.forward(net, x[i][None])
            for a, g in zip(acc, nc.backward(net, cache_i, [gy[i][None, None]])):
                a += g
        for g_batch, g_sum in zip(batch_grads, acc):
            np.testing.assert_allclose(g_batch, g_sum, atol=1e-12)


class TestAdam:
    def test_learner_starts_at_step_0_with_zero_moments(self):
        net = nc.init_network(small_spec(two_headed=True), np.random.default_rng(6), members=3)
        learner = nc.Learner(net, lr=0.01)
        size = sum(p.size for p in net.parameters())
        assert learner.network is net and learner.lr == 0.01 and learner.step_count == 0
        for moment in (learner.m, learner.v):
            assert moment.shape == (size,) and not moment.any()

    def test_matches_reference_recurrence(self):
        """Ten steps versus a scalar-loop Adam with bias correction."""
        spec = nc.NetworkSpec(2, (1,), hidden_dims=(2,))
        net = nc.init_network(spec, np.random.default_rng(7))
        learner = nc.Learner(net, lr=0.01)
        shadow = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in shadow]
        v = [np.zeros_like(p) for p in shadow]
        rng = np.random.default_rng(8)
        all_grads = [[rng.standard_normal(p.shape) for p in shadow] for _ in range(10)]
        for t, grads in enumerate(all_grads, start=1):
            nc.adam_step(learner, [g.copy() for g in grads])
            for j, g in enumerate(grads):
                m[j] = 0.9 * m[j] + 0.1 * g
                v[j] = 0.999 * v[j] + 0.001 * g * g
                m_hat = m[j] / (1.0 - 0.9**t)
                v_hat = v[j] / (1.0 - 0.999**t)
                shadow[j] = shadow[j] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for p, s in zip(net.parameters(), shadow):
            np.testing.assert_allclose(p, s, rtol=1e-12, atol=1e-15)

    def test_flat_update_equals_per_tensor_update_bit_for_bit(self):
        """Three steps on a 3-member two-headed stack: the update over flat
        moments gives the bits of the update run tensor by tensor, in every
        parameter and both moments."""
        rng = np.random.default_rng(9)
        net = nc.init_network(small_spec(two_headed=True), rng, members=3)
        ref = copy_network(net)
        learner = nc.Learner(net, lr=0.01)
        m = [np.zeros_like(p) for p in ref.parameters()]
        v = [np.zeros_like(p) for p in ref.parameters()]
        b1, b2, lr, eps = nc.ADAM_BETA1, nc.ADAM_BETA2, learner.lr, nc.ADAM_EPS
        for t in range(1, 4):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-3, 1) for p in m]
            nc.adam_step(learner, grads)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for p, g, m_j, v_j in zip(ref.parameters(), grads, m, v):
                m_j *= b1
                m_j += (1.0 - b1) * g
                v_j *= b2
                v_j += (1.0 - b2) * g * g
                p -= lr * (m_j / bc1) / (np.sqrt(v_j / bc2) + eps)
            for p, r in zip(net.parameters(), ref.parameters()):
                assert np.array_equal(p, r)
            assert np.array_equal(learner.m, np.concatenate([a.ravel() for a in m]))
            assert np.array_equal(learner.v, np.concatenate([a.ravel() for a in v]))

    def test_rejects_bad_gradients(self):
        net = nc.init_network(small_spec(), np.random.default_rng(0))
        learner = nc.Learner(net, lr=1e-3)
        grads = [np.zeros_like(p) for p in net.parameters()]
        grads[0] = grads[0][:, :2]
        with pytest.raises(ValueError):
            nc.adam_step(learner, grads)
        grads = [np.zeros_like(p) for p in net.parameters()]
        grads[1][0] = np.nan
        before = [p.copy() for p in net.parameters()]
        with pytest.raises(FloatingPointError):
            nc.adam_step(learner, grads)
        # rejected update must not touch parameters or the step counter
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)
        assert learner.step_count == 0

    def test_descends_on_quadratic(self):
        rng = np.random.default_rng(10)
        net = nc.init_network(small_spec(), rng)
        learner = nc.Learner(net, lr=1e-2)
        x = rng.standard_normal((8, 3))
        targets = [rng.standard_normal((8, 2))]
        closure = nc.squared_error_loss_closure(x, targets)
        first, _ = closure(net)
        for _ in range(300):
            _, grads_fn = closure(net)
            nc.adam_step(learner, grads_fn())
        last, _ = closure(net)
        assert last < 0.05 * first


class TestLossClosure:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_loss_value_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        net = nc.init_network(small_spec(two_headed=True), rng)
        x = rng.standard_normal(3)
        extra = rng.standard_normal(3)
        targets = [rng.standard_normal(2), rng.standard_normal(4)]
        loss, _ = nc.squared_error_loss_closure(
            x[None], [t[None] for t in targets], [None, extra[None]]
        )(net)
        assert loss.shape == ()
        outs, _ = nc.forward(net, x[None], [None, extra[None]])
        manual = 0.0
        for out, target in zip(outs, targets):
            for a, b in zip(out[0, 0], target):
                manual += (a - b) ** 2
        assert float(loss) == pytest.approx(manual, rel=1e-12)


def reference_forward(net, x, extras=None):
    """A one-member network's forward pass, on 2-D arrays, that allocates
    every array and applies leaky-ReLU with np.where; returns the outputs
    and what reference_backward needs."""
    spec = net.spec
    x = np.asarray(x, dtype=float)
    extras = extras or [None] * spec.n_heads
    pre, act = [], []
    a = x
    for w, b in zip(net.trunk_w, net.trunk_b):
        z = a @ w[0].T + b[0, 0]
        a = np.where(z > 0.0, z, spec.leaky_slope * z)
        pre.append(z)
        act.append(a)
    outputs, head_inputs = [], []
    for w, b, extra in zip(net.head_w, net.head_b, extras):
        h_in = a if extra is None else np.concatenate([a, extra], axis=1)
        out = h_in @ w[0].T + b[0, 0]
        head_inputs.append(h_in)
        outputs.append(out)
    return outputs, (x, pre, act, head_inputs)


def block_sum_product(d_out, layer_in):
    """d_out.T @ layer_in on 2-D arrays as backward computes it: products
    over blocks of nc.GRAD_BLOCK_ROWS rows, added in block order."""
    rows = nc.GRAD_BLOCK_ROWS
    grad = d_out[:rows].T @ layer_in[:rows]
    for lo in range(rows, len(d_out), rows):
        grad = grad + d_out[lo : lo + rows].T @ layer_in[lo : lo + rows]
    return grad


def reference_backward(net, ref_cache, head_output_grads):
    """A one-member network's gradients, shaped as its member's slice of
    each parameter: (out, in) weights and (1, out) biases."""
    x, pre, act, head_inputs = ref_cache
    spec = net.spec
    trunk_out = spec.hidden_dims[-1]
    head_grads = []
    d_a = np.zeros((len(x), trunk_out))
    for w, h_in, gy in zip(net.head_w, head_inputs, head_output_grads):
        head_grads.extend((block_sum_product(gy, h_in), gy.sum(axis=0, keepdims=True)))
        d_a += gy @ w[0][:, :trunk_out]
    trunk_grads = []
    for layer in range(len(net.trunk_w) - 1, -1, -1):
        d_z = d_a * np.where(pre[layer] > 0.0, 1.0, spec.leaky_slope)
        layer_in = x if layer == 0 else act[layer - 1]
        trunk_grads[:0] = [block_sum_product(d_z, layer_in), d_z.sum(axis=0, keepdims=True)]
        d_a = d_z @ net.trunk_w[layer][0]
    return trunk_grads + head_grads


def pass_inputs(spec, batch, rng, members=1, shared=True):
    """Trunk input, head extras and (M, B, out) output grads for one pass of
    a stack: a (B, ...) input shared by every member, or (M, B, ...) rows
    per member; batch None draws one (in,) vector's values as one row."""
    lead = (batch or 1,)
    if not shared:
        lead = (members, *lead)
    x = rng.standard_normal((*lead, spec.input_dim))
    extras = [rng.standard_normal((*lead, d)) if d else None for d in spec.head_extra_input_dims]
    gys = [rng.standard_normal((members, batch or 1, d)) for d in spec.output_dims]
    return x, extras, gys


class TestReusedBuffers:
    @pytest.mark.parametrize("two_headed", [False, True])
    @pytest.mark.parametrize("batch", [None, 1, 7])
    def test_passes_equal_allocating_reference_bit_for_bit(self, two_headed, batch):
        rng = np.random.default_rng(31 + (batch or 0))
        net = nc.init_network(small_spec(two_headed), rng)
        # trunk unit 0 sees exactly +0.0 and unit 1 a subnormal of either sign
        net.trunk_w[0][0, 0] = 0.0
        net.trunk_w[0][0, 1] = [1e-308, 0.0, 0.0]
        for _ in range(3):  # a pass reuses the buffers of the one before
            x, extras, gys = pass_inputs(net.spec, batch, rng)
            outs, cache = nc.forward(net, x, extras)
            ref_outs, ref_cache = reference_forward(net, x, extras)
            z0 = ref_cache[1][0]
            assert np.any((z0 == 0.0) & ~np.signbit(z0))
            assert np.any((z0 != 0.0) & (np.abs(z0) < 1e-300))
            for out, ref in zip(outs, ref_outs):
                assert out.shape == (1, *ref.shape)
                assert np.array_equal(out[0], ref)
            # forward keeps no pre-activations; min_kink_distance recomputes them
            kink = nc.min_kink_distance(cache)
            ref_kink = min(np.min(np.abs(z)) for z in ref_cache[1])
            assert kink == ref_kink and np.signbit(kink) == np.signbit(ref_kink)
            grads = nc.backward(net, cache, gys)
            ref_grads = reference_backward(net, ref_cache, [g[0] for g in gys])
            assert len(grads) == len(ref_grads)
            for g, ref in zip(grads, ref_grads):
                assert np.array_equal(g[0], ref)

    @pytest.mark.parametrize("members", [1, 3])
    def test_work_arrays_hold_one_activation_per_layer_and_one_scratch(self, members, monkeypatch):
        """After a pass, the arena holds M*B*(sum h + max h) trunk floats, the
        activations and a scratch as large as the widest layer, plus
        M*B*(trunk_out + extra) per head with extras, every one a view of it.
        A later pass of a smaller batch, or of another network, does not
        grow it."""
        monkeypatch.setattr(nc, "_ARENA", nc._Arena())
        spec = nc.NetworkSpec(3, (2, 4), hidden_dims=(5, 7, 6), head_extra_input_dims=(0, 3))
        rng = np.random.default_rng(36)
        net = nc.init_network(spec, rng, members)
        batch = 9
        x, extras, gys = pass_inputs(spec, batch, np.random.default_rng(37), members)
        _, cache = nc.forward(net, x, extras)
        nc.backward(net, cache, gys)
        arena = nc._ARENA.floats
        held = 0
        for f in dataclasses.fields(cache.buffers):
            value = getattr(cache.buffers, f.name)
            for a in value if isinstance(value, list) else [value]:
                if a is not None:
                    assert np.shares_memory(a, arena)
                    held += a.size
        trunk = members * batch * (5 + 7 + 6 + 7)
        head_inputs = members * batch * (6 + 3)
        assert held == arena.size == trunk + head_inputs
        other = nc.init_network(small_spec(two_headed=True), rng, members)
        for later, rows in ((net, batch - 1), (other, batch)):
            x, extras, gys = pass_inputs(later.spec, rows, rng, members)
            nc.backward(later, nc.forward(later, x, extras)[1], gys)
            assert nc._ARENA.floats is arena and arena.size == trunk + head_inputs

    def test_leaky_relu_and_derivative_match_where_on_special_values(self):
        """Signed zeros, subnormals, infinities and NaN: a forward pass cannot
        produce every one of these as a pre-activation (an exact zero sum
        rounds to +0.0), so the two element-wise maps are checked directly.
        Backward takes the derivative from the activation, which has the
        same derivative as its pre-activation on every one of them."""
        z = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan, 2.5, -2.5]
        )
        for slope in (0.01, 0.5, 0.999):
            act = nc._leaky(z, slope, out=np.empty_like(z))
            ref = np.where(z > 0.0, z, slope * z)
            assert np.array_equal(act, ref, equal_nan=True)
            assert np.array_equal(np.signbit(act), np.signbit(ref))
            grad = nc._leaky_grad(z, slope, out=np.empty_like(z))
            assert np.array_equal(grad, np.where(z > 0.0, 1.0, slope))
            from_act = nc._leaky_grad(act, slope, out=act)
            assert np.array_equal(from_act, grad)

    def test_backward_on_stale_cache_raises(self):
        rng = np.random.default_rng(32)
        net = nc.init_network(small_spec(two_headed=True), rng)
        x_a, extras_a, gys_a = pass_inputs(net.spec, 4, rng)
        x_b, extras_b, _ = pass_inputs(net.spec, 4, rng)
        x_c, extras_c, _ = pass_inputs(net.spec, 3, rng)

        _, cache_a = nc.forward(net, x_a, extras_a)
        grads = nc.backward(net, cache_a, gys_a)
        _, ref_cache = reference_forward(net, x_a, extras_a)
        for g, ref in zip(grads, reference_backward(net, ref_cache, [g[0] for g in gys_a])):
            assert np.array_equal(g[0], ref)
        with pytest.raises(RuntimeError, match="stale"):
            nc.backward(net, cache_a, gys_a)  # its own backward consumed it
        with pytest.raises(RuntimeError, match="stale"):
            nc.min_kink_distance(cache_a)

        # every pass shares the one arena: a pass of the same batch size, of
        # another batch size, or of another network makes the cache stale
        for other, x, extras in (
            (net, x_b, extras_b),
            (net, x_c, extras_c),
            (copy_network(net), x_a, extras_a),
        ):
            _, cache_a = nc.forward(net, x_a, extras_a)
            nc.forward(other, x, extras)
            with pytest.raises(RuntimeError, match="stale"):
                nc.backward(net, cache_a, gys_a)
            with pytest.raises(RuntimeError, match="stale"):
                nc.min_kink_distance(cache_a)

    def test_results_do_not_alias_buffers(self):
        rng = np.random.default_rng(33)
        net = nc.init_network(small_spec(two_headed=True), rng)
        x, extras, gys = pass_inputs(net.spec, 5, rng)
        outs, cache = nc.forward(net, x, extras)
        grads = nc.backward(net, cache, gys)
        kept = [a.copy() for a in outs + grads]
        for _ in range(2):
            x2, extras2, gys2 = pass_inputs(net.spec, 5, rng)
            _, cache2 = nc.forward(net, x2, extras2)
            nc.backward(net, cache2, gys2)
        for a, k in zip(outs + grads, kept):
            assert np.array_equal(a, k)

    @pytest.mark.parametrize("suite", ["squared_error", "actor"])
    def test_grad_check_runs_one_backward(self, suite, monkeypatch):
        """The finite-difference probes read only the loss, so the one
        backward pass is the analytic side's."""
        rng = np.random.default_rng(34)
        x = rng.standard_normal((3, 3))
        if suite == "squared_error":
            net = nc.init_network(small_spec(), rng)
            closure = nc.squared_error_loss_closure(x, [rng.standard_normal((3, 2))])
        else:
            net = nc.init_network(nc.NetworkSpec(3, (5,), hidden_dims=(5, 6)), rng)
            closure = coma.actor_loss_closure(
                x[None], [[0, 3, 4]], rng.standard_normal(3)[None], 0.05, 0.01
            )
        calls = []
        backward = nc.backward

        def counted(*args, **kwargs):
            calls.append(1)
            return backward(*args, **kwargs)

        monkeypatch.setattr(nc, "backward", counted)
        assert nc.grad_check(net, closure) < 1e-6
        assert len(calls) == 1


class TestMemberStack:
    """A stack of M members computes what M one-member passes compute, bit
    for bit; the reference runs each member alone on 2-D arrays."""

    @pytest.mark.parametrize("members", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 8, 400])
    @pytest.mark.parametrize("two_headed", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_stacked_passes_equal_per_member_loop(self, members, batch, two_headed, shared):
        rng = np.random.default_rng(50 + members + batch)
        net = nc.init_network(small_spec(two_headed), rng, members)
        learner = nc.Learner(net, lr=0.01)
        singles = [member(net, m) for m in range(members)]
        single_learners = [nc.Learner(single, lr=0.01) for single in singles]
        for _ in range(2):  # the second step runs on updated parameters and moments
            x, extras, gys = pass_inputs(net.spec, batch, rng, members, shared)
            outs, cache = nc.forward(net, x, extras)
            kink = nc.min_kink_distance(cache)
            grads = nc.backward(net, cache, gys)
            ref_kinks = []
            for m, single in enumerate(singles):
                x_m = x if shared else x[m]
                extras_m = [e if e is None or shared else e[m] for e in extras]
                gys_m = [g[m] for g in gys]
                ref_outs, ref_cache = reference_forward(single, x_m, extras_m)
                ref_kinks += [np.min(np.abs(z)) for z in ref_cache[1]]
                for out, ref in zip(outs, ref_outs):
                    assert np.array_equal(out[m], ref)
                ref_grads = reference_backward(single, ref_cache, gys_m)
                for g, ref in zip(grads, ref_grads):
                    assert np.array_equal(g[m], ref)
                nc.adam_step(single_learners[m], [g[None] for g in ref_grads])
            assert kink == min(ref_kinks) > 0.0
            nc.adam_step(learner, grads)
            for m, single in enumerate(singles):
                for p, ref in zip(member(net, m).parameters(), single.parameters()):
                    assert np.array_equal(p, ref)

    def test_members_draw_in_turn_and_stay_contiguous(self):
        spec = small_spec(two_headed=True)
        net = nc.init_network(spec, np.random.default_rng(61), members=3)
        rng = np.random.default_rng(61)
        for m in range(3):
            alone = nc.init_network(spec, rng)
            for p, ref in zip(member(net, m).parameters(), alone.parameters()):
                assert np.array_equal(p, ref)
        for p in net.parameters():
            assert p.flags.c_contiguous and p.shape[0] == 3
            assert np.shares_memory(p.ravel(), p)

    def test_parameters_are_updated_in_place_only(self):
        """A forward multiplies by transposed views built with the network, so
        its parameter arrays can be written but not rebound."""
        net = nc.init_network(small_spec(), np.random.default_rng(65), members=2)
        with pytest.raises(TypeError):
            net.trunk_w[0] = np.zeros_like(net.trunk_w[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.head_w = ()
        x = np.ones((2, 3))
        net.head_w[0][...] = 0.0
        net.head_b[0][...] = 1.5
        assert np.all(nc.forward(net, x)[0][0] == 1.5)

    def test_network_on_a_stack_row_is_a_view(self):
        """A network built on row s of a stack's (S, P) flat has parameters
        that are views of the stack's, and a write through it reaches the
        stack's forward, for row s only."""
        spec, rng = small_spec(), np.random.default_rng(62)
        stack = nc.Network(spec, np.stack([nc.init_network(spec, rng, 2).flat for _ in range(3)]))
        row = nc.Network(spec, stack.flat[1])
        assert row.members == 2
        for p, stacked in zip(row.parameters(), stack.parameters()):
            assert np.shares_memory(p, stack.flat) and np.array_equal(p, stacked[1])
        row.head_w[0][...] = 0.0
        row.head_b[0][...] = 7.0
        (outs,), _ = nc.forward(stack, np.ones((4, 3)))
        assert np.all(outs[1] == 7.0) and not np.any(outs[[0, 2]] == 7.0)

    def test_rejects_a_flat_of_no_contiguous_whole_members(self):
        spec = small_spec()
        flat = nc.init_network(spec, np.random.default_rng(66), members=2).flat
        for strided in (np.stack([flat, flat], axis=1)[:, 0], np.asfortranarray([flat, flat])):
            with pytest.raises(ValueError, match="C-contiguous"):
                nc.Network(spec, strided)
        for cut in (flat[:-1], flat[: flat.size // 2 + 1], np.zeros(0), np.zeros((2, 0))):
            with pytest.raises(ValueError, match="no whole number"):
                nc.Network(spec, cut)

    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_builds_its_tensors_on_its_own_flat(self, clone):
        """Every tensor of a deep copy or an unpickled network is a view of
        its own flat and shares no memory with the original's, so Adam's
        update of the copy moves the copy's outputs and not the original's."""
        rng = np.random.default_rng(67)
        net = nc.init_network(small_spec(two_headed=True), rng, members=2)
        twin = clone(net)
        for p in twin.parameters():
            assert np.shares_memory(p, twin.flat) and not np.shares_memory(p, net.flat)
        x, extras, gys = pass_inputs(net.spec, 5, rng, members=2, shared=False)
        before, cache = nc.forward(twin, x, extras)
        nc.adam_step(nc.Learner(twin, lr=0.01), nc.backward(twin, cache, gys))
        outs, twin_outs = nc.forward(net, x, extras)[0], nc.forward(twin, x, extras)[0]
        for out, twin_out, ref in zip(outs, twin_outs, before):
            assert np.array_equal(out, ref) and not np.array_equal(twin_out, ref)

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("two_headed", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_copy_axis_passes_equal_each_copys_own(self, members, two_headed, shared):
        """Four independently drawn stacks on a leading copy axis: each
        copy's outputs and gradients are its own passes', bit for bit, with
        one stack's rows and extra inputs broadcast over the copies. 300
        rows span three GRAD_BLOCK_ROWS blocks of the weight gradients."""
        rng = np.random.default_rng(80 + members)
        spec = small_spec(two_headed)
        copies = [nc.init_network(spec, rng, members) for _ in range(4)]
        stacked = nc.Network(spec, np.stack([net.flat for net in copies]))
        assert stacked.members == members
        x, extras, _ = pass_inputs(spec, 300, rng, members, shared)
        gys = [rng.standard_normal((4, members, 300, d)) for d in spec.output_dims]
        outs, cache = nc.forward(stacked, x, extras)
        kink = nc.min_kink_distance(cache)
        grads = nc.backward(stacked, cache, gys)
        kinks = []
        for k, net in enumerate(copies):
            copy_outs, copy_cache = nc.forward(net, x, extras)
            kinks.append(nc.min_kink_distance(copy_cache))
            copy_grads = nc.backward(net, copy_cache, [gy[k] for gy in gys])
            for out, copy_out in zip(outs, copy_outs):
                assert np.array_equal(out[k], copy_out)
            for g, copy_g in zip(grads, copy_grads):
                assert np.array_equal(g[k], copy_g)
        assert kink == min(kinks)

    def test_input_shape_errors(self):
        net = nc.init_network(small_spec(two_headed=True), np.random.default_rng(63), members=2)
        rng = np.random.default_rng(64)
        with pytest.raises(ValueError, match="members"):
            nc.forward(net, rng.standard_normal((3, 4, 3)), [None, rng.standard_normal((3, 4, 3))])
        with pytest.raises(ValueError, match="extra input shape"):
            # per-member trunk rows need per-member extras
            nc.forward(net, rng.standard_normal((2, 4, 3)), [None, rng.standard_normal((4, 3))])
        with pytest.raises(ValueError):
            nc.init_network(small_spec(), rng, members=0)


def one_at_a_time(net, closure):
    """A grad_check and mutation_control that probe one element at a time,
    moving it in net itself by their step: (max relative error, each
    parameter's central differences, mutant's relative error)."""
    h = nc.PROBE_STEP

    def central_difference(flat, i):
        orig = flat[i]
        flat[i] = orig + h
        loss_plus, _ = closure(net)
        flat[i] = orig - h
        loss_minus, _ = closure(net)
        flat[i] = orig
        return (loss_plus - loss_minus) / (2.0 * h)

    analytic = closure(net)[1]()
    scale = max(float(np.max(np.abs(a))) for a in analytic)
    worst, numerics = 0.0, []
    for p, a in zip(net.parameters(), analytic):
        flat, ana = p.ravel(), a.ravel().tolist()
        numerics.append(np.array([central_difference(flat, i) for i in range(flat.size)]))
        for x, numeric in zip(ana, numerics[-1].tolist()):
            worst = max(worst, abs(x - numeric) / max(abs(x), abs(numeric), scale, 1e-8))
    p_idx = max(range(len(analytic)), key=lambda j: float(np.max(np.abs(analytic[j]))))
    flat_idx = int(np.argmax(np.abs(analytic[p_idx])))
    numeric = central_difference(net.parameters()[p_idx].ravel(), flat_idx)
    mutated = -analytic[p_idx].ravel()[flat_idx]
    mutant = abs(mutated - numeric) / max(abs(mutated), abs(numeric), 1e-8)
    return worst, numerics, mutant


def record_probes(monkeypatch, net):
    """Patch nc.forward to record, for every forward of a network other
    than net, (copies of net on its leading copy axis, indices of the
    parameters it owns rather than zero-stride views, floats it owns)."""
    probes = []
    forward = nc.forward

    def recorded(probe, *args, **kwargs):
        if probe is not net:
            owned = [j for j, p in enumerate(probe.parameters()) if p.strides[0] != 0]
            floats = sum(probe.parameters()[j].size for j in owned)
            probes.append((len(probe.trunk_w[0]), owned, floats))
        return forward(probe, *args, **kwargs)

    monkeypatch.setattr(nc, "forward", recorded)
    return probes


def tensors_probed(probes, sizes):
    """For probes that take the flat parameter elements in order, two copies
    per element, the indices of the tensors each probe's elements fall in."""
    ends = np.cumsum(sizes)
    starts, tensors, start = ends - sizes, [], 0
    for copies, _, _ in probes:
        stop = start + copies // 2
        tensors.append([j for j in range(len(sizes)) if starts[j] < stop and ends[j] > start])
        start = stop
    return tensors


class TestProbeNetworks:
    """grad_check and mutation_control take every central difference from
    probe networks, copies of the audited network on a leading axis; each
    must be what moving one element of the audited network gives, bit for
    bit."""

    @pytest.mark.parametrize(
        "make_case, seed",
        [
            (nc._network_case, 7),
            (coma._actor_case, 7),
            (coma._critic_case, 0),
            (cur._module_case, 0),
        ],
        ids=["squared_error", "actor", "critic", "curiosity"],
    )
    def test_probes_equal_one_at_a_time_reference(self, make_case, seed, monkeypatch):
        drawn = []
        kink_free_draw = nc.kink_free_draw

        def recorded(net, draw, *args):
            x, extras = kink_free_draw(net, draw, *args)
            drawn.append((x.shape, extras is not None and extras[-1] is not None))
            return x, extras

        monkeypatch.setattr(nc, "kink_free_draw", recorded)
        rng = np.random.default_rng(seed)
        for i in range(20):
            net, closure = make_case(rng, i)
            worst, numerics, mutant = one_at_a_time(net, closure)
            every = np.arange(sum(p.size for p in net.parameters()))
            got = nc._central_differences(net, closure, every)
            assert np.array_equal(got, np.concatenate(numerics))
            assert nc.grad_check(net, closure) == worst
            assert nc.mutation_control(net, closure) == mutant
        if make_case is coma._critic_case:
            # a strided row's dot product sums in another order from batch 4 on
            assert any(shape[0] >= 4 for shape, _ in drawn)
        if make_case is cur._module_case:
            assert ((3, 3, 9), True) in drawn  # a 3-member two-headed stack

    def test_probe_networks_stay_within_probe_floats(self, monkeypatch):
        """On the 64x64 network, no probe network materializes more
        parameter floats than PROBE_FLOATS, a probe owns every tensor of
        every copy, every chunk but the last has the one length that fits,
        there are more chunks than tensors, every element is probed both
        ways once, and the result is the one-at-a-time one."""
        net, closure = full_size_case()
        probes = record_probes(monkeypatch, net)
        worst = nc.grad_check(net, closure)
        sizes = [p.size for p in net.parameters()]
        assert max(floats for _, _, floats in probes) <= nc.PROBE_FLOATS
        assert all(owned == list(range(len(sizes))) for _, owned, _ in probes)
        chunk = nc.PROBE_FLOATS // (2 * sum(sizes))
        assert [copies for copies, _, _ in probes[:-1]] == [2 * chunk] * (len(probes) - 1)
        assert sum(copies for copies, _, _ in probes) == 2 * sum(sizes)
        assert len(probes) > len(sizes)
        monkeypatch.undo()
        assert worst == one_at_a_time(net, closure)[0]

    @pytest.mark.parametrize(
        "make_case",
        [nc._network_case, coma._actor_case, coma._critic_case, cur._module_case],
        ids=["squared_error", "actor", "critic", "curiosity"],
    )
    def test_suite_networks_take_one_probe_forward(self, make_case, monkeypatch):
        """Every parameter of a network of P floats with 2 P^2 within
        PROBE_FLOATS, which every network and actor suite case is, is probed
        in one forward; mutation_control's element takes one for any size.
        (Two of the curiosity suite's 2- and 3-member stacks are larger.)"""
        rng = np.random.default_rng(3)
        one_forward = 0
        for i in range(12):
            net, closure = make_case(rng, i)
            probes = record_probes(monkeypatch, net)
            nc.grad_check(net, closure)
            floats = sum(p.size for p in net.parameters())
            if 2 * floats * floats <= nc.PROBE_FLOATS:
                assert [copies for copies, _, _ in probes] == [2 * floats]
                one_forward += 1
            else:
                assert len(probes) > 1
            probes.clear()
            nc.mutation_control(net, closure)
            assert [copies for copies, _, _ in probes] == [2]
            monkeypatch.undo()
        assert one_forward >= 10

    @pytest.mark.parametrize(
        "make_case", [nc._network_case, cur._module_case], ids=["one", "stack"]
    )
    def test_chunks_across_tensor_boundaries_equal_reference(self, make_case, monkeypatch):
        """With a small PROBE_FLOATS the chunks of a one-member network or
        a stack span tensor boundaries, and every difference is still the
        one-at-a-time one, bit for bit."""
        rng = np.random.default_rng(13)
        spans = 0
        for i in range(6):
            net, closure = make_case(rng, i)
            worst, numerics, mutant = one_at_a_time(net, closure)
            sizes = [p.size for p in net.parameters()]
            monkeypatch.setattr(nc, "PROBE_FLOATS", 16 * max(sizes))
            probes = record_probes(monkeypatch, net)
            every = np.arange(sum(sizes))
            got = nc._central_differences(net, closure, every)
            assert np.array_equal(got, np.concatenate(numerics))
            assert max(floats for _, _, floats in probes) <= nc.PROBE_FLOATS
            assert len(probes) > 1
            spans += sum(len(tensors) > 1 for tensors in tensors_probed(probes, sizes))
            assert nc.grad_check(net, closure) == worst
            assert nc.mutation_control(net, closure) == mutant
            monkeypatch.undo()
        assert spans > 0

    def test_closure_without_per_copy_losses_is_rejected(self):
        rng = np.random.default_rng(71)
        net = nc.init_network(small_spec(), rng)
        closure = nc.squared_error_loss_closure(rng.standard_normal((2, 3)), [np.zeros((2, 2))])

        def one_loss(n):
            loss, grads_fn = closure(n)
            return float(np.sum(loss)), grads_fn

        with pytest.raises(ValueError, match="one loss per copy"):
            nc.grad_check(net, one_loss)
