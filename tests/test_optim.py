"""Adam: the flat in-place update against a per-tensor reference, its
layout, slicing and sharding, and the values it refuses."""

import numpy as np
import pytest

import stpose.train
from stpose.checkpoint import restore_params
from stpose.config import RunConfig
from stpose.optim import ADAM_TILE, Adam, flat_views
from stpose.tensor import Tensor
from stpose.train import build_model, train


class PerTensorAdam:
    """Adam one tensor at a time, rebinding each parameter's data to a new
    array, with the op order the flat update must keep bit for bit."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.eps = list(params), lr, eps
        self.beta1, self.beta2 = betas
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            if self.lr == 0.0:
                continue
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def twin_params(layout):
    """Two copies of a parameter list: one for Adam, one for the reference.
    ``layout`` is a config, for its model's parameters, or a list of sizes
    for random vectors."""
    if isinstance(layout, RunConfig):
        params = list(build_model(layout).named_params().values())
    else:
        rng = np.random.default_rng(len(layout))
        params = [Tensor(rng.standard_normal(n), requires_grad=True) for n in layout]
    return params, [Tensor(p.data.copy(), requires_grad=True) for p in params]


def set_grads(rng, params, twins):
    """The same random gradients on both lists, about one in five None."""
    for p, q in zip(params, twins):
        g = None if rng.random() < 0.2 else rng.standard_normal(p.shape)
        p.grad, q.grad = g, g


def assert_same_bits(opt, ref):
    for p, q in zip(opt.params, ref.params):
        assert p.data.tobytes() == q.data.tobytes()
    assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref.m]).tobytes()
    assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref.v]).tobytes()


# the default model (64 tensors, none above a tile), the coupled encoder
# with the iterative decoder, whose largest weight spans three tiles, and
# parameter sizes at and across the tile edges
LAYOUTS = {"default": RunConfig(),
           "iterative": RunConfig(encoder="coupling", decoder="iterative", t_clip=16),
           "one": [1], "tile": [ADAM_TILE], "tile+1": [ADAM_TILE + 1],
           "mixed": [5, 3 * ADAM_TILE + 7, 2, ADAM_TILE - 2, 9],
           "halves": [ADAM_TILE // 2 + 1] * 5}


class TestFlatUpdate:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shards", ["helper", "inline"])
    def test_bits_equal_the_per_tensor_update(self, layout, shards, inline_shards):
        params, twins = twin_params(LAYOUTS[layout])
        opt = Adam(params, lr=1e-3, betas=(0.9, 0.95))
        ref = PerTensorAdam(twins, lr=1e-3, betas=(0.9, 0.95))
        assert len(opt._shards) == min(2, -(-opt.flat.size // ADAM_TILE))
        rng = np.random.default_rng(5)
        for lr in (1e-3, 1e-3, 0.0, 3e-4, 3e-4, 1e-3):
            set_grads(rng, params, twins)
            opt.lr, ref.lr = lr, lr
            if shards == "inline":
                with inline_shards():
                    opt.step()
            else:
                opt.step()
            ref.step()
            assert_same_bits(opt, ref)

    def test_lr_zero_advances_the_moments_only(self):
        params, _ = twin_params(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        before = [p.data.copy() for p in params]
        for p in params:
            p.grad = np.ones(p.shape)
        opt = Adam(params, lr=0.0)
        opt.step()
        for p, b in zip(params, before):
            assert p.data.tobytes() == b.tobytes()
        assert (opt.m != 0.0).all() and (opt.v != 0.0).all()

    def test_parameters_are_views_of_one_buffer(self):
        params, twins = twin_params(LAYOUTS["default"])
        opt = Adam(params)
        assert opt.flat.size == opt.grad.size == sum(p.size for p in params) == 158585
        for p, q in zip(params, twins):
            assert p.data.base is opt.flat and p.grad.base is opt.grad
            assert p.data.tobytes() == q.data.tobytes()
        assert not opt.grad.any()

    def test_each_module_is_one_slice_of_the_gradient(self, monkeypatch):
        # so a module's gradient norm is one dot over a slice of opt.grad
        built = []

        class KeptAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(stpose.train, "Adam", KeptAdam)
        model = train(RunConfig(blocks=3, d=16, heads=2, hw=4, t_clip=2, clips=2,
                                steps_stage1=1, steps_stage2=0)).model
        opt, = built
        assert all(p.grad.base is opt.grad for p in model.named_params().values())
        modules = [model.patch_embed, *model.encoder.blocks, model.decoder]
        assert len(modules) == 5
        for module in modules:
            spans = sorted(((p.grad.ctypes.data - opt.grad.ctypes.data) // 8, p.size)
                           for p in module.named_params().values())
            # each parameter starts where the one before it ends
            assert all(a + n == b for (a, n), (b, _) in zip(spans, spans[1:]))

    def test_zero_grad_fills_the_buffer_in_place(self):
        params, _ = twin_params([3, 2])
        opt = Adam(params)
        opt.grad[:] = 1.0
        views = [p.grad for p in params]
        opt.zero_grad()
        assert not opt.grad.any()
        assert all(p.grad is view for p, view in zip(params, views))

    def test_empty_parameter_list_steps(self):
        opt = Adam([])
        opt.step()
        assert opt.step_count == 1

    def test_rebound_and_restored_parameters_are_honoured(self):
        params, twins = twin_params(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        opt, ref = Adam(params, lr=1e-2), PerTensorAdam(twins, lr=1e-2)
        grad_views = [p.grad for p in params]
        rng = np.random.default_rng(1)
        for step in range(4):
            set_grads(rng, params, twins)
            if step == 1:   # outside code rebinds a parameter to a new array
                shifted = params[3].data + 0.5
                params[3].data, twins[3].data = shifted, shifted.copy()
            if step == 2:   # a checkpoint restored in place
                loaded = {str(i): rng.standard_normal(p.shape)
                          for i, p in enumerate(params)}
                restore_params(dict(zip(loaded, params)), loaded)
                restore_params(dict(zip(loaded, twins)), loaded)
            opt.step()
            ref.step()
            assert_same_bits(opt, ref)
        assert params[3].data.base is opt.flat
        assert all(p.grad is view for p, view in zip(params, grad_views))

    def test_three_step_training_matches_the_per_tensor_update(self, monkeypatch):
        # a train run's gradients, replayed through the per-tensor update
        # from the same start, give the same parameters before every step
        cfg = RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2, clips=2,
                        steps_stage1=1, steps_stage2=2)
        steps = []

        class RecordingAdam(Adam):
            def step(self):
                steps.append((self.flat.copy(), self.grad.copy(), self.lr))
                super().step()

        monkeypatch.setattr(stpose.train, "Adam", RecordingAdam)
        params = list(train(cfg).model.named_params().values())
        ref = PerTensorAdam([Tensor(view.copy(), requires_grad=True)
                             for view, in flat_views(params, steps[0][0])],
                            betas=(cfg.beta1, cfg.beta2))
        for flat, grad, lr in steps:
            assert np.concatenate([q.data.ravel() for q in ref.params]).tobytes() \
                == flat.tobytes()
            for q, (g,) in zip(ref.params, flat_views(params, grad)):
                q.grad = g
            ref.lr = lr
            ref.step()
        assert len(steps) == 3
        for p, q in zip(params, ref.params):
            assert p.data.tobytes() == q.data.tobytes()


class TestClosedForm:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], lr=1e-2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_closed_form(self):
        p = Tensor(1.0, requires_grad=True)
        p.grad = np.asarray(0.5)
        opt = Adam([p], lr=1e-4)
        opt.step()
        # hand-computed: m=0.05, v=2.5e-4, m_hat=0.5, v_hat=0.25
        want = 1.0 - 1e-4 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p.item() - want) < 1e-16

    def test_update_linear_in_lr_on_first_step(self):
        deltas = []
        for lr in (1e-3, 1e-4):
            p = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
            p.grad = np.array([0.3, -0.7, 2.0])
            Adam([p], lr=lr).step()
            deltas.append(np.array([2.0, -1.0, 0.5]) - p.data)
        np.testing.assert_allclose(deltas[0], 10.0 * deltas[1], rtol=1e-9)


class TestRefusals:
    @pytest.mark.parametrize("kwargs,named", [
        (dict(lr=-1e-3), "-0.001"), (dict(lr=float("nan")), "nan"),
        (dict(lr=float("inf")), "inf"), (dict(betas=(1.0, 0.9)), "beta1.*1.0"),
        (dict(betas=(0.9, 1.5)), "beta2.*1.5"), (dict(betas=(-0.1, 0.9)), "beta1.*-0.1"),
        (dict(eps=0.0), "eps.*0.0"), (dict(eps=-1.0), "eps.*-1.0")],
        ids=["lr-negative", "lr-nan", "lr-inf", "beta1-one", "beta2-above-one",
             "beta1-negative", "eps-zero", "eps-negative"])
    def test_init_refuses_and_names_the_value(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            Adam([Tensor(np.zeros(2), requires_grad=True)], **kwargs)

    def test_init_refuses_a_repeated_parameter(self):
        a, b = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        with pytest.raises(ValueError, match="parameter 2 .* twice"):
            Adam([a, b, a])

    def test_init_refuses_a_constant(self):
        with pytest.raises(ValueError, match="does not require gradients"):
            Adam([Tensor(np.zeros(2))])

    @pytest.mark.parametrize("bad", [
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1.0),
        dict(grad=np.ones(3)), dict(rebind=np.zeros(4))],
        ids=["lr-nan", "lr-inf", "lr-negative", "gradient-shape", "rebound-shape"])
    def test_refused_step_changes_nothing(self, bad):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad, b.grad = np.ones(1), np.ones(2)
        opt.step()
        state = [x.copy() for x in (opt.flat, opt.m, opt.v)]
        a.grad, b.grad = np.ones(1), bad.get("grad", np.ones(2))
        opt.lr = bad.get("lr", 0.1)
        if "rebind" in bad:
            b.data = bad["rebind"]
        with pytest.raises(ValueError):
            opt.step()
        assert opt.step_count == 1
        for x, before in zip((opt.flat, opt.m, opt.v), state):
            assert x.tobytes() == before.tobytes()
        assert a.data.base is opt.flat
