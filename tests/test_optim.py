"""Adam over a model's parameter store: the flat in-place update against a
per-tensor reference, the store's layout, slicing, and the
values and rebindings refused."""

import multiprocessing

import numpy as np
import pytest

import stpose.train
from stpose.checkpoint import restore_params
from stpose.config import RunConfig
from stpose.optim import ADAM_TILE, Adam
from stpose.tensor import ParamStore, Tensor
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


def store_of(sizes):
    """A store of random vectors of the given sizes, named by index, and
    its parameters."""
    rng = np.random.default_rng(len(sizes))
    named = {str(i): Tensor(rng.standard_normal(n), requires_grad=True)
             for i, n in enumerate(sizes)}
    return ParamStore(named), list(named.values())


def twin_params(layout):
    """A store and its parameters, for Adam, and a copy of the parameters
    for the reference. ``layout`` is a config, for its model's store, or a
    list of sizes for random vectors."""
    if isinstance(layout, RunConfig):
        model = build_model(layout)
        store, params = model.store, list(model.named_params().values())
    else:
        store, params = store_of(layout)
    return store, params, [Tensor(p.data.copy(), requires_grad=True) for p in params]


def set_grads(rng, params, twins):
    """The same random gradients on both lists, about one in five zero:
    written through each stored parameter's view, and as None on the
    reference's twin."""
    for p, q in zip(params, twins):
        g = None if rng.random() < 0.2 else rng.standard_normal(p.shape)
        p.grad[...] = 0.0 if g is None else g
        q.grad = g


def assert_same_bits(opt, params, ref):
    for p, q in zip(params, ref.params):
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
    @pytest.mark.parametrize("cpus", ["helper", "inline"])
    def test_bits_equal_the_per_tensor_update(self, layout, cpus, monkeypatch):
        # the step runs on the calling thread, so the bits are the same
        # whether or not a second CPU is free for the helper thread
        monkeypatch.setattr("stpose.runtime.cpus", lambda: 2 if cpus == "helper" else 1)
        store, params, twins = twin_params(LAYOUTS[layout])
        opt = Adam(store, lr=1e-3, betas=(0.9, 0.95))
        ref = PerTensorAdam(twins, lr=1e-3, betas=(0.9, 0.95))
        assert len(opt._spans) == -(-store.data.size // ADAM_TILE)
        rng = np.random.default_rng(5)
        for lr in (1e-3, 1e-3, 0.0, 3e-4, 3e-4, 1e-3):
            set_grads(rng, params, twins)
            opt.lr, ref.lr = lr, lr
            opt.step()
            ref.step()
            assert_same_bits(opt, params, ref)

    def test_lr_zero_advances_the_moments_only(self):
        store, params, _ = twin_params(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        before = [p.data.copy() for p in params]
        store.grad.fill(1.0)
        opt = Adam(store, lr=0.0)
        opt.step()
        for p, b in zip(params, before):
            assert p.data.tobytes() == b.tobytes()
        assert (opt.m != 0.0).all() and (opt.v != 0.0).all()

    def test_parameters_are_views_of_one_buffer(self):
        # the model's parameters in named_params order, the gradient at zero
        model = build_model(LAYOUTS["default"])
        store, params = model.store, model.named_params()
        assert store.names == list(params)
        assert store.data.size == store.grad.size == store.offsets[-1] == 158585
        for i, p in enumerate(params.values()):
            assert p.data.base is store.data and p.grad.base is store.grad
            assert (p.data.ctypes.data - store.data.ctypes.data) // 8 == store.offsets[i]
            assert p.size == store.offsets[i + 1] - store.offsets[i]
        assert not store.grad.any()
        # each parameter's values are copied in, shaped as they were
        values = [np.arange(6.0).reshape(2, 3), np.array(-1.0), np.arange(4.0)]
        named = {str(i): Tensor(v.copy(), requires_grad=True) for i, v in enumerate(values)}
        ParamStore(named)
        for p, v in zip(named.values(), values):
            assert p.shape == v.shape and p.data.tobytes() == v.tobytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_a_forked_process_shares_the_values_but_not_the_gradient(self):
        # as the clip-half worker reads the values Adam writes and
        # backpropagates into its own gradient
        store, _ = store_of([3, 2])

        def write_both():
            store.data.fill(7.0)
            store.grad.fill(1.0)

        child = multiprocessing.get_context("fork").Process(target=write_both)
        child.start()
        child.join(60)
        assert child.exitcode == 0
        assert (store.data == 7.0).all() and not store.grad.any()

    def test_each_module_is_one_slice_of_the_gradient(self):
        # so a module's gradient norm is one dot over a slice of the store's grad
        model = train(RunConfig(blocks=3, d=16, heads=2, hw=4, t_clip=2, clips=2,
                                steps_stage1=1, steps_stage2=0)).model
        grad = model.store.grad
        assert all(p.grad.base is grad for p in model.named_params().values())
        modules = [model.patch_embed, *model.encoder.blocks, model.decoder]
        assert len(modules) == 5
        for module in modules:
            spans = sorted(((p.grad.ctypes.data - grad.ctypes.data) // 8, p.size)
                           for p in module.named_params().values())
            # each parameter starts where the one before it ends
            assert all(a + n == b for (a, n), (b, _) in zip(spans, spans[1:]))

    def test_zero_grad_fills_the_buffer_in_place(self):
        store, params = store_of([3, 2])
        opt = Adam(store)
        store.grad[:] = 1.0
        views = [p.grad for p in params]
        opt.zero_grad()
        assert not store.grad.any()
        assert all(p.grad is view for p, view in zip(params, views))

    def test_empty_parameter_list_steps(self):
        opt = Adam(ParamStore({}))
        opt.step()
        assert opt.step_count == 1

    def test_rebinding_is_refused_and_an_in_place_restore_is_honoured(self):
        model = build_model(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        named = model.named_params()
        params = list(named.values())
        twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        opt, ref = Adam(model.store, lr=1e-2), PerTensorAdam(twins, lr=1e-2)
        views = [(p.data, p.grad) for p in params]
        rng = np.random.default_rng(1)
        for step in range(4):
            set_grads(rng, params, twins)
            if step == 1:   # outside code tries to rebind; nothing changes
                name, p = list(named.items())[3]
                for attr, value in (("data", p.data + 0.5), ("grad", np.ones(p.shape)),
                                    ("grad", None)):
                    with pytest.raises(AttributeError, match=rf"^parameter {name}: its {attr} "):
                        setattr(p, attr, value)
            if step == 2:   # a checkpoint restored in place
                loaded = {str(i): rng.standard_normal(p.shape)
                          for i, p in enumerate(params)}
                restore_params(dict(zip(loaded, params)), loaded)
                restore_params(dict(zip(loaded, twins)), loaded)
            opt.step()
            ref.step()
            assert_same_bits(opt, params, ref)
        assert all(p.data is data and p.grad is grad
                   for p, (data, grad) in zip(params, views))

    def test_three_step_training_matches_the_per_tensor_update(self, monkeypatch):
        # a train run's gradients, replayed through the per-tensor update
        # from the same start, give the same parameters before every step
        cfg = RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2, clips=2,
                        steps_stage1=1, steps_stage2=2)
        steps = []

        class RecordingAdam(Adam):
            def step(self):
                steps.append((self.store.data.copy(), self.store.grad.copy(), self.lr))
                super().step()

        monkeypatch.setattr(stpose.train, "Adam", RecordingAdam)
        model = train(cfg).model
        params = list(model.named_params().values())
        parts = [slice(a, b) for a, b in zip(model.store.offsets, model.store.offsets[1:])]
        ref = PerTensorAdam([Tensor(steps[0][0][part].reshape(p.shape), requires_grad=True)
                             for p, part in zip(params, parts)],
                            betas=(cfg.beta1, cfg.beta2))
        for flat, grad, lr in steps:
            assert np.concatenate([q.data.ravel() for q in ref.params]).tobytes() \
                == flat.tobytes()
            for p, q, part in zip(params, ref.params, parts):
                q.grad = grad[part].reshape(p.shape)
            ref.lr = lr
            ref.step()
        assert len(steps) == 3
        for p, q in zip(params, ref.params):
            assert p.data.tobytes() == q.data.tobytes()


class TestClosedForm:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam(ParamStore({"p": p}), lr=1e-2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_closed_form(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam(ParamStore({"p": p}), lr=1e-4)
        p.grad[...] = 0.5
        opt.step()
        # hand-computed: m=0.05, v=2.5e-4, m_hat=0.5, v_hat=0.25
        want = 1.0 - 1e-4 * 0.5 / (np.sqrt(0.25) + 1e-8)
        assert abs(p.item() - want) < 1e-16

    def test_update_linear_in_lr_on_first_step(self):
        deltas = []
        for lr in (1e-3, 1e-4):
            p = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
            opt = Adam(ParamStore({"p": p}), lr=lr)
            p.grad[...] = [0.3, -0.7, 2.0]
            opt.step()
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
            Adam(ParamStore({"a": Tensor(np.zeros(2), requires_grad=True)}), **kwargs)

    def test_init_refuses_a_repeated_parameter(self):
        # one tensor under two names: the store refuses it, naming both
        a, b = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        with pytest.raises(ValueError, match="both enc.w and dec.w$"):
            ParamStore({"enc.w": a, "b": b, "dec.w": a})
        assert type(a) is Tensor and a.grad is None   # nothing was laid out

    def test_init_refuses_a_constant(self):
        with pytest.raises(ValueError, match="parameter c does not require gradients"):
            ParamStore({"c": Tensor(np.zeros(2))})

    @pytest.mark.parametrize("bad", [
        dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1.0),
        dict(grad=np.ones(3)), dict(rebind=np.zeros(4))],
        ids=["lr-nan", "lr-inf", "lr-negative", "gradient-shape", "rebound-shape"])
    def test_refused_step_changes_nothing(self, bad):
        # a bad lr is refused by the step; a gradient or value of another
        # shape cannot reach it, as rebinding b is refused where it is tried
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        store = ParamStore({"a": a, "b": b})
        opt = Adam(store, lr=0.1)
        store.grad.fill(1.0)
        opt.step()
        state = [x.copy() for x in (store.data, store.grad, opt.m, opt.v)]
        opt.lr = bad.get("lr", 0.1)
        with pytest.raises((ValueError, AttributeError),
                           match="lr" if "lr" in bad else "^parameter b: its "):
            if "grad" in bad:
                b.grad = bad["grad"]
            if "rebind" in bad:
                b.data = bad["rebind"]
            opt.step()
        assert opt.step_count == 1
        for x, before in zip((store.data, store.grad, opt.m, opt.v), state):
            assert x.tobytes() == before.tobytes()
        assert a.data.base is store.data and b.data.base is store.data
        assert b.grad.base is store.grad
