"""Adam: the flat in-place update against a per-tensor reference, its
layout and sharding, and the values it refuses."""

import numpy as np
import pytest

import stpose.train
from stpose import optim
from stpose.checkpoint import restore_params
from stpose.config import RunConfig
from stpose.optim import ADAM_TILE, Adam
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


def twin_params(cfg):
    """Two copies of a model's parameter list: one for Adam, one for the
    reference."""
    params = list(build_model(cfg).named_params().values())
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


# the default model (111 tensors, none above a tile) and the coupled
# encoder with the iterative decoder, whose largest weight spans three tiles
MODELS = {"default": RunConfig(),
          "iterative": RunConfig(encoder="coupling", decoder="iterative", t_clip=16)}


class TestFlatUpdate:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("shards", ["helper", "inline"])
    def test_bits_equal_the_per_tensor_update(self, model, shards, inline_shards):
        params, twins = twin_params(MODELS[model])
        opt = Adam(params, lr=1e-3, betas=(0.9, 0.95))
        ref = PerTensorAdam(twins, lr=1e-3, betas=(0.9, 0.95))
        assert len(opt._shards) == 2
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
        params, twins = twin_params(MODELS["default"])
        opt = Adam(params)
        assert opt.flat.size == sum(p.size for p in params) == 158585
        for p, q in zip(params, twins):
            assert p.data.base is opt.flat
            assert p.data.tobytes() == q.data.tobytes()

    def test_rebound_and_restored_parameters_are_honoured(self):
        params, twins = twin_params(RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2))
        opt, ref = Adam(params, lr=1e-2), PerTensorAdam(twins, lr=1e-2)
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

    def test_three_step_training_matches_the_per_tensor_update(self, monkeypatch):
        cfg = RunConfig(blocks=1, d=16, heads=2, hw=4, t_clip=2, clips=2,
                        steps_stage1=1, steps_stage2=2)
        flat = train(cfg).history
        monkeypatch.setattr(stpose.train, "Adam", PerTensorAdam)
        assert train(cfg).history == flat


class TestGroups:
    @pytest.mark.parametrize("sizes", [[1], [ADAM_TILE], [ADAM_TILE + 1],
                                       [5, 3 * ADAM_TILE + 7, 2, ADAM_TILE - 2, 9],
                                       [ADAM_TILE // 2 + 1] * 5])
    def test_groups_cover_each_entry_once_in_order(self, sizes):
        groups = optim._tile_groups(sizes)
        pieces = [piece for group in groups for piece in group]
        ends = np.cumsum([0] + sizes)
        covered = [(a, b) for _, a, b in pieces]
        assert [a for a, _ in covered] == [0] + [b for _, b in covered[:-1]]
        assert covered[-1][1] == ends[-1]
        for i, a, b in pieces:
            assert ends[i] <= a < b <= ends[i + 1]
        for group in groups:
            assert group[-1][2] - group[0][1] <= ADAM_TILE

    def test_whole_parameters_share_a_group_until_it_is_full(self):
        groups = optim._tile_groups([ADAM_TILE // 2 + 1] * 3)
        assert [[i for i, _, _ in g] for g in groups] == [[0], [1], [2]]
        groups = optim._tile_groups([ADAM_TILE // 4] * 5)
        assert [[i for i, _, _ in g] for g in groups] == [[0, 1, 2, 3], [4]]

    def test_shards_split_at_the_boundary_nearest_the_middle(self):
        groups = optim._tile_groups([ADAM_TILE] * 3 + [10])
        assert [len(s) for s in optim._halves(groups)] == [2, 2]
        assert optim._halves(groups[:1]) == [groups[:1]]
        assert optim._halves([]) == []

    def test_empty_parameter_list_steps(self):
        opt = Adam([])
        opt.step()
        assert opt.step_count == 1


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
