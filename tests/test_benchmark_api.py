"""The benchmark in perfbench/ rebinds normaug functions by name and calls the
public API in fixed ways; every name it traces must exist and every call it
makes must work, so a rename or a signature change fails here and not only
in the benchmark."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from helpers import tiny_model
from normaug import datagen, training
from normaug import model as model_mod
from normaug import normbank as nb
from normaug import tensor as T
from normaug.tensor import Tensor

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def bound():
        return [inspect.getattr_static(tracer._resolve(path), attr)
                for path, attr, _ in tracer.TARGETS]

    originals = bound()
    t = tracer.Tracer()
    try:
        t.install()
        assert all(now is not was for now, was in zip(bound(), originals))
    finally:
        t.restore()
    assert all(now is was for now, was in zip(bound(), originals))


def test_checkpoint_forwards_as_the_benchmark_calls_them(tmp_path):
    """`perfbench/run.py` reloads a checkpoint as three values and compares
    the eval-mode main and sub-path forwards of both models by `.data`."""
    saved = tiny_model(seed=3)
    path = tmp_path / "model.ckpt"
    model_mod.save_checkpoint(saved, path)
    reloaded, epoch, _ = model_mod.load_checkpoint(path)
    assert epoch == 0
    x = np.random.default_rng(0).standard_normal((7, 6))
    with T.no_grad():
        outs = [(m.forward_main(x, mode="eval")[0].data,
                 [m.forward_subpath(x, s, mode="eval").data for s in m.banks[0].subsets()])
                for m in (saved, reloaded)]
    (main_a, subs_a), (main_b, subs_b) = outs
    assert main_a.shape == (7, 3) and np.array_equal(main_a, main_b)
    assert len(subs_a) == len(subs_b) == len(saved.banks[0].subsets())
    assert all(np.array_equal(a, b) for a, b in zip(subs_a, subs_b))


def test_normalization_sites_take_positional_arguments():
    """The traced normalization functions, called positionally (all three
    are train-mode only)."""
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    ids = np.repeat([0, 1, 2], 2)
    assert nb.bn_forward(nb.BNUnit(4), x, None, "train").shape == (6, 4)
    assert nb.on_forward(nb.ONUnit(4), x, "train").shape == (6, 4)
    out = nb.partitioned_forward(nb.BNBank(3, 4), nb.all_singletons(3), x, ids, "train")
    assert out.shape == (6, 4)


def test_train_looks_up_the_timed_names_at_call_time(monkeypatch):
    """perfbench times `train_step` (its `op_ms_*`), `two_path_loss`,
    `EpochSampler.next_batch` and `SGD.step` by rebinding them; `train`
    must reach each rebound name once per iteration."""
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((training, "train_step"), (training, "two_path_loss"),
                        (training.EpochSampler, "next_batch"), (training.SGD, "step")):
        counting(owner, name)
    ds, _ = datagen.generate(num_classes=3, num_domains=4, per_cell=12, feature_dim=6, seed=0)
    config = training.TrainConfig(epochs=2, iters_per_epoch=3, batch_per_domain=4)
    training.train(tiny_model(seed=1), ds, 3, config)
    assert counts == dict.fromkeys(counts, config.epochs * config.iters_per_epoch)
