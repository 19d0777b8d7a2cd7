"""Training harness: split, optimizer, loop determinism, evaluation,
embedding export. Full runs here use tiny grids so the suite stays fast."""

import numpy as np
import pytest

from eegfpn import train as trainer
from eegfpn.config import RunConfig
from eegfpn.errors import ConfigError, NumericError, ShapeError
from eegfpn.model import (
    init_model, model_backward, model_forward, pack_params, param_segments, unpack_params,
)
from eegfpn.signals import Epoch, generate_synthetic
from traced_memory import traced_peak_mib


def tiny_config(**overrides):
    base = dict(ch=4, t=32, e1=16, e2=8, z=4, h=4, k=2,
                nsdru_hidden_channels=4, batch_size=8, max_epochs=2,
                learning_rate=1e-3, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def tiny_dataset(n_per_class=10, seed=0, fs=128.0):
    return generate_synthetic(
        n_per_class=n_per_class, ch=4, t=32, sampling_rate=fs, snr_db=10.0, seed=seed
    )


class TestSplit:
    def test_ratio_and_disjointness(self):
        labels = np.array([0] * 40 + [1] * 40)
        rng = np.random.default_rng(0)
        tr, va = trainer.stratified_split(labels, 0.8, rng)
        assert tr.size == 64 and va.size == 16
        assert np.intersect1d(tr, va).size == 0
        combined = np.sort(np.concatenate([tr, va]))
        np.testing.assert_array_equal(combined, np.arange(80))

    def test_per_class_ratio(self):
        labels = np.array([0] * 30 + [1] * 10)
        tr, va = trainer.stratified_split(labels, 0.8, np.random.default_rng(1))
        assert np.sum(labels[tr] == 0) == 24 and np.sum(labels[tr] == 1) == 8

    def test_small_class_keeps_one_each_side(self):
        labels = np.array([0, 0, 0, 0, 1, 1])
        tr, va = trainer.stratified_split(labels, 0.9, np.random.default_rng(2))
        assert np.sum(labels[tr] == 1) == 1 and np.sum(labels[va] == 1) == 1

    def test_seeded_shuffle_repeats(self):
        labels = np.array([0, 1] * 20)
        a = trainer.stratified_split(labels, 0.75, np.random.default_rng(7))
        b = trainer.stratified_split(labels, 0.75, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def _reference_adam(arrays, moments, grads, t, lr, beta1, beta2, epsilon):
    """The per-segment Adam loop the flat update replaced, kept as the
    bitwise reference: plain elementwise expressions over each array."""
    for arr, (m, v), g in zip(arrays, moments, grads):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + epsilon)


class TestAdam:
    def _setup(self, seed=0):
        config = tiny_config()
        params = init_model(config, config.ch, config.t, seed=seed)
        rows = np.random.default_rng(seed).uniform(size=(4, config.d))
        labels = np.array([0, 1, 0, 1])
        trace = model_forward(rows, config.ch, config.t, params)
        grads = model_backward(trace, labels, params, config.lambda_recon)
        return config, pack_params(params), grads

    def test_zero_grad_is_noop(self):
        config, theta, grads = self._setup()
        for _, g in param_segments(grads):
            g[...] = 0.0
        before = theta.copy()
        trainer.adam_step(theta, grads, trainer.init_adam(theta.size),
                          config.learning_rate, config.beta1, config.beta2,
                          config.adam_epsilon)
        np.testing.assert_array_equal(theta, before)

    def test_first_step_size_bounded_by_lr(self):
        # With bias correction the first update is lr * g/(|g| + eps) <= lr.
        config, theta, grads = self._setup()
        before = theta.copy()
        trainer.adam_step(theta, grads, trainer.init_adam(theta.size),
                          1e-3, config.beta1, config.beta2, config.adam_epsilon)
        delta = np.abs(theta - before)
        assert delta.max() <= 1e-3 + 1e-12
        assert delta.max() > 0.0

    def test_updates_deterministic(self):
        outs = []
        for _ in range(2):
            config, theta, grads = self._setup(seed=3)
            state = trainer.init_adam(theta.size)
            for _ in range(3):
                trainer.adam_step(theta, grads, state, 1e-3,
                                  config.beta1, config.beta2, config.adam_epsilon)
            outs.append(theta)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_flat_update_bitwise_equals_per_segment_loop(self):
        # Varying gradients over many steps, so the moments, the bias
        # correction and the scratch reuse all take part.
        config, theta, grads = self._setup(seed=2)
        arrays = [arr.copy() for _, arr in param_segments(unpack_params(theta, grads))]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        state = trainer.init_adam(theta.size)
        rng = np.random.default_rng(5)
        step = (3e-3, config.beta1, config.beta2, config.adam_epsilon)
        for t in range(1, 61):
            for _, g in param_segments(grads):
                g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=g.shape)
            trainer.adam_step(theta, grads, state, *step)
            _reference_adam(arrays, moments,
                            [g for _, g in param_segments(grads)], t, *step)
        assert state.step == 60
        assert theta.tobytes() == np.concatenate([a.ravel() for a in arrays]).tobytes()
        for flat, i in ((state.m, 0), (state.v, 1)):
            want = np.concatenate([pair[i].ravel() for pair in moments])
            assert flat.tobytes() == want.tobytes()

    def _assert_bad_step_changes_nothing(self, spoil, error, match):
        config, theta, grads = self._setup(seed=1)
        state = trainer.init_adam(theta.size)
        step = (config.learning_rate, config.beta1, config.beta2, config.adam_epsilon)
        trainer.adam_step(theta, grads, state, *step)
        before = [theta.copy(), state.m.copy(), state.v.copy()]
        spoil(grads)
        with pytest.raises(error, match=match):
            trainer.adam_step(theta, grads, state, *step)
        assert state.step == 1
        for now, want in zip((theta, state.m, state.v), before):
            np.testing.assert_array_equal(now, want)

    def test_wrong_last_gradient_shape_changes_nothing(self):
        def spoil(grads):
            grads.head.b = np.zeros(grads.head.b.size + 1)
        self._assert_bad_step_changes_nothing(spoil, ShapeError, "entries")

    def test_non_finite_gradient_changes_nothing(self):
        def spoil(grads):
            grads.nsdru.conv2_w[0, 0, 1, 1] = np.inf
            grads.head.w[0, 0] = np.nan
        self._assert_bad_step_changes_nothing(spoil, NumericError, "'nsdru.conv2_w'")


class TestPreprocess:
    def test_shapes_and_range(self):
        config = tiny_config()
        rows, labels, ch, t = trainer.preprocess(tiny_dataset(), config)
        assert rows.shape == (20, config.d) and (ch, t) == (4, 32)
        assert rows.min() >= 0.0 and rows.max() <= 1.0
        assert sorted(np.unique(labels)) == [0, 1]

    def test_stacked_equals_each_epoch_alone(self):
        # The filter and the scaling run once over the whole stacked
        # dataset; each epoch's row must come out as if it ran alone.
        config = tiny_config()
        data = tiny_dataset()
        data[3].samples[1] = 0.0  # stays zero through the filter: zero range
        rows, labels, _, _ = trainer.preprocess(data, config)
        for i, ep in enumerate(data):
            alone, label, _, _ = trainer.preprocess([ep], config)
            assert alone[0].tobytes() == rows[i].tobytes()
            assert label[0] == labels[i]

    def test_mixed_sampling_rate_rejected(self):
        data = tiny_dataset()
        bad = Epoch(samples=data[0].samples, label=0, sampling_rate=999.0)
        with pytest.raises(ConfigError, match="999"):
            trainer.preprocess(data + [bad], tiny_config())

    def test_mixed_grid_rejected(self):
        data = tiny_dataset()
        bad = Epoch(samples=np.zeros((4, 64), dtype=np.float32), label=0,
                    sampling_rate=128.0)
        with pytest.raises(ShapeError):
            trainer.preprocess(data + [bad], tiny_config())

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            trainer.preprocess([], tiny_config())


class TestTrainLoop:
    def test_single_class_rejected(self):
        data = [ep for ep in tiny_dataset() if ep.label == 0]
        with pytest.raises(ConfigError, match="both classes"):
            trainer.train(tiny_config(), data)

    def test_deterministic_end_to_end(self):
        config = tiny_config(max_epochs=3)
        data = tiny_dataset()
        a = trainer.train(config, data)
        b = trainer.train(config, data)
        np.testing.assert_array_equal(pack_params(a.params), pack_params(b.params))
        assert a.history.csv() == b.history.csv()
        assert a.best_epoch == b.best_epoch

    def test_seed_changes_run(self):
        data = tiny_dataset()
        a = trainer.train(tiny_config(max_epochs=1, seed=0), data)
        b = trainer.train(tiny_config(max_epochs=1, seed=1), data)
        assert not np.array_equal(pack_params(a.params), pack_params(b.params))

    def test_best_checkpoint_is_max_accuracy_earliest_tie(self):
        result = trainer.train(tiny_config(max_epochs=4), tiny_dataset())
        accs = result.history.val_accuracy
        assert result.best_val_accuracy == max(accs)
        assert result.best_epoch == accs.index(max(accs)) + 1

    def test_history_lengths_match_epochs(self):
        config = tiny_config(max_epochs=3)
        result = trainer.train(config, tiny_dataset())
        assert len(result.history.train_loss) == 3
        assert len(result.history.val_loss) == 3
        csv = result.history.csv().splitlines()
        assert csv[0] == trainer.HISTORY_CSV_HEADER
        assert len(csv) == 4 and csv[1].startswith("1,")


class TestLearningBehavior:
    def test_converged_run_fits_training_set(self):
        # At 20 dB the tone classes are nearly noiseless, so a converged
        # model should also classify its own training data.
        config = tiny_config(max_epochs=60)
        data = generate_synthetic(n_per_class=40, ch=4, t=32,
                                  sampling_rate=128.0, snr_db=20.0, seed=1)
        result = trainer.train(config, data)
        assert result.best_val_accuracy == 1.0
        [(_, metrics)] = trainer.evaluate_by_subject(result.params, data, config)
        assert metrics.accuracy >= 0.98
        # Overfitting smoke bound: train and validation loss stay close.
        gap = abs(result.history.train_loss[-1] - result.history.val_loss[-1])
        assert gap < 0.5

    def test_train_loss_trend_early_epochs(self):
        # The joint objective should not climb while warming up; one
        # wobbling seed in five is tolerated.
        data = generate_synthetic(n_per_class=24, ch=4, t=32,
                                  sampling_rate=128.0, snr_db=10.0, seed=1)
        non_increasing = 0
        for seed in range(5):
            result = trainer.train(tiny_config(seed=seed, max_epochs=5), data)
            tl = result.history.train_loss
            if all(tl[i + 1] <= tl[i] for i in range(4)):
                non_increasing += 1
        assert non_increasing >= 4


class TestEvaluation:
    def test_untrained_zero_head_predicts_class_zero(self):
        # Zeroing the head makes both logits equal; the tie rule picks 0,
        # so accuracy equals the class-0 prevalence.
        config = tiny_config()
        data = tiny_dataset(n_per_class=5)
        params = init_model(config, config.ch, config.t, seed=0)
        params.head.w[...] = 0.0
        params.head.b[...] = 0.0
        [(_, metrics)] = trainer.evaluate_by_subject(params, data, config)
        assert metrics.accuracy == pytest.approx(0.5)

    def test_checkpoint_width_mismatch_named(self):
        config = tiny_config()
        params = init_model(config, config.ch, 2 * config.t, seed=0)
        with pytest.raises(ShapeError, match="width"):
            trainer.evaluate_by_subject(params, tiny_dataset(), config)

    def test_by_subject_sorted_and_complete(self):
        config = tiny_config()
        data = tiny_dataset(n_per_class=4)
        for i, ep in enumerate(data):
            ep.subject_id = f"s{i % 2}"
        params = init_model(config, config.ch, config.t, seed=0)
        rows = trainer.evaluate_by_subject(params, data, config)
        assert [subject for subject, _ in rows] == ["s0", "s1"]


class TestExport:
    def test_raw_export_width(self):
        config = tiny_config()
        data = tiny_dataset(n_per_class=3)
        params = init_model(config, config.ch, config.t, seed=0)
        text = trainer.export_embeddings(params, data, "raw", config)
        lines = text.strip().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == config.d + 1 for line in lines)

    def test_latent_export_width(self):
        config = tiny_config()
        data = tiny_dataset(n_per_class=3)
        params = init_model(config, config.ch, config.t, seed=0)
        text = trainer.export_embeddings(params, data, "latent", config)
        lines = text.strip().splitlines()
        assert all(len(line.split(",")) == config.h + 1 for line in lines)
        labels = [line.split(",")[0] for line in lines]
        assert labels == ["0", "0", "0", "1", "1", "1"]

    def test_unknown_stage_rejected(self):
        config = tiny_config()
        params = init_model(config, config.ch, config.t, seed=0)
        with pytest.raises(ConfigError):
            trainer.export_embeddings(params, tiny_dataset(), "logits", config)


class TestBatchMemory:
    """Forward-only loops keep only each batch's argmax, loss or aggregate,
    so a second batch of 64 does not add a whole batch's activations to
    the peak. The grid makes the reducer's activations dominate."""

    @pytest.mark.parametrize("entry", ["predict_rows", "dataset_loss", "export_latent"])
    def test_two_batches_peak_like_one(self, entry):
        config = RunConfig(ch=8, t=64, e1=16, e2=8, z=4, h=4, k=2,
                           nsdru_hidden_channels=32)
        params = init_model(config, config.ch, config.t, seed=0)

        def peak(n_per_class):
            data = generate_synthetic(n_per_class=n_per_class, ch=8, t=64,
                                      sampling_rate=128.0, snr_db=10.0, seed=0)
            rows, labels, ch, t = trainer.preprocess(data, config)
            return traced_peak_mib({
                "predict_rows": lambda: trainer.predict_rows(rows, ch, t, params, config),
                "dataset_loss": lambda: trainer._dataset_loss_and_accuracy(
                    rows, labels, ch, t, params, config),
                "export_latent": lambda: trainer.export_embeddings(
                    params, data, "latent", config),
            }[entry])

        one, two = peak(32), peak(64)
        assert two < 1.05 * one, f"one batch {one:.2f} MiB, two batches {two:.2f} MiB"

    def test_training_steps_do_not_overlap(self):
        # At the default config a pass of two steps peaks like a pass of
        # one: no step's trace or gradients are alive during the next
        # step's forward.
        config = RunConfig(max_epochs=1, batch_size=16)

        def peak(n_per_class):
            data = generate_synthetic(n_per_class=n_per_class, ch=config.ch, t=config.t,
                                      sampling_rate=250.0, snr_db=10.0, seed=0)
            return traced_peak_mib(lambda: trainer.train(config, data))

        one, two = peak(10), peak(20)
        assert two < 1.05 * one, f"one step {one:.2f} MiB, two steps {two:.2f} MiB"
