"""Prediction head and metrics, checked against closed forms and a
direct-count reference."""

import numpy as np
import pytest

from eegfpn import head
from eegfpn.errors import ShapeError
from eegfpn.model import init_params
from eegfpn.ops import softmax

LN2 = 0.6931471805599453
CLAMPED_CE = 27.631021115928547  # -ln(1e-12)


class TestLogits:
    def test_bias_passthrough(self):
        p = head.HeadParams(w=np.zeros((2, 4)), b=np.array([1.0, -1.0]))
        np.testing.assert_array_equal(head.logits(np.ones((1, 4)), p), [[1.0, -1.0]])

    def test_zero_features_give_bias(self):
        p = init_params(head.head_shapes(6), seed=0)
        np.testing.assert_array_equal(head.logits(np.zeros((1, 6)), p), p.b[None])

    def test_linearity(self):
        p = init_params(head.head_shapes(5), seed=1)
        x = np.random.default_rng(1).normal(size=(1, 5))
        single = head.logits(x, p) - p.b
        double = head.logits(2.0 * x, p) - p.b
        np.testing.assert_allclose(double, 2.0 * single, atol=1e-12)

    def test_batch_shape(self):
        p = init_params(head.head_shapes(3), seed=2)
        out = head.logits(np.zeros((7, 3)), p)
        assert out.shape == (7, 2)

    def test_width_mismatch(self):
        p = init_params(head.head_shapes(3), seed=0)
        with pytest.raises(ShapeError):
            head.logits(np.zeros((1, 4)), p)


class TestPredict:
    """The program predicts argmax(softmax(logits)) row by row
    (`train.predict_rows`)."""

    def test_tie_goes_to_class_zero(self):
        probs = softmax(np.zeros((1, 2)), axis=-1)
        np.testing.assert_array_equal(probs, [[0.5, 0.5]])
        assert np.argmax(probs, axis=-1).tolist() == [0]

    def test_log3_example(self):
        probs = softmax(np.array([[np.log(3.0), 0.0]]), axis=-1)
        np.testing.assert_allclose(probs, [[0.75, 0.25]], atol=1e-15)
        assert np.argmax(probs, axis=-1).tolist() == [0]

    def test_argmax_consistent_with_logits(self):
        z = np.random.default_rng(3).normal(scale=5.0, size=(300, 2))
        probs = softmax(z, axis=-1)
        np.testing.assert_array_equal(np.argmax(probs, axis=-1), np.argmax(z, axis=-1))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_gives_ln2(self):
        out = head.cross_entropy(np.array([[0.5, 0.5], [0.5, 0.5]]), [0, 1])
        np.testing.assert_allclose(out, [LN2, LN2], atol=1e-15)

    def test_confident_correct_is_near_zero(self):
        out = head.cross_entropy(np.array([[1.0 - 1e-12, 1e-12]]), [0])
        np.testing.assert_allclose(out, [0.0], atol=1e-11)

    def test_zero_probability_clamped(self):
        out = head.cross_entropy(np.array([[0.0, 1.0]]), [0])
        np.testing.assert_allclose(out, [CLAMPED_CE], rtol=1e-12)

    def test_batched(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = head.cross_entropy(probs, [0, 1])
        np.testing.assert_allclose(out, [LN2, -np.log(0.75)], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            head.cross_entropy(np.array([[0.5, 0.5]]), [0, 1])


class TestConfusion:
    def test_perfect(self):
        assert head.confusion([1, 1, 0, 0], [1, 1, 0, 0]) == (2, 0, 2, 0)

    def test_inversion_swaps_counts(self):
        labels = [1, 0, 1, 1, 0]
        preds = [1, 0, 0, 1, 1]
        tp, fp, tn, fn = head.confusion(preds, labels)
        itp, ifp, itn, ifn = head.confusion([1 - p for p in preds], [1 - y for y in labels])
        assert (itp, ifp, itn, ifn) == (tn, fn, tp, fp)

    def test_all_wrong(self):
        assert head.confusion([1, 0], [0, 1]) == (0, 1, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            head.confusion([0, 1], [0])


class TestMetrics:
    def test_perfect_classifier(self):
        m = head.compute_metrics(3, 0, 4, 0)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_no_positive_predictions_precision_zero(self):
        m = head.compute_metrics(0, 0, 5, 3)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0

    def test_accuracy_is_integer_ratio(self):
        m = head.compute_metrics(2, 1, 3, 2)
        assert m.accuracy == (2 + 3) / 8

    def test_f1_closed_form(self):
        assert head.f1_score(0.791, 0.953) == pytest.approx(0.8645, abs=5e-4)

    def test_f1_harmonic_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p, r = rng.uniform(0.01, 1.0, size=2)
            f1 = head.f1_score(p, r)
            assert min(p, r) <= f1 <= max(p, r) + 1e-15

    def test_matches_direct_count_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            preds = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            m = head.compute_metrics(*head.confusion(preds, labels))
            # Independent reference: straight Python counting.
            tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
            fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
            tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
            fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
            assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)
            assert m.accuracy == (tp + tn) / n
            if tp + fp > 0:
                assert m.precision == tp / (tp + fp)
            if tp + fn > 0:
                assert m.recall == tp / (tp + fn)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            head.compute_metrics(0, 0, 0, 0)

    def test_csv_row_format(self):
        m = head.compute_metrics(2, 1, 3, 2)
        row = head.metrics_csv_row("sub01", m)
        parts = row.split(",")
        assert parts[0] == "sub01"
        assert len(parts) == 5
        assert parts[1] == "0.625000"
        assert head.METRICS_CSV_HEADER == "subject_id,accuracy,precision,recall,f1"
