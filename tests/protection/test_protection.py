"""Tests for watermarking, encryption, model extraction and its defences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import make_mlp
from repro.optimize import QuantizationConfig, quantize_model
from repro.protection import (
    ExtractionDetector,
    IntegrityError,
    ModelKeyManager,
    ProtectedModel,
    QueryBasedExtractor,
    StaticWatermarker,
    TriggerSetWatermarker,
    decrypt_blob,
    direct_theft,
    encrypt_blob,
    evaluate_robustness,
    get_poisoning,
    noisy_probabilities,
    reverse_sigmoid_poisoning,
    round_probabilities,
    top1_only,
)


class TestStaticWatermark:
    def test_embed_and_verify(self, trained_mlp, blobs):
        _, test = blobs
        wm = StaticWatermarker(message_bits=32, seed=1)
        marked, key = wm.embed(trained_mlp, owner="acme")
        result = wm.verify(marked, key)
        assert result["bit_error_rate"] == 0.0 and result["matched"] == 1.0
        # Fidelity: accuracy essentially unchanged.
        base_acc = trained_mlp.evaluate(test.x, test.y)["accuracy"]
        assert marked.evaluate(test.x, test.y)["accuracy"] >= base_acc - 0.02

    def test_unmarked_model_fails_verification(self, trained_mlp):
        wm = StaticWatermarker(message_bits=64, seed=2)
        _, key = wm.embed(trained_mlp, owner="acme")
        unrelated = make_mlp(12, 4, hidden=(32, 16), seed=42)
        result = wm.verify(unrelated, key)
        assert result["bit_error_rate"] > 0.25

    def test_watermark_survives_8bit_quantization(self, trained_mlp):
        wm = StaticWatermarker(message_bits=32, strength=0.1, seed=3)
        marked, key = wm.embed(trained_mlp, owner="acme")
        quantized = quantize_model(marked, QuantizationConfig(bits=8))
        assert wm.verify(quantized, key)["matched"] == 1.0

    def test_robustness_report_structure(self, trained_mlp, blobs):
        train, _ = blobs
        wm = StaticWatermarker(message_bits=16, seed=4)
        marked, key = wm.embed(trained_mlp, owner="acme")
        rows = evaluate_robustness(wm, marked, key, x_finetune=train.x[:100], y_finetune=train.y[:100], prune_sparsities=(0.5,), quant_bits=(8,), finetune_epochs=1)
        attacks = [r["attack"] for r in rows]
        assert attacks == ["none", "prune", "quantize", "finetune"]
        assert rows[0]["bit_error_rate"] == 0.0


class TestTriggerWatermark:
    def test_embed_verify_and_fidelity(self, trained_mlp, blobs):
        train, test = blobs
        wm = TriggerSetWatermarker(n_triggers=12, epochs=3, seed=5)
        marked, key = wm.embed(trained_mlp, train.x, train.y, num_classes=4, owner="acme")
        result = wm.verify(marked, key)
        assert result["matched"] == 1.0 and result["trigger_accuracy"] > 0.8
        assert marked.evaluate(test.x, test.y)["accuracy"] > 0.85

    def test_unrelated_model_near_chance_on_triggers(self, trained_mlp, blobs):
        train, _ = blobs
        wm = TriggerSetWatermarker(n_triggers=20, epochs=2, seed=6)
        _, key = wm.embed(trained_mlp, train.x, train.y, num_classes=4, owner="acme")
        stranger = make_mlp(12, 4, hidden=(16,), seed=99)
        result = wm.verify(stranger, key)
        assert result["matched"] == 0.0


class TestEncryption:
    def test_roundtrip(self):
        blob = encrypt_blob(b"model-weights", key=b"k" * 32, nonce=b"n" * 16)
        assert decrypt_blob(blob, b"k" * 32) == b"model-weights"

    def test_known_answer(self):
        """Fixed key, nonce and 100-byte plaintext pin the cipher's output
        (SHA-256 counter-mode keystream, XOR, HMAC-SHA-256 over nonce +
        ciphertext) byte for byte."""
        plaintext = bytes((7 * i + 3) % 256 for i in range(100))
        blob = encrypt_blob(plaintext, key=bytes(range(32)), nonce=bytes(range(100, 116)))
        assert blob.ciphertext.hex() == (
            "5e367eb1db279e8652af1e12fdbc3838a5adb46ab2746ee8c1dee52094bce201"
            "0f765a44d9aee7800d710405b1d056615e639538ee39aefda75cc4be81788481"
            "1244c713975bf8773d6fbc95b3c23b12ebf5d445f2fb2e56cda51880ea72512a"
            "9107d2f9"
        )
        assert blob.tag.hex() == "15a35f9b0d47710218806143d09099cd1c46909899af0538f1635a8b5440cf5e"

    def test_large_blob_roundtrip(self):
        plaintext = np.random.default_rng(0).bytes(300 * 1024)
        blob = encrypt_blob(plaintext, key=b"k" * 32, nonce=b"n" * 16)
        assert len(blob.ciphertext) == len(plaintext)
        assert decrypt_blob(blob, b"k" * 32) == plaintext
        assert encrypt_blob(b"", key=b"k" * 32).ciphertext == b""

    def test_ciphertext_differs_from_plaintext(self):
        blob = encrypt_blob(b"model-weights-123456", key=b"k" * 32)
        assert blob.ciphertext != b"model-weights-123456"

    def test_tamper_detected(self):
        blob = encrypt_blob(b"payload", key=b"secret")
        tampered = type(blob)(nonce=blob.nonce, ciphertext=blob.ciphertext[:-1] + b"X", tag=blob.tag)
        with pytest.raises(IntegrityError):
            decrypt_blob(tampered, b"secret")

    def test_wrong_key_detected(self):
        blob = encrypt_blob(b"payload", key=b"secret")
        with pytest.raises(IntegrityError):
            decrypt_blob(blob, b"other")

    def test_key_manager_per_device_keys_and_revocation(self, trained_mlp):
        km = ModelKeyManager()
        k1 = km.device_key("m", "dev-1")
        k2 = km.device_key("m", "dev-2")
        assert k1 != k2
        wrapped = km.wrap_model(trained_mlp.to_bytes(), "m", "dev-1")
        assert km.unwrap_model(wrapped, "m", "dev-1") == trained_mlp.to_bytes()
        km.revoke_device("dev-1")
        with pytest.raises(PermissionError):
            km.device_key("m", "dev-1")

    def test_direct_theft_blocked_by_encryption(self, trained_mlp):
        assert direct_theft(trained_mlp, encrypted=True) is None
        stolen = direct_theft(trained_mlp, encrypted=False)
        np.testing.assert_allclose(stolen.get_flat_weights(), trained_mlp.get_flat_weights())


class TestPoisoning:
    def test_all_poisons_preserve_argmax(self, trained_mlp, blobs):
        _, test = blobs
        probs = trained_mlp.predict_proba(test.x)
        for name in ("round", "top1", "noise", "reverse_sigmoid"):
            poisoned = get_poisoning(name)(probs)
            np.testing.assert_array_equal(poisoned.argmax(axis=1), probs.argmax(axis=1))
            np.testing.assert_allclose(poisoned.sum(axis=1), 1.0, atol=1e-6)

    def test_top1_removes_confidence_information(self, trained_mlp, blobs):
        _, test = blobs
        probs = trained_mlp.predict_proba(test.x[:50])
        flat = top1_only(probs)
        assert set(np.unique(flat)) <= {0.0, 1.0}

    def test_reverse_sigmoid_distorts_soft_outputs(self, rng):
        # Use moderately confident probabilities: on saturated (0/1) outputs the
        # perturbation is tiny by design, so we test the informative regime.
        from repro.nn.activations import softmax as _softmax

        probs = _softmax(rng.normal(size=(50, 4)), axis=-1)
        poisoned = reverse_sigmoid_poisoning(probs)
        assert np.mean(np.abs(poisoned - probs)) > 0.01
        np.testing.assert_array_equal(poisoned.argmax(axis=1), probs.argmax(axis=1))

    def test_unknown_poison(self):
        with pytest.raises(KeyError):
            get_poisoning("antidote")


class TestExtractionAndDetection:
    def test_extraction_succeeds_on_unprotected_model(self, trained_mlp, blobs):
        train, test = blobs
        extractor = QueryBasedExtractor(lambda: make_mlp(12, 4, hidden=(32, 16), seed=21), query_budget=1200, epochs=5, seed=0)
        exposed = ProtectedModel(trained_mlp, poisoning="none")
        result = extractor.run(lambda x: exposed.predict_logits(x, "attacker"), (12,), test.x, test.y, reference_x=train.x)
        assert result.agreement_with_victim > 0.85
        assert result.surrogate_accuracy > 0.8

    def test_top1_poisoning_with_tiny_budget_hurts_clone(self, trained_mlp, blobs):
        train, test = blobs
        def run(poison):
            extractor = QueryBasedExtractor(lambda: make_mlp(12, 4, hidden=(32, 16), seed=22), query_budget=60, epochs=5, seed=1)
            protected = ProtectedModel(trained_mlp, poisoning=poison)
            return extractor.run(lambda x: protected.predict_logits(x, "attacker"), (12,), test.x, test.y, reference_x=None)

        soft = run("none")
        hard = run("top1")
        assert hard.agreement_with_victim <= soft.agreement_with_victim + 0.05

    def test_poisoning_keeps_legitimate_accuracy(self, trained_mlp, blobs):
        _, test = blobs
        base_acc = trained_mlp.evaluate(test.x, test.y)["accuracy"]
        for name in ("round", "noise", "reverse_sigmoid"):
            protected = ProtectedModel(trained_mlp, poisoning=name)
            assert protected.accuracy(test.x, test.y) >= base_acc - 0.02

    def test_detector_flags_synthetic_queries_not_benign(self, trained_mlp, blobs, rng):
        train, test = blobs
        detector = ExtractionDetector(train.x, threshold=0.3, seed=0)
        attack_queries = rng.uniform(-3, 3, size=(128, 12))
        detector.observe("attacker", attack_queries)
        detector.observe("benign", test.x[:128])
        assert detector.check("attacker")
        assert not detector.check("benign")
        assert detector.flagged_clients() == ["attacker"]

    def test_protected_model_denies_flagged_clients(self, trained_mlp, blobs, rng):
        train, test = blobs
        detector = ExtractionDetector(train.x, threshold=0.3, seed=0)
        protected = ProtectedModel(trained_mlp, poisoning="none", detector=detector, deny_flagged=True)
        attack_queries = rng.uniform(-3, 3, size=(200, 12))
        out = protected.predict_proba(attack_queries, client_id="attacker")
        # After being flagged, outputs degrade to uniform for the attacker.
        assert np.allclose(out[-1], 0.25, atol=1e-6)
        benign_out = protected.predict_proba(test.x[:50], client_id="user")
        assert not np.allclose(benign_out[0], 0.25)
