"""Tests for punctured (rate-matched) Viterbi decoding."""

import numpy as np
import pytest

from repro.datagen.packets import random_packet, transmit_bsc
from repro.exceptions import ProblemDefinitionError
from repro.ltdp.parallel import solve_parallel
from repro.ltdp.sequential import solve_sequential
from repro.ltdp.validation import validate_problem
from repro.problems.convolutional import (
    VOYAGER,
    PuncturedViterbiDecoderProblem,
    ViterbiDecoderProblem,
    puncture,
)

#: Standard rate-2/3 pattern for a rate-1/2 mother code: per two input
#: bits (4 output bits) transmit 3.
RATE_23 = np.array([True, True, True, False])


class TestPunctureUtility:
    def test_drops_marked_positions(self):
        enc = np.array([1, 0, 1, 1, 0, 1, 0, 0], dtype=np.uint8)
        out = puncture(enc, RATE_23)
        np.testing.assert_array_equal(out, [1, 0, 1, 0, 1, 0])

    def test_pattern_tiles_over_stream(self):
        enc = np.arange(10, dtype=np.uint8) % 2
        out = puncture(enc, np.array([True, False]))
        assert out.size == 5

    def test_all_false_pattern_rejected(self):
        with pytest.raises(ValueError):
            puncture(np.zeros(4, dtype=np.uint8), np.array([False, False]))


class TestPuncturedDecoding:
    def roundtrip(self, rng, error_rate=0.0, payload_bits=120):
        payload = random_packet(payload_bits, rng)
        encoded = VOYAGER.encode(payload)
        tx = puncture(encoded, RATE_23)
        rx = transmit_bsc(tx, rng, error_rate=error_rate) if error_rate else tx
        problem = PuncturedViterbiDecoderProblem(VOYAGER, rx, RATE_23)
        return payload, problem

    def test_noiseless_decode_recovers_payload(self, rng):
        payload, problem = self.roundtrip(rng)
        decoded = problem.extract(solve_sequential(problem))
        np.testing.assert_array_equal(decoded, payload)

    def test_noisy_decode_mostly_correct(self, rng):
        payload, problem = self.roundtrip(rng, error_rate=0.01)
        decoded = problem.extract(solve_sequential(problem))
        assert (decoded != payload).mean() < 0.05

    def test_punctured_worse_than_unpunctured_at_high_noise(self):
        """Rate matching trades redundancy for throughput."""
        rng = np.random.default_rng(3)
        punct_errors = full_errors = total = 0
        for _ in range(4):
            payload = random_packet(200, rng)
            encoded = VOYAGER.encode(payload)
            noisy_full = transmit_bsc(encoded, rng, error_rate=0.08)
            full_problem = ViterbiDecoderProblem(VOYAGER, noisy_full)
            tx = puncture(encoded, RATE_23)
            noisy_tx = transmit_bsc(tx, rng, error_rate=0.08)
            punct_problem = PuncturedViterbiDecoderProblem(VOYAGER, noisy_tx, RATE_23)
            full_dec = full_problem.extract(solve_sequential(full_problem))
            punct_dec = punct_problem.extract(solve_sequential(punct_problem))
            full_errors += int((full_dec != payload).sum())
            punct_errors += int((punct_dec != payload).sum())
            total += payload.size
        assert punct_errors >= full_errors

    def test_parallel_equals_sequential(self, rng):
        payload, problem = self.roundtrip(rng, error_rate=0.02)
        seq = solve_sequential(problem, use_kernels=False)
        par = solve_parallel(problem, num_procs=4)
        np.testing.assert_array_equal(seq.path, par.path)
        assert seq.score == par.score

    def test_is_valid_ltdp(self, rng):
        _, problem = self.roundtrip(rng, error_rate=0.02)
        assert validate_problem(problem, num_stage_samples=3).ok

    def test_incompatible_lengths_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            PuncturedViterbiDecoderProblem(
                VOYAGER, np.zeros(5, dtype=np.uint8), RATE_23
            )

    def test_bad_pattern_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            PuncturedViterbiDecoderProblem(
                VOYAGER, np.zeros(4, dtype=np.uint8), np.zeros(2, dtype=bool)
            )

    def test_edge_weight_matches_probe(self, rng):
        from repro.ltdp.parallel import edge_weight_by_probe

        _, problem = self.roundtrip(rng, error_rate=0.02, payload_bits=24)
        for j in (0, 21, 63):
            for k in (0, 42):
                assert problem.edge_weight(3, j, k) == edge_weight_by_probe(
                    problem, 3, j, k
                )
