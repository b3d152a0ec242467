"""Radix-2 Viterbi against a per-step ``argmax`` reference decoder.

``ConvolutionalCode.decode`` is a thin wrapper over ``decode_batch``, so
comparing the two checks nothing about the add-compare-select recursion
itself.  The reference below is the straightforward decoder the radix-2
implementation replaced: a gather of both predecessor metrics, per-branch
sign sums and ``argmax`` over the two candidates.  Decoded bits must be
identical on every input, including ties, erasures and NaN, and however
the bit-packed survivor decisions split into bytes and blocks of steps.
"""

import tracemalloc

import numpy as np
import pytest

from repro.phy.coding import convolutional
from repro.phy.coding.convolutional import ConvolutionalCode, get_code
from repro.phy.coding.puncturing import depuncture, puncture


def reference_decode(code, llrs, terminated=True, strip_tail=True):
    """Per-step argmax Viterbi over a ``(n_packets, n_llrs)`` batch."""
    llrs = np.asarray(llrs, dtype=np.float64)
    n_packets = llrs.shape[0]
    n_steps = llrs.shape[1] // code.n_outputs
    steps = llrs.reshape(n_packets, n_steps, code.n_outputs)
    n_states = code.n_states
    mask = n_states - 1
    states = np.arange(n_states)
    prev_states = np.stack([(states << 1) & mask, ((states << 1) & mask) | 1])
    prev_sign = 1.0 - 2.0 * code._prev_outputs.astype(np.float64)
    metrics = np.full((n_packets, n_states), -1e18)
    metrics[:, 0] = 0.0
    decisions = np.empty((n_steps, n_packets, n_states), dtype=np.uint8)
    for step in range(n_steps):
        step_llr = steps[:, step, :]
        branch = step_llr[:, 0, None, None] * prev_sign[None, :, :, 0]
        for o in range(1, code.n_outputs):
            branch = branch + step_llr[:, o, None, None] * prev_sign[None, :, :, o]
        candidate = metrics[:, prev_states] + branch
        best = np.argmax(candidate, axis=1).astype(np.uint8)
        metrics = np.take_along_axis(candidate, best[:, None, :], axis=1)[:, 0, :]
        decisions[step] = best
    state = np.zeros(n_packets, dtype=np.int64) if terminated else np.argmax(metrics, axis=1)
    rows = np.arange(n_packets)
    bits = np.empty((n_packets, n_steps), dtype=np.uint8)
    for step in range(n_steps - 1, -1, -1):
        bits[:, step] = code._entry_bit[state]
        state = prev_states[decisions[step, rows, state], state]
    if terminated and strip_tail:
        bits = bits[:, : max(n_steps - code.tail_bits, 0)]
    return bits


def _assert_matches(code, llrs, **kwargs):
    with np.errstate(invalid="ignore"):  # inf - inf in the path sums
        decoded = code.decode_batch(llrs, **kwargs)
        expected = reference_decode(code, llrs, **kwargs)
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, expected)
    return decoded


@pytest.fixture(scope="module")
def code():
    return get_code()


class TestViterbiOracle:
    def test_viterbi_noisy_random_llrs(self, code):
        rng = np.random.default_rng(11)
        info = rng.integers(0, 2, (9, 150)).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info).astype(float)
        llrs += rng.normal(0, 1.2, llrs.shape)
        _assert_matches(code, llrs)
        _assert_matches(code, rng.normal(0, 3, (5, 2 * 90)))

    def test_viterbi_all_zero_llrs_tie_everywhere(self, code):
        _assert_matches(code, np.zeros((3, 2 * 40)))
        _assert_matches(code, np.zeros((2, 2 * 40)), terminated=False)

    def test_viterbi_integer_llrs_with_many_ties(self, code):
        rng = np.random.default_rng(12)
        _assert_matches(code, rng.integers(-2, 3, (6, 2 * 70)).astype(float))

    @pytest.mark.parametrize("rate", ["2/3", "3/4"])
    def test_viterbi_depunctured_streams_with_erasures(self, code, rate):
        rng = np.random.default_rng(13)
        info = rng.integers(0, 2, (4, 108)).astype(np.uint8)
        coded = code.encode(info)
        punctured = 1.0 - 2.0 * puncture(coded, rate).astype(float)
        punctured += rng.normal(0, 0.8, punctured.shape)
        llrs = depuncture(punctured, rate, coded.shape[1])
        assert np.count_nonzero(llrs == 0.0) > 0
        _assert_matches(code, llrs)

    def test_viterbi_unterminated(self, code):
        rng = np.random.default_rng(14)
        info = rng.integers(0, 2, (5, 64)).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info, terminate=False).astype(float)
        llrs += rng.normal(0, 1.0, llrs.shape)
        _assert_matches(code, llrs, terminated=False)
        _assert_matches(code, llrs, terminated=True, strip_tail=False)

    @pytest.mark.parametrize(
        "constraint_length, polynomials",
        [(3, (0o5, 0o7)), (7, (0o133, 0o171, 0o165)), (5, (0o23, 0o35))],
    )
    def test_viterbi_other_codes(self, constraint_length, polynomials):
        other = ConvolutionalCode(constraint_length, polynomials)
        rng = np.random.default_rng(15)
        info = rng.integers(0, 2, (4, 50)).astype(np.uint8)
        llrs = 1.0 - 2.0 * other.encode(info).astype(float)
        assert np.array_equal(_assert_matches(other, llrs), info)
        llrs += rng.normal(0, 1.0, llrs.shape)
        _assert_matches(other, llrs)
        _assert_matches(other, rng.normal(0, 1, llrs.shape), terminated=False)

    def test_viterbi_chunked_batch(self, code, monkeypatch):
        rng = np.random.default_rng(16)
        llrs = rng.normal(0, 2, (7, 2 * 30))
        expected = reference_decode(code, llrs)
        # 30 steps x 64 states per packet: a cap of 2 packets forces 4 chunks.
        monkeypatch.setattr(convolutional, "_DECODE_CHUNK_ELEMS", 2 * 30 * code.n_states)
        assert np.array_equal(code.decode_batch(llrs), expected)

    def test_viterbi_branch_table_blocks(self, code, monkeypatch):
        rng = np.random.default_rng(17)
        llrs = rng.normal(0, 2, (3, 2 * 45))
        monkeypatch.setattr(convolutional, "_TABLE_STEPS", 7)
        _assert_matches(code, llrs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_viterbi_row_with_non_finite_llr(self, code, bad):
        rng = np.random.default_rng(18)
        llrs = rng.normal(0, 1, (4, 2 * 40))
        llrs[1, 17] = bad
        llrs[2, 3] = -bad if not np.isnan(bad) else bad
        _assert_matches(code, llrs)
        _assert_matches(code, llrs, terminated=False)

    def test_viterbi_opposite_infinities_in_one_row(self, code):
        # +inf and -inf branch metrics meet in a later step's sums, so some
        # second candidates are NaN while first ones are not: argmax picks
        # the NaN there, and so must the radix-2 compare.
        rng = np.random.default_rng(20)
        for _ in range(20):
            llrs = rng.normal(0, 1, (4, 2 * 40))
            for _ in range(4):
                llrs[rng.integers(0, 4), rng.integers(0, 80)] = rng.choice([np.inf, -np.inf])
            _assert_matches(code, llrs)
            _assert_matches(code, llrs, terminated=False)

    def test_viterbi_huge_llrs_take_the_guarded_path(self, code):
        rng = np.random.default_rng(19)
        _assert_matches(code, rng.normal(0, 1, (3, 2 * 30)) * 1e306)


class TestViterbiPackedDecisions:
    """The survivor decisions are bit-packed along the packet axis, eight
    packets to a byte, one block of ``_TABLE_STEPS`` steps at a time."""

    @pytest.mark.parametrize("n_packets", [1, 7, 9, 124])
    @pytest.mark.parametrize("n_steps", [37, 100, 130])
    def test_viterbi_packed_packet_and_step_counts(self, code, n_packets, n_steps):
        # Packet counts that leave a partial byte and step counts that leave
        # a partial block of steps.
        assert n_steps % convolutional._TABLE_STEPS != 0
        rng = np.random.default_rng(100 * n_packets + n_steps)
        info = rng.integers(0, 2, (n_packets, n_steps - code.tail_bits)).astype(np.uint8)
        llrs = 1.0 - 2.0 * code.encode(info).astype(float)
        llrs += rng.normal(0, 1.2, llrs.shape)
        _assert_matches(code, llrs)
        _assert_matches(code, llrs, terminated=False)

    @pytest.mark.parametrize("n_packets", [1, 7, 9])
    def test_viterbi_packed_four_state_code(self, n_packets):
        k3 = ConvolutionalCode(3, (0o5, 0o7))
        assert k3.n_states == 4
        rng = np.random.default_rng(30 + n_packets)
        info = rng.integers(0, 2, (n_packets, 75)).astype(np.uint8)
        llrs = 1.0 - 2.0 * k3.encode(info).astype(float)
        assert np.array_equal(_assert_matches(k3, llrs), info)
        llrs += rng.normal(0, 1.0, llrs.shape)
        _assert_matches(k3, llrs)
        _assert_matches(k3, llrs, terminated=False, strip_tail=False)

    @pytest.mark.parametrize("n_packets", [7, 9])
    def test_viterbi_packed_ties_and_nan(self, code, n_packets):
        rng = np.random.default_rng(40 + n_packets)
        ties = rng.integers(-1, 2, (n_packets, 2 * 70)).astype(float)
        ties[0] = 0.0
        _assert_matches(code, ties)
        _assert_matches(code, ties, terminated=False)
        nan_rows = rng.normal(0, 1, (n_packets, 2 * 70))
        nan_rows[n_packets - 1, 5] = np.nan
        nan_rows[1, 2 * 66] = np.nan
        nan_rows[2, 9] = np.inf
        _assert_matches(code, nan_rows)
        _assert_matches(code, nan_rows, terminated=False)

    def test_viterbi_packed_decisions_bound_the_pass(self, code):
        # Fig. 13's full Viterbi chunk: 124 frames of 528 trellis steps,
        # whose one-byte decisions alone used to take 4 MiB.
        n_packets, n_steps = 124, 528
        assert code.chunk_rows(2 * n_steps) == n_packets
        rng = np.random.default_rng(50)
        llrs = rng.normal(0, 1, (n_packets, 2 * n_steps))
        code.decode_batch(llrs[:1])
        tracemalloc.start()
        try:
            code.decode_batch(llrs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_steps * code.n_states * n_packets // 2


class TestGetCode:
    def test_get_code_accepts_a_list_of_polynomials(self):
        code = get_code(7, [0o133, 0o171])
        assert code is get_code(7, (0o133, 0o171))
        assert code.polynomials == (0o133, 0o171)

    def test_get_code_spellings_share_one_instance(self):
        default = get_code()
        assert get_code(7, (0o133, 0o171)) is default
        assert get_code(polynomials=(0o133, 0o171)) is default
        assert get_code(constraint_length=7) is default
        assert get_code(5, [0o23, 0o35]) is get_code(polynomials=(0o23, 0o35), constraint_length=5)
