"""Fixture for R007 (unnamed-product-operand): parsed by the linter, never imported."""

import numpy as np


def bad_exp_right_operand(samples, cfo, n):
    return samples * np.exp(-2j * np.pi * cfo * n)  # expect: R007


def bad_conj_right_operand(samples, lag):
    return samples[:, lag:] * np.conj(samples[:, :-lag])  # expect: R007


def bad_conjugate_right_operand(a, b):
    return a * np.conjugate(b)  # expect: R007


def bad_subscripted_call(symbols, phases):
    return symbols * np.exp(-1j * phases)[..., None]  # expect: R007


def bad_nested_product(total, response, phase):
    total += response * np.exp(1j * phase)  # expect: R007
    return total


def named_operand_is_fine(samples, cfo, n):
    ramp = np.exp(-2j * np.pi * cfo * n)
    return samples * ramp


def left_operand_is_fine(samples, lag):
    return np.conj(samples[:, :-lag]) * samples[:, lag:]


def other_operators_are_fine(a, b):
    return a + np.exp(b), a / np.conj(b), a * np.abs(b)


def in_place_product_is_fine(samples, phases):
    samples *= np.exp(1j * phases)
    return samples


def suppressed_product(samples, phases):
    return samples * np.exp(1j * phases)  # repro-lint: disable=R007


def written_back_is_fine(samples, cfo, n):
    ramp = np.exp(-2j * np.pi * cfo * n)
    return np.multiply(samples, ramp, out=ramp)
